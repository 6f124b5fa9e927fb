//! Open-loop session arrival with per-shard admission control.
//!
//! The seed RUBiS model is closed-loop: a fixed client population cycles
//! request → think → request, so offered load is bounded by the
//! population. Fleet scale inverts that: sessions arrive open-loop
//! (Poisson) at rates far beyond what one shard can hold, and a
//! per-shard **admission cap** bounds how many run concurrently — the
//! rest are rejected at the door (an M/G/c/c loss system). The fleet
//! controller's job is to move cap between shards so rejections land
//! where capacity is, which is exactly the Tune vocabulary at node
//! scale.
//!
//! The simulation here is intentionally lightweight — it prices
//! admission, not request service. Admitted sessions are handed to the
//! platform as an *effective concurrency* (see
//! [`AdmissionStats::mean_active`]); the platform then simulates that
//! many closed-loop clients in full detail. This keeps the per-shard
//! event budget proportional to *admitted* work while offered load
//! scales 100×–1000×.

use simcore::{Nanos, SimRng};
use std::collections::BinaryHeap;

/// Offered load for one shard: open-loop session arrivals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionLoad {
    /// Mean session arrival rate (sessions per second, Poisson).
    pub arrivals_per_sec: f64,
    /// Mean session residence time (seconds, exponential).
    pub mean_session_secs: f64,
}

impl SessionLoad {
    /// Offered concurrency in Erlangs (`λ · E[S]`): the concurrent
    /// session count an uncapped shard would settle at.
    pub fn erlangs(&self) -> f64 {
        self.arrivals_per_sec * self.mean_session_secs
    }
}

/// What happened at one shard's admission door over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AdmissionStats {
    /// Sessions that arrived.
    pub offered: u64,
    /// Sessions admitted (active count was below the cap).
    pub admitted: u64,
    /// Sessions rejected at the door.
    pub rejected: u64,
    /// Highest concurrent active count observed.
    pub peak_active: u32,
    /// Time-weighted mean concurrent active count.
    pub mean_active: f64,
}

impl AdmissionStats {
    /// Fraction of offered sessions rejected.
    pub fn loss_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.rejected as f64 / self.offered as f64
        }
    }
}

/// Simulates one shard's admission door for `duration`: Poisson session
/// arrivals at `load.arrivals_per_sec`, exponential residence times,
/// admit while fewer than `cap` sessions are active.
///
/// Deterministic: all randomness comes from `seed`, and the event loop
/// (arrival interleaved with departures via a min-heap on time) is a
/// pure function of it. Two shards with different seeds draw disjoint
/// streams; the same seed replays bit-identically.
pub fn simulate_admission(
    load: SessionLoad,
    cap: u32,
    duration: Nanos,
    seed: u64,
) -> AdmissionStats {
    assert!(load.arrivals_per_sec > 0.0, "need a positive arrival rate");
    assert!(
        load.mean_session_secs > 0.0,
        "need a positive session length"
    );
    let mut rng = SimRng::new(seed);
    let mut stats = AdmissionStats::default();
    // Departure times of active sessions (min-heap via Reverse ordering).
    let mut departures: BinaryHeap<std::cmp::Reverse<Nanos>> = BinaryHeap::new();
    let mean_gap = Nanos::from_nanos((1e9 / load.arrivals_per_sec) as u64);
    let mean_stay = Nanos::from_nanos((load.mean_session_secs * 1e9) as u64);
    let mut now = Nanos::ZERO;
    let mut weighted_active = 0u128; // Σ active · dt, in active·nanos
    let mut last = Nanos::ZERO;
    loop {
        now += rng.exp_nanos(mean_gap);
        if now >= duration {
            break;
        }
        // Retire everything that left before this arrival.
        while let Some(&std::cmp::Reverse(t)) = departures.peek() {
            if t > now {
                break;
            }
            weighted_active += (departures.len() as u128) * (t - last).as_nanos() as u128;
            last = t;
            departures.pop();
        }
        weighted_active += (departures.len() as u128) * (now - last).as_nanos() as u128;
        last = now;
        stats.offered += 1;
        if (departures.len() as u32) < cap {
            stats.admitted += 1;
            departures.push(std::cmp::Reverse(now + rng.exp_nanos(mean_stay)));
            stats.peak_active = stats.peak_active.max(departures.len() as u32);
        } else {
            stats.rejected += 1;
        }
    }
    // Drain the tail up to the end of the run.
    while let Some(&std::cmp::Reverse(t)) = departures.peek() {
        if t > duration {
            break;
        }
        weighted_active += (departures.len() as u128) * (t - last).as_nanos() as u128;
        last = t;
        departures.pop();
    }
    weighted_active += (departures.len() as u128) * (duration - last).as_nanos() as u128;
    stats.mean_active = if duration == Nanos::ZERO {
        0.0
    } else {
        weighted_active as f64 / duration.as_nanos() as f64
    };
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOAD: SessionLoad = SessionLoad {
        arrivals_per_sec: 50.0,
        mean_session_secs: 2.0,
    };

    #[test]
    fn conserves_and_replays() {
        let d = Nanos::from_secs(60);
        let a = simulate_admission(LOAD, 64, d, 7);
        assert_eq!(a.offered, a.admitted + a.rejected);
        assert!(
            a.offered > 2000,
            "~3000 arrivals expected, got {}",
            a.offered
        );
        assert_eq!(
            a,
            simulate_admission(LOAD, 64, d, 7),
            "same seed must replay"
        );
        assert_ne!(
            a,
            simulate_admission(LOAD, 64, d, 8),
            "different seeds must draw different streams"
        );
    }

    #[test]
    fn uncapped_settles_near_erlangs() {
        // λ·E[S] = 100 Erlangs; with cap far above that, mean active
        // concurrency approaches the offered load.
        let a = simulate_admission(LOAD, 10_000, Nanos::from_secs(120), 11);
        assert!(a.rejected == 0);
        assert!(
            (a.mean_active - LOAD.erlangs()).abs() < 15.0,
            "mean_active {} vs erlangs {}",
            a.mean_active,
            LOAD.erlangs()
        );
    }

    #[test]
    fn tight_cap_rejects_the_overflow() {
        // Cap at a quarter of the offered Erlangs: most arrivals bounce,
        // active count pins at the cap.
        let a = simulate_admission(LOAD, 25, Nanos::from_secs(120), 13);
        assert!(a.loss_rate() > 0.5, "loss rate {}", a.loss_rate());
        assert_eq!(a.peak_active, 25);
        assert!(a.mean_active <= 25.0);
        // And a wider cap strictly admits more.
        let b = simulate_admission(LOAD, 50, Nanos::from_secs(120), 13);
        assert!(b.admitted > a.admitted);
    }
}
