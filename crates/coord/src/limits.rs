//! Coordination-traffic rate limiting and adversary policing.
//!
//! Triggers are preemptive and therefore disruptive to colocated entities
//! (Table 3 measures the interference). A token bucket bounds how often a
//! policy may fire them; ablation A5 sweeps the rate.
//!
//! The Tune/Trigger interface also invites *strategic* play (Legrand &
//! Touati's non-cooperative scheduling analysis): a tenant that inflates
//! its demand deltas or spams Triggers captures resources that honest
//! tenants paid for. [`EntityPolicer`] is the controller-side defense:
//! per-entity token buckets bound request *rates*, and a
//! reputation-weighted discount bounds cumulative *displacement* — an
//! entity whose past tunes all pushed one way has spent its budget and
//! sees later requests scaled toward zero, while honest oscillating
//! corrections keep their net displacement small and pass ~unscathed.
//! Experiment A1 measures the recovered price of anarchy.

use crate::EntityId;
use simcore::Nanos;
use std::collections::BTreeMap;

/// A token bucket: `rate` tokens per second, holding at most `burst`.
///
/// # Example
///
/// ```
/// use coord::TokenBucket;
/// use simcore::Nanos;
///
/// let mut b = TokenBucket::new(10.0, 1.0); // 10/s, no burst capacity
/// assert!(b.try_take(Nanos::ZERO));
/// assert!(!b.try_take(Nanos::from_millis(50)));  // refills at 100 ms
/// assert!(b.try_take(Nanos::from_millis(100)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TokenBucket {
    rate_per_sec: f64,
    burst: f64,
    tokens: f64,
    last: Nanos,
}

impl TokenBucket {
    /// Creates a full bucket.
    ///
    /// # Panics
    /// Panics if `rate_per_sec` or `burst` is not positive.
    pub fn new(rate_per_sec: f64, burst: f64) -> Self {
        assert!(
            rate_per_sec > 0.0 && burst > 0.0,
            "rate and burst must be positive"
        );
        TokenBucket {
            rate_per_sec,
            burst,
            tokens: burst,
            last: Nanos::ZERO,
        }
    }

    /// An effectively unlimited bucket.
    pub fn unlimited() -> Self {
        TokenBucket::new(1e12, 1e12)
    }

    /// Takes one token if available. Time must be non-decreasing.
    pub fn try_take(&mut self, now: Nanos) -> bool {
        let dt = now.saturating_sub(self.last).as_secs_f64();
        self.last = self.last.max(now);
        self.tokens = (self.tokens + dt * self.rate_per_sec).min(self.burst);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens currently available (diagnostics).
    pub fn available(&self) -> f64 {
        self.tokens
    }
}

/// Detects read↔write regime oscillation in a coordination stream.
///
/// §3.1 attributes the occasional mis-application of coordination to
/// "frequent transitions amongst read and write requests" the prototype
/// does not recognise. The detector counts regime flips over a sliding
/// window; policies (or operators) can consult
/// [`is_oscillating`](Self::is_oscillating) to switch into a damped mode.
///
/// # Example
///
/// ```
/// use coord::OscillationDetector;
/// use simcore::Nanos;
///
/// let mut d = OscillationDetector::new(Nanos::from_secs(1), 4);
/// for i in 0..6 {
///     d.observe(Nanos::from_millis(i * 50), i % 2 == 0);
/// }
/// assert!(d.is_oscillating(Nanos::from_millis(250)));
/// // Queries are time-aware: once the burst ages out of the window the
/// // verdict decays even if no further requests are observed.
/// assert!(!d.is_oscillating(Nanos::from_secs(10)));
/// ```
#[derive(Debug, Clone)]
pub struct OscillationDetector {
    window: Nanos,
    threshold: u32,
    last_class: Option<bool>,
    flips: std::collections::VecDeque<Nanos>,
}

impl OscillationDetector {
    /// Creates a detector that reports oscillation when more than
    /// `threshold` regime flips land inside `window`.
    pub fn new(window: Nanos, threshold: u32) -> Self {
        OscillationDetector {
            window,
            threshold,
            last_class: None,
            flips: std::collections::VecDeque::new(),
        }
    }

    /// Feeds one classified request (`write` = its class). Returns the
    /// number of flips currently inside the window.
    pub fn observe(&mut self, now: Nanos, write: bool) -> u32 {
        if let Some(last) = self.last_class {
            if last != write {
                self.flips.push_back(now);
            }
        }
        self.last_class = Some(write);
        while let Some(&front) = self.flips.front() {
            if front + self.window < now {
                self.flips.pop_front();
            } else {
                break;
            }
        }
        self.flips.len() as u32
    }

    /// `true` while the flip rate exceeds the configured threshold.
    ///
    /// Time-aware: flips older than the window as of `now` do not count,
    /// so the verdict decays during silence instead of sticking at the
    /// last observed burst.
    pub fn is_oscillating(&self, now: Nanos) -> bool {
        self.flips_in_window(now) > self.threshold
    }

    /// Flips inside the window as of `now`.
    pub fn flips_in_window(&self, now: Nanos) -> u32 {
        // Count instead of evicting: queries take `&self`, and the stale
        // entries are cheap to skip (they are bounded by one burst and are
        // physically evicted on the next `observe`).
        self.flips
            .iter()
            .filter(|&&f| f + self.window >= now)
            .count() as u32
    }
}

/// Configuration for the controller-side adversary defenses.
///
/// Rates are per entity. `displacement_cap` bounds the *net* signed tune
/// displacement an entity may accumulate; reputation falls quadratically
/// as an entity approaches the cap — mild on the small transient
/// displacements honest policies carry, crushing near the cap — and
/// discounts the entity's requested deltas toward zero (see
/// [`EntityPolicer::police_tune`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicerConfig {
    /// Sustained Tune admissions per second per entity.
    pub tune_rate_per_sec: f64,
    /// Tune burst capacity per entity.
    pub tune_burst: f64,
    /// Sustained Trigger admissions per second per entity.
    pub trigger_rate_per_sec: f64,
    /// Trigger burst capacity per entity.
    pub trigger_burst: f64,
    /// Bound on |net applied tune displacement| per entity.
    pub displacement_cap: i64,
}

impl Default for PolicerConfig {
    /// Permissive enough for the honest request-type policy (which sends
    /// tens of tunes per second per entity but oscillates, keeping net
    /// displacement near zero) and tight enough to cap a monotone
    /// inflater at `displacement_cap` and a Trigger spammer at 2/s. The
    /// tune rate is deliberately loose: inflaters are caught by the
    /// displacement cap, not the rate, so a tight tune rate would only
    /// punish honest traffic.
    fn default() -> Self {
        PolicerConfig {
            tune_rate_per_sec: 32.0,
            tune_burst: 64.0,
            trigger_rate_per_sec: 2.0,
            trigger_burst: 4.0,
            // Half the honest policies' ±512 swing: an alternating honest
            // sender bounces its net inside ±cap and passes at face value
            // (only its first displacement is clamped), while a monotone
            // inflater saturates at a weight displacement too small to
            // outschedule honest tenants.
            displacement_cap: 256,
        }
    }
}

/// Per-entity policing counters (diagnostics and property tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeterStats {
    /// Requests admitted (possibly discounted).
    pub admitted: u64,
    /// Requests dropped by the rate limiter.
    pub throttled: u64,
    /// Admitted tunes whose applied delta differed from the request.
    pub discounted: u64,
    /// Net signed tune displacement applied so far.
    pub net_applied: i64,
}

#[derive(Debug, Clone)]
struct Meter {
    tunes: TokenBucket,
    triggers: TokenBucket,
    stats: MeterStats,
}

/// Per-entity Tune rate-limiting plus reputation-weighted request
/// discounting — the coordination stack's defense against strategic
/// tenants.
///
/// # Example
///
/// ```
/// use coord::{EntityId, EntityPolicer, PolicerConfig};
/// use simcore::Nanos;
///
/// let mut p = EntityPolicer::new(PolicerConfig::default());
/// // An honest ±64 oscillation passes essentially at face value…
/// assert_eq!(p.police_tune(Nanos::ZERO, EntityId(1), 64), Some(64));
/// // …while a monotone inflater is discounted toward zero as its net
/// // displacement approaches the cap.
/// let mut t = Nanos::ZERO;
/// for _ in 0..200 {
///     t += Nanos::from_secs(1);
///     p.police_tune(t, EntityId(2), 512);
/// }
/// assert!(p.stats_for(EntityId(2)).net_applied <= PolicerConfig::default().displacement_cap);
/// ```
#[derive(Debug, Clone)]
pub struct EntityPolicer {
    cfg: PolicerConfig,
    meters: BTreeMap<u32, Meter>,
}

impl EntityPolicer {
    /// Creates a policer with no per-entity history.
    ///
    /// # Panics
    /// Panics if any rate or burst in `cfg` is not positive (via
    /// [`TokenBucket::new`]).
    pub fn new(cfg: PolicerConfig) -> Self {
        // Validate eagerly so a bad config fails at build time, not at
        // the first message.
        let _ = TokenBucket::new(cfg.tune_rate_per_sec, cfg.tune_burst);
        let _ = TokenBucket::new(cfg.trigger_rate_per_sec, cfg.trigger_burst);
        EntityPolicer {
            cfg,
            meters: BTreeMap::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> PolicerConfig {
        self.cfg
    }

    fn meter(&mut self, entity: EntityId) -> &mut Meter {
        let cfg = self.cfg;
        self.meters.entry(entity.0).or_insert_with(|| Meter {
            tunes: TokenBucket::new(cfg.tune_rate_per_sec, cfg.tune_burst),
            triggers: TokenBucket::new(cfg.trigger_rate_per_sec, cfg.trigger_burst),
            stats: MeterStats::default(),
        })
    }

    /// Polices one Tune request. Returns `None` when the entity's rate
    /// bucket is empty (request dropped), otherwise `Some(applied)` —
    /// the requested delta scaled by the entity's reputation and clamped
    /// so its net displacement stays inside `±displacement_cap`.
    pub fn police_tune(&mut self, now: Nanos, entity: EntityId, delta: i32) -> Option<i32> {
        let cap = self.cfg.displacement_cap.max(1);
        let m = self.meter(entity);
        if !m.tunes.try_take(now) {
            m.stats.throttled += 1;
            return None;
        }
        // Reputation falls quadratically with net displacement already
        // applied: monotone pushers approach zero weight while the small
        // transient displacements honest policies carry are barely
        // touched. Deltas moving the net *toward* zero restore the budget
        // and pass at face value — otherwise truncation bias would slowly
        // walk an honest oscillator's net up to the cap.
        let net = m.stats.net_applied;
        let toward_zero = (net > 0 && delta < 0) || (net < 0 && delta > 0);
        let scaled = if toward_zero {
            delta as i64
        } else {
            let used = net.unsigned_abs().min(cap as u64) as f64 / cap as f64;
            let rep = 1.0 - used * used;
            (delta as f64 * rep) as i64
        };
        let applied = scaled.clamp(-cap - m.stats.net_applied, cap - m.stats.net_applied);
        m.stats.net_applied += applied;
        m.stats.admitted += 1;
        if applied != delta as i64 {
            m.stats.discounted += 1;
        }
        Some(applied as i32)
    }

    /// Polices one Trigger request. Returns false when the entity's
    /// Trigger bucket is empty (request dropped).
    pub fn police_trigger(&mut self, now: Nanos, entity: EntityId) -> bool {
        let m = self.meter(entity);
        if m.triggers.try_take(now) {
            m.stats.admitted += 1;
            true
        } else {
            m.stats.throttled += 1;
            false
        }
    }

    /// The entity's current reputation in `[0, 1]` (1 = full weight).
    pub fn reputation(&self, entity: EntityId) -> f64 {
        let cap = self.cfg.displacement_cap.max(1);
        self.meters.get(&entity.0).map_or(1.0, |m| {
            let used = m.stats.net_applied.unsigned_abs().min(cap as u64) as f64 / cap as f64;
            1.0 - used * used
        })
    }

    /// Per-entity counters (zero if the entity was never seen).
    pub fn stats_for(&self, entity: EntityId) -> MeterStats {
        self.meters
            .get(&entity.0)
            .map_or_else(MeterStats::default, |m| m.stats)
    }

    /// Counters summed across every entity (net displacements included,
    /// so opposing entities can cancel).
    pub fn totals(&self) -> MeterStats {
        let mut t = MeterStats::default();
        for m in self.meters.values() {
            t.admitted += m.stats.admitted;
            t.throttled += m.stats.throttled;
            t.discounted += m.stats.discounted;
            t.net_applied += m.stats.net_applied;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oscillation_detected_and_decays() {
        let mut d = OscillationDetector::new(Nanos::from_secs(1), 3);
        // Alternating classes every 100 ms: flips pile up.
        for i in 0..10u64 {
            d.observe(Nanos::from_millis(i * 100), i % 2 == 0);
        }
        assert!(d.is_oscillating(Nanos::from_millis(900)));
        // A long steady run lets the window drain (the transition into
        // the steady phase is itself the final flip, then nothing).
        for i in 0..15u64 {
            d.observe(Nanos::from_secs(5) + Nanos::from_millis(i * 100), true);
        }
        let end = Nanos::from_secs(5) + Nanos::from_millis(1400);
        assert!(!d.is_oscillating(end));
        assert_eq!(d.flips_in_window(end), 0);
    }

    #[test]
    fn verdict_decays_during_silence() {
        // The stream stops entirely after a burst of flips; queries must
        // still decay rather than report the burst forever.
        let mut d = OscillationDetector::new(Nanos::from_secs(1), 3);
        for i in 0..10u64 {
            d.observe(Nanos::from_millis(i * 100), i % 2 == 0);
        }
        let last = Nanos::from_millis(900);
        assert!(d.is_oscillating(last));
        assert!(d.is_oscillating(last + Nanos::from_millis(500)));
        assert!(!d.is_oscillating(last + Nanos::from_secs(2)));
        assert_eq!(d.flips_in_window(last + Nanos::from_secs(2)), 0);
        // …and a fresh flip after the silence starts a clean count.
        assert_eq!(d.observe(Nanos::from_secs(60), true), 1);
    }

    #[test]
    fn steady_stream_never_oscillates() {
        let mut d = OscillationDetector::new(Nanos::from_secs(1), 0);
        for i in 0..100u64 {
            assert_eq!(d.observe(Nanos::from_millis(i * 10), true), 0);
        }
        assert!(!d.is_oscillating(Nanos::from_millis(990)));
    }

    #[test]
    fn single_flip_counts_once() {
        let mut d = OscillationDetector::new(Nanos::from_secs(10), 1);
        d.observe(Nanos::from_millis(0), false);
        assert_eq!(d.observe(Nanos::from_millis(1), true), 1);
        assert!(
            !d.is_oscillating(Nanos::from_millis(1)),
            "one flip is within threshold"
        );
    }

    #[test]
    fn burst_then_throttle() {
        let mut b = TokenBucket::new(1.0, 3.0);
        assert!(b.try_take(Nanos::ZERO));
        assert!(b.try_take(Nanos::ZERO));
        assert!(b.try_take(Nanos::ZERO));
        assert!(!b.try_take(Nanos::ZERO));
        // One second refills one token.
        assert!(b.try_take(Nanos::from_secs(1)));
        assert!(!b.try_take(Nanos::from_secs(1)));
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut b = TokenBucket::new(100.0, 2.0);
        assert!(b.try_take(Nanos::ZERO));
        // A long quiet period cannot bank more than `burst`.
        let t = Nanos::from_secs(100);
        assert!(b.try_take(t));
        assert!(b.try_take(t));
        assert!(!b.try_take(t));
    }

    #[test]
    fn unlimited_never_throttles() {
        let mut b = TokenBucket::unlimited();
        for _ in 0..10_000 {
            assert!(b.try_take(Nanos::ZERO));
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_panics() {
        let _ = TokenBucket::new(0.0, 1.0);
    }

    #[test]
    fn policer_caps_monotone_inflater_at_displacement_cap() {
        let mut p = EntityPolicer::new(PolicerConfig::default());
        let e = EntityId(7);
        let mut t = Nanos::ZERO;
        for _ in 0..100 {
            t += Nanos::from_secs(1); // slow enough to never hit the rate limit
            p.police_tune(t, e, 512);
        }
        let s = p.stats_for(e);
        assert_eq!(s.throttled, 0);
        let cap = PolicerConfig::default().displacement_cap;
        assert!(s.net_applied <= cap, "net {} over cap", s.net_applied);
        assert!(s.discounted > 0, "inflater was never discounted");
        assert!(p.reputation(e) < 0.1, "saturated inflater keeps reputation");
        // Once saturated, further requests are admitted at zero effect.
        assert_eq!(p.police_tune(t + Nanos::from_secs(1), e, 512), Some(0));
    }

    #[test]
    fn policer_leaves_honest_oscillation_nearly_untouched() {
        let mut p = EntityPolicer::new(PolicerConfig::default());
        let e = EntityId(1);
        let mut t = Nanos::ZERO;
        for i in 0..40 {
            t += Nanos::from_secs(1);
            let want = if i % 2 == 0 { 64 } else { -64 };
            let got = p.police_tune(t, e, want).expect("honest tenant throttled");
            assert!(
                (got - want).abs() <= want.abs() / 8,
                "honest delta {want} mangled to {got}"
            );
        }
        assert!(p.reputation(e) > 0.9);
        assert_eq!(p.stats_for(e).throttled, 0);
    }

    #[test]
    fn policer_rate_limits_trigger_spam() {
        let cfg = PolicerConfig::default();
        let mut p = EntityPolicer::new(cfg);
        let e = EntityId(9);
        let mut admitted = 0;
        // 20/s for 10 s against a 2/s, burst-4 bucket.
        for i in 0..200u64 {
            if p.police_trigger(Nanos::from_millis(i * 50), e) {
                admitted += 1;
            }
        }
        assert!(
            admitted <= 4 + 2 * 10 + 1,
            "spam admitted {admitted} triggers"
        );
        assert!(p.stats_for(e).throttled > 0);
        let s = p.stats_for(e);
        assert_eq!(s.admitted + s.throttled, 200);
    }

    #[test]
    fn policer_negative_displacement_is_capped_symmetrically() {
        let mut p = EntityPolicer::new(PolicerConfig::default());
        let e = EntityId(3);
        let mut t = Nanos::ZERO;
        for _ in 0..100 {
            t += Nanos::from_secs(1);
            p.police_tune(t, e, -512);
        }
        let s = p.stats_for(e);
        let cap = PolicerConfig::default().displacement_cap;
        assert!(s.net_applied >= -cap, "net {} under -cap", s.net_applied);
        assert!(p.reputation(e) < 0.1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn policer_rejects_nonpositive_rates_eagerly() {
        let _ = EntityPolicer::new(PolicerConfig {
            tune_rate_per_sec: 0.0,
            ..PolicerConfig::default()
        });
    }
}
