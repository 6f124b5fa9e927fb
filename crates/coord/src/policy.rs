//! Coordination policies: producers of Tune/Trigger traffic.
//!
//! Policies run on the island that *observes* something actionable (in the
//! prototype, the IXP: it sees every packet first) and translate
//! observations into coordination messages for remote islands. The paper
//! evaluates three (§3.1–§3.2); [`HysteresisPolicy`] implements the
//! "predicting frequent transitions / recognising oscillations" mechanism
//! the paper explicitly defers to future work.

use crate::{CoordMsg, EntityId, IslandId, TokenBucket};
use simcore::Nanos;

/// What a policy can observe from its host island.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observation {
    /// The DPI engine classified an incoming application request.
    Request {
        /// Workload-defined request class ordinal.
        class_id: u16,
        /// `true` for write-path requests.
        write: bool,
    },
    /// Stream properties learned at session setup (RTSP SDP).
    StreamInfo {
        /// Entity (guest VM) hosting the stream consumer.
        entity: EntityId,
        /// Stream bit rate in kbit/s.
        kbps: u32,
        /// Stream frame rate in frames/s.
        fps: u32,
    },
    /// A buffer monitor report for an entity's queue.
    BufferLevel {
        /// Entity whose queue is reported.
        entity: EntityId,
        /// Queue occupancy in bytes.
        bytes: u64,
        /// `true` when the monitor's threshold alarm fired.
        crossed: bool,
    },
    /// The DPI engine classified an inference request bound for the
    /// accelerator island.
    InferenceArrival {
        /// Entity (tenant) the request belongs to.
        entity: EntityId,
        /// `true` for interactive (latency-SLA) traffic.
        latency_sensitive: bool,
    },
}

/// A coordination policy: observations in, coordination messages out.
pub trait CoordinationPolicy {
    /// Feeds one observation, appending the messages to put on the
    /// channel to `out` (caller-owned and typically reused).
    fn observe(&mut self, now: Nanos, obs: &Observation, out: &mut Vec<CoordMsg>);

    /// Short policy name for reports.
    fn name(&self) -> &'static str;
}

/// Selector used by configuration layers to pick a policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyKind {
    /// Baseline: no coordination.
    #[default]
    None,
    /// RUBiS request-type driven weight shifting (§3.1).
    RequestType,
    /// Request-type with oscillation damping (paper future work).
    RequestTypeHysteresis,
    /// MPlayer stream-property driven weights (§3.2 scheme 1).
    StreamQos,
    /// Buffer-threshold triggers (§3.2 scheme 2).
    BufferTrigger,
    /// Accelerator batch tuning from DPI-classified SLA classes
    /// (experiment I1).
    InferenceBatch,
}

/// The no-coordination baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullPolicy;

impl CoordinationPolicy for NullPolicy {
    fn observe(&mut self, _now: Nanos, _obs: &Observation, _out: &mut Vec<CoordMsg>) {}
    fn name(&self) -> &'static str {
        "no-coord"
    }
}

/// RUBiS request-type coordination (§3.1).
///
/// Per the paper's scheme: browsing (read) requests send a *weight
/// increase* for the web VM and a *weight decrease* for the database;
/// servlet (write) requests send a *weight increase* for the database;
/// the application server's weight rises with the web server for reads
/// and with the database for writes (i.e. it is high in both regimes).
///
/// Applied **per request**, exactly as the paper does — a read request
/// moves the platform into the read weight regime, a write request into
/// the write regime — with deltas emitted only when the regime actually
/// changes, so a class flip costs at most three messages. Under a mixed
/// stream this oscillates, and combined with channel latency can apply
/// the *wrong* regime to an in-flight request — the mis-coordination the
/// paper observes on `BrowseCategoriesInRegion` (§3.1) and defers to
/// future work; see [`HysteresisPolicy`].
#[derive(Debug, Clone)]
pub struct RequestTypePolicy {
    web: EntityId,
    app: EntityId,
    db: EntityId,
    target: IslandId,
    regime: Option<bool>, // last applied class: Some(write?)
    communicated: [i32; 3],
}

/// [`RequestTypePolicy`]'s neutral starting weight (Xen's default).
const RT_BASE: i32 = 256;
/// [`RequestTypePolicy`]'s weight for the tiers a regime favours.
const RT_HI: i32 = 768;
/// [`RequestTypePolicy`]'s weight for the tier a regime disfavours.
const RT_LO: i32 = 256;

impl RequestTypePolicy {
    /// Creates the policy for the three RUBiS tiers hosted on `target`:
    /// base weight 256, high regime weight 768, low 256.
    pub fn new(web: EntityId, app: EntityId, db: EntityId, target: IslandId) -> Self {
        RequestTypePolicy {
            web,
            app,
            db,
            target,
            regime: None,
            communicated: [RT_BASE; 3],
        }
    }

    fn desired_for(write: bool) -> [i32; 3] {
        if write {
            // db up, app follows db; web stays at its base weight (the
            // paper raises db for servlet requests but never lowers web).
            [RT_BASE, RT_HI, RT_HI]
        } else {
            // web up, app follows web, db down.
            [RT_HI, RT_HI, RT_LO]
        }
    }

    /// The weight regime weights currently communicated (diagnostics).
    pub fn communicated(&self) -> [i32; 3] {
        self.communicated
    }
}

impl CoordinationPolicy for RequestTypePolicy {
    fn observe(&mut self, _now: Nanos, obs: &Observation, out: &mut Vec<CoordMsg>) {
        let Observation::Request { write, .. } = obs else {
            return;
        };
        if self.regime == Some(*write) {
            return; // same class as last request: regime holds
        }
        self.regime = Some(*write);
        let desired = Self::desired_for(*write);
        let entities = [self.web, self.app, self.db];
        for i in 0..3 {
            let delta = desired[i] - self.communicated[i];
            if delta != 0 {
                self.communicated[i] = desired[i];
                out.push(CoordMsg::Tune {
                    entity: entities[i],
                    delta,
                    target: Some(self.target),
                });
            }
        }
    }
    fn name(&self) -> &'static str {
        "coord-ixp-dom0"
    }
}

/// MPlayer stream-property coordination (§3.2 scheme 1).
///
/// At RTSP session setup the IXP learns each guest's stream bit/frame
/// rate. High-rate streams get a weight increase on the CPU island (and,
/// in tandem mode, extra IXP dequeue threads); low-rate streams give
/// weight back.
#[derive(Debug, Clone)]
pub struct StreamQosPolicy {
    cpu_island: IslandId,
    ixp_island: Option<IslandId>,
    hi_kbps: u32,
}

/// [`StreamQosPolicy`]'s weight delta for a high-rate stream's guest.
const STREAM_RAISE: i32 = 128;
/// [`StreamQosPolicy`]'s weight delta for a low-rate stream's guest.
const STREAM_LOWER: i32 = -64;
/// [`StreamQosPolicy`]'s tandem IXP dequeue-thread delta.
const STREAM_THREAD_RAISE: i32 = 2;

impl StreamQosPolicy {
    /// Creates the policy: streams at or above `hi_kbps` are high-rate and
    /// gain 128 weight; the others give 64 back.
    pub fn new(cpu_island: IslandId, hi_kbps: u32) -> Self {
        StreamQosPolicy {
            cpu_island,
            ixp_island: None,
            hi_kbps,
        }
    }

    /// Enables tandem IXP thread tuning (Figure 6's third configuration).
    pub fn with_tandem_ixp(mut self, ixp_island: IslandId) -> Self {
        self.ixp_island = Some(ixp_island);
        self
    }
}

impl CoordinationPolicy for StreamQosPolicy {
    fn observe(&mut self, _now: Nanos, obs: &Observation, out: &mut Vec<CoordMsg>) {
        let Observation::StreamInfo { entity, kbps, .. } = obs else {
            return;
        };
        if *kbps >= self.hi_kbps {
            out.push(CoordMsg::Tune {
                entity: *entity,
                delta: STREAM_RAISE,
                target: Some(self.cpu_island),
            });
            if let Some(ixp) = self.ixp_island {
                out.push(CoordMsg::Tune {
                    entity: *entity,
                    delta: STREAM_THREAD_RAISE,
                    target: Some(ixp),
                });
            }
        } else {
            out.push(CoordMsg::Tune {
                entity: *entity,
                delta: STREAM_LOWER,
                target: Some(self.cpu_island),
            });
        }
    }
    fn name(&self) -> &'static str {
        "stream-qos"
    }
}

/// Buffer-threshold trigger coordination (§3.2 scheme 2).
///
/// Purely system-level: no application knowledge. When a flow's DRAM queue
/// crosses its threshold, fire a Trigger for the dequeuing guest, rate
/// limited by a token bucket (Table 3 measures the interference cost of
/// each trigger).
#[derive(Debug, Clone)]
pub struct BufferTriggerPolicy {
    target: IslandId,
    bucket: TokenBucket,
    fired: u64,
    suppressed: u64,
}

impl BufferTriggerPolicy {
    /// Creates the policy with an effectively unlimited trigger rate.
    pub fn new(target: IslandId) -> Self {
        BufferTriggerPolicy {
            target,
            bucket: TokenBucket::unlimited(),
            fired: 0,
            suppressed: 0,
        }
    }

    /// Bounds trigger emission.
    pub fn with_rate_limit(mut self, per_sec: f64, burst: f64) -> Self {
        self.bucket = TokenBucket::new(per_sec, burst);
        self
    }

    /// Triggers emitted.
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Alarms swallowed by the rate limiter.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }
}

impl CoordinationPolicy for BufferTriggerPolicy {
    fn observe(&mut self, now: Nanos, obs: &Observation, out: &mut Vec<CoordMsg>) {
        let Observation::BufferLevel {
            entity,
            crossed: true,
            ..
        } = obs
        else {
            return;
        };
        if self.bucket.try_take(now) {
            self.fired += 1;
            out.push(CoordMsg::Trigger {
                entity: *entity,
                target: Some(self.target),
            });
        } else {
            self.suppressed += 1;
        }
    }
    fn name(&self) -> &'static str {
        "buffer-trigger"
    }
}

/// Accelerator batch-shape coordination (experiment I1).
///
/// The IXP's DPI engine recovers each inference request's SLA class from
/// the RPC header; this policy turns the *first* classification of each
/// tenant into one batch-shape Tune for the accelerator island:
/// interactive tenants get a negative delta (smaller batch budget, higher
/// queue weight — a latency lean), batch tenants get a positive delta
/// (bigger batches that amortize launch overhead). One message per tenant
/// per regime, matching the paper's regime-change discipline: steady
/// classes cost no channel traffic.
#[derive(Debug, Clone)]
pub struct InferenceBatchPolicy {
    target: IslandId,
    /// Tenants whose SLA regime has been communicated: (entity, class).
    communicated: Vec<(EntityId, bool)>,
}

/// [`InferenceBatchPolicy`]'s batch-shape lean: latency tenants get its
/// negation, throughput tenants the lean itself.
const INFERENCE_LEAN: i32 = 6;

impl InferenceBatchPolicy {
    /// Creates the policy for the accelerator island `target` with a
    /// ±6 batch-shape lean.
    pub fn new(target: IslandId) -> Self {
        InferenceBatchPolicy {
            target,
            communicated: Vec::new(),
        }
    }

    /// Tenants whose regime has been communicated (diagnostics).
    pub fn communicated(&self) -> usize {
        self.communicated.len()
    }
}

impl CoordinationPolicy for InferenceBatchPolicy {
    fn observe(&mut self, _now: Nanos, obs: &Observation, out: &mut Vec<CoordMsg>) {
        let Observation::InferenceArrival {
            entity,
            latency_sensitive,
        } = obs
        else {
            return;
        };
        match self.communicated.iter_mut().find(|(e, _)| e == entity) {
            Some((_, class)) if *class == *latency_sensitive => return,
            Some((_, class)) => *class = *latency_sensitive,
            None => self.communicated.push((*entity, *latency_sensitive)),
        }
        let delta = if *latency_sensitive {
            -INFERENCE_LEAN
        } else {
            INFERENCE_LEAN
        };
        out.push(CoordMsg::Tune {
            entity: *entity,
            delta,
            target: Some(self.target),
        });
    }
    fn name(&self) -> &'static str {
        "inference-batch"
    }
}

/// Oscillation-damped request-type coordination (the paper's future-work
/// extension, used by ablation A2).
///
/// Maintains an exponentially weighted moving average of the write
/// fraction and switches between three regimes (read-heavy / mixed /
/// write-heavy) with hysteresis bands, emitting one burst of tunes per
/// regime change instead of per request.
#[derive(Debug, Clone)]
pub struct HysteresisPolicy {
    web: EntityId,
    app: EntityId,
    db: EntityId,
    target: IslandId,
    ewma_write: f64,
    regime: Regime,
    communicated: [i32; 3],
}

/// [`HysteresisPolicy`]'s EWMA smoothing factor.
const HYSTERESIS_ALPHA: f64 = 0.05;
/// [`HysteresisPolicy`]'s weight swing between regimes.
const HYSTERESIS_SWING: i32 = 128;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Regime {
    Read,
    Mixed,
    Write,
}

impl HysteresisPolicy {
    /// Creates the policy with smoothing factor 0.05 and a ±128 swing.
    pub fn new(web: EntityId, app: EntityId, db: EntityId, target: IslandId) -> Self {
        HysteresisPolicy {
            web,
            app,
            db,
            target,
            ewma_write: 0.5,
            regime: Regime::Mixed,
            communicated: [256; 3],
        }
    }

    fn desired_for(regime: Regime) -> [i32; 3] {
        const S: i32 = HYSTERESIS_SWING;
        match regime {
            Regime::Read => [256 + S, 256 + S, 256 - S / 2],
            Regime::Mixed => [256, 256 + S / 2, 256],
            Regime::Write => [256, 256 + S, 256 + S],
        }
    }
}

impl CoordinationPolicy for HysteresisPolicy {
    fn observe(&mut self, _now: Nanos, obs: &Observation, out: &mut Vec<CoordMsg>) {
        let Observation::Request { write, .. } = obs else {
            return;
        };
        let a = HYSTERESIS_ALPHA;
        self.ewma_write = (1.0 - a) * self.ewma_write + a * if *write { 1.0 } else { 0.0 };
        let next = match self.regime {
            Regime::Read if self.ewma_write > 0.40 => Regime::Mixed,
            Regime::Write if self.ewma_write < 0.60 => Regime::Mixed,
            Regime::Mixed if self.ewma_write < 0.25 => Regime::Read,
            Regime::Mixed if self.ewma_write > 0.75 => Regime::Write,
            r => r,
        };
        if next == self.regime {
            return;
        }
        self.regime = next;
        let desired = Self::desired_for(next);
        let entities = [self.web, self.app, self.db];
        for i in 0..3 {
            let delta = desired[i] - self.communicated[i];
            if delta != 0 {
                self.communicated[i] = desired[i];
                out.push(CoordMsg::Tune {
                    entity: entities[i],
                    delta,
                    target: Some(self.target),
                });
            }
        }
    }
    fn name(&self) -> &'static str {
        "coord-hysteresis"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The messages one observation produces, collected fresh.
    trait ObserveVec {
        fn observe_vec(&mut self, now: Nanos, obs: &Observation) -> Vec<CoordMsg>;
    }

    impl<P: CoordinationPolicy> ObserveVec for P {
        fn observe_vec(&mut self, now: Nanos, obs: &Observation) -> Vec<CoordMsg> {
            let mut out = Vec::new();
            self.observe(now, obs, &mut out);
            out
        }
    }

    const WEB: EntityId = EntityId(1);
    const APP: EntityId = EntityId(2);
    const DB: EntityId = EntityId(3);
    const X86: IslandId = IslandId(0);

    fn read_req() -> Observation {
        Observation::Request {
            class_id: 1,
            write: false,
        }
    }

    fn write_req() -> Observation {
        Observation::Request {
            class_id: 11,
            write: true,
        }
    }

    #[test]
    fn null_policy_is_silent() {
        let mut p = NullPolicy;
        assert!(p.observe_vec(Nanos::ZERO, &read_req()).is_empty());
        assert_eq!(p.name(), "no-coord");
    }

    #[test]
    fn read_request_enters_read_regime() {
        let mut p = RequestTypePolicy::new(WEB, APP, DB, X86);
        let msgs = p.observe_vec(Nanos::ZERO, &read_req());
        // From base 256: web +512 → 768, app +512 → 768, db stays (lo=256).
        assert!(msgs.contains(&CoordMsg::Tune {
            entity: WEB,
            delta: 512,
            target: Some(X86)
        }));
        assert!(msgs.contains(&CoordMsg::Tune {
            entity: APP,
            delta: 512,
            target: Some(X86)
        }));
        assert_eq!(p.communicated(), [768, 768, 256]);
    }

    #[test]
    fn write_request_enters_write_regime() {
        let mut p = RequestTypePolicy::new(WEB, APP, DB, X86);
        let msgs = p.observe_vec(Nanos::ZERO, &write_req());
        assert!(msgs.contains(&CoordMsg::Tune {
            entity: DB,
            delta: 512,
            target: Some(X86)
        }));
        // Web stays at base in the write regime (the paper never lowers it).
        assert_eq!(p.communicated(), [256, 768, 768]);
    }

    #[test]
    fn same_class_stream_is_quiet_flips_oscillate() {
        let mut p = RequestTypePolicy::new(WEB, APP, DB, X86);
        assert!(!p.observe_vec(Nanos::ZERO, &read_req()).is_empty());
        for _ in 0..50 {
            assert!(p.observe_vec(Nanos::ZERO, &read_req()).is_empty());
        }
        // A class flip re-tunes web and db (app stays high in both regimes).
        let flip = p.observe_vec(Nanos::ZERO, &write_req());
        assert_eq!(flip.len(), 2);
        let flop = p.observe_vec(Nanos::ZERO, &read_req());
        assert_eq!(flop.len(), 2);
    }

    #[test]
    fn non_request_observations_ignored() {
        let mut p = RequestTypePolicy::new(WEB, APP, DB, X86);
        let obs = Observation::BufferLevel {
            entity: WEB,
            bytes: 1,
            crossed: true,
        };
        assert!(p.observe_vec(Nanos::ZERO, &obs).is_empty());
    }

    #[test]
    fn stream_qos_raises_high_rate_lowers_low_rate() {
        let mut p = StreamQosPolicy::new(X86, 500);
        let hi = Observation::StreamInfo {
            entity: WEB,
            kbps: 1000,
            fps: 25,
        };
        let lo = Observation::StreamInfo {
            entity: APP,
            kbps: 300,
            fps: 20,
        };
        let m1 = p.observe_vec(Nanos::ZERO, &hi);
        assert_eq!(
            m1,
            vec![CoordMsg::Tune {
                entity: WEB,
                delta: 128,
                target: Some(X86)
            }]
        );
        let m2 = p.observe_vec(Nanos::ZERO, &lo);
        assert_eq!(
            m2,
            vec![CoordMsg::Tune {
                entity: APP,
                delta: -64,
                target: Some(X86)
            }]
        );
    }

    #[test]
    fn stream_qos_tandem_tunes_ixp_too() {
        let ixp = IslandId(1);
        let mut p = StreamQosPolicy::new(X86, 500).with_tandem_ixp(ixp);
        let hi = Observation::StreamInfo {
            entity: WEB,
            kbps: 1000,
            fps: 25,
        };
        let msgs = p.observe_vec(Nanos::ZERO, &hi);
        assert_eq!(msgs.len(), 2);
        assert!(msgs.contains(&CoordMsg::Tune {
            entity: WEB,
            delta: 2,
            target: Some(ixp)
        }));
    }

    #[test]
    fn buffer_trigger_fires_on_crossings_only() {
        let mut p = BufferTriggerPolicy::new(X86);
        let quiet = Observation::BufferLevel {
            entity: WEB,
            bytes: 10,
            crossed: false,
        };
        assert!(p.observe_vec(Nanos::ZERO, &quiet).is_empty());
        let crossed = Observation::BufferLevel {
            entity: WEB,
            bytes: 1 << 17,
            crossed: true,
        };
        let msgs = p.observe_vec(Nanos::ZERO, &crossed);
        assert_eq!(
            msgs,
            vec![CoordMsg::Trigger {
                entity: WEB,
                target: Some(X86)
            }]
        );
        assert_eq!(p.fired(), 1);
    }

    #[test]
    fn buffer_trigger_rate_limited() {
        let mut p = BufferTriggerPolicy::new(X86).with_rate_limit(1.0, 1.0);
        let crossed = Observation::BufferLevel {
            entity: WEB,
            bytes: 1 << 17,
            crossed: true,
        };
        assert_eq!(p.observe_vec(Nanos::ZERO, &crossed).len(), 1);
        assert_eq!(p.observe_vec(Nanos::from_millis(100), &crossed).len(), 0);
        assert_eq!(p.suppressed(), 1);
        assert_eq!(p.observe_vec(Nanos::from_secs(2), &crossed).len(), 1);
    }

    #[test]
    fn hysteresis_ignores_isolated_flips() {
        let mut p = HysteresisPolicy::new(WEB, APP, DB, X86);
        // Drive into the read regime.
        let mut changed = 0;
        for _ in 0..200 {
            changed += p.observe_vec(Nanos::ZERO, &read_req()).len();
        }
        assert!(changed > 0, "entered read regime");
        // A few writes inside a read-heavy stream must not flip the regime.
        let mut noise = 0;
        for _ in 0..3 {
            noise += p.observe_vec(Nanos::ZERO, &write_req()).len();
            noise += p.observe_vec(Nanos::ZERO, &read_req()).len();
        }
        assert_eq!(noise, 0, "hysteresis damps isolated flips");
    }

    #[test]
    fn hysteresis_follows_sustained_shift() {
        let mut p = HysteresisPolicy::new(WEB, APP, DB, X86);
        for _ in 0..200 {
            p.observe_vec(Nanos::ZERO, &read_req());
        }
        let mut msgs = Vec::new();
        for _ in 0..200 {
            msgs.extend(p.observe_vec(Nanos::ZERO, &write_req()));
        }
        assert!(
            msgs.iter().any(|m| matches!(
                m,
                CoordMsg::Tune { entity, delta, .. } if *entity == DB && *delta > 0
            )),
            "sustained writes eventually raise the db"
        );
    }

    #[test]
    fn policy_kind_default_is_none() {
        assert_eq!(PolicyKind::default(), PolicyKind::None);
    }

    #[test]
    fn stream_qos_custom_adjustments() {
        // The adjustments are the shipped constants, whatever the rates.
        let mut p = StreamQosPolicy::new(X86, 500);
        let hi = Observation::StreamInfo {
            entity: WEB,
            kbps: 900,
            fps: 30,
        };
        let lo = Observation::StreamInfo {
            entity: APP,
            kbps: 100,
            fps: 10,
        };
        assert_eq!(
            p.observe_vec(Nanos::ZERO, &hi),
            vec![CoordMsg::Tune {
                entity: WEB,
                delta: STREAM_RAISE,
                target: Some(X86)
            }]
        );
        assert_eq!(
            p.observe_vec(Nanos::ZERO, &lo),
            vec![CoordMsg::Tune {
                entity: APP,
                delta: STREAM_LOWER,
                target: Some(X86)
            }]
        );
    }

    #[test]
    fn stream_qos_threshold_is_inclusive() {
        let mut p = StreamQosPolicy::new(X86, 500);
        let edge = Observation::StreamInfo {
            entity: WEB,
            kbps: 500,
            fps: 25,
        };
        let msgs = p.observe_vec(Nanos::ZERO, &edge);
        assert!(matches!(msgs[0], CoordMsg::Tune { delta, .. } if delta > 0));
    }

    #[test]
    fn hysteresis_alpha_controls_reaction_speed() {
        // From a settled read regime (EWMA ≈ 0), the shipped alpha of 0.05
        // crosses the 0.40 band on the write that lifts 1 − 0.95ⁿ above
        // it: the 10th.
        let mut p = HysteresisPolicy::new(WEB, APP, DB, X86);
        for _ in 0..500 {
            p.observe_vec(Nanos::ZERO, &read_req());
        }
        let first_tune = (1..=500)
            .find(|_| !p.observe_vec(Nanos::ZERO, &write_req()).is_empty())
            .expect("sustained writes leave the read regime");
        assert_eq!(first_tune, 10);
    }

    #[test]
    fn policies_ignore_foreign_observations() {
        let buf = Observation::BufferLevel {
            entity: WEB,
            bytes: 1,
            crossed: true,
        };
        let req = read_req();
        assert!(StreamQosPolicy::new(X86, 500)
            .observe_vec(Nanos::ZERO, &buf)
            .is_empty());
        assert!(StreamQosPolicy::new(X86, 500)
            .observe_vec(Nanos::ZERO, &req)
            .is_empty());
        assert!(BufferTriggerPolicy::new(X86)
            .observe_vec(Nanos::ZERO, &req)
            .is_empty());
        assert!(HysteresisPolicy::new(WEB, APP, DB, X86)
            .observe_vec(Nanos::ZERO, &buf)
            .is_empty());
    }

    #[test]
    fn inference_batch_leans_once_per_tenant() {
        let accel = IslandId(2);
        let mut p = InferenceBatchPolicy::new(accel);
        let chat = Observation::InferenceArrival {
            entity: WEB,
            latency_sensitive: true,
        };
        let rank = Observation::InferenceArrival {
            entity: APP,
            latency_sensitive: false,
        };
        assert_eq!(
            p.observe_vec(Nanos::ZERO, &chat),
            vec![CoordMsg::Tune {
                entity: WEB,
                delta: -6,
                target: Some(accel)
            }]
        );
        assert_eq!(
            p.observe_vec(Nanos::ZERO, &rank),
            vec![CoordMsg::Tune {
                entity: APP,
                delta: 6,
                target: Some(accel)
            }]
        );
        // Steady classes cost no further channel traffic.
        for _ in 0..100 {
            assert!(p.observe_vec(Nanos::ZERO, &chat).is_empty());
            assert!(p.observe_vec(Nanos::ZERO, &rank).is_empty());
        }
        assert_eq!(p.communicated(), 2);
        // A tenant changing SLA class re-tunes.
        let flipped = Observation::InferenceArrival {
            entity: WEB,
            latency_sensitive: false,
        };
        assert_eq!(p.observe_vec(Nanos::ZERO, &flipped).len(), 1);
        assert!(p.observe_vec(Nanos::ZERO, &read_req()).is_empty());
    }

    #[test]
    fn inference_batch_custom_leans() {
        // The leans are the shipped ±6, whichever island is the target.
        let mut p = InferenceBatchPolicy::new(X86);
        let obs = Observation::InferenceArrival {
            entity: DB,
            latency_sensitive: false,
        };
        assert_eq!(
            p.observe_vec(Nanos::ZERO, &obs),
            vec![CoordMsg::Tune {
                entity: DB,
                delta: INFERENCE_LEAN,
                target: Some(X86)
            }]
        );
    }

    #[test]
    fn policy_names_are_stable_report_keys() {
        assert_eq!(NullPolicy.name(), "no-coord");
        assert_eq!(
            RequestTypePolicy::new(WEB, APP, DB, X86).name(),
            "coord-ixp-dom0"
        );
        assert_eq!(StreamQosPolicy::new(X86, 1).name(), "stream-qos");
        assert_eq!(BufferTriggerPolicy::new(X86).name(), "buffer-trigger");
        assert_eq!(InferenceBatchPolicy::new(X86).name(), "inference-batch");
        assert_eq!(
            HysteresisPolicy::new(WEB, APP, DB, X86).name(),
            "coord-hysteresis"
        );
    }
}
