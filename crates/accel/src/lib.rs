//! # accel — a batching inference accelerator scheduling island
//!
//! A discrete-event model of a GPU-style compute accelerator shared by
//! several inference tenants, built as a third scheduling island alongside
//! the x86 credit scheduler and the IXP network processor. The paper
//! (§2, §5) argues that Tune and Trigger are *general* cross-island
//! interfaces; this island proves it for a vocabulary that is neither
//! credits nor dequeue threads but **batch budgets and queue weights**.
//!
//! The model captures the behaviours a coordination layer interacts with:
//!
//! * **K execution units** each run one batch at a time; a batch costs a
//!   fixed launch overhead plus the sum of its requests' compute costs, so
//!   larger batches amortize the launch cost (throughput) at the price of
//!   queueing delay (latency).
//! * **Per-tenant weighted submission queues**: a deficit-style weighted
//!   round-robin picks which tenant's batch launches next when a unit
//!   frees up.
//! * **Batch forming with a size/timeout policy**: a tenant's batch
//!   launches when its queue reaches the tenant's *batch budget*, or when
//!   its oldest queued request has waited the forming timeout.
//! * **HBM-style buffer occupancy**: every queued or in-flight request
//!   pins device memory; submissions that would overflow the pool are
//!   rejected at the PCIe doorbell (the host sees the rejection
//!   synchronously and may retransmit).
//!
//! As a [`coord::ResourceManager`]:
//!
//! * **Tune(entity, delta)** moves the tenant along its latency ↔
//!   throughput trade-off: `delta < 0` shrinks the batch budget *and*
//!   raises the queue weight by `|delta|` (smaller, more frequent batches
//!   served sooner — a latency lean); `delta > 0` does the reverse.
//! * **Trigger(entity)** preempts the current batch boundary: the tenant's
//!   forming batch launches immediately (even partial) and jumps the
//!   weighted order for the next free unit.
//!
//! ## Example
//!
//! ```
//! use accel::{AccelConfig, AccelEvent, AccelIsland, AccelRequest};
//! use simcore::Nanos;
//!
//! let mut isl = AccelIsland::new(AccelConfig::default());
//! let t = isl.register_tenant(17);
//! isl.submit(Nanos::ZERO, AccelRequest { id: 1, tenant: t, cost: Nanos::from_micros(300), bytes: 4096 });
//! let mut out = Vec::new();
//! while let Some(at) = isl.next_event_time() {
//!     isl.on_timer(at, &mut out);
//! }
//! assert!(matches!(out[0], AccelEvent::Completed { id: 1, .. }));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use coord::{CoordError, EntityId, IslandId, IslandKind, ResourceManager};
use simcore::{EventQueue, Nanos};
use std::collections::VecDeque;
use std::fmt;

/// Island-local tenant handle (index into the submission-queue table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// Static accelerator parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccelConfig {
    /// Number of execution units (each runs one batch at a time).
    pub units: usize,
    /// Hard ceiling on any tenant's batch budget.
    pub max_batch: u32,
    /// Batch budget a freshly registered tenant starts with.
    pub default_batch_budget: u32,
    /// Initial weighted-round-robin weight for new tenants.
    pub default_weight: u32,
    /// Forming timeout: a partial batch launches once its oldest request
    /// has waited this long.
    pub batch_timeout: Nanos,
    /// Fixed cost charged per batch launch, independent of batch size.
    pub launch_overhead: Nanos,
    /// Device-memory pool shared by all queued and in-flight requests.
    pub hbm_capacity: u64,
    /// Per-tenant queued-bytes threshold for [`AccelEvent::QueueAlarm`];
    /// `None` disables alarming.
    pub queue_alarm_bytes: Option<u64>,
}

impl Default for AccelConfig {
    fn default() -> Self {
        AccelConfig {
            units: 2,
            max_batch: 32,
            default_batch_budget: 8,
            default_weight: 10,
            batch_timeout: Nanos::from_millis(2),
            launch_overhead: Nanos::from_micros(250),
            hbm_capacity: 64 * 1024 * 1024,
            queue_alarm_bytes: None,
        }
    }
}

/// A request submitted to the accelerator (one inference invocation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccelRequest {
    /// Platform-unique request id, echoed back in [`AccelEvent::Completed`].
    pub id: u64,
    /// Owning tenant's submission queue.
    pub tenant: TenantId,
    /// Pure compute cost of this request on one execution unit.
    pub cost: Nanos,
    /// Device memory pinned while the request is queued or in flight.
    pub bytes: u64,
}

/// Events the island reports to its host platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccelEvent {
    /// A request's batch finished executing.
    Completed {
        /// Completion time.
        at: Nanos,
        /// Request id as submitted.
        id: u64,
        /// Owning tenant.
        tenant: TenantId,
        /// Size of the batch the request rode in.
        batch_size: u32,
        /// Time the request spent in the submission queue before launch.
        queued: Nanos,
    },
    /// A tenant's queued bytes crossed the alarm threshold upward — the
    /// device-side congestion signal a Trigger policy consumes.
    QueueAlarm {
        /// Detection time.
        at: Nanos,
        /// Congested tenant.
        tenant: TenantId,
        /// Queued bytes at detection.
        queued_bytes: u64,
        /// Queued requests at detection.
        depth: u32,
    },
}

/// Per-tenant lifetime counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Requests accepted into the submission queue.
    pub submitted: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests rejected at submission (HBM pool exhausted).
    pub rejected: u64,
    /// Batches launched.
    pub batches: u64,
    /// Sum of launched batch sizes (mean = `batch_items / batches`).
    pub batch_items: u64,
    /// Trigger-forced launches that jumped the batch boundary.
    pub preemptions: u64,
    /// Queue alarms raised for this tenant.
    pub alarms: u64,
}

#[derive(Debug, Clone, Copy)]
struct Queued {
    req: AccelRequest,
    enq: Nanos,
}

#[derive(Debug)]
struct Tenant {
    queue: VecDeque<Queued>,
    weight: u32,
    batch_budget: u32,
    /// Weighted-round-robin virtual time; smallest ready tenant launches.
    vtime: u64,
    /// Trigger pending: launch this tenant next, even a partial batch.
    forced: bool,
    /// Queued-bytes threshold that raises [`AccelEvent::QueueAlarm`];
    /// starts at the island-wide default, overridable per tenant.
    alarm_bytes: Option<u64>,
    /// Alarm re-arms only after the queue drains below half the threshold.
    alarm_armed: bool,
    stats: TenantStats,
}

/// One execution unit. Its batch buffer keeps its capacity across
/// batches, so launching allocates nothing once batches stop growing.
#[derive(Debug, Default)]
struct Unit {
    /// Tenant whose batch is running; `None` while the unit is idle.
    tenant: Option<TenantId>,
    batch: Vec<Queued>,
    launched: Nanos,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Internal {
    /// A unit finishes its batch.
    BatchDone { unit: usize },
    /// Re-evaluate batch forming (arrival, knob change, forming timeout).
    Poll,
}

/// The batching accelerator island.
#[derive(Debug)]
pub struct AccelIsland {
    cfg: AccelConfig,
    island: IslandId,
    now: Nanos,
    tenants: Vec<Tenant>,
    units: Vec<Unit>,
    q: EventQueue<Internal>,
    hbm_used: u64,
    hbm_high_water: u64,
    hbm_rejects: u64,
}

const WRR_SCALE: u64 = 1_000_000;

impl AccelIsland {
    /// Creates an island with coordination identity `IslandId(2)`.
    pub fn new(cfg: AccelConfig) -> Self {
        Self::with_island(cfg, IslandId(2))
    }

    /// Creates an island with an explicit coordination identity.
    pub fn with_island(cfg: AccelConfig, island: IslandId) -> Self {
        let units = cfg.units.max(1);
        AccelIsland {
            cfg,
            island,
            now: Nanos::ZERO,
            tenants: Vec::new(),
            units: (0..units).map(|_| Unit::default()).collect(),
            q: EventQueue::new(),
            hbm_used: 0,
            hbm_high_water: 0,
            hbm_rejects: 0,
        }
    }

    /// Registers a tenant submission queue for a guest VM, returning the
    /// island-local handle (also the `local_key` for coordination binding).
    /// The island keeps no per-VM state, so the VM index is not stored.
    pub fn register_tenant(&mut self, _vm: u32) -> TenantId {
        let id = TenantId(self.tenants.len() as u32);
        self.tenants.push(Tenant {
            queue: VecDeque::new(),
            weight: self.cfg.default_weight.max(1),
            batch_budget: self
                .cfg
                .default_batch_budget
                .clamp(1, self.cfg.max_batch.max(1)),
            vtime: 0,
            forced: false,
            alarm_bytes: self.cfg.queue_alarm_bytes,
            alarm_armed: true,
            stats: TenantStats::default(),
        });
        id
    }

    /// Overrides one tenant's queue-alarm threshold (`None` disarms it).
    /// Lets the platform monitor only the queues whose occupancy matters —
    /// the Figure 7 pattern, where one domain's buffer is watched and its
    /// colocated neighbours are not.
    pub fn set_queue_alarm(&mut self, t: TenantId, bytes: Option<u64>) {
        if let Some(tenant) = self.tenants.get_mut(t.0 as usize) {
            tenant.alarm_bytes = bytes;
            tenant.alarm_armed = true;
        }
    }

    /// Lifetime counters for a tenant.
    pub fn stats(&self, t: TenantId) -> Option<&TenantStats> {
        self.tenants.get(t.0 as usize).map(|x| &x.stats)
    }

    /// Current batch budget for a tenant.
    pub fn batch_budget(&self, t: TenantId) -> Option<u32> {
        self.tenants.get(t.0 as usize).map(|x| x.batch_budget)
    }

    /// Current queue weight for a tenant.
    pub fn weight(&self, t: TenantId) -> Option<u32> {
        self.tenants.get(t.0 as usize).map(|x| x.weight)
    }

    /// Currently queued requests for a tenant.
    pub fn queue_depth(&self, t: TenantId) -> usize {
        self.tenants.get(t.0 as usize).map_or(0, |x| x.queue.len())
    }

    /// Bytes of device memory currently pinned.
    pub fn hbm_used(&self) -> u64 {
        self.hbm_used
    }

    /// Highest device-memory occupancy observed.
    pub fn hbm_high_water(&self) -> u64 {
        self.hbm_high_water
    }

    /// Submissions rejected because the device-memory pool was exhausted.
    pub fn hbm_rejects(&self) -> u64 {
        self.hbm_rejects
    }

    /// Submits a request at `now`. Returns `false` (and counts a
    /// rejection) when the HBM pool cannot hold the request's bytes; the
    /// caller sees this synchronously, like a doorbell write bouncing.
    pub fn submit(&mut self, now: Nanos, req: AccelRequest) -> bool {
        let idx = req.tenant.0 as usize;
        assert!(
            idx < self.tenants.len(),
            "submit to unregistered {}",
            req.tenant
        );
        if self.hbm_used + req.bytes > self.cfg.hbm_capacity {
            self.hbm_rejects += 1;
            self.tenants[idx].stats.rejected += 1;
            return false;
        }
        self.hbm_used += req.bytes;
        self.hbm_high_water = self.hbm_high_water.max(self.hbm_used);
        let t = &mut self.tenants[idx];
        t.stats.submitted += 1;
        t.queue.push_back(Queued { req, enq: now });
        // Wake the former now (the batch may be full) and again at this
        // request's forming deadline (it may become the queue head).
        self.q.schedule(now, Internal::Poll);
        self.q
            .schedule(now + self.cfg.batch_timeout, Internal::Poll);
        true
    }

    /// Earliest pending internal event (master-loop peek).
    pub fn next_event_time(&self) -> Option<Nanos> {
        self.q.peek_time()
    }

    /// Advances to `now`, appending completions and alarms to `out`.
    pub fn on_timer(&mut self, now: Nanos, out: &mut Vec<AccelEvent>) {
        self.advance(now, out);
    }

    fn advance(&mut self, now: Nanos, out: &mut Vec<AccelEvent>) {
        debug_assert!(now >= self.now, "time went backwards");
        self.now = now;
        while let Some(t) = self.q.peek_time() {
            if t > now {
                break;
            }
            let (_, ev) = self.q.pop().expect("peeked");
            if let Internal::BatchDone { unit } = ev {
                self.finish_batch(now, unit, out);
            }
        }
        self.form_and_launch(now);
        self.check_alarms(now, out);
    }

    fn finish_batch(&mut self, now: Nanos, unit: usize, out: &mut Vec<AccelEvent>) {
        let u = &mut self.units[unit];
        let Some(tenant) = u.tenant.take() else {
            return;
        };
        let size = u.batch.len() as u32;
        for q in u.batch.drain(..) {
            self.hbm_used = self.hbm_used.saturating_sub(q.req.bytes);
            self.tenants[tenant.0 as usize].stats.completed += 1;
            out.push(AccelEvent::Completed {
                at: now,
                id: q.req.id,
                tenant,
                batch_size: size,
                queued: u.launched - q.enq,
            });
        }
    }

    /// Whether tenant `i` has a launchable batch at `now`: full budget,
    /// forming timeout expired, or a pending trigger.
    fn ready(&self, i: usize, now: Nanos) -> bool {
        let t = &self.tenants[i];
        if t.queue.is_empty() {
            return false;
        }
        if t.forced || t.queue.len() >= t.batch_budget as usize {
            return true;
        }
        t.queue
            .front()
            .is_some_and(|h| now >= h.enq + self.cfg.batch_timeout)
    }

    fn form_and_launch(&mut self, now: Nanos) {
        loop {
            let Some(unit) = self.units.iter().position(|u| u.tenant.is_none()) else {
                return;
            };
            // Triggered tenants jump the weighted order; otherwise the
            // ready tenant with the smallest virtual time launches.
            let pick = (0..self.tenants.len())
                .filter(|&i| self.ready(i, now))
                .min_by_key(|&i| {
                    let t = &self.tenants[i];
                    (!t.forced, t.vtime, i)
                });
            let Some(i) = pick else {
                return;
            };
            self.launch(now, unit, i);
        }
    }

    fn launch(&mut self, now: Nanos, unit: usize, i: usize) {
        let t = &mut self.tenants[i];
        let u = &mut self.units[unit];
        let take = (t.batch_budget as usize).min(t.queue.len());
        u.batch.extend(t.queue.drain(..take));
        let size = take as u64;
        t.stats.batches += 1;
        t.stats.batch_items += size;
        if t.forced {
            t.forced = false;
            t.stats.preemptions += 1;
        }
        t.vtime += WRR_SCALE * size / u64::from(t.weight.max(1));
        let cost: Nanos = u
            .batch
            .iter()
            .fold(self.cfg.launch_overhead, |acc, q| acc + q.req.cost);
        u.tenant = Some(TenantId(i as u32));
        u.launched = now;
        self.q.schedule(now + cost, Internal::BatchDone { unit });
    }

    fn check_alarms(&mut self, now: Nanos, out: &mut Vec<AccelEvent>) {
        for (i, t) in self.tenants.iter_mut().enumerate() {
            let Some(threshold) = t.alarm_bytes else {
                continue;
            };
            let bytes: u64 = t.queue.iter().map(|q| q.req.bytes).sum();
            if t.alarm_armed && bytes >= threshold {
                t.alarm_armed = false;
                t.stats.alarms += 1;
                out.push(AccelEvent::QueueAlarm {
                    at: now,
                    tenant: TenantId(i as u32),
                    queued_bytes: bytes,
                    depth: t.queue.len() as u32,
                });
            } else if !t.alarm_armed && bytes < threshold / 2 {
                t.alarm_armed = true;
            }
        }
    }
}

impl ResourceManager for AccelIsland {
    fn island(&self) -> IslandId {
        self.island
    }

    fn kind(&self) -> IslandKind {
        IslandKind::Accelerator
    }

    /// `delta < 0`: latency lean — batch budget −|delta|, weight +|delta|.
    /// `delta > 0`: throughput lean — batch budget +delta, weight −delta.
    fn apply_tune(&mut self, now: Nanos, entity: EntityId, delta: i32) -> Result<(), CoordError> {
        let idx = entity.0 as usize;
        let max_batch = self.cfg.max_batch.max(1);
        let Some(t) = self.tenants.get_mut(idx) else {
            return Err(CoordError::NotMapped {
                entity,
                island: self.island,
            });
        };
        let mag = delta.unsigned_abs();
        if delta < 0 {
            t.batch_budget = t.batch_budget.saturating_sub(mag).clamp(1, max_batch);
            t.weight = t.weight.saturating_add(mag).min(1024);
        } else {
            t.batch_budget = t.batch_budget.saturating_add(mag).clamp(1, max_batch);
            t.weight = t.weight.saturating_sub(mag).max(1);
        }
        // A smaller budget can make an already-queued batch launchable.
        self.q.schedule(now, Internal::Poll);
        Ok(())
    }

    /// Preempts the batch boundary: the tenant's forming batch launches at
    /// the next opportunity (even partial) ahead of the weighted order.
    fn apply_trigger(&mut self, now: Nanos, entity: EntityId) -> Result<(), CoordError> {
        let idx = entity.0 as usize;
        let Some(t) = self.tenants.get_mut(idx) else {
            return Err(CoordError::NotMapped {
                entity,
                island: self.island,
            });
        };
        t.forced = true;
        self.q.schedule(now, Internal::Poll);
        Ok(())
    }
}

/// The accelerator island as a master-loop event source: its horizon is
/// the next batch-formation deadline or completion, and advancing it
/// emits the completions and queue alarms due at `now`.
impl simcore::Component for AccelIsland {
    type Event = AccelEvent;

    fn next_event_time(&self) -> Option<Nanos> {
        AccelIsland::next_event_time(self)
    }

    fn advance(&mut self, now: Nanos, out: &mut Vec<AccelEvent>) -> Option<Nanos> {
        self.on_timer(now, out);
        self.next_event_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(isl: &mut AccelIsland, until: Nanos) -> Vec<AccelEvent> {
        let mut out = Vec::new();
        while let Some(t) = isl.next_event_time() {
            if t > until {
                break;
            }
            isl.on_timer(t, &mut out);
        }
        out
    }

    fn req(id: u64, tenant: TenantId, micros: u64) -> AccelRequest {
        AccelRequest {
            id,
            tenant,
            cost: Nanos::from_micros(micros),
            bytes: 4096,
        }
    }

    fn completions(evs: &[AccelEvent]) -> Vec<u64> {
        evs.iter()
            .filter_map(|e| match e {
                AccelEvent::Completed { id, .. } => Some(*id),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn full_batch_launches_immediately() {
        let cfg = AccelConfig {
            default_batch_budget: 2,
            ..AccelConfig::default()
        };
        let mut isl = AccelIsland::new(cfg.clone());
        let t = isl.register_tenant(1);
        isl.submit(Nanos::ZERO, req(1, t, 100));
        isl.submit(Nanos::ZERO, req(2, t, 100));
        let evs = drain(&mut isl, Nanos::from_secs(1));
        assert_eq!(completions(&evs), vec![1, 2]);
        // One batch of two: launch overhead + 2 × cost, no timeout wait.
        let expect = cfg.launch_overhead + Nanos::from_micros(200);
        assert!(matches!(evs[0], AccelEvent::Completed { at, batch_size: 2, .. } if at == expect));
        let s = *isl.stats(t).unwrap();
        assert_eq!((s.batches, s.batch_items, s.completed), (1, 2, 2));
    }

    #[test]
    fn partial_batch_waits_for_timeout() {
        let cfg = AccelConfig::default();
        let mut isl = AccelIsland::new(cfg.clone());
        let t = isl.register_tenant(1);
        isl.submit(Nanos::ZERO, req(1, t, 100));
        let evs = drain(&mut isl, Nanos::from_secs(1));
        let expect = cfg.batch_timeout + cfg.launch_overhead + Nanos::from_micros(100);
        assert!(
            matches!(evs[0], AccelEvent::Completed { at, batch_size: 1, queued, .. }
            if at == expect && queued == cfg.batch_timeout)
        );
    }

    #[test]
    fn weighted_order_prefers_heavier_tenant() {
        let cfg = AccelConfig {
            units: 1,
            default_batch_budget: 1,
            ..AccelConfig::default()
        };
        let mut isl = AccelIsland::new(cfg);
        let a = isl.register_tenant(1);
        let b = isl.register_tenant(2);
        isl.apply_tune(Nanos::ZERO, EntityId(b.0), -10).unwrap(); // b: weight 20
                                                                  // Backlog both tenants while the unit is busy with a first batch.
        for i in 0..4 {
            isl.submit(Nanos::ZERO, req(i, a, 500));
            isl.submit(Nanos::ZERO, req(10 + i, b, 500));
        }
        let evs = drain(&mut isl, Nanos::from_secs(1));
        let ids = completions(&evs);
        assert_eq!(ids.len(), 8);
        // b (weight 20) finishes its backlog before a (weight 10) does.
        let last_b = ids.iter().rposition(|&i| i >= 10).unwrap();
        let last_a = ids.iter().rposition(|&i| i < 10).unwrap();
        assert!(last_b < last_a, "order: {ids:?}");
    }

    #[test]
    fn tune_moves_budget_and_weight_with_clamps() {
        let mut isl = AccelIsland::new(AccelConfig::default());
        let t = isl.register_tenant(1);
        isl.apply_tune(Nanos::ZERO, EntityId(t.0), -3).unwrap();
        assert_eq!(isl.batch_budget(t), Some(5));
        assert_eq!(isl.weight(t), Some(13));
        isl.apply_tune(Nanos::ZERO, EntityId(t.0), 100).unwrap();
        assert_eq!(isl.batch_budget(t), Some(32)); // clamped to max_batch
        assert_eq!(isl.weight(t), Some(1)); // floor
        isl.apply_tune(Nanos::ZERO, EntityId(t.0), -1000).unwrap();
        assert_eq!(isl.batch_budget(t), Some(1)); // floor
        assert!(isl.apply_tune(Nanos::ZERO, EntityId(99), 1).is_err());
    }

    #[test]
    fn trigger_preempts_forming_timeout() {
        let cfg = AccelConfig::default();
        let mut isl = AccelIsland::new(cfg.clone());
        let t = isl.register_tenant(1);
        isl.submit(Nanos::ZERO, req(1, t, 100));
        // Without a trigger the partial batch would wait 2 ms; the trigger
        // launches it immediately.
        isl.apply_trigger(Nanos::ZERO, EntityId(t.0)).unwrap();
        let evs = drain(&mut isl, Nanos::from_secs(1));
        let expect = cfg.launch_overhead + Nanos::from_micros(100);
        assert!(matches!(evs[0], AccelEvent::Completed { at, .. } if at == expect));
        assert_eq!(isl.stats(t).unwrap().preemptions, 1);
    }

    #[test]
    fn trigger_jumps_weighted_order() {
        let cfg = AccelConfig {
            units: 1,
            default_batch_budget: 1,
            ..AccelConfig::default()
        };
        let mut isl = AccelIsland::new(cfg);
        let a = isl.register_tenant(1);
        let b = isl.register_tenant(2);
        for i in 0..3 {
            isl.submit(Nanos::ZERO, req(i, a, 500));
        }
        isl.submit(Nanos::ZERO, req(10, b, 500));
        // Let the first batch (a, by tie-break) launch, then force b ahead
        // of a's remaining backlog.
        let mut out = Vec::new();
        isl.on_timer(Nanos::ZERO, &mut out);
        isl.apply_trigger(Nanos::ZERO, EntityId(b.0)).unwrap();
        let evs = drain(&mut isl, Nanos::from_secs(1));
        let ids = completions(&evs);
        assert_eq!(ids[0], 0, "a's in-flight batch is not revoked");
        assert_eq!(ids[1], 10, "b jumps a's backlog at the batch boundary");
    }

    #[test]
    fn hbm_exhaustion_rejects_then_recovers() {
        let cfg = AccelConfig {
            hbm_capacity: 10_000,
            default_batch_budget: 1,
            ..AccelConfig::default()
        };
        let mut isl = AccelIsland::new(cfg);
        let t = isl.register_tenant(1);
        assert!(isl.submit(Nanos::ZERO, req(1, t, 100))); // 4096
        assert!(isl.submit(Nanos::ZERO, req(2, t, 100))); // 8192
        assert!(!isl.submit(Nanos::ZERO, req(3, t, 100))); // would be 12288
        assert_eq!(isl.hbm_rejects(), 1);
        assert_eq!(isl.hbm_high_water(), 8192);
        assert_eq!(isl.stats(t).unwrap().rejected, 1);
        let evs = drain(&mut isl, Nanos::from_secs(1));
        assert_eq!(completions(&evs), vec![1, 2]);
        assert_eq!(isl.hbm_used(), 0);
        assert!(isl.submit(Nanos::from_secs(1), req(4, t, 100)));
    }

    #[test]
    fn queue_alarm_fires_on_upward_crossing_once() {
        let cfg = AccelConfig {
            units: 1,
            queue_alarm_bytes: Some(10_000),
            ..AccelConfig::default()
        };
        let mut isl = AccelIsland::new(cfg);
        let t = isl.register_tenant(1);
        // Occupy the unit so the backlog builds.
        isl.submit(Nanos::ZERO, req(0, t, 50_000));
        isl.apply_trigger(Nanos::ZERO, EntityId(t.0)).unwrap();
        let mut out = Vec::new();
        isl.on_timer(Nanos::ZERO, &mut out);
        for i in 1..=4 {
            isl.submit(Nanos::from_micros(i), req(i, t, 100));
            isl.on_timer(Nanos::from_micros(i), &mut out);
        }
        let alarms: Vec<_> = out
            .iter()
            .filter(|e| matches!(e, AccelEvent::QueueAlarm { .. }))
            .collect();
        assert_eq!(alarms.len(), 1, "one alarm per upward crossing: {out:?}");
        assert!(matches!(
            alarms[0],
            AccelEvent::QueueAlarm {
                depth: 3,
                queued_bytes: 12288,
                ..
            }
        ));
        assert_eq!(isl.stats(t).unwrap().alarms, 1);
    }

    #[test]
    fn units_run_batches_concurrently() {
        let cfg = AccelConfig {
            units: 2,
            default_batch_budget: 1,
            ..AccelConfig::default()
        };
        let mut isl = AccelIsland::new(cfg.clone());
        let t = isl.register_tenant(1);
        isl.submit(Nanos::ZERO, req(1, t, 1000));
        isl.submit(Nanos::ZERO, req(2, t, 1000));
        let evs = drain(&mut isl, Nanos::from_secs(1));
        let expect = cfg.launch_overhead + Nanos::from_millis(1);
        for ev in &evs {
            assert!(matches!(ev, AccelEvent::Completed { at, .. } if *at == expect));
        }
        assert_eq!(evs.len(), 2);
    }

    #[test]
    fn resource_manager_identity() {
        let isl = AccelIsland::with_island(AccelConfig::default(), IslandId(7));
        assert_eq!(isl.island(), IslandId(7));
        assert_eq!(isl.kind(), IslandKind::Accelerator);
        assert_eq!(
            AccelIsland::new(AccelConfig::default()).island(),
            IslandId(2)
        );
    }
}
