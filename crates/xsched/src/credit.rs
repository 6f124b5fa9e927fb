//! The Xen credit scheduler, reimplemented as a discrete-event state
//! machine.
//!
//! ## Algorithm (matching Xen's `sched_credit.c` behaviour)
//!
//! * Time is divided into **ticks** (10 ms). Each tick debits the running
//!   VCPU 100 credits and clears any BOOST priority it held. Every third
//!   tick an **accounting** pass distributes `300 × ncpus` credits among
//!   *active* domains proportionally to weight.
//! * Priority is **UNDER** while credit ≥ 0 and **OVER** below; runqueues
//!   order BOOST → UNDER → OVER with FIFO inside each class.
//! * A VCPU woken by an event while UNDER enters **BOOST** (Xen's default
//!   I/O boost) and preempts lower-priority work ([`WakeMode::Boost`]);
//!   the paper's *Trigger*
//!   mechanism maps to [`CreditScheduler::trigger`].
//! * Idle pCPUs steal the highest-priority runnable VCPU from peers.
//!   Capped domains park when they exhaust their allowance.
//!
//! ## Driving the state machine
//!
//! Callers feed inputs ([`submit`](CreditScheduler::submit),
//! [`trigger`](CreditScheduler::trigger), weight changes) at
//! non-decreasing simulated times and must invoke
//! [`on_timer`](CreditScheduler::on_timer) whenever
//! [`next_event_time`](CreditScheduler::next_event_time) falls due. Every
//! input method returns the [`SchedEvent`]s (burst completions) produced
//! while catching up to the call time, so no completion is ever lost;
//! `on_timer` appends its completions to a caller-owned scratch buffer so
//! the steady-state dispatch loop performs no allocation.
//!
//! The scheduler is settled by construction. Every public method that can
//! move the horizon ends in one private `settle()`, which reschedules and
//! then scans the horizon once into a plain field; `next_event_time` reads
//! that field, and the [`Component`](simcore::Component) face's `advance`
//! returns it.

use crate::runstate::UsageAccum;
use crate::{Burst, BurstKind, DomId, Domain, RunstateSnapshot, SchedError};
use simcore::Nanos;
use std::collections::VecDeque;
use std::ops::Range;

/// Lower bound on accumulated credit debt. Deliberately generous: a tight
/// floor (e.g. −300) lets saturated VCPUs burn CPU "for free" once pinned
/// to the floor, collapsing weight-proportional sharing into round-robin.
const CREDIT_FLOOR: i32 = -30_000;

/// Tick period (credit debit granularity). Xen: 10 ms.
const TICK: Nanos = Nanos::from_millis(10);
/// Ticks between accounting passes. Xen: 3 (30 ms).
const TICKS_PER_ACCT: u32 = 3;
/// Credits debited from a running VCPU per tick. Xen: 100.
const CREDITS_PER_TICK: i32 = 100;
/// Credits one pCPU hands out per accounting pass.
const CREDITS_PER_ACCT: i32 = CREDITS_PER_TICK * TICKS_PER_ACCT as i32;
/// Maximum uninterrupted slice before runqueue rotation. Xen: 30 ms.
const SLICE: Nanos = Nanos::from_millis(30);
/// Credit clamp (±): Xen caps accumulation around one accounting period's
/// worth.
const CREDIT_CAP: i32 = 300;
/// Credits a Trigger grants the triggered domain: one tick's debit.
const TRIGGER_CREDITS: i32 = CREDITS_PER_TICK;

/// Scheduler parameters. [`SchedConfig::new`] gives Xen's defaults; the
/// tick, slice and credit constants are Xen's and not configurable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedConfig {
    /// Number of physical CPUs.
    pub ncpus: u32,
    /// Credit accounting mode. `true` (default) debits each VCPU for the
    /// CPU time it actually consumed between ticks; `false` reproduces
    /// Xen's sampling behaviour — the full tick debit lands on whoever is
    /// running at the tick instant, which deterministic sub-tick workloads
    /// can dodge entirely (the classic credit-scheduler vulnerability).
    pub precise_accounting: bool,
}

impl SchedConfig {
    /// Xen defaults on `ncpus` physical CPUs.
    ///
    /// # Panics
    /// Panics if `ncpus == 0`.
    pub fn new(ncpus: u32) -> Self {
        assert!(ncpus > 0, "need at least one pcpu");
        SchedConfig {
            ncpus,
            precise_accounting: true,
        }
    }
}

/// Runqueue priority classes, highest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Transient priority for event-woken or triggered VCPUs.
    Boost,
    /// Credit remaining (≥ 0).
    Under,
    /// Credit exhausted (< 0).
    Over,
}

impl Priority {
    fn rank(self) -> u8 {
        match self {
            Priority::Boost => 0,
            Priority::Under => 1,
            Priority::Over => 2,
        }
    }
}

/// Where a VCPU currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunState {
    /// Executing on a pCPU.
    Running,
    /// Waiting on a runqueue.
    Runnable,
    /// No queued work.
    Blocked,
    /// Cap exhausted; ineligible until accounting refills credit.
    Parked,
}

/// How a work submission wakes a blocked VCPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeMode {
    /// Plain wake: priority from credit (UNDER/OVER).
    Plain,
    /// Event-channel wake: BOOST if credit ≥ 0 (Xen I/O boost).
    Boost,
}

/// Observable scheduler outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedEvent<T = u64> {
    /// A burst finished executing.
    Completed {
        /// Domain that ran the burst.
        dom: DomId,
        /// Caller-supplied correlation tag.
        tag: T,
        /// Burst classification.
        kind: BurstKind,
        /// Completion time.
        at: Nanos,
    },
}

#[derive(Debug)]
struct Vcpu<T> {
    dom: DomId,
    credit: i32,
    prio: Priority,
    state: RunState,
    state_since: Nanos,
    work: VecDeque<Burst<T>>,
    pending_boost: bool,
    last_pcpu: usize,
    consumed_in_period: Nanos,
    consumed_since_tick: Nanos,
    /// Trigger-granted BOOST persists until this instant (survives ticks,
    /// unlike wake boosts).
    boost_until: Nanos,
}

#[derive(Debug)]
struct Pcpu {
    running: Option<usize>,
    slice_end: Nanos,
    last_charge: Nanos,
    runq: VecDeque<usize>,
}

/// The credit scheduler island. See the module-level documentation for the
/// algorithm and driving contract. `T` is the burst tag type echoed in
/// each completion.
#[derive(Debug)]
pub struct CreditScheduler<T = u64> {
    cfg: SchedConfig,
    /// Indexed by `DomId.0`: ids are handed out densely by
    /// [`create_domain`](Self::create_domain), so index order is id order.
    domains: Vec<Domain>,
    /// Each domain's VCPUs, by `DomId.0`: a domain's VCPUs are created
    /// together, so they occupy one contiguous range of `vcpus`.
    dom_vcpus: Vec<Range<usize>>,
    vcpus: Vec<Vcpu<T>>,
    pcpus: Vec<Pcpu>,
    next_tick: Nanos,
    ticks_until_acct: u32,
    now: Nanos,
    usage: UsageAccum,
    ctx_switches: u64,
    migrations: u64,
    preemptions: u64,
    /// The settled horizon: the next tick, slice expiry or burst
    /// completion (`None` when idle). `settle()` rescans it at the end of
    /// every method that can move it.
    horizon: Option<Nanos>,
    /// Execution speed as an exact rational `num/den` of nominal (DVFS).
    /// At `num == den` every conversion below is the identity, so the
    /// nominal path is bit-identical to a scheduler without the feature.
    speed_num: u64,
    speed_den: u64,
}

impl<T> CreditScheduler<T> {
    /// Creates a scheduler over `cfg.ncpus` idle pCPUs at time zero.
    pub fn new(cfg: SchedConfig) -> Self {
        let pcpus = (0..cfg.ncpus)
            .map(|_| Pcpu {
                running: None,
                slice_end: Nanos::MAX,
                last_charge: Nanos::ZERO,
                runq: VecDeque::new(),
            })
            .collect();
        CreditScheduler {
            cfg,
            domains: Vec::new(),
            dom_vcpus: Vec::new(),
            vcpus: Vec::new(),
            pcpus,
            next_tick: TICK,
            ticks_until_acct: TICKS_PER_ACCT,
            now: Nanos::ZERO,
            usage: UsageAccum::default(),
            ctx_switches: 0,
            migrations: 0,
            preemptions: 0,
            horizon: None,
            speed_num: 1,
            speed_den: 1,
        }
    }

    /// Sets the execution speed to the exact rational `num / den` of
    /// nominal (the DVFS frequency knob): burst demands are expressed in
    /// nominal-speed CPU time, so at speed `num/den` a burst of demand `d`
    /// occupies `d·den/num` of wall-clock pCPU time. Credits, caps and
    /// usage accounting stay in wall time (they meter pCPU *occupancy*,
    /// which frequency scaling does not change).
    ///
    /// # Panics
    /// Panics if `num == 0` or `den == 0`.
    pub fn set_speed(&mut self, num: u64, den: u64) {
        assert!(num > 0 && den > 0, "speed must be a positive rational");
        if (num, den) == (self.speed_num, self.speed_den) {
            return;
        }
        self.speed_num = num;
        self.speed_den = den;
        self.settle();
    }

    /// The current execution speed as `(numerator, denominator)`.
    pub fn speed(&self) -> (u64, u64) {
        (self.speed_num, self.speed_den)
    }

    /// Wall-clock time needed to execute `work` nominal-speed demand at
    /// the current speed (identity at nominal; ceiling otherwise so the
    /// completion horizon never undershoots).
    fn wall_for(&self, work: Nanos) -> Nanos {
        if self.speed_num == self.speed_den {
            return work;
        }
        let n = work.as_nanos();
        Nanos((n * self.speed_den).div_ceil(self.speed_num))
    }

    /// Nominal-speed demand executed by `wall` wall-clock time at the
    /// current speed (identity at nominal; floor otherwise).
    fn work_for(&self, wall: Nanos) -> Nanos {
        if self.speed_num == self.speed_den {
            return wall;
        }
        Nanos(wall.as_nanos() * self.speed_num / self.speed_den)
    }

    // ------------------------------------------------------------------
    // Domain management
    // ------------------------------------------------------------------

    /// Creates a domain with `nvcpus` VCPUs and the given weight. The first
    /// domain created is Dom0 (`DomId(0)`). Its VCPUs start blocked, so the
    /// horizon does not move.
    ///
    /// # Panics
    /// Panics if `nvcpus == 0`.
    pub fn create_domain(&mut self, name: &str, weight: u32, nvcpus: u32) -> DomId {
        assert!(nvcpus > 0, "domain must have at least one vcpu");
        let id = DomId(self.domains.len() as u32);
        self.domains.push(Domain::new(id, name, weight, nvcpus));
        let first = self.vcpus.len();
        for _ in 0..nvcpus {
            let idx = self.vcpus.len();
            self.vcpus.push(Vcpu {
                dom: id,
                credit: 0,
                prio: Priority::Under,
                state: RunState::Blocked,
                state_since: self.now,
                work: VecDeque::new(),
                pending_boost: false,
                last_pcpu: idx % self.cfg.ncpus as usize,
                consumed_in_period: Nanos::ZERO,
                consumed_since_tick: Nanos::ZERO,
                boost_until: Nanos::ZERO,
            });
        }
        self.dom_vcpus.push(first..self.vcpus.len());
        self.usage.register(id);
        id
    }

    /// Sets a domain's scheduling weight (takes full effect at the next
    /// accounting pass).
    ///
    /// # Errors
    /// Returns [`SchedError::UnknownDomain`] if the domain does not exist.
    pub fn set_weight(&mut self, dom: DomId, weight: u32) -> Result<(), SchedError> {
        self.domain_mut(dom)?.set_weight(weight);
        Ok(())
    }

    /// Current weight of a domain.
    ///
    /// # Errors
    /// Returns [`SchedError::UnknownDomain`] if the domain does not exist.
    pub fn weight(&self, dom: DomId) -> Result<u32, SchedError> {
        self.domain(dom)
            .map(|d| d.weight())
            .ok_or(SchedError::UnknownDomain(dom))
    }

    /// Sets a domain's CPU cap as a percentage of one pCPU (0 = uncapped).
    ///
    /// # Errors
    /// Returns [`SchedError::UnknownDomain`] if the domain does not exist.
    pub fn set_cap(&mut self, dom: DomId, cap_percent: u32) -> Result<(), SchedError> {
        self.domain_mut(dom)?.set_cap_percent(cap_percent);
        Ok(())
    }

    /// Domain metadata, if it exists.
    pub fn domain(&self, dom: DomId) -> Option<&Domain> {
        self.domains.get(dom.0 as usize)
    }

    fn domain_mut(&mut self, dom: DomId) -> Result<&mut Domain, SchedError> {
        self.domains
            .get_mut(dom.0 as usize)
            .ok_or(SchedError::UnknownDomain(dom))
    }

    /// The indices of `dom`'s VCPUs.
    fn vcpus_of(&self, dom: DomId) -> Result<Range<usize>, SchedError> {
        self.dom_vcpus
            .get(dom.0 as usize)
            .cloned()
            .ok_or(SchedError::UnknownDomain(dom))
    }

    /// All domains in id order.
    pub fn domains(&self) -> impl Iterator<Item = &Domain> {
        self.domains.iter()
    }

    // ------------------------------------------------------------------
    // Work submission and coordination entry points
    // ------------------------------------------------------------------

    /// Queues a CPU burst on the least-loaded VCPU of `dom`, waking it if
    /// blocked. Returns any burst completions that fell due while catching
    /// up to `now`.
    ///
    /// # Errors
    /// Returns [`SchedError::UnknownDomain`] if the domain does not exist,
    /// before any time passes: the scheduler is left untouched.
    pub fn submit(
        &mut self,
        now: Nanos,
        dom: DomId,
        burst: Burst<T>,
        wake: WakeMode,
    ) -> Result<Vec<SchedEvent<T>>, SchedError> {
        let vcpus = self.vcpus_of(dom)?;
        let mut out = Vec::new();
        self.catch_up(now, &mut out);
        let vi = vcpus
            .min_by_key(|&i| self.vcpus[i].work.len())
            .expect("every domain has a vcpu");
        self.vcpus[vi].work.push_back(burst);
        if self.vcpus[vi].state == RunState::Blocked {
            self.wake_vcpu(vi, wake);
        }
        self.settle();
        Ok(out)
    }

    /// The paper's **Trigger** landing pad: requests that `dom` be given
    /// CPU as soon as possible. Runnable VCPUs are promoted to the front of
    /// the BOOST class and preempt lower-priority work; blocked VCPUs are
    /// marked so their next wake boosts regardless of credit. The x86
    /// island also translates the request into a credit adjustment (§3.3
    /// of the paper): `dom` is granted one tick's credits, split across its
    /// VCPUs and clamped at the accumulation cap.
    ///
    /// # Errors
    /// Returns [`SchedError::UnknownDomain`] if the domain does not exist,
    /// before any time passes: the scheduler is left untouched.
    pub fn trigger(&mut self, now: Nanos, dom: DomId) -> Result<Vec<SchedEvent<T>>, SchedError> {
        let vcpus = self.vcpus_of(dom)?;
        let mut out = Vec::new();
        self.catch_up(now, &mut out);
        for vi in vcpus.clone() {
            // The preemptive grant holds for one scheduling slice: the
            // triggered VCPU keeps BOOST across ticks until it expires.
            self.vcpus[vi].boost_until = now + SLICE;
            match self.vcpus[vi].state {
                RunState::Runnable => {
                    self.remove_from_runq(vi);
                    self.vcpus[vi].prio = Priority::Boost;
                    let p = self.choose_pcpu(vi);
                    self.insert_runq(p, vi, true);
                }
                RunState::Blocked => self.vcpus[vi].pending_boost = true,
                RunState::Running => self.vcpus[vi].prio = Priority::Boost,
                RunState::Parked => {}
            }
        }
        // The promotion takes its pCPU before the grant resorts every
        // runqueue: ticks can leave queues unsorted, so the resort may
        // reorder waiters the promotion did not touch.
        self.reschedule();
        let per = TRIGGER_CREDITS / vcpus.len() as i32;
        for vi in vcpus {
            let v = &mut self.vcpus[vi];
            v.credit = (v.credit + per).clamp(CREDIT_FLOOR, CREDIT_CAP);
            if v.prio != Priority::Boost && v.credit >= 0 {
                v.prio = Priority::Under;
            }
        }
        self.resort_runqueues();
        self.settle();
        Ok(out)
    }

    /// Event-channel style notification: wakes (with BOOST eligibility) any
    /// blocked VCPU of `dom` that has queued work.
    ///
    /// # Errors
    /// Returns [`SchedError::UnknownDomain`] if the domain does not exist,
    /// before any time passes: the scheduler is left untouched.
    pub fn notify(&mut self, now: Nanos, dom: DomId) -> Result<Vec<SchedEvent<T>>, SchedError> {
        let vcpus = self.vcpus_of(dom)?;
        let mut out = Vec::new();
        self.catch_up(now, &mut out);
        for vi in vcpus {
            if self.vcpus[vi].state == RunState::Blocked && !self.vcpus[vi].work.is_empty() {
                self.wake_vcpu(vi, WakeMode::Boost);
            }
        }
        self.settle();
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Event-loop contract
    // ------------------------------------------------------------------

    /// The next instant at which the scheduler needs to act (tick, slice
    /// expiry or burst completion), or `None` when fully idle: a read of
    /// the horizon the last state change settled.
    pub fn next_event_time(&self) -> Option<Nanos> {
        self.horizon
    }

    /// From-scratch horizon scan over all VCPUs and pCPUs. The settled
    /// `horizon` field must always agree with this (asserted by the
    /// randomized-operations test).
    fn scan_horizon(&self) -> Option<Nanos> {
        let mut next: Option<Nanos> = None;
        let mut fold = |t: Nanos| {
            next = Some(next.map_or(t, |n: Nanos| n.min(t)));
        };
        let any_active = self.vcpus.iter().any(|v| match v.state {
            RunState::Running | RunState::Runnable => true,
            RunState::Parked => !v.work.is_empty(),
            RunState::Blocked => false,
        });
        if any_active {
            fold(self.next_tick);
        }
        for p in &self.pcpus {
            if let Some(vi) = p.running {
                fold(p.slice_end);
                if let Some(front) = self.vcpus[vi].work.front() {
                    fold(p.last_charge + self.wall_for(front.demand));
                }
            }
        }
        next
    }

    /// Reschedules, then scans the horizon once into the `horizon` field.
    /// Every public method that can move the horizon ends here, so the
    /// state is settled whenever a caller can observe it.
    fn settle(&mut self) {
        self.reschedule();
        self.horizon = self.scan_horizon();
    }

    /// Advances the scheduler to `now`, processing every internal boundary
    /// (ticks, accounting, slice rotation, completions) on the way,
    /// appending the completions produced to `out` (which the caller owns
    /// and typically reuses across calls, so steady-state dispatch does not
    /// allocate).
    pub fn on_timer(&mut self, now: Nanos, out: &mut Vec<SchedEvent<T>>) {
        // The boundary loop settles after every boundary it handles, so
        // only a tail charge past the last one leaves state to settle.
        // Driven at its own horizon, there is no tail charge.
        if self.catch_up(now, out) {
            self.settle();
        }
    }

    /// Last time the scheduler state was synchronised.
    pub fn now(&self) -> Nanos {
        self.now
    }

    // ------------------------------------------------------------------
    // Instrumentation
    // ------------------------------------------------------------------

    /// Run-state usage snapshot for the window since the last
    /// [`reset_usage`](Self::reset_usage).
    pub fn usage_snapshot(&mut self) -> RunstateSnapshot {
        self.flush_states();
        self.usage.snapshot(self.now)
    }

    /// Starts a fresh usage window at the current time.
    pub fn reset_usage(&mut self) {
        self.flush_states();
        self.usage.reset(self.now);
    }

    /// Total context switches since creation.
    pub fn context_switches(&self) -> u64 {
        self.ctx_switches
    }

    /// Total cross-pCPU migrations (steals) since creation.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Total preemptions since creation.
    pub fn preemptions(&self) -> u64 {
        self.preemptions
    }

    /// Current credit of a domain's first VCPU (diagnostics).
    pub fn credit(&self, dom: DomId) -> Option<i32> {
        self.first_vcpu(dom).map(|v| v.credit)
    }

    /// Current priority of a domain's first VCPU.
    pub fn priority(&self, dom: DomId) -> Option<Priority> {
        self.first_vcpu(dom).map(|v| v.prio)
    }

    fn first_vcpu(&self, dom: DomId) -> Option<&Vcpu<T>> {
        self.vcpus_of(dom).ok().map(|r| &self.vcpus[r.start])
    }

    /// Current run state of a domain's first VCPU.
    pub fn run_state(&self, dom: DomId) -> Option<RunState> {
        self.first_vcpu(dom).map(|v| v.state)
    }

    /// Queued (unstarted + in-progress) work of a domain across VCPUs.
    pub fn backlog(&self, dom: DomId) -> Nanos {
        self.vcpus_of(dom)
            .map(|r| {
                self.vcpus[r]
                    .iter()
                    .flat_map(|v| v.work.iter())
                    .map(|b| b.demand)
                    .sum()
            })
            .unwrap_or(Nanos::ZERO)
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Processes every internal boundary up to `now` (ticks, accounting,
    /// slice rotation, completions), settling after each, then charges
    /// partial progress to `now`. Returns whether that tail charge ran: it
    /// moves the pCPUs' charge points and may realign the tick grid, so
    /// the state must be settled again before a caller observes it.
    fn catch_up(&mut self, now: Nanos, out: &mut Vec<SchedEvent<T>>) -> bool {
        debug_assert!(now >= self.now, "scheduler time went backwards");
        while let Some(t) = self.horizon.filter(|&t| t <= now) {
            self.charge_to(t, out);
            self.now = t;
            self.handle_boundaries(t);
            self.settle();
        }
        // `self.now` is only ever set right after charging every pCPU to
        // that same instant, so at `now == self.now` a tail charge would
        // be a no-op; the tick grid is already ahead of `now` then.
        if now == self.now {
            return false;
        }
        self.charge_to(now, out);
        self.now = now;
        if self.next_tick <= now {
            // Ticks were skipped while the platform was fully idle (they
            // would have been no-ops); realign to the tick grid.
            let tick = TICK.as_nanos();
            self.next_tick = Nanos((now.as_nanos() / tick + 1) * tick);
            self.ticks_until_acct = TICKS_PER_ACCT;
        }
        true
    }

    /// Charges running VCPUs for the time since their last charge, emitting
    /// burst completions and blocking VCPUs that run out of work.
    fn charge_to(&mut self, t: Nanos, out: &mut Vec<SchedEvent<T>>) {
        for pi in 0..self.pcpus.len() {
            let Some(vi) = self.pcpus[pi].running else {
                self.pcpus[pi].last_charge = t;
                continue;
            };
            let mut elapsed = t.saturating_sub(self.pcpus[pi].last_charge);
            self.pcpus[pi].last_charge = t;
            let dom = self.vcpus[vi].dom;
            while !elapsed.is_zero() {
                let wall_needed = match self.vcpus[vi].work.front() {
                    Some(front) => self.wall_for(front.demand),
                    None => {
                        debug_assert!(false, "running vcpu with no work");
                        break;
                    }
                };
                // `take` is wall-clock pCPU occupancy; the front burst's
                // demand depletes in nominal-speed work units. The ceil in
                // `wall_for` guarantees a burst whose horizon fell due has
                // executed its full demand by then.
                let (take, work) = if wall_needed <= elapsed {
                    (wall_needed, None)
                } else {
                    (elapsed, Some(self.work_for(elapsed)))
                };
                let front = self.vcpus[vi].work.front_mut().expect("front exists");
                front.demand -= work.unwrap_or(front.demand).min(front.demand);
                let (kind, finished) = (front.kind, front.demand.is_zero());
                elapsed -= take;
                self.usage.add_running(dom, kind, take);
                self.vcpus[vi].consumed_in_period += take;
                self.vcpus[vi].consumed_since_tick += take;
                if finished {
                    let done = self.vcpus[vi].work.pop_front().expect("front exists");
                    out.push(SchedEvent::Completed {
                        dom,
                        tag: done.tag,
                        kind: done.kind,
                        at: t,
                    });
                }
            }
            // Zero-demand bursts complete immediately even with no elapsed time.
            while self.vcpus[vi]
                .work
                .front()
                .is_some_and(|b| b.demand.is_zero())
            {
                let done = self.vcpus[vi].work.pop_front().expect("front exists");
                out.push(SchedEvent::Completed {
                    dom,
                    tag: done.tag,
                    kind: done.kind,
                    at: t,
                });
            }
            if self.vcpus[vi].work.is_empty() {
                self.pcpus[pi].running = None;
                self.set_state(vi, RunState::Blocked, t);
                self.ctx_switches += 1;
            }
        }
    }

    /// Handles tick / accounting / slice boundaries due exactly at `t`.
    /// The caller must settle afterwards: its reschedule runs the
    /// preemption scan.
    fn handle_boundaries(&mut self, t: Nanos) {
        while self.next_tick <= t {
            self.do_tick();
            self.next_tick += TICK;
        }
        for pi in 0..self.pcpus.len() {
            if self.pcpus[pi].running.is_some() && self.pcpus[pi].slice_end <= t {
                let vi = self.pcpus[pi].running.take().expect("running checked");
                self.set_state(vi, RunState::Runnable, t);
                self.insert_runq(pi, vi, false);
                self.ctx_switches += 1;
            }
        }
    }

    fn do_tick(&mut self) {
        if self.cfg.precise_accounting {
            // Debit every VCPU for what it actually consumed this tick and
            // drop the transient BOOST of anything that ran.
            let now = self.now;
            for v in &mut self.vcpus {
                let consumed = std::mem::take(&mut v.consumed_since_tick);
                if consumed.is_zero() {
                    continue;
                }
                let debit = (consumed.as_nanos() as i64 * CREDITS_PER_TICK as i64
                    / TICK.as_nanos() as i64) as i32;
                v.credit = (v.credit - debit).max(CREDIT_FLOOR);
                v.prio = if now < v.boost_until {
                    Priority::Boost
                } else if v.credit >= 0 {
                    Priority::Under
                } else {
                    Priority::Over
                };
            }
        } else {
            // Xen's sampling: the whole debit lands on whoever is running.
            let now = self.now;
            for pi in 0..self.pcpus.len() {
                if let Some(vi) = self.pcpus[pi].running {
                    let v = &mut self.vcpus[vi];
                    v.credit -= CREDITS_PER_TICK;
                    v.credit = v.credit.max(CREDIT_FLOOR);
                    v.prio = if now < v.boost_until {
                        Priority::Boost
                    } else if v.credit >= 0 {
                        Priority::Under
                    } else {
                        Priority::Over
                    };
                }
            }
        }
        self.ticks_until_acct -= 1;
        if self.ticks_until_acct == 0 {
            self.ticks_until_acct = TICKS_PER_ACCT;
            self.do_accounting();
        }
    }

    fn do_accounting(&mut self) {
        // Active VCPUs: not blocked, or consumed CPU during the period. A
        // domain is active when any of its VCPUs is. The first pass sums
        // the active weight; nothing changes activity before the second
        // pass hands out the shares.
        let active = |v: &Vcpu<T>| v.state != RunState::Blocked || !v.consumed_in_period.is_zero();
        let active_weight: u64 = self
            .dom_vcpus
            .iter()
            .zip(&self.domains)
            .filter(|(r, _)| self.vcpus[(*r).clone()].iter().any(active))
            .map(|(_, d)| u64::from(d.weight()))
            .sum();
        if active_weight > 0 {
            let pool = CREDITS_PER_ACCT as i64 * self.cfg.ncpus as i64;
            for (r, d) in self.dom_vcpus.iter().zip(&self.domains) {
                let n = self.vcpus[r.clone()].iter().filter(|v| active(v)).count();
                if n == 0 {
                    continue;
                }
                // Round the share to the nearest credit rather than
                // truncating: truncation makes a domain burning exactly
                // its entitlement drift OVER one credit per period.
                let mut share =
                    (pool * d.weight() as i64 + active_weight as i64 / 2) / active_weight as i64;
                let cap = d.cap_percent();
                if cap > 0 {
                    let max = CREDITS_PER_ACCT as i64 * cap as i64 / 100;
                    share = share.min(max);
                }
                let per_vcpu = (share / n as i64) as i32;
                for v in self.vcpus[r.clone()].iter_mut().filter(|v| active(v)) {
                    v.credit = (v.credit + per_vcpu).clamp(CREDIT_FLOOR, CREDIT_CAP);
                }
            }
        }
        // Refresh priorities (BOOST survives accounting; it is cleared by
        // the tick that debits the boosted VCPU), park/unpark capped
        // domains, reset period counters.
        for i in 0..self.vcpus.len() {
            let dom = self.vcpus[i].dom;
            let capped = self.domains[dom.0 as usize].cap_percent() > 0;
            let now = self.now;
            let v = &mut self.vcpus[i];
            v.consumed_in_period = Nanos::ZERO;
            if now < v.boost_until {
                v.prio = Priority::Boost;
            } else if v.prio != Priority::Boost {
                v.prio = if v.credit >= 0 {
                    Priority::Under
                } else {
                    Priority::Over
                };
            }
            match v.state {
                RunState::Parked => {
                    if v.credit > 0 {
                        let has_work = !v.work.is_empty();
                        let now = self.now;
                        if has_work {
                            self.set_state(i, RunState::Runnable, now);
                            let p = self.choose_pcpu(i);
                            self.insert_runq(p, i, false);
                        } else {
                            self.set_state(i, RunState::Blocked, now);
                        }
                    }
                }
                RunState::Runnable | RunState::Running => {
                    if capped && v.credit <= -CREDIT_CAP {
                        let now = self.now;
                        if v.state == RunState::Runnable {
                            self.remove_from_runq(i);
                        } else {
                            for p in &mut self.pcpus {
                                if p.running == Some(i) {
                                    p.running = None;
                                }
                            }
                            self.ctx_switches += 1;
                        }
                        self.set_state(i, RunState::Parked, now);
                    }
                }
                RunState::Blocked => {}
            }
        }
        // Runqueue order may be stale after priority changes.
        self.resort_runqueues();
    }

    fn resort_runqueues(&mut self) {
        // A stable sort: FIFO order within each priority class survives.
        let vcpus = &self.vcpus;
        for p in &mut self.pcpus {
            p.runq
                .make_contiguous()
                .sort_by_key(|&vi| vcpus[vi].prio.rank());
        }
    }

    /// Preempts running VCPUs whose local runqueue head outranks them.
    fn preempt_where_needed(&mut self, t: Nanos) {
        for pi in 0..self.pcpus.len() {
            let Some(vi) = self.pcpus[pi].running else {
                continue;
            };
            let Some(&head) = self.pcpus[pi].runq.front() else {
                continue;
            };
            if self.vcpus[head].prio.rank() < self.vcpus[vi].prio.rank() {
                self.pcpus[pi].running = None;
                self.set_state(vi, RunState::Runnable, t);
                self.insert_runq(pi, vi, false);
                self.preemptions += 1;
                self.ctx_switches += 1;
            }
        }
    }

    /// Fills every idle pCPU from its runqueue or by stealing.
    fn reschedule(&mut self) {
        let t = self.now;
        self.preempt_where_needed(t);
        for pi in 0..self.pcpus.len() {
            if self.pcpus[pi].running.is_some() {
                continue;
            }
            let next = self.pcpus[pi].runq.pop_front().or_else(|| self.steal(pi));
            if let Some(vi) = next {
                self.pcpus[pi].running = Some(vi);
                self.pcpus[pi].last_charge = t;
                self.pcpus[pi].slice_end = t + SLICE;
                self.set_state(vi, RunState::Running, t);
                self.vcpus[vi].last_pcpu = pi;
                self.ctx_switches += 1;
            }
        }
        self.rebalance(t);
    }

    /// Global priority balancing (Xen's `csched_load_balance`): a queued
    /// VCPU never waits on one pCPU while a lower-priority VCPU runs on
    /// another pCPU it could use. Repeatedly migrates the highest-priority
    /// waiter over the lowest-priority runner until no inversion remains.
    fn rebalance(&mut self, t: Nanos) {
        loop {
            // Highest-priority waiting vcpu (queues are rank-sorted, so
            // heads suffice) and the lowest-priority runner it may preempt.
            let mut best: Option<(u8, usize, usize)> = None; // (rank, pcpu, vcpu)
            for (pi, p) in self.pcpus.iter().enumerate() {
                if let Some(&head) = p.runq.front() {
                    let rank = self.vcpus[head].prio.rank();
                    if best.is_none_or(|(r, _, _)| rank < r) {
                        best = Some((rank, pi, head));
                    }
                }
            }
            let Some((wait_rank, from_pi, vi)) = best else {
                return;
            };
            let mut victim: Option<(u8, usize)> = None; // (rank, pcpu)
            for (pi, p) in self.pcpus.iter().enumerate() {
                let Some(run) = p.running else { continue };
                let rank = self.vcpus[run].prio.rank();
                if rank > wait_rank && victim.is_none_or(|(r, _)| rank > r) {
                    victim = Some((rank, pi));
                }
            }
            let Some((_, to_pi)) = victim else { return };
            // Demote the runner, migrate the waiter in.
            let out = self.pcpus[to_pi].running.take().expect("victim runs");
            self.set_state(out, RunState::Runnable, t);
            self.insert_runq(to_pi, out, false);
            let pos = self.pcpus[from_pi]
                .runq
                .iter()
                .position(|&o| o == vi)
                .expect("waiter queued");
            self.pcpus[from_pi].runq.remove(pos);
            self.pcpus[to_pi].running = Some(vi);
            self.pcpus[to_pi].last_charge = t;
            self.pcpus[to_pi].slice_end = t + SLICE;
            self.set_state(vi, RunState::Running, t);
            if self.vcpus[vi].last_pcpu != to_pi {
                self.migrations += 1;
            }
            self.vcpus[vi].last_pcpu = to_pi;
            self.preemptions += 1;
            self.ctx_switches += 1;
        }
    }

    /// Takes the highest-priority runnable VCPU from the peer runqueues.
    fn steal(&mut self, pi: usize) -> Option<usize> {
        let mut best: Option<(u8, usize)> = None; // (rank, owner_pcpu)
        for (opi, p) in self.pcpus.iter().enumerate() {
            if opi == pi {
                continue;
            }
            // The runqueue is priority-ordered, so its head is its best.
            if let Some(&vi) = p.runq.front() {
                let rank = self.vcpus[vi].prio.rank();
                if best.is_none_or(|(brank, _)| rank < brank) {
                    best = Some((rank, opi));
                }
            }
        }
        let (_, opi) = best?;
        self.migrations += 1;
        self.pcpus[opi].runq.pop_front()
    }

    /// Prefers an idle pCPU, then the one `vi` last ran on.
    fn choose_pcpu(&self, vi: usize) -> usize {
        self.pcpus
            .iter()
            .position(|pc| pc.running.is_none() && pc.runq.is_empty())
            .unwrap_or(self.vcpus[vi].last_pcpu)
    }

    fn wake_vcpu(&mut self, vi: usize, mode: WakeMode) {
        let now = self.now;
        let pending = std::mem::replace(&mut self.vcpus[vi].pending_boost, false);
        let boost = pending || (mode == WakeMode::Boost && self.vcpus[vi].credit >= 0);
        self.vcpus[vi].prio = if boost {
            Priority::Boost
        } else if self.vcpus[vi].credit >= 0 {
            Priority::Under
        } else {
            Priority::Over
        };
        self.set_state(vi, RunState::Runnable, now);
        let p = self.choose_pcpu(vi);
        self.insert_runq(p, vi, boost && pending);
    }

    /// Inserts into the pCPU's runqueue at the tail (or head, for
    /// triggered boosts) of the VCPU's priority class.
    fn insert_runq(&mut self, p: usize, vi: usize, front_of_class: bool) {
        let rank = self.vcpus[vi].prio.rank();
        let q = &mut self.pcpus[p].runq;
        let pos = if front_of_class {
            q.iter()
                .position(|&o| self.vcpus[o].prio.rank() >= rank)
                .unwrap_or(q.len())
        } else {
            q.iter()
                .position(|&o| self.vcpus[o].prio.rank() > rank)
                .unwrap_or(q.len())
        };
        q.insert(pos, vi);
    }

    fn remove_from_runq(&mut self, vi: usize) {
        for p in &mut self.pcpus {
            if let Some(pos) = p.runq.iter().position(|&o| o == vi) {
                p.runq.remove(pos);
                return;
            }
        }
    }

    /// Transitions a VCPU's run state, attributing the elapsed interval to
    /// the state being left.
    fn set_state(&mut self, vi: usize, new: RunState, t: Nanos) {
        let dom = self.vcpus[vi].dom;
        let since = self.vcpus[vi].state_since;
        let dt = t.saturating_sub(since);
        match self.vcpus[vi].state {
            RunState::Runnable => self.usage.add_runnable(dom, dt),
            RunState::Blocked | RunState::Parked => self.usage.add_blocked(dom, dt),
            RunState::Running => {} // attributed during charge_to
        }
        self.vcpus[vi].state = new;
        self.vcpus[vi].state_since = t;
    }

    /// Attributes in-progress runnable/blocked intervals up to `now` so a
    /// usage snapshot is consistent.
    fn flush_states(&mut self) {
        let t = self.now;
        for vi in 0..self.vcpus.len() {
            let state = self.vcpus[vi].state;
            self.set_state(vi, state, t);
        }
    }
}

/// The scheduler as a master-loop event source: its horizon is the next
/// tick / slice expiry / burst completion, and advancing it emits the
/// completions that occurred on the way and returns the settled horizon.
/// (The x86 island's component face — the platform registry drives every
/// island through this trait.)
impl<T> simcore::Component for CreditScheduler<T> {
    type Event = SchedEvent<T>;

    fn next_event_time(&self) -> Option<Nanos> {
        self.horizon
    }

    fn advance(&mut self, now: Nanos, out: &mut Vec<SchedEvent<T>>) -> Option<Nanos> {
        self.on_timer(now, out);
        self.horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive_until(s: &mut CreditScheduler, t: Nanos) -> Vec<SchedEvent> {
        let mut out = Vec::new();
        while let Some(next) = s.next_event_time() {
            if next > t {
                break;
            }
            s.on_timer(next, &mut out);
        }
        s.on_timer(t, &mut out);
        out
    }

    #[test]
    fn single_burst_completes_on_time() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let d = s.create_domain("a", 256, 1);
        s.submit(
            Nanos::ZERO,
            d,
            Burst::user(Nanos::from_millis(5), 42),
            WakeMode::Plain,
        )
        .unwrap();
        let done = drive_until(&mut s, Nanos::from_millis(10));
        assert_eq!(done.len(), 1);
        let SchedEvent::Completed { dom, tag, at, .. } = done[0];
        assert_eq!((dom, tag, at), (d, 42, Nanos::from_millis(5)));
    }

    #[test]
    fn half_speed_doubles_burst_wall_time() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let d = s.create_domain("a", 256, 1);
        s.set_speed(50, 100);
        s.submit(
            Nanos::ZERO,
            d,
            Burst::user(Nanos::from_millis(5), 7),
            WakeMode::Plain,
        )
        .unwrap();
        let done = drive_until(&mut s, Nanos::from_millis(20));
        assert_eq!(done.len(), 1);
        let SchedEvent::Completed { at, .. } = done[0];
        assert_eq!(at, Nanos::from_millis(10), "5 ms of demand at half speed");
    }

    #[test]
    fn explicit_nominal_speed_matches_the_default_path() {
        let run = |set_nominal: bool| {
            let mut s = CreditScheduler::new(SchedConfig::new(1));
            let a = s.create_domain("a", 256, 1);
            let b = s.create_domain("b", 768, 1);
            if set_nominal {
                s.set_speed(100, 100);
            }
            s.submit(
                Nanos::ZERO,
                a,
                Burst::user(Nanos::from_millis(47), 1),
                WakeMode::Plain,
            )
            .unwrap();
            s.submit(
                Nanos::from_micros(300),
                b,
                Burst::user(Nanos::from_millis(13), 2),
                WakeMode::Boost,
            )
            .unwrap();
            drive_until(&mut s, Nanos::from_secs(1))
        };
        assert_eq!(run(false), run(true), "nominal speed must be the identity");
    }

    #[test]
    fn speed_change_mid_burst_scales_only_the_remainder() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let d = s.create_domain("a", 256, 1);
        s.submit(
            Nanos::ZERO,
            d,
            Burst::user(Nanos::from_millis(8), 7),
            WakeMode::Plain,
        )
        .unwrap();
        // 4 ms runs at nominal, then the clock drops to half speed: the
        // remaining 4 ms of demand needs 8 ms of wall time.
        let mut out = Vec::new();
        s.on_timer(Nanos::from_millis(4), &mut out);
        s.set_speed(50, 100);
        let done = drive_until(&mut s, Nanos::from_millis(20));
        let SchedEvent::Completed { at, .. } = done[0];
        assert_eq!(at, Nanos::from_millis(12));
    }

    #[test]
    #[should_panic(expected = "positive rational")]
    fn zero_speed_is_rejected() {
        let mut s: CreditScheduler = CreditScheduler::new(SchedConfig::new(1));
        s.set_speed(0, 100);
    }

    #[test]
    fn two_domains_share_one_cpu_by_weight() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let a = s.create_domain("a", 256, 1);
        let b = s.create_domain("b", 768, 1);
        // Saturate both with long work.
        s.submit(
            Nanos::ZERO,
            a,
            Burst::user(Nanos::from_secs(10), 1),
            WakeMode::Plain,
        )
        .unwrap();
        s.submit(
            Nanos::ZERO,
            b,
            Burst::user(Nanos::from_secs(10), 2),
            WakeMode::Plain,
        )
        .unwrap();
        drive_until(&mut s, Nanos::from_secs(3));
        let snap = s.usage_snapshot();
        let ua = snap.cpu_percent(a);
        let ub = snap.cpu_percent(b);
        // 1:3 weight ratio should yield roughly 25%/75%.
        assert!((ua - 25.0).abs() < 6.0, "a got {ua}%");
        assert!((ub - 75.0).abs() < 6.0, "b got {ub}%");
        assert!((ua + ub - 100.0).abs() < 2.0, "sum {}", ua + ub);
    }

    #[test]
    fn weight_change_shifts_allocation() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let a = s.create_domain("a", 256, 1);
        let b = s.create_domain("b", 256, 1);
        s.submit(
            Nanos::ZERO,
            a,
            Burst::user(Nanos::from_secs(30), 1),
            WakeMode::Plain,
        )
        .unwrap();
        s.submit(
            Nanos::ZERO,
            b,
            Burst::user(Nanos::from_secs(30), 2),
            WakeMode::Plain,
        )
        .unwrap();
        drive_until(&mut s, Nanos::from_secs(2));
        s.reset_usage();
        s.set_weight(a, 1024).unwrap();
        drive_until(&mut s, Nanos::from_secs(5));
        let snap = s.usage_snapshot();
        let ua = snap.cpu_percent(a);
        let ub = snap.cpu_percent(b);
        // 4:1 ratio → ~80/20.
        assert!(ua > 70.0, "a got {ua}%");
        assert!(ub < 30.0, "b got {ub}%");
    }

    #[test]
    fn two_cpus_run_two_domains_concurrently() {
        let mut s = CreditScheduler::new(SchedConfig::new(2));
        let a = s.create_domain("a", 256, 1);
        let b = s.create_domain("b", 256, 1);
        s.submit(
            Nanos::ZERO,
            a,
            Burst::user(Nanos::from_millis(100), 1),
            WakeMode::Plain,
        )
        .unwrap();
        s.submit(
            Nanos::ZERO,
            b,
            Burst::user(Nanos::from_millis(100), 2),
            WakeMode::Plain,
        )
        .unwrap();
        let done = drive_until(&mut s, Nanos::from_millis(100));
        assert_eq!(done.len(), 2);
        for ev in done {
            let SchedEvent::Completed { at, .. } = ev;
            assert_eq!(at, Nanos::from_millis(100), "no contention on 2 cpus");
        }
    }

    #[test]
    fn boost_wake_preempts_cpu_hog() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let hog = s.create_domain("hog", 256, 1);
        let io = s.create_domain("io", 256, 1);
        s.submit(
            Nanos::ZERO,
            hog,
            Burst::user(Nanos::from_secs(10), 1),
            WakeMode::Plain,
        )
        .unwrap();
        drive_until(&mut s, Nanos::from_millis(100));
        // An I/O wake should run almost immediately despite the hog.
        let t0 = Nanos::from_millis(100);
        s.submit(
            t0,
            io,
            Burst::user(Nanos::from_micros(500), 9),
            WakeMode::Boost,
        )
        .unwrap();
        let done = drive_until(&mut s, Nanos::from_millis(105));
        let finish = done.iter().find_map(|e| {
            let SchedEvent::Completed { tag, at, .. } = e;
            (*tag == 9).then_some(*at)
        });
        let finish = finish.expect("io burst completed");
        assert!(
            finish <= t0 + Nanos::from_millis(1),
            "boosted wake finished at {finish}"
        );
    }

    #[test]
    fn plain_wake_queues_behind_equal_priority_hog() {
        // The hog has enormous weight, so its credit stays positive (UNDER)
        // even while monopolising the CPU. A plain wake at equal (UNDER)
        // priority must queue; only a boosted wake preempts.
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let hog = s.create_domain("hog", 60_000, 1);
        let meek = s.create_domain("meek", 16, 1);
        s.submit(
            Nanos::ZERO,
            hog,
            Burst::user(Nanos::from_secs(10), 1),
            WakeMode::Plain,
        )
        .unwrap();
        drive_until(&mut s, Nanos::from_millis(95));
        let t0 = s.now();
        s.submit(
            t0,
            meek,
            Burst::user(Nanos::from_micros(500), 9),
            WakeMode::Plain,
        )
        .unwrap();
        let done = drive_until(&mut s, t0 + Nanos::from_millis(200));
        let finish = done
            .iter()
            .find_map(|e| {
                let SchedEvent::Completed { tag, at, .. } = e;
                (*tag == 9).then_some(*at)
            })
            .expect("meek completed");
        assert!(
            finish > t0 + Nanos::from_millis(1),
            "plain wake should queue, finished at {finish} (t0 {t0})"
        );
    }

    #[test]
    fn trigger_boost_front_jumps_queue() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let hog = s.create_domain("hog", 256, 1);
        let v1 = s.create_domain("v1", 256, 1);
        let v2 = s.create_domain("v2", 256, 1);
        s.submit(
            Nanos::ZERO,
            hog,
            Burst::user(Nanos::from_secs(10), 1),
            WakeMode::Plain,
        )
        .unwrap();
        s.submit(
            Nanos::ZERO,
            v1,
            Burst::user(Nanos::from_millis(50), 2),
            WakeMode::Plain,
        )
        .unwrap();
        s.submit(
            Nanos::ZERO,
            v2,
            Burst::user(Nanos::from_millis(1), 3),
            WakeMode::Plain,
        )
        .unwrap();
        // v2 sits behind v1 in the runqueue; a Trigger promotes it past
        // both the queue and the running hog.
        s.trigger(Nanos::from_millis(2), v2).unwrap();
        let done = drive_until(&mut s, Nanos::from_millis(5));
        let finish = done
            .iter()
            .find_map(|e| {
                let SchedEvent::Completed { tag, at, .. } = e;
                (*tag == 3).then_some(*at)
            })
            .expect("v2 completed");
        assert!(
            finish <= Nanos::from_millis(3),
            "triggered at 2ms, done {finish}"
        );
    }

    #[test]
    fn cap_limits_consumption() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let capped = s.create_domain("capped", 256, 1);
        s.set_cap(capped, 25).unwrap();
        s.submit(
            Nanos::ZERO,
            capped,
            Burst::user(Nanos::from_secs(30), 1),
            WakeMode::Plain,
        )
        .unwrap();
        drive_until(&mut s, Nanos::from_secs(4));
        let snap = s.usage_snapshot();
        let u = snap.cpu_percent(capped);
        assert!(u < 45.0, "capped domain consumed {u}% (expected bounded)");
        assert!(u > 10.0, "capped domain starved at {u}%");
    }

    #[test]
    fn unknown_domain_errors() {
        // Every DomId entry point, for the first id past the dense table
        // and for one far beyond it: an error or an empty answer, never a
        // panic.
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        s.create_domain("a", 256, 2);
        for ghost in [DomId(1), DomId(u32::MAX)] {
            let unknown = Err(SchedError::UnknownDomain(ghost));
            let burst = Burst::user(Nanos(1), 0);
            assert_eq!(
                s.submit(Nanos::ZERO, ghost, burst, WakeMode::Plain),
                unknown
            );
            assert_eq!(s.trigger(Nanos::ZERO, ghost), unknown);
            assert_eq!(s.notify(Nanos::ZERO, ghost), unknown);
            assert_eq!(
                s.set_weight(ghost, 512),
                Err(SchedError::UnknownDomain(ghost))
            );
            assert_eq!(s.weight(ghost), Err(SchedError::UnknownDomain(ghost)));
            assert_eq!(s.set_cap(ghost, 50), Err(SchedError::UnknownDomain(ghost)));
            assert!(s.domain(ghost).is_none());
            assert_eq!(s.credit(ghost), None);
            assert_eq!(s.priority(ghost), None);
            assert_eq!(s.run_state(ghost), None);
            assert_eq!(s.backlog(ghost), Nanos::ZERO);
            assert!(s.usage_snapshot().usage(ghost).is_none());
        }
        assert_eq!(s.domains().count(), 1);
        // A call that errors passes no time, so it cannot produce a
        // completion and drop it with its error.
        let burst = Burst::user(Nanos::from_millis(1), 7);
        s.submit(Nanos::ZERO, DomId(0), burst, WakeMode::Plain)
            .unwrap();
        let (later, ghost) = (Nanos::from_millis(5), DomId(1));
        let burst = Burst::user(Nanos(1), 0);
        assert!(s.submit(later, ghost, burst, WakeMode::Plain).is_err());
        assert!(s.trigger(later, ghost).is_err());
        assert!(s.notify(later, ghost).is_err());
        assert_eq!(s.now(), Nanos::ZERO);
        assert_eq!(drive_until(&mut s, later).len(), 1);
    }

    #[test]
    fn idle_scheduler_has_no_events() {
        let mut s: CreditScheduler = CreditScheduler::new(SchedConfig::new(2));
        s.create_domain("a", 256, 1);
        assert_eq!(s.next_event_time(), None);
        let mut out = Vec::new();
        s.on_timer(Nanos::from_secs(1), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn work_after_idle_period_completes() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let a = s.create_domain("a", 256, 1);
        // Idle for 95ms, then submit.
        let t = Nanos::from_millis(95);
        s.submit(t, a, Burst::user(Nanos::from_millis(2), 7), WakeMode::Plain)
            .unwrap();
        let done = drive_until(&mut s, Nanos::from_millis(100));
        assert_eq!(done.len(), 1);
        let SchedEvent::Completed { at, .. } = done[0];
        assert_eq!(at, t + Nanos::from_millis(2));
    }

    #[test]
    fn sequential_bursts_complete_in_order() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let a = s.create_domain("a", 256, 1);
        for tag in 0..5 {
            s.submit(
                Nanos::ZERO,
                a,
                Burst::user(Nanos::from_millis(1), tag),
                WakeMode::Plain,
            )
            .unwrap();
        }
        let done = drive_until(&mut s, Nanos::from_millis(10));
        let tags: Vec<u64> = done
            .iter()
            .map(|e| {
                let SchedEvent::Completed { tag, .. } = e;
                *tag
            })
            .collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn zero_demand_burst_completes_immediately() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let a = s.create_domain("a", 256, 1);
        let out = s
            .submit(Nanos::ZERO, a, Burst::user(Nanos::ZERO, 5), WakeMode::Plain)
            .unwrap();
        // Completion surfaces on the next advance (timer or submit).
        let done = if out.is_empty() {
            drive_until(&mut s, Nanos::from_millis(1))
        } else {
            out
        };
        assert!(done
            .iter()
            .any(|e| matches!(e, SchedEvent::Completed { tag: 5, .. })));
    }

    #[test]
    fn usage_accounts_system_vs_user() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let a = s.create_domain("a", 256, 1);
        s.submit(
            Nanos::ZERO,
            a,
            Burst::user(Nanos::from_millis(30), 1),
            WakeMode::Plain,
        )
        .unwrap();
        s.submit(
            Nanos::ZERO,
            a,
            Burst::system(Nanos::from_millis(10), 2),
            WakeMode::Plain,
        )
        .unwrap();
        drive_until(&mut s, Nanos::from_millis(100));
        let snap = s.usage_snapshot();
        assert!((snap.user_percent(a) - 30.0).abs() < 1.0);
        assert!((snap.system_percent(a) - 10.0).abs() < 1.0);
    }

    #[test]
    fn counters_advance() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let a = s.create_domain("a", 256, 1);
        let b = s.create_domain("b", 256, 1);
        s.submit(
            Nanos::ZERO,
            a,
            Burst::user(Nanos::from_secs(1), 1),
            WakeMode::Plain,
        )
        .unwrap();
        s.submit(
            Nanos::ZERO,
            b,
            Burst::user(Nanos::from_secs(1), 2),
            WakeMode::Plain,
        )
        .unwrap();
        drive_until(&mut s, Nanos::from_secs(2));
        assert!(s.context_switches() > 2);
        assert_eq!(s.run_state(a), Some(RunState::Blocked));
        assert_eq!(s.backlog(a), Nanos::ZERO);
    }

    #[test]
    fn steal_balances_load_across_cpus() {
        let mut s = CreditScheduler::new(SchedConfig::new(2));
        let a = s.create_domain("a", 256, 1);
        let b = s.create_domain("b", 256, 1);
        let c = s.create_domain("c", 256, 1);
        // All three wake at the same instant; two cpus must run two of them
        // immediately, one queues. Total throughput ≈ 2 cpus.
        for (d, tag) in [(a, 1u64), (b, 2), (c, 3)] {
            s.submit(
                Nanos::ZERO,
                d,
                Burst::user(Nanos::from_secs(2), tag),
                WakeMode::Plain,
            )
            .unwrap();
        }
        drive_until(&mut s, Nanos::from_secs(3));
        let snap = s.usage_snapshot();
        let total: f64 = [a, b, c].iter().map(|d| snap.cpu_percent(*d)).sum();
        assert!(total > 180.0, "both cpus utilised, total {total}");
    }

    #[test]
    fn sampling_accounting_is_dodgeable_precise_is_not() {
        // A deterministic sub-tick on/off workload aligned against the
        // tick grid dodges sampled debits (the classic Xen credit
        // vulnerability) but not precise accounting.
        let run = |precise: bool| -> i32 {
            let mut cfg = SchedConfig::new(1);
            cfg.precise_accounting = precise;
            let mut s = CreditScheduler::new(cfg);
            let d = s.create_domain("dodger", 256, 1);
            let other = s.create_domain("other", 256, 1);
            // A continuously-busy background keeps ticks and accounting
            // alive; the dodger preempts it with sub-tick bursts that
            // start right after each 10 ms tick.
            s.submit(
                Nanos::ZERO,
                other,
                Burst::user(Nanos::from_secs(10), 999),
                WakeMode::Plain,
            )
            .unwrap();
            for i in 0..200u64 {
                let t = Nanos::from_millis(i * 10) + Nanos::from_micros(500);
                s.submit(t, d, Burst::user(Nanos::from_millis(8), i), WakeMode::Boost)
                    .unwrap();
                while let Some(next) = s.next_event_time() {
                    if next > Nanos::from_millis(i * 10 + 10) {
                        break;
                    }
                    s.on_timer(next, &mut Vec::new());
                }
            }
            s.credit(d).unwrap()
        };
        let sampled = run(false);
        let precise = run(true);
        // Under sampling the dodger keeps accumulating credit (never
        // caught running at a tick); precise accounting debits it for its
        // real 80% consumption and sinks it.
        assert!(sampled > 0, "sampling dodged: credit {sampled}");
        assert!(precise < sampled, "precise {precise} vs sampled {sampled}");
    }

    #[test]
    fn trigger_promotes_to_the_front_of_boost_and_grants_credit() {
        // One pCPU: `a` runs while `b` and `c` wait. Triggering `a` and
        // then `b` gives both BOOST, so `b` waits at the head of the queue
        // without preempting `a`. Triggering `c` puts it ahead of `b`, and
        // each Trigger grants one tick's credits, clamped at the cap.
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let [a, b, c] = ["a", "b", "c"].map(|n| s.create_domain(n, 256, 1));
        for (d, tag) in [(a, 1u64), (b, 2), (c, 3)] {
            s.submit(
                Nanos::ZERO,
                d,
                Burst::user(Nanos::from_secs(1), tag),
                WakeMode::Plain,
            )
            .unwrap();
        }
        let t = Nanos::from_millis(1);
        s.trigger(t, a).unwrap();
        s.trigger(t, b).unwrap();
        assert_eq!(s.run_state(a), Some(RunState::Running));
        assert_eq!(s.run_state(b), Some(RunState::Runnable));
        assert_eq!(s.credit(c), Some(0));
        s.trigger(t, c).unwrap();
        assert_eq!(s.run_state(c), Some(RunState::Runnable));
        assert_eq!(s.priority(c), Some(Priority::Boost));
        let head: Vec<usize> = s.pcpus[0].runq.iter().copied().collect();
        assert_eq!(
            head,
            [s.vcpus_of(c).unwrap().start, s.vcpus_of(b).unwrap().start]
        );
        assert_eq!(s.credit(c), Some(TRIGGER_CREDITS));
        for _ in 0..4 {
            s.trigger(t, c).unwrap();
        }
        assert_eq!(s.credit(c), Some(CREDIT_CAP));
        // An unknown domain errors before any time passes.
        let later = Nanos::from_millis(5);
        assert_eq!(
            s.trigger(later, DomId(9)),
            Err(SchedError::UnknownDomain(DomId(9)))
        );
        assert_eq!(s.now(), t);
    }

    #[test]
    fn trigger_grant_lifts_a_blocked_vcpu_out_of_over() {
        // A blocked VCPU is not promoted, but the grant still moves it:
        // it stays OVER until a grant lifts its credit to zero or above,
        // and that grant moves it to UNDER.
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let d = s.create_domain("d", 256, 1);
        let burst = Burst::user(Nanos::from_millis(1_995), 1);
        s.submit(Nanos::ZERO, d, burst, WakeMode::Plain).unwrap();
        drive_until(&mut s, Nanos::from_secs(2));
        assert_eq!(s.run_state(d), Some(RunState::Blocked));
        let t = s.now();
        let mut grants = 0;
        while s.credit(d).unwrap() < 0 {
            assert_eq!(s.priority(d), Some(Priority::Over));
            s.trigger(t, d).unwrap();
            grants += 1;
        }
        assert!(grants > 0, "the burst left the domain in credit debt");
        assert_eq!(s.priority(d), Some(Priority::Under));
        assert_eq!(s.run_state(d), Some(RunState::Blocked));
    }

    #[test]
    fn trigger_boost_survives_ticks_for_one_slice() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let hog = s.create_domain("hog", 256, 1);
        let v = s.create_domain("v", 256, 1);
        s.submit(
            Nanos::ZERO,
            hog,
            Burst::user(Nanos::from_secs(5), 1),
            WakeMode::Plain,
        )
        .unwrap();
        s.submit(
            Nanos::ZERO,
            v,
            Burst::user(Nanos::from_secs(5), 2),
            WakeMode::Plain,
        )
        .unwrap();
        drive_until(&mut s, Nanos::from_millis(95));
        let t = s.now();
        s.trigger(t, v).unwrap();
        assert_eq!(s.priority(v), Some(Priority::Boost));
        // Ticks inside the granted slice keep the BOOST.
        drive_until(&mut s, t + Nanos::from_millis(15));
        assert_eq!(
            s.priority(v),
            Some(Priority::Boost),
            "boost persists mid-slice"
        );
        // Past the slice the priority reverts to credit-driven.
        drive_until(&mut s, t + Nanos::from_millis(45));
        assert_ne!(s.priority(v), Some(Priority::Boost), "boost expired");
    }

    #[test]
    fn rebalance_migrates_high_priority_waiters() {
        // Two UNDER vcpus stuck on one pcpu's queue while an OVER vcpu
        // runs on the other must migrate (csched_load_balance).
        let mut s = CreditScheduler::new(SchedConfig::new(2));
        let over = s.create_domain("over", 16, 1);
        let a = s.create_domain("a", 1024, 1);
        let b = s.create_domain("b", 1024, 1);
        // The low-weight domain saturates first and sinks OVER.
        s.submit(
            Nanos::ZERO,
            over,
            Burst::user(Nanos::from_secs(10), 1),
            WakeMode::Plain,
        )
        .unwrap();
        s.submit(
            Nanos::ZERO,
            a,
            Burst::user(Nanos::from_secs(10), 2),
            WakeMode::Plain,
        )
        .unwrap();
        drive_until(&mut s, Nanos::from_millis(200));
        s.submit(
            Nanos::from_millis(200),
            b,
            Burst::user(Nanos::from_secs(10), 3),
            WakeMode::Plain,
        )
        .unwrap();
        drive_until(&mut s, Nanos::from_secs(4));
        let snap = s.usage_snapshot();
        // The two heavyweights must not be serialized behind each other:
        // each gets roughly a full CPU's worth while the lightweight OVER
        // domain scrapes the leftovers.
        let ua = snap.cpu_percent(a);
        let ub = snap.cpu_percent(b);
        let uo = snap.cpu_percent(over);
        assert!(ua > 70.0, "a {ua}");
        assert!(ub > 70.0, "b {ub}");
        assert!(uo < 30.0, "over-class domain squeezed: {uo}");
        assert!(
            s.migrations() + s.preemptions() > 0,
            "priority inversions were resolved"
        );
    }

    #[test]
    fn notify_wakes_only_domains_with_work() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let d = s.create_domain("d", 256, 1);
        s.notify(Nanos::ZERO, d).unwrap();
        assert_eq!(s.run_state(d), Some(RunState::Blocked), "nothing to run");
        s.submit(
            Nanos::ZERO,
            d,
            Burst::user(Nanos::from_millis(1), 1),
            WakeMode::Plain,
        )
        .unwrap();
        drive_until(&mut s, Nanos::from_millis(5));
        assert_eq!(s.run_state(d), Some(RunState::Blocked));
    }

    #[test]
    fn multi_vcpu_domain_spreads_over_pcpus() {
        let mut s = CreditScheduler::new(SchedConfig::new(2));
        let d = s.create_domain("wide", 256, 2);
        // Two long bursts land on different VCPUs and run concurrently.
        s.submit(
            Nanos::ZERO,
            d,
            Burst::user(Nanos::from_millis(100), 1),
            WakeMode::Plain,
        )
        .unwrap();
        s.submit(
            Nanos::ZERO,
            d,
            Burst::user(Nanos::from_millis(100), 2),
            WakeMode::Plain,
        )
        .unwrap();
        let done = drive_until(&mut s, Nanos::from_millis(100));
        assert_eq!(done.len(), 2);
        for ev in done {
            let SchedEvent::Completed { at, .. } = ev;
            assert_eq!(at, Nanos::from_millis(100), "ran in parallel");
        }
        let snap = s.usage_snapshot();
        assert!(snap.cpu_percent(d) > 150.0, "used both pcpus");
    }

    #[test]
    fn capped_domain_cannot_use_idle_capacity() {
        // Even on an otherwise idle host, a 20% cap binds (Xen cap
        // semantics): that is what distinguishes caps from weights.
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let capped = s.create_domain("capped", 256, 1);
        s.set_cap(capped, 20).unwrap();
        s.submit(
            Nanos::ZERO,
            capped,
            Burst::user(Nanos::from_secs(30), 1),
            WakeMode::Plain,
        )
        .unwrap();
        drive_until(&mut s, Nanos::from_secs(5));
        let snap = s.usage_snapshot();
        let u = snap.cpu_percent(capped);
        assert!(u < 40.0, "cap binds on an idle host: {u}%");
    }

    #[test]
    fn weight_change_applies_within_one_accounting_period() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let a = s.create_domain("a", 256, 1);
        let b = s.create_domain("b", 256, 1);
        for (d, t) in [(a, 1u64), (b, 2)] {
            s.submit(
                Nanos::ZERO,
                d,
                Burst::user(Nanos::from_secs(30), t),
                WakeMode::Plain,
            )
            .unwrap();
        }
        drive_until(&mut s, Nanos::from_secs(1));
        s.set_weight(a, 2048).unwrap();
        // Credits follow the new weight at the next 30 ms accounting, so
        // within a second the share is strongly skewed.
        s.reset_usage();
        drive_until(&mut s, Nanos::from_secs(2));
        let snap = s.usage_snapshot();
        assert!(
            snap.cpu_percent(a) > 2.0 * snap.cpu_percent(b),
            "a {} vs b {}",
            snap.cpu_percent(a),
            snap.cpu_percent(b)
        );
    }

    #[test]
    fn settled_horizon_matches_a_fresh_scan_under_random_ops() {
        // Drive the scheduler through a long randomized operation mix and
        // assert after every single operation that the settled `horizon`
        // field equals a from-scratch scan. A public method that moves
        // the horizon without settling shows up here. Each burst is
        // tagged with a non-`u64` value, its submission index and domain,
        // and every tag must come back exactly once, from that domain,
        // through the catch-ups of `submit`/`trigger`/`notify` or through
        // `on_timer`.
        use simcore::SimRng;
        for seed in [1u64, 42, 0xDEAD] {
            let mut rng = SimRng::new(seed);
            let mut s = CreditScheduler::new(SchedConfig::new(2));
            let doms: Vec<DomId> = (0..4)
                .map(|i| s.create_domain(&format!("d{i}"), 128 + 128 * i, 1 + (i % 2)))
                .collect();
            let mut now = Nanos::ZERO;
            let mut submitted = 0u32;
            let mut done: Vec<SchedEvent<(u32, DomId)>> = Vec::new();
            for _ in 0..2_000 {
                let dom = doms[rng.below(doms.len() as u64) as usize];
                // Half the inputs arrive later than the last one, so
                // `submit`, `trigger` and `notify` catch up and return
                // completions themselves.
                if rng.chance(0.5) {
                    now += Nanos::from_micros(rng.range(0, 5_000));
                }
                match rng.below(9) {
                    0..=2 => {
                        let demand = Nanos::from_micros(rng.range(0, 20_000));
                        let wake = if rng.chance(0.5) {
                            WakeMode::Boost
                        } else {
                            WakeMode::Plain
                        };
                        let burst = Burst::user(demand, (submitted, dom));
                        submitted += 1;
                        done.extend(s.submit(now, dom, burst, wake).unwrap());
                    }
                    3 | 4 => {
                        now += Nanos::from_micros(rng.range(0, 15_000));
                        s.on_timer(now, &mut done);
                    }
                    5 | 6 => {
                        done.extend(s.trigger(now, dom).unwrap());
                    }
                    7 => {
                        done.extend(s.notify(now, dom).unwrap());
                    }
                    _ => match rng.below(3) {
                        0 => s.set_weight(dom, rng.range(1, 1024) as u32).unwrap(),
                        1 => s.set_cap(dom, rng.range(0, 150) as u32).unwrap(),
                        _ => {
                            let _ = s.usage_snapshot();
                        }
                    },
                }
                assert_eq!(
                    s.horizon,
                    s.scan_horizon(),
                    "settled horizon diverged from a fresh scan (seed {seed})"
                );
                assert_eq!(s.next_event_time(), s.horizon);
            }
            // Lift the caps and run every queued burst to completion.
            for &d in &doms {
                s.set_cap(d, 0).unwrap();
            }
            while let Some(t) = s.next_event_time() {
                s.on_timer(t, &mut done);
            }
            let mut ids: Vec<u32> = done
                .iter()
                .map(|&SchedEvent::Completed { dom, tag, .. }| {
                    assert_eq!(dom, tag.1, "completion from the wrong domain");
                    tag.0
                })
                .collect();
            ids.sort_unstable();
            assert_eq!(
                ids,
                (0..submitted).collect::<Vec<_>>(),
                "every tag comes back exactly once (seed {seed})"
            );
        }
    }

    #[test]
    fn usage_windows_are_disjoint() {
        let mut s = CreditScheduler::new(SchedConfig::new(1));
        let d = s.create_domain("d", 256, 1);
        s.submit(
            Nanos::ZERO,
            d,
            Burst::user(Nanos::from_millis(100), 1),
            WakeMode::Plain,
        )
        .unwrap();
        drive_until(&mut s, Nanos::from_millis(100));
        let w1 = s.usage_snapshot().usage(d).unwrap().running();
        s.reset_usage();
        // Idle second window.
        drive_until(&mut s, Nanos::from_millis(200));
        let w2 = s.usage_snapshot().usage(d).unwrap().running();
        assert_eq!(w1, Nanos::from_millis(100));
        assert_eq!(w2, Nanos::ZERO);
    }
}
