//! Properties for the island-facing subsystems: PCIe host-link
//! flow-control/ordering, power-governor cap behaviour, and the batching
//! accelerator's request conservation.

use accel::{AccelConfig, AccelEvent, AccelIsland, AccelRequest, TenantId};
use archipelago::simcore::Nanos;
use coord::{EntityId, ResourceManager};
use ixp::{AppTag, FlowId, Packet};
use pcie::{HostLink, LinkConfig, NotifyMode, PcieEvent};
use power::{DomainSample, PowerGovernor, Strategy};
use simtest::gen::{domain, vec_of, zip2, zip3, Gen};
use simtest::{check, st_assert, st_assert_eq};

fn pkt(id: u64, len: u32) -> Packet {
    Packet::new(id, 0, len, AppTag::Plain)
}

/// Pump the link's internal clock forward, collecting every event.
fn settle(link: &mut HostLink, until: Nanos) -> Vec<PcieEvent> {
    let mut out = Vec::new();
    while let Some(t) = link.next_event_time() {
        if t > until {
            break;
        }
        link.on_timer(t, &mut out);
    }
    out
}

/// One `on_timer` step, collected into a fresh buffer.
fn timer_events(link: &mut HostLink, now: Nanos) -> Vec<PcieEvent> {
    let mut out = Vec::new();
    link.on_timer(now, &mut out);
    out
}

// ----------------------------------------------------------------------
// pcie::link — flow control and ordering
// ----------------------------------------------------------------------

/// Every descriptor offered to the link is accounted for exactly once:
/// while running, `posted >= drained + ring`; once the link settles and the
/// host drains everything, `posted == drained` and every post attempt is
/// either posted or a ring-full drop.
#[test]
fn pcie_link_conserves_descriptors() {
    let input = zip3(
        Gen::u32_in(1, 64),            // ring slots
        vec_of(domain_post(), 1, 149), // (gap, len) per post
        Gen::u64_in(1, 16),            // host_take batch size
    );
    check(
        "pcie_link_conserves_descriptors",
        &input,
        |(slots, posts, batch)| {
            let cfg = LinkConfig {
                ring_slots: *slots,
                ..LinkConfig::default()
            };
            let mut link = HostLink::new(cfg);
            let mut now = Nanos::ZERO;
            for (i, &(gap_us, len)) in posts.iter().enumerate() {
                now += Nanos::from_micros(gap_us);
                link.post_to_host(now, FlowId(0), pkt(i as u64, len));
                // Interleave servicing so the ring occupancy varies: on a
                // notification, the host drains a bounded batch.
                for ev in timer_events(&mut link, now) {
                    let PcieEvent::HostNotify { at, .. } = ev;
                    link.host_take(at, *batch as usize);
                }
                let s = link.stats();
                st_assert!(
                    s.posted >= s.drained + link.ring_len() as u64,
                    "mid-run under-accounting: posted {} < drained {} + ring {}",
                    s.posted,
                    s.drained,
                    link.ring_len()
                );
            }
            // Let all in-flight DMAs land, then drain the residue.
            let far = now + Nanos::from_secs(1);
            settle(&mut link, far);
            link.host_take(far, usize::MAX);
            let s = link.stats();
            st_assert_eq!(
                s.posted + s.ring_full_drops,
                posts.len() as u64,
                "every attempt is posted or dropped"
            );
            st_assert_eq!(s.posted, s.drained, "settled link conserves descriptors");
            st_assert_eq!(link.ring_len(), 0);
            Ok(())
        },
    );
}

/// Equal-length packets posted at strictly increasing times drain from the
/// host ring in posting (FIFO) order, even across partial drains and
/// ring-full drops.
#[test]
fn pcie_link_drains_in_fifo_order() {
    let input = zip3(
        Gen::u32_in(1, 32), // ring slots
        Gen::u64_in(2, 99), // packets posted
        Gen::u64_in(1, 8),  // host_take batch size
    );
    check(
        "pcie_link_drains_in_fifo_order",
        &input,
        |&(slots, count, batch)| {
            let cfg = LinkConfig {
                ring_slots: slots,
                ..LinkConfig::default()
            };
            let mut link = HostLink::new(cfg);
            let mut drained_ids = Vec::new();
            let mut take = |link: &mut HostLink, at: Nanos| {
                drained_ids.extend(
                    link.host_take(at, batch as usize)
                        .into_iter()
                        .map(|(_, p)| p.id),
                );
            };
            let mut now = Nanos::ZERO;
            for id in 0..count {
                now += Nanos::from_micros(10);
                link.post_to_host(now, FlowId(0), pkt(id, 256));
                for ev in timer_events(&mut link, now) {
                    let PcieEvent::HostNotify { at, .. } = ev;
                    take(&mut link, at);
                }
            }
            let far = now + Nanos::from_secs(1);
            for ev in settle(&mut link, far) {
                let PcieEvent::HostNotify { at, .. } = ev;
                take(&mut link, at);
            }
            while link.ring_len() > 0 {
                take(&mut link, far);
            }
            st_assert!(
                drained_ids.windows(2).all(|w| w[0] < w[1]),
                "ids drained out of order: {drained_ids:?}"
            );
            let s = link.stats();
            st_assert_eq!(drained_ids.len() as u64, s.drained);
            Ok(())
        },
    );
}

/// Interrupt moderation: consecutive host notifications are spaced at
/// least the moderation period apart, no matter how the IXP posts.
#[test]
fn pcie_link_moderates_interrupt_rate() {
    let input = zip3(
        Gen::u64_in(10, 500),               // moderation period, µs
        vec_of(Gen::u64_in(0, 200), 2, 99), // inter-post gaps, µs
        Gen::u64_in(1, 4),                  // host_take batch size
    );
    check(
        "pcie_link_moderates_interrupt_rate",
        &input,
        |(period_us, gaps, batch)| {
            let period = Nanos::from_micros(*period_us);
            let cfg = LinkConfig {
                notify: NotifyMode::Interrupt { period },
                ..LinkConfig::default()
            };
            let mut link = HostLink::new(cfg);
            let mut notify_times = Vec::new();
            let mut now = Nanos::ZERO;
            for (i, &gap) in gaps.iter().enumerate() {
                now += Nanos::from_micros(gap);
                link.post_to_host(now, FlowId(0), pkt(i as u64, 128));
                for ev in timer_events(&mut link, now) {
                    let PcieEvent::HostNotify { at, .. } = ev;
                    notify_times.push(at);
                    link.host_take(at, *batch as usize);
                }
            }
            for ev in settle(&mut link, now + Nanos::from_secs(1)) {
                let PcieEvent::HostNotify { at, .. } = ev;
                notify_times.push(at);
                link.host_take(at, usize::MAX);
            }
            for w in notify_times.windows(2) {
                st_assert!(
                    w[1] >= w[0] + period,
                    "notifications {:?} and {:?} closer than the {period:?} \
                     moderation period",
                    w[0],
                    w[1]
                );
            }
            st_assert_eq!(notify_times.len() as u64, link.stats().notifications);
            Ok(())
        },
    );
}

// ----------------------------------------------------------------------
// power::governor — cap monotonicity under sustained pressure
// ----------------------------------------------------------------------

/// Under sustained over-budget samples the governor only ever tightens:
/// each domain's effective cap is non-increasing across rounds, never falls
/// below the configured floor, and capped domains stay within [floor, 100).
#[test]
fn power_caps_monotone_under_sustained_pressure() {
    let input = zip2(
        zip3(
            Gen::u32_in(5, 40), // cap step
            Gen::u32_in(1, 30), // cap floor
            Gen::bool_any(),    // strategy: biggest-consumer vs priority
        ),
        vec_of(
            zip3(
                Gen::u32_in(0, 100),
                Gen::u32_in(0, 100),
                Gen::u32_in(0, 100),
            ),
            3,
            29,
        ),
    );
    check(
        "power_caps_monotone_under_sustained_pressure",
        &input,
        |((step, floor, priority), rounds)| {
            let names = ["web", "db", "background"];
            let strategy = if *priority {
                Strategy::Priority(names.iter().map(|n| n.to_string()).collect())
            } else {
                Strategy::BiggestConsumer
            };
            let mut g = PowerGovernor::new(100.0, strategy).with_steps(*step, *floor);
            // 0 means uncapped; treat it as "no limit" for monotonicity.
            let eff = |c: u32| if c == 0 { u32::MAX } else { c };
            for (i, &(a, b, c)) in rounds.iter().enumerate() {
                let before: Vec<u32> = names.iter().map(|n| g.cap_of(n)).collect();
                let samples: Vec<DomainSample> = names
                    .iter()
                    .zip([a, b, c])
                    .map(|(n, cpu)| DomainSample {
                        name: n.to_string(),
                        cpu_percent: cpu as f64,
                    })
                    .collect();
                // Always 20 W over budget; rounds are a second apart so the
                // rate limiter never masks a decision.
                g.sample(Nanos::from_secs(i as u64 + 1), 120.0, &samples);
                for (name, was) in names.iter().zip(before) {
                    let is = g.cap_of(name);
                    st_assert!(
                        eff(is) <= eff(was),
                        "cap for {name} loosened under pressure: {was} -> {is}"
                    );
                    st_assert!(
                        is == 0 || (is >= *floor && is < 100),
                        "cap for {name} out of range: {is} (floor {floor})"
                    );
                }
            }
            Ok(())
        },
    );
}

/// Generator for one host-bound post: (inter-post gap in µs, payload len).
fn domain_post() -> Gen<(u64, u32)> {
    zip2(Gen::u64_in(0, 99), simtest::gen::domain::packet_len())
}

// ----------------------------------------------------------------------
// accel — batching accelerator request conservation
// ----------------------------------------------------------------------

/// Whatever tenant mix is offered, the accelerator conserves requests:
/// every submission is rejected synchronously or eventually completed,
/// launched batch items sum to completions, and the device-memory pool
/// drains back to zero once the island idles. A mid-run Trigger (forced
/// partial launch) must not break any of it.
#[test]
fn accel_conserves_requests_across_tenant_mixes() {
    check(
        "accel_conserves_requests_across_tenant_mixes",
        &domain::inference_mix(),
        |mix| {
            let cfg = AccelConfig {
                // A small pool so heavy mixes exercise the rejection path.
                hbm_capacity: 256 * 1024,
                ..AccelConfig::default()
            };
            let mut acc = AccelIsland::new(cfg);
            let tenants: Vec<TenantId> = (0..mix.len())
                .map(|i| acc.register_tenant(i as u32 + 1))
                .collect();

            // Deterministic open-loop schedule: up to 30 requests per
            // tenant at its mean inter-arrival gap, merged in time order.
            let mut subs: Vec<(Nanos, usize, u64)> = Vec::new();
            let mut id = 0u64;
            for (t, m) in mix.iter().enumerate() {
                let gap = 1_000_000_000 / m.rate_per_sec as u64;
                for k in 0..(m.rate_per_sec as u64).min(30) {
                    id += 1;
                    subs.push((Nanos(gap * (k + 1)), t, id));
                }
            }
            subs.sort_unstable();

            let mut events: Vec<AccelEvent> = Vec::new();
            let mut offered = vec![0u64; mix.len()];
            let mut accepted = vec![0u64; mix.len()];
            let trigger_at = subs.len() / 2;
            for (n, &(at, t, rid)) in subs.iter().enumerate() {
                while let Some(ts) = acc.next_event_time() {
                    if ts > at {
                        break;
                    }
                    acc.on_timer(ts, &mut events);
                }
                if n == trigger_at {
                    // Tenant 0's entity key is its index, as the platform
                    // binds it.
                    let mgr: &mut dyn ResourceManager = &mut acc;
                    mgr.apply_trigger(at, EntityId(0))
                        .map_err(|e| format!("trigger rejected: {e:?}"))?;
                }
                offered[t] += 1;
                let req = AccelRequest {
                    id: rid,
                    tenant: tenants[t],
                    cost: mix[t].cost,
                    bytes: mix[t].bytes as u64,
                };
                if acc.submit(at, req) {
                    accepted[t] += 1;
                }
            }
            // Drain to idle.
            while let Some(ts) = acc.next_event_time() {
                acc.on_timer(ts, &mut events);
            }

            let mut seen = std::collections::HashSet::new();
            let mut completed_events = vec![0u64; mix.len()];
            for ev in &events {
                if let AccelEvent::Completed {
                    id,
                    tenant,
                    batch_size,
                    ..
                } = ev
                {
                    st_assert!(seen.insert(*id), "request {id} completed twice");
                    st_assert!(*batch_size >= 1, "empty batch completed");
                    completed_events[tenant.0 as usize] += 1;
                }
            }
            for (t, m) in mix.iter().enumerate() {
                let s = acc.stats(tenants[t]).ok_or("tenant stats missing")?;
                st_assert_eq!(s.submitted, accepted[t], "tenant {t} submissions");
                st_assert_eq!(
                    s.submitted + s.rejected,
                    offered[t],
                    "tenant {t} conservation"
                );
                st_assert_eq!(s.completed, s.submitted, "tenant {t} drained");
                st_assert_eq!(s.completed, completed_events[t], "tenant {t} events");
                st_assert_eq!(s.batch_items, s.completed, "tenant {t} batch items");
                if s.batches > 0 {
                    st_assert!(
                        s.batch_items.div_ceil(s.batches)
                            <= AccelConfig::default().max_batch as u64,
                        "tenant {t} mean batch exceeds max_batch"
                    );
                }
                st_assert!(s.preemptions <= s.batches, "tenant {t} preemptions bound");
                st_assert_eq!(acc.queue_depth(tenants[t]), 0, "tenant {t} queue drained");
                let _ = m;
            }
            st_assert_eq!(acc.hbm_used(), 0, "device memory leaked");
            Ok(())
        },
    );
}
