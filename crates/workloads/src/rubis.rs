//! The RUBiS multi-tier auction-site model.
//!
//! ## Request catalogue
//!
//! Table 1 of the paper lists sixteen request types. The offline-profiling
//! narrative in §3.1 gives their resource character: browsing (read-only)
//! requests serve static content and stress web↔application interactions
//! with "practically no database processing"; bid/browse/sell (read-write)
//! requests run Java servlets and generate heavy application↔database
//! interaction, with the application server also burning more CPU. The
//! per-tier service demands below encode exactly that structure; absolute
//! values are calibrated so a 24-client closed loop on a 2-pCPU host
//! reproduces the paper's utilization and latency *shapes*, not its
//! absolute milliseconds.
//!
//! ## Session model
//!
//! RUBiS clients follow probabilistic transitions emulating browsing
//! sessions. We approximate the transition matrix by its stationary mix:
//! each request type carries a weight in the browsing mix and in the
//! read-write mix, and a session is a fixed-length sequence of draws with
//! exponential think times.

use ixp::{AppTag, Packet};
use simcore::{Nanos, SimRng};

/// The three RUBiS tiers, each hosted in its own VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Apache front end.
    Web,
    /// Tomcat servlet container.
    App,
    /// MySQL backend.
    Db,
}

/// A RUBiS request type (one row of Table 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestType {
    /// Request name as printed in Table 1.
    pub name: &'static str,
    /// Stable ordinal carried in packets for DPI classification.
    pub class_id: u16,
    /// `true` for servlet/write-path requests.
    pub write: bool,
    /// Mean web-tier CPU demand in milliseconds.
    pub web_ms: f64,
    /// Mean application-tier CPU demand in milliseconds.
    pub app_ms: f64,
    /// Mean database-tier CPU demand in milliseconds (0 = tier skipped).
    pub db_ms: f64,
    /// Mean response size in bytes.
    pub resp_bytes: u32,
    /// Stationary weight in the browsing (read-only) mix.
    pub browse_weight: f64,
    /// Stationary weight in the bid/browse/sell (read-write) mix.
    pub rw_weight: f64,
}

/// The sixteen request types of Table 1.
///
/// Demands follow the profiling structure: read types have `db_ms` near
/// zero; write types are database- and application-heavy (`StoreBid`,
/// `PutComment` heaviest, matching their worst baseline latencies in the
/// paper).
pub const CATALOG: [RequestType; 16] = [
    RequestType {
        name: "Register",
        class_id: 0,
        write: true,
        web_ms: 3.0,
        app_ms: 8.0,
        db_ms: 9.0,
        resp_bytes: 1200,
        browse_weight: 0.0,
        rw_weight: 2.0,
    },
    RequestType {
        name: "Browse",
        class_id: 1,
        write: false,
        web_ms: 8.0,
        app_ms: 6.0,
        db_ms: 0.0,
        resp_bytes: 6000,
        browse_weight: 14.0,
        rw_weight: 8.0,
    },
    RequestType {
        name: "BrowseCategories",
        class_id: 2,
        write: false,
        web_ms: 9.0,
        app_ms: 6.5,
        db_ms: 0.0,
        resp_bytes: 8000,
        browse_weight: 12.0,
        rw_weight: 7.0,
    },
    RequestType {
        name: "SearchItemsInCategory",
        class_id: 3,
        write: false,
        web_ms: 8.5,
        app_ms: 7.0,
        db_ms: 1.5,
        resp_bytes: 9000,
        browse_weight: 14.0,
        rw_weight: 8.0,
    },
    RequestType {
        name: "BrowseRegions",
        class_id: 4,
        write: false,
        web_ms: 8.5,
        app_ms: 6.0,
        db_ms: 0.0,
        resp_bytes: 7000,
        browse_weight: 9.0,
        rw_weight: 5.0,
    },
    RequestType {
        name: "BrowseCategoriesInRegion",
        class_id: 5,
        write: false,
        web_ms: 9.0,
        app_ms: 6.5,
        db_ms: 0.0,
        resp_bytes: 8000,
        browse_weight: 8.0,
        rw_weight: 5.0,
    },
    RequestType {
        name: "SearchItemsInRegion",
        class_id: 6,
        write: false,
        web_ms: 8.5,
        app_ms: 7.0,
        db_ms: 1.5,
        resp_bytes: 8500,
        browse_weight: 8.0,
        rw_weight: 5.0,
    },
    RequestType {
        name: "ViewItem",
        class_id: 7,
        write: false,
        web_ms: 9.0,
        app_ms: 7.5,
        db_ms: 2.0,
        resp_bytes: 7500,
        browse_weight: 16.0,
        rw_weight: 10.0,
    },
    RequestType {
        name: "BuyNow",
        class_id: 8,
        write: true,
        web_ms: 3.0,
        app_ms: 8.0,
        db_ms: 9.0,
        resp_bytes: 4000,
        browse_weight: 0.0,
        rw_weight: 4.0,
    },
    RequestType {
        name: "PutBidAuth",
        class_id: 9,
        write: true,
        web_ms: 3.0,
        app_ms: 8.0,
        db_ms: 9.5,
        resp_bytes: 3000,
        browse_weight: 0.0,
        rw_weight: 5.0,
    },
    RequestType {
        name: "PutBid",
        class_id: 10,
        write: true,
        web_ms: 3.0,
        app_ms: 9.0,
        db_ms: 12.0,
        resp_bytes: 4500,
        browse_weight: 0.0,
        rw_weight: 6.0,
    },
    RequestType {
        name: "StoreBid",
        class_id: 11,
        write: true,
        web_ms: 3.0,
        app_ms: 9.5,
        db_ms: 14.0,
        resp_bytes: 2500,
        browse_weight: 0.0,
        rw_weight: 6.0,
    },
    RequestType {
        name: "PutComment",
        class_id: 12,
        write: true,
        web_ms: 3.0,
        app_ms: 10.0,
        db_ms: 16.0,
        resp_bytes: 2500,
        browse_weight: 0.0,
        rw_weight: 3.0,
    },
    RequestType {
        name: "Sell",
        class_id: 13,
        write: true,
        web_ms: 3.0,
        app_ms: 8.0,
        db_ms: 10.0,
        resp_bytes: 3500,
        browse_weight: 0.0,
        rw_weight: 4.0,
    },
    RequestType {
        name: "SellItemForm",
        class_id: 14,
        write: false,
        web_ms: 6.0,
        app_ms: 4.0,
        db_ms: 0.0,
        resp_bytes: 3000,
        browse_weight: 5.0,
        rw_weight: 3.0,
    },
    RequestType {
        name: "AboutMe",
        class_id: 15,
        write: false,
        web_ms: 8.0,
        app_ms: 7.0,
        db_ms: 2.5,
        resp_bytes: 6500,
        browse_weight: 14.0,
        rw_weight: 9.0,
    },
];

/// Looks up a request type by its DPI class ordinal.
pub fn by_class_id(class_id: u16) -> Option<&'static RequestType> {
    CATALOG.get(class_id as usize)
}

/// The two standard RUBiS client workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mix {
    /// Browsing (read-only) mix: static pages and images.
    Browsing,
    /// Bid/browse/sell (read-write) mix: servlets, reads and writes.
    #[default]
    ReadWrite,
}

/// Sampled per-tier demands for one request instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierDemands {
    /// Web tier CPU demand.
    pub web: Nanos,
    /// Application tier CPU demand.
    pub app: Nanos,
    /// Database tier CPU demand (zero when the tier is skipped).
    pub db: Nanos,
}

impl TierDemands {
    /// Total CPU demand across tiers.
    pub fn total(&self) -> Nanos {
        self.web + self.app + self.db
    }
}

/// RUBiS workload configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RubisConfig {
    /// Concurrent closed-loop clients.
    pub clients: u32,
    /// Which request mix the clients issue.
    pub mix: Mix,
    /// Mean exponential think time between a response and the next
    /// request of a session.
    pub think_mean: Nanos,
    /// Requests per user session.
    pub session_len: u32,
    /// Relative jitter (σ/mean) applied to sampled demands.
    pub demand_jitter: f64,
    /// Probability that a session stays in its current read/write phase
    /// for the next request. RUBiS bid/sell flows chain several
    /// write-path requests (PutBidAuth → PutBid → StoreBid), so request
    /// classes arrive in bursts rather than i.i.d.
    pub phase_persistence: f64,
    /// Multiplier applied to all catalogue service demands (scenario
    /// scaling knob).
    pub demand_scale: f64,
}

impl Default for RubisConfig {
    fn default() -> Self {
        RubisConfig {
            clients: 24,
            mix: Mix::ReadWrite,
            think_mean: Nanos::from_millis(100),
            session_len: 12,
            demand_jitter: 0.25,
            phase_persistence: 0.92,
            demand_scale: 1.0,
        }
    }
}

/// The RUBiS stochastic model: request sampling, think times, demand
/// jitter and packet synthesis. The platform drives it; it owns no clock.
#[derive(Debug)]
pub struct RubisModel {
    cfg: RubisConfig,
    rng: SimRng,
    read_weights: Vec<f64>,
    write_weights: Vec<f64>,
    write_fraction: f64,
    phases: Vec<bool>, // per-client: currently in a write phase?
    next_packet_id: u64,
}

impl RubisModel {
    /// Creates a model for the configured mix with a deterministic seed.
    pub fn new(cfg: RubisConfig, seed: u64) -> Self {
        let mix_weight = |rt: &RequestType| match cfg.mix {
            Mix::Browsing => rt.browse_weight,
            Mix::ReadWrite => rt.rw_weight,
        };
        let read_weights: Vec<f64> = CATALOG
            .iter()
            .map(|rt| if rt.write { 0.0 } else { mix_weight(rt) })
            .collect();
        let write_weights: Vec<f64> = CATALOG
            .iter()
            .map(|rt| if rt.write { mix_weight(rt) } else { 0.0 })
            .collect();
        let wsum: f64 = write_weights.iter().sum();
        let total: f64 = wsum + read_weights.iter().sum::<f64>();
        let write_fraction = if total > 0.0 { wsum / total } else { 0.0 };
        let mut rng = SimRng::new(seed);
        let phases = (0..cfg.clients)
            .map(|_| rng.chance(write_fraction))
            .collect();
        RubisModel {
            cfg,
            rng,
            read_weights,
            write_weights,
            write_fraction,
            phases,
            next_packet_id: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &RubisConfig {
        &self.cfg
    }

    /// Draws the next request type according to the mix, honouring the
    /// client's current session phase (read browsing vs. write flows).
    pub fn next_request_for(&mut self, client: u32) -> &'static RequestType {
        let c = client as usize % self.phases.len().max(1);
        if !self.rng.chance(self.cfg.phase_persistence) {
            // Phase change: re-draw according to the stationary fraction.
            self.phases[c] = self.rng.chance(self.write_fraction);
        }
        let writing = self.phases[c] && self.write_fraction > 0.0;
        let weights = if writing {
            &self.write_weights
        } else {
            &self.read_weights
        };
        let idx = self.rng.weighted_index(weights);
        &CATALOG[idx]
    }

    /// The stationary write fraction of the configured mix.
    pub fn write_fraction(&self) -> f64 {
        self.write_fraction
    }

    /// Draws a think time.
    pub fn think_time(&mut self) -> Nanos {
        self.rng.exp_nanos(self.cfg.think_mean)
    }

    /// Samples jittered per-tier demands for one instance of `rt`.
    pub fn demands(&mut self, rt: &RequestType) -> TierDemands {
        let scale = self.cfg.demand_scale;
        let mut tier = |mean_ms: f64| {
            if mean_ms <= 0.0 {
                return Nanos::ZERO;
            }
            let mean_ms = mean_ms * scale;
            let sd = mean_ms * self.cfg.demand_jitter;
            let ms = self.rng.normal(mean_ms, sd).max(mean_ms * 0.2);
            Nanos::from_secs_f64(ms / 1e3)
        };
        TierDemands {
            web: tier(rt.web_ms),
            app: tier(rt.app_ms),
            db: tier(rt.db_ms),
        }
    }

    /// Builds the on-wire request packet for `rt` addressed to the web
    /// VM's index.
    pub fn request_packet(&mut self, rt: &RequestType, web_vm: u32) -> Packet {
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        Packet::new(
            id,
            web_vm,
            420,
            AppTag::Http {
                class_id: rt.class_id,
                write: rt.write,
            },
        )
    }

    /// Builds the response packet for `rt` (single MTU-clamped packet
    /// standing in for the response burst).
    pub fn response_packet(&mut self, rt: &RequestType, client_vm: u32) -> Packet {
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        Packet::new(
            id,
            client_vm,
            rt.resp_bytes.clamp(200, 1500),
            AppTag::HttpResponse {
                class_id: rt.class_id,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_structure_matches_profiling_narrative() {
        assert_eq!(CATALOG.len(), 16);
        for rt in &CATALOG {
            assert!(rt.web_ms > 0.0, "{} always hits the web tier", rt.name);
            if !rt.write {
                // Reads are light on the database.
                assert!(rt.db_ms <= 5.0, "{} is a read", rt.name);
            } else {
                // Writes hit the database hard.
                assert!(rt.db_ms >= 4.0, "{} is a write", rt.name);
                assert_eq!(rt.browse_weight, 0.0, "writes absent from browsing mix");
            }
        }
        // The heaviest writes of Table 1 are the heaviest here.
        let store = by_class_id(11).unwrap();
        let comment = by_class_id(12).unwrap();
        for rt in &CATALOG {
            if rt.name != "PutComment" {
                assert!(comment.db_ms >= rt.db_ms);
            }
        }
        assert!(store.db_ms > 8.0);
    }

    #[test]
    fn class_ids_are_their_indices() {
        for (i, rt) in CATALOG.iter().enumerate() {
            assert_eq!(rt.class_id as usize, i);
            assert_eq!(by_class_id(rt.class_id).unwrap().name, rt.name);
        }
        assert!(by_class_id(99).is_none());
    }

    #[test]
    fn browsing_mix_draws_only_reads() {
        let cfg = RubisConfig {
            mix: Mix::Browsing,
            ..RubisConfig::default()
        };
        let mut m = RubisModel::new(cfg, 1);
        for _ in 0..1000 {
            assert!(!m.next_request_for(0).write);
        }
    }

    #[test]
    fn readwrite_mix_draws_both() {
        let mut m = RubisModel::new(RubisConfig::default(), 1);
        let (mut reads, mut writes) = (0, 0);
        for _ in 0..2000 {
            if m.next_request_for(0).write {
                writes += 1;
            } else {
                reads += 1;
            }
        }
        assert!(writes > 300, "writes {writes}");
        assert!(reads > 600, "reads {reads}");
    }

    #[test]
    fn demands_are_jittered_but_positive() {
        let mut m = RubisModel::new(RubisConfig::default(), 2);
        let rt = by_class_id(11).unwrap(); // StoreBid
        let mut total = Nanos::ZERO;
        for _ in 0..100 {
            let d = m.demands(rt);
            assert!(d.web.as_nanos() > 0);
            assert!(d.db.as_nanos() > 0);
            total += d.total();
        }
        let avg_ms = total.as_millis_f64() / 100.0;
        let expect = rt.web_ms + rt.app_ms + rt.db_ms;
        assert!(
            (avg_ms - expect).abs() < expect * 0.2,
            "avg {avg_ms} vs {expect}"
        );
    }

    #[test]
    fn read_demands_skip_db() {
        let mut m = RubisModel::new(RubisConfig::default(), 3);
        let rt = by_class_id(1).unwrap(); // Browse
        assert_eq!(m.demands(rt).db, Nanos::ZERO);
    }

    #[test]
    fn packets_carry_classification() {
        let mut m = RubisModel::new(RubisConfig::default(), 4);
        let rt = by_class_id(10).unwrap(); // PutBid
        let p = m.request_packet(rt, 1);
        assert_eq!(p.dst_vm, 1);
        assert!(matches!(
            p.app,
            AppTag::Http {
                class_id: 10,
                write: true
            }
        ));
        let r = m.response_packet(rt, 0);
        assert!(matches!(r.app, AppTag::HttpResponse { class_id: 10 }));
        assert!(r.len_bytes <= 1500);
        assert_ne!(p.id, r.id);
    }

    #[test]
    fn think_times_have_configured_mean() {
        let mut m = RubisModel::new(RubisConfig::default(), 5);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| m.think_time().as_secs_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.1).abs() < 0.01, "mean think {mean}");
    }

    #[test]
    fn phase_persistence_creates_class_runs() {
        // A single client's request stream must show much longer
        // same-class runs than an i.i.d. draw would.
        let cfg = RubisConfig {
            clients: 1,
            phase_persistence: 0.9,
            ..RubisConfig::default()
        };
        let mut m = RubisModel::new(cfg, 7);
        let mut runs = Vec::new();
        let mut current = m.next_request_for(0).write;
        let mut len = 1u32;
        for _ in 0..5000 {
            let w = m.next_request_for(0).write;
            if w == current {
                len += 1;
            } else {
                runs.push(len);
                current = w;
                len = 1;
            }
        }
        let mean_run = runs.iter().sum::<u32>() as f64 / runs.len() as f64;
        // i.i.d. at a 42% write fraction gives mean runs of ~2; with 0.9
        // persistence they must be several times longer.
        assert!(mean_run > 4.0, "mean class-run length {mean_run}");
    }

    #[test]
    fn stationary_write_fraction_is_preserved() {
        let mut m = RubisModel::new(RubisConfig::default(), 3);
        let expect = m.write_fraction();
        let mut writes = 0u32;
        let n = 20_000;
        for i in 0..n {
            if m.next_request_for(i % 24).write {
                writes += 1;
            }
        }
        let measured = writes as f64 / n as f64;
        assert!(
            (measured - expect).abs() < 0.03,
            "measured {measured} vs stationary {expect}"
        );
    }

    #[test]
    fn demand_scale_multiplies_all_tiers() {
        let base_cfg = RubisConfig {
            demand_jitter: 0.0,
            ..RubisConfig::default()
        };
        let scaled_cfg = RubisConfig {
            demand_scale: 3.0,
            ..base_cfg
        };
        let mut a = RubisModel::new(
            RubisConfig {
                demand_scale: 1.0,
                ..base_cfg
            },
            5,
        );
        let mut b = RubisModel::new(scaled_cfg, 5);
        let rt = by_class_id(10).unwrap();
        let da = a.demands(rt);
        let db = b.demands(rt);
        assert_eq!(db.web.as_nanos(), 3 * da.web.as_nanos());
        assert_eq!(db.app.as_nanos(), 3 * da.app.as_nanos());
        assert_eq!(db.db.as_nanos(), 3 * da.db.as_nanos());
    }

    #[test]
    fn browsing_mix_write_fraction_is_zero() {
        let cfg = RubisConfig {
            mix: Mix::Browsing,
            ..RubisConfig::default()
        };
        let m = RubisModel::new(cfg, 1);
        assert_eq!(m.write_fraction(), 0.0);
    }
}
