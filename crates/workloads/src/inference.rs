//! The inference-serving workload model for the accelerator island.
//!
//! Where RUBiS is closed-loop (clients think between requests), inference
//! serving is **open-loop**: each tenant is an independent Poisson request
//! source whose rate does not slow down when the platform falls behind —
//! exactly the regime where batch-forming policy matters, because backlog
//! compounds instead of self-throttling.
//!
//! ## Model catalogue
//!
//! Per-model parameters follow the standard serving taxonomy (small
//! interactive models with tight latency SLAs vs. large ranking/embedding
//! models optimized for throughput). Absolute costs are calibrated so a
//! handful of tenants saturate a two-unit accelerator at the default
//! rates; as with RUBiS, shapes matter, not milliseconds.

use ixp::{AppTag, Packet};
use simcore::{Nanos, SimRng};

/// A served model (one row of the catalogue).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelSpec {
    /// Model name as printed in reports.
    pub name: &'static str,
    /// Stable ordinal carried in packets for DPI classification.
    pub model_id: u16,
    /// `true` for interactive (latency-SLA) serving.
    pub latency_sensitive: bool,
    /// Mean accelerator compute cost per request, in milliseconds.
    pub compute_ms: f64,
    /// Request payload pinned in device memory while queued/in flight.
    pub input_bytes: u32,
    /// Response size on the wire.
    pub output_bytes: u32,
    /// Mean x86 post-processing (detokenize/serialize) cost per request,
    /// in milliseconds.
    pub post_ms: f64,
}

/// The model catalogue: two interactive and two batch-oriented models.
pub const MODELS: [ModelSpec; 4] = [
    ModelSpec {
        name: "chat-s",
        model_id: 0,
        latency_sensitive: true,
        compute_ms: 0.9,
        input_bytes: 2_048,
        output_bytes: 1_400,
        post_ms: 0.30,
    },
    ModelSpec {
        name: "vision-m",
        model_id: 1,
        latency_sensitive: true,
        compute_ms: 1.4,
        input_bytes: 8_192,
        output_bytes: 900,
        post_ms: 0.25,
    },
    ModelSpec {
        name: "rank-l",
        model_id: 2,
        latency_sensitive: false,
        compute_ms: 2.2,
        input_bytes: 16_384,
        output_bytes: 600,
        post_ms: 0.20,
    },
    ModelSpec {
        name: "embed-xl",
        model_id: 3,
        latency_sensitive: false,
        compute_ms: 3.0,
        input_bytes: 32_768,
        output_bytes: 500,
        post_ms: 0.15,
    },
];

/// Looks up a model by its DPI ordinal.
pub fn by_model_id(model_id: u16) -> Option<&'static ModelSpec> {
    MODELS.get(model_id as usize)
}

/// One tenant: an open-loop request source for a single model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSpec {
    /// Tenant name as printed in reports.
    pub name: &'static str,
    /// Model this tenant serves.
    pub model_id: u16,
    /// Mean request arrival rate (requests per second).
    pub rate_per_sec: f64,
}

/// Inference workload configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceConfig {
    /// Tenants sharing the accelerator (each gets its own VM + queues).
    pub tenants: Vec<TenantSpec>,
    /// Relative jitter (σ/mean) applied to sampled compute costs.
    pub cost_jitter: f64,
}

impl Default for InferenceConfig {
    fn default() -> Self {
        InferenceConfig {
            tenants: vec![
                TenantSpec {
                    name: "chat",
                    model_id: 0,
                    rate_per_sec: 220.0,
                },
                TenantSpec {
                    name: "rank",
                    model_id: 2,
                    rate_per_sec: 260.0,
                },
            ],
            cost_jitter: 0.2,
        }
    }
}

/// The inference stochastic model: Poisson arrivals per tenant, jittered
/// compute costs and packet synthesis. The platform drives it; it owns no
/// clock.
#[derive(Debug)]
pub struct InferenceModel {
    cfg: InferenceConfig,
    rng: SimRng,
    next_packet_id: u64,
}

impl InferenceModel {
    /// Creates a model with a deterministic seed.
    pub fn new(cfg: InferenceConfig, seed: u64) -> Self {
        InferenceModel {
            cfg,
            rng: SimRng::new(seed.wrapping_mul(0xC2B2_AE35)),
            next_packet_id: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &InferenceConfig {
        &self.cfg
    }

    /// The model a tenant serves.
    pub fn model_of(&self, tenant: usize) -> &'static ModelSpec {
        by_model_id(self.cfg.tenants[tenant].model_id).expect("tenant model in catalogue")
    }

    /// Draws the gap to a tenant's next arrival (exponential, open-loop).
    pub fn next_gap(&mut self, tenant: usize) -> Nanos {
        let rate = self.cfg.tenants[tenant].rate_per_sec.max(1e-9);
        self.rng.exp_nanos(Nanos::from_secs_f64(1.0 / rate))
    }

    /// Samples the jittered accelerator compute cost of one request.
    pub fn compute_cost(&mut self, tenant: usize) -> Nanos {
        let m = self.model_of(tenant);
        let sd = m.compute_ms * self.cfg.cost_jitter;
        let ms = self.rng.normal(m.compute_ms, sd).max(m.compute_ms * 0.2);
        Nanos::from_secs_f64(ms / 1e3)
    }

    /// The x86 post-processing burst for one of a tenant's responses.
    pub fn post_cost(&self, tenant: usize) -> Nanos {
        Nanos::from_secs_f64(self.model_of(tenant).post_ms / 1e3)
    }

    /// Builds the on-wire request packet for a tenant addressed to its
    /// serving VM's index.
    pub fn request_packet(&mut self, tenant: usize, vm: u32) -> Packet {
        let m = self.model_of(tenant);
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        Packet::new(
            id,
            vm,
            m.input_bytes.clamp(200, 1500),
            AppTag::Inference {
                model_id: m.model_id,
                latency_sensitive: m.latency_sensitive,
            },
        )
    }

    /// Builds the response packet for one completed request.
    pub fn response_packet(&mut self, tenant: usize, client_vm: u32) -> Packet {
        let m = self.model_of(tenant);
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        Packet::new(
            id,
            client_vm,
            m.output_bytes.clamp(200, 1500),
            AppTag::InferenceResponse {
                model_id: m.model_id,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_covers_both_sla_classes() {
        assert!(MODELS.iter().any(|m| m.latency_sensitive));
        assert!(MODELS.iter().any(|m| !m.latency_sensitive));
        for (i, m) in MODELS.iter().enumerate() {
            assert_eq!(m.model_id as usize, i, "ordinal matches position");
            assert_eq!(by_model_id(m.model_id), Some(m));
            assert!(m.compute_ms > 0.0 && m.post_ms > 0.0);
        }
        assert_eq!(by_model_id(99), None);
    }

    #[test]
    fn arrivals_match_configured_rate() {
        let mut model = InferenceModel::new(InferenceConfig::default(), 7);
        let rate = model.config().tenants[0].rate_per_sec;
        let n = 4000;
        let total: f64 = (0..n).map(|_| model.next_gap(0).as_secs_f64()).sum();
        let measured = n as f64 / total;
        assert!(
            (measured - rate).abs() / rate < 0.1,
            "measured {measured} vs configured {rate}"
        );
    }

    #[test]
    fn packets_carry_inference_tags() {
        let mut model = InferenceModel::new(InferenceConfig::default(), 7);
        let p = model.request_packet(0, 3);
        assert!(matches!(
            p.app,
            AppTag::Inference {
                model_id: 0,
                latency_sensitive: true
            }
        ));
        assert_eq!(p.dst_vm, 3);
        let r = model.response_packet(1, u32::MAX);
        assert!(matches!(r.app, AppTag::InferenceResponse { model_id: 2 }));
        assert!(r.id > p.id, "packet ids platform-unique and increasing");
    }

    #[test]
    fn compute_cost_jitters_around_mean() {
        let mut model = InferenceModel::new(InferenceConfig::default(), 11);
        let mean_ms = model.model_of(0).compute_ms;
        let n = 2000;
        let total_ms: f64 = (0..n)
            .map(|_| model.compute_cost(0).as_secs_f64() * 1e3)
            .sum();
        let measured = total_ms / n as f64;
        assert!((measured - mean_ms).abs() / mean_ms < 0.1);
        assert!(model.compute_cost(0) >= Nanos::from_secs_f64(mean_ms * 0.2 / 1e3));
    }
}
