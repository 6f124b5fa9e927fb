//! # workloads — RUBiS and MPlayer application models
//!
//! The paper evaluates coordination with two widely-used benchmarks
//! (§3): **RUBiS**, an eBay-like three-tier auction site (Apache web
//! server, Tomcat servlet application server, MySQL database, each in its
//! own Xen VM), and **MPlayer**, a media player decoding RTSP/UDP video
//! streams inside guest VMs.
//!
//! Neither real application can run on a simulator, so this crate models
//! what the coordination schemes actually interact with:
//!
//! * [`rubis`] — the 16 request types of Table 1 with per-tier CPU service
//!   demands (derived from the paper's offline profiling narrative: read
//!   requests stress web↔app, write/servlet requests stress app↔db), the
//!   two standard client mixes (browsing and bid/browse/sell), and a
//!   closed-loop session generator with think times.
//! * [`mplayer`] — stream specifications (bit rate, frame rate), a paced
//!   frame/packet schedule, and a per-frame decode cost model calibrated
//!   so that the Figure 6 weight configurations reproduce the paper's
//!   meets/misses pattern.
//! * [`inference`] — open-loop multi-tenant inference serving for the
//!   accelerator island (§5's heterogeneous-future direction): a model
//!   catalogue spanning interactive and batch SLAs, Poisson per-tenant
//!   arrivals and per-request compute costs.
//! * [`adversary`] — strategic tenants that game the Tune/Trigger
//!   interface (demand-delta inflation, Trigger spam, free-riding),
//!   driving the price-of-anarchy experiment and the controller-side
//!   defenses in `coord`.
//! * [`session`] — open-loop session arrival with per-shard admission
//!   (an M/G/c/c loss door), the fleet-scale load model: offered load
//!   scales 100×–1000× beyond one shard's capacity and the admission
//!   cap is the knob fleet coordination moves between shards.
//!
//! ## Example
//!
//! ```
//! use workloads::rubis::{Mix, RubisModel, RubisConfig};
//!
//! let mut model = RubisModel::new(RubisConfig::default(), 42);
//! let rt = model.next_request_for(0);
//! assert!(!rt.name.is_empty());
//! let demands = model.demands(rt);
//! assert!(demands.total().as_nanos() > 0);
//! # let _ = Mix::Browsing;
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adversary;
pub mod inference;
pub mod mplayer;
pub mod rubis;
pub mod session;
