//! # fleet — sharded worlds under a Lamport-ordered coordination bus
//!
//! The paper's scalability discussion (§5) asks how coordination behaves
//! when the coordinated entities no longer share a board. This crate is
//! that story at fleet scale: **N independent platform shards** — each a
//! full island set seeded `seed ^ shard_id` for deterministic replay —
//! joined by a **cross-node coordination bus** whose frames carry
//! Lamport-timestamped envelopes, aggregated through a real
//! node → rack → fleet tree built on `coord::hierarchy`.
//!
//! The moving parts:
//!
//! * [`lamport`] — logical clocks and the `(lamport, source)` total
//!   order (after the Actyx event-sourcing treatment): every cross-node
//!   message is stamped, and every observer sorts deliveries into the
//!   same order no matter how the wire skewed them.
//! * [`bus`] — per-node lanes built from the PR-3 machinery
//!   (`pcie::Mailbox` fault injection + `coord::reliable`
//!   ack/retransmit), carrying wire-tag-8 envelopes; undelivered frames
//!   carry over into later coordination rounds as stale reports.
//! * [`shard`] — shard plans and slice build specs; plain `Send` data
//!   that `bench::pool` fans out across scoped threads.
//! * [`state`] — [`FleetState`]: per-shard admission caps (the
//!   fleet-scale coordinated resource, fed by `workloads::session`'s
//!   open-loop arrival), rebalanced each round at the tree level the
//!   topology allows.
//! * [`report`] — [`FleetReport`] and the canonical digest behind the
//!   F2 determinism columns.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bus;
pub mod lamport;
pub mod report;
pub mod shard;
pub mod state;

pub use bus::{BusConfig, BusStats, CoordBus, Delivery};
pub use lamport::{sort_envelopes, Envelope, LamportClock, NodeId};
pub use report::{FleetReport, ShardSummary};
pub use shard::{ShardPlan, ShardSpec};
pub use state::{FleetConfig, FleetState, FleetTopology, RoundStats};
