//! # ixp — the IXP2850 network-processor scheduling island
//!
//! An event-driven model of the Intel IXP2850 as deployed on the paper's
//! Netronome i8000 card: 16 microengines × 8 hardware threads at 1.4 GHz,
//! a deep memory hierarchy (local / scratchpad / SRAM / DRAM), packet
//! descriptor rings in SRAM with payloads in DRAM, and — on top of the
//! hardware round-robin thread switching — the paper's *scheduler-like*
//! software layer that assigns threads and polling intervals to classified
//! per-VM flow queues (§2.1).
//!
//! The model reproduces the island behaviours the coordination schemes
//! consume:
//!
//! * per-packet processing costs derived from an instruction + memory
//!   reference [`CostModel`] with multithreaded latency hiding;
//! * per-flow service rates as a function of **thread assignment**
//!   ([`IxpIsland::set_flow_threads`], the IXP-side Tune lever) and the
//!   configured **poll interval**;
//! * deep-packet-inspection classification of incoming requests
//!   ([`IxpEvent::Classified`]) — the input to RUBiS request-type
//!   coordination;
//! * DRAM buffer occupancy per flow with threshold alarms
//!   ([`IxpEvent::BufferAlarm`]) — the input to Trigger coordination.
//!
//! ## Example
//!
//! ```
//! use ixp::{AppTag, IxpConfig, IxpEvent, IxpIsland, Packet};
//! use simcore::Nanos;
//!
//! let mut island = IxpIsland::new(IxpConfig::default());
//! let flow = island.register_flow(1); // VM #1's receive flow
//! let pkt = Packet::new(0, 1, 1500, AppTag::Plain);
//! island.rx_from_wire(Nanos::ZERO, pkt);
//! // Drive to completion: the packet crosses Rx → classify → flow queue.
//! // Outputs land in a reusable caller-owned buffer.
//! let mut delivered = false;
//! let mut evs = Vec::new();
//! while let Some(t) = island.next_event_time() {
//!     evs.clear();
//!     island.on_timer(t, &mut evs);
//!     for ev in &evs {
//!         if let IxpEvent::DeliverToHost { flow: f, .. } = ev {
//!             assert_eq!(*f, flow);
//!             delivered = true;
//!         }
//!     }
//! }
//! assert!(delivered);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
mod hw;
mod island;
mod monitor;
mod packet;
mod pool;

pub use hw::{CostModel, IxpGeometry, MemLevel};
pub use island::{FlowStats, IxpConfig, IxpEvent, IxpIsland};
pub use monitor::BufferMonitor;
pub use packet::{AppTag, FlowId, Packet};
pub use pool::ThreadPool;
