//! Packets and the application-level metadata the IXP classifiers extract.

use std::fmt;

/// Index of a classified per-VM flow queue on the IXP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u32);

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow{}", self.0)
    }
}

/// Application-level content of a packet, as the IXP's classification
/// engines would recover it from headers and payload bytes.
///
/// In the hardware prototype this information lives in HTTP request lines,
/// RTSP SDP exchanges and RTP headers; the simulation carries it as
/// structured metadata and charges the classifier the DRAM references it
/// would spend parsing the real bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppTag {
    /// An HTTP request with an application-defined class (e.g. a RUBiS
    /// request type ordinal) and whether it is a write-path request.
    Http {
        /// Workload-defined request class ordinal.
        class_id: u16,
        /// `true` for write-path (servlet / DB mutating) requests.
        write: bool,
    },
    /// An HTTP response flowing back to a client.
    HttpResponse {
        /// Class of the request being answered.
        class_id: u16,
    },
    /// An RTSP session setup advertising stream properties.
    RtspSetup {
        /// Stream bit rate in kbit/s.
        kbps: u32,
        /// Stream frame rate in frames/s.
        fps: u32,
    },
    /// RTP media data belonging to an established stream.
    Rtp {
        /// Stream bit rate in kbit/s (as learned at setup).
        kbps: u32,
        /// Stream frame rate in frames/s.
        fps: u32,
    },
    /// An inference invocation bound for the accelerator island, carrying
    /// the model ordinal the classifier recovers from the RPC header.
    Inference {
        /// Workload-defined model ordinal.
        model_id: u16,
        /// `true` for interactive (latency-SLA) traffic, `false` for
        /// batch/throughput traffic.
        latency_sensitive: bool,
    },
    /// An inference result flowing back to a client.
    InferenceResponse {
        /// Model ordinal of the request being answered.
        model_id: u16,
    },
    /// Flow-control-free UDP bulk data.
    UdpBulk,
    /// Anything else.
    Plain,
}

/// A network packet traversing the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Packet id, assigned by the traffic source and never interpreted by
    /// the IXP (a retransmitted copy may reuse its original's id).
    pub id: u64,
    /// Destination VM index (guest domain the packet is addressed to);
    /// the Rx flow-classification key.
    pub dst_vm: u32,
    /// On-wire length in bytes.
    pub len_bytes: u32,
    /// Application metadata recovered by classification.
    pub app: AppTag,
}

impl Packet {
    /// Creates a packet.
    pub fn new(id: u64, dst_vm: u32, len_bytes: u32, app: AppTag) -> Self {
        Packet {
            id,
            dst_vm,
            len_bytes,
            app,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_display() {
        assert_eq!(FlowId(3).to_string(), "flow3");
    }

    #[test]
    fn packet_fields() {
        let p = Packet::new(
            9,
            2,
            1500,
            AppTag::Http {
                class_id: 4,
                write: true,
            },
        );
        assert_eq!(p.id, 9);
        assert_eq!(p.dst_vm, 2);
        assert_eq!(p.len_bytes, 1500);
        assert!(matches!(
            p.app,
            AppTag::Http {
                class_id: 4,
                write: true
            }
        ));
    }
}
