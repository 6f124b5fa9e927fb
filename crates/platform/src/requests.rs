//! The client side of a request, shared by RUBiS and the inference
//! tenants: open, retransmit with backoff, duplicate suppression at the
//! guest, and client-to-client completion. Every copy of a request and
//! its response carry the request id as their packet id, so one map
//! keyed by that id is a workload's whole bookkeeping.

use crate::world::{Ev, Platform};
use ixp::{AppTag, Packet};
use simcore::{IdMap, Nanos};

/// One outstanding request.
#[derive(Debug)]
pub(crate) struct Request<W> {
    pub start: Nanos,
    /// Current transmission attempt (0 = original send).
    attempt: u32,
    /// A copy is being served: later copies are duplicates and the
    /// retransmission timer stands down.
    in_service: bool,
    /// What the workload needs to serve the request.
    pub work: W,
}

/// A workload's outstanding requests by request id.
#[derive(Debug)]
pub(crate) struct ClientTable<W> {
    reqs: IdMap<u64, Request<W>>,
    offered: u64,
}

impl<W> Default for ClientTable<W> {
    fn default() -> Self {
        ClientTable {
            reqs: IdMap::default(),
            offered: 0,
        }
    }
}

impl<W: Copy> ClientTable<W> {
    pub(crate) fn open(&mut self, req: u64, start: Nanos, work: W) {
        self.offered += 1;
        self.reqs.insert(
            req,
            Request {
                start,
                attempt: 0,
                in_service: false,
                work,
            },
        );
    }

    /// The timer of `attempt` fired: if the request still waits on that
    /// attempt, returns the next attempt's number.
    pub(crate) fn retransmit(&mut self, req: u64, attempt: u32) -> Option<(u32, W)> {
        let r = self.reqs.get_mut(&req)?;
        if r.attempt != attempt || r.in_service {
            return None;
        }
        r.attempt += 1;
        Some((r.attempt, r.work))
    }

    /// A copy reached the guest. `None` for a stale copy (the request was
    /// answered) or a duplicate (another copy is in service); otherwise
    /// the request is now in service.
    pub(crate) fn arrive(&mut self, req: u64) -> Option<W> {
        let r = self.reqs.get_mut(&req).filter(|r| !r.in_service)?;
        r.in_service = true;
        Some(r.work)
    }

    /// The guest dropped the copy in service: the timer will resend.
    pub(crate) fn requeue(&mut self, req: u64) {
        if let Some(r) = self.reqs.get_mut(&req) {
            r.in_service = false;
        }
    }

    pub(crate) fn get(&self, req: u64) -> Option<W> {
        self.reqs.get(&req).map(|r| r.work)
    }

    pub(crate) fn complete(&mut self, req: u64) -> Option<Request<W>> {
        self.reqs.remove(&req)
    }

    /// Requests opened, and requests not yet answered.
    pub(crate) fn counts(&self) -> (u64, u64) {
        (self.offered, self.reqs.len() as u64)
    }
}

impl Platform {
    /// Puts copy `attempt` of request `req` on the wire and arms its
    /// retransmission timer (doubling per attempt, at most 16×). Attempt
    /// 0's timer is due `now + rto_initial`, which never decreases, so it
    /// goes through the master queue's FIFO lane.
    pub(crate) fn transmit(&mut self, req: u64, attempt: u32, mut pkt: Packet) {
        pkt.id = req;
        let now = self.now;
        self.q
            .schedule(now + self.costs.wire_latency, Ev::WireArrive(pkt));
        let rto = Ev::Rto { req, attempt };
        if attempt == 0 {
            self.q.schedule_fifo(now + self.costs.rto_initial, rto);
        } else {
            self.q
                .schedule(now + self.costs.rto_initial * (1u64 << attempt.min(4)), rto);
        }
    }

    /// Hands request `req`'s response to the IXP Tx pipeline.
    pub(crate) fn send_response(&mut self, req: u64, mut resp: Packet) {
        resp.id = req;
        let evs = self.ixp.tx_from_host(self.now, resp);
        self.absorb_ixp(evs);
    }

    /// A packet left on the wire: a response completes its request.
    pub(crate) fn on_wire_tx(&mut self, pkt: Packet) {
        match pkt.app {
            AppTag::HttpResponse { .. } => self.rubis_delivered(pkt.id),
            AppTag::InferenceResponse { .. } => self.inference_delivered(pkt.id),
            _ => {}
        }
    }

    /// Records a response reaching its client one wire latency from now,
    /// and returns that instant.
    pub(crate) fn record_response(&mut self, class: &str, start: Nanos) -> Nanos {
        let t_client = self.now + self.costs.wire_latency;
        let latency = t_client.saturating_sub(start);
        self.responses.record(class, latency);
        if let Some(e) = self.energy.as_mut() {
            e.window.record(class, latency);
        }
        self.sessions.request_completed();
        t_client
    }
}
