//! The RUBiS request lifecycle across the platform.
//!
//! A request is born at an external client, crosses the wire into the
//! IXP (where DPI classification drives the coordination policy), is
//! DMA'd to the host, delivered into the web VM, processed through
//! whichever tiers its type requires (each inter-VM hop is a Dom0 bridge
//! burst), and its response leaves through the IXP Tx pipeline. Response
//! time is measured client-to-client.

use crate::world::{horizon, Ctx, Ev, Platform, ReqState};
use ixp::{AppTag, Packet};
use workloads::rubis::Tier;
use xsched::{Burst, WakeMode};

impl Platform {
    /// A client issues its next request.
    pub(crate) fn client_send(&mut self, client: u32) {
        let now = self.now;
        let wire = self.costs.wire_latency;
        let rto = self.costs.rto_initial;
        let Some(r) = self.rubis.as_mut() else { return };
        let rt = r.model.next_request_for(client);
        let demands = r.model.demands(rt);
        let pkt = r.model.request_packet(rt, r.web_vm);
        let req = pkt.id;
        r.pkt_to_req.insert(pkt.id, req);
        r.reqs.insert(
            req,
            ReqState { rt, demands, client, start: now, attempt: 0, in_service: false },
        );
        self.horizons.mark(horizon::QUEUE);
        self.q.schedule(now + wire, Ev::WireArrive(pkt));
        self.q.schedule(now + rto, Ev::Rto { req, attempt: 0 });
    }

    /// A client's retransmission timer fired: if the request is still
    /// outstanding, resend it (TCP-style, with exponential backoff).
    pub(crate) fn client_rto(&mut self, req: u64, attempt: u32) {
        let now = self.now;
        let wire = self.costs.wire_latency;
        let rto = self.costs.rto_initial;
        let Some(r) = self.rubis.as_mut() else { return };
        let Some(state) = r.reqs.get_mut(&req) else { return };
        if state.attempt != attempt || state.in_service {
            // Response already in flight through the tiers, or this timer
            // belongs to a superseded attempt.
            return;
        }
        state.attempt += 1;
        let next_attempt = state.attempt;
        let rt = state.rt;
        let pkt = r.model.request_packet(rt, r.web_vm);
        r.pkt_to_req.insert(pkt.id, req);
        self.horizons.mark(horizon::QUEUE);
        self.q.schedule(now + wire, Ev::WireArrive(pkt));
        let backoff = rto * (1u64 << next_attempt.min(4));
        self.q.schedule(now + backoff, Ev::Rto { req, attempt: next_attempt });
    }

    /// A classified request packet reached the web VM.
    pub(crate) fn rubis_request_arrived(&mut self, vm: u32, pkt: Packet) {
        let AppTag::Http { .. } = pkt.app else { return };
        let Some(r) = self.rubis.as_mut() else { return };
        debug_assert_eq!(vm, r.web_vm, "requests enter at the web tier");
        let Some(&req) = r.pkt_to_req.get(&pkt.id) else {
            // Stale duplicate of an already-answered request.
            self.consume_rx(vm, 1);
            return;
        };
        r.pkt_to_req.remove(&pkt.id);
        let Some(state) = r.reqs.get_mut(&req) else {
            self.consume_rx(vm, 1);
            return;
        };
        if state.in_service {
            // A duplicate (original + retransmission both survived): the
            // web server still parses it, then discards it.
            self.consume_rx(vm, 1);
            return;
        }
        state.in_service = true;
        let demand = state.demands.web;
        self.admit_or_drop(vm, req, Tier::Web, demand);
    }

    /// Admission control at a tier: start the burst if the tier's backlog
    /// is under its connector cap, otherwise drop the request (the client
    /// recovers by retransmission).
    fn admit_or_drop(&mut self, vm: u32, req: u64, tier: Tier, demand: simcore::Nanos) {
        // The energy knobs act here: shrunken cache ways / bandwidth
        // share stretch this tier's service time (identity when the
        // energy dimension is off).
        let demand = self.energy_scaled(tier, demand);
        let Some(slot) = self.slot_by_vm(vm) else { return };
        if self.vms[slot].pending >= self.costs.tier_q_cap {
            self.guest_drops += 1;
            if let Some(r) = self.rubis.as_mut() {
                if let Some(state) = r.reqs.get_mut(&req) {
                    state.in_service = false; // the RTO will resend
                }
            }
            return;
        }
        self.vms[slot].pending += 1;
        let dom = self.vms[slot].dom;
        let tag = self.tags.insert(Ctx::TierDone { req, tier });
        self.submit(dom, Burst::user(demand, tag), WakeMode::Boost);
    }

    /// A tier finished its CPU work for a request.
    pub(crate) fn rubis_tier_done(&mut self, req: u64, tier: Tier) {
        let Some(r) = self.rubis.as_ref() else { return };
        let (web_vm, app_vm, db_vm) = (r.web_vm, r.app_vm, r.db_vm);
        let tier_vm = match tier {
            Tier::Web => web_vm,
            Tier::App => app_vm,
            Tier::Db => db_vm,
        };
        if let Some(slot) = self.slot_by_vm(tier_vm) {
            self.vms[slot].pending = self.vms[slot].pending.saturating_sub(1);
        }
        let Some(r) = self.rubis.as_ref() else { return };
        let Some(state) = r.reqs.get(&req) else { return };
        let demands = state.demands;
        match tier {
            Tier::Web => {
                // The request packet's receive-window unit is consumed.
                self.consume_rx(web_vm, 1);
                if demands.app.as_nanos() > 0 {
                    self.bridge_hop(req, Tier::App);
                } else {
                    self.respond(req);
                }
            }
            Tier::App => {
                if demands.db.as_nanos() > 0 {
                    self.bridge_hop(req, Tier::Db);
                } else {
                    self.respond(req);
                }
            }
            Tier::Db => {
                self.respond(req);
            }
        }
    }

    /// A Dom0 bridge hop finished: start the destination tier's burst
    /// subject to the tier's admission cap.
    pub(crate) fn rubis_hop_done(&mut self, req: u64, tier: Tier) {
        let Some(r) = self.rubis.as_ref() else { return };
        let (app_vm, db_vm) = (r.app_vm, r.db_vm);
        let Some(state) = r.reqs.get(&req) else { return };
        let (vm, demand) = match tier {
            Tier::App => (app_vm, state.demands.app),
            Tier::Db => (db_vm, state.demands.db),
            Tier::Web => unreachable!("requests never hop back to web"),
        };
        self.admit_or_drop(vm, req, tier, demand);
    }

    /// Queues the Dom0 bridge burst carrying a request to its next tier.
    fn bridge_hop(&mut self, req: u64, tier: Tier) {
        let cost = self.costs.bridge;
        let tag = self.tags.insert(Ctx::HopDone { req, tier });
        let dom0 = self.dom0;
        self.submit(dom0, Burst::system(cost, tag), WakeMode::Boost);
    }

    /// The deepest tier finished: emit the response through Dom0 → IXP.
    fn respond(&mut self, req: u64) {
        let cost = self.costs.resp_bridge;
        let tag = self.tags.insert(Ctx::RespOut { req });
        let dom0 = self.dom0;
        self.submit(dom0, Burst::system(cost, tag), WakeMode::Boost);
    }

    /// Dom0's response bridge finished: hand the response packet to the
    /// IXP Tx pipeline.
    pub(crate) fn rubis_resp_out(&mut self, req: u64) {
        let Some(r) = self.rubis.as_mut() else { return };
        let Some(state) = r.reqs.get(&req) else { return };
        let rt = state.rt;
        // Responses use the shared wire-Tx stage: per-flow egress
        // scheduling is a streaming-QoS knob (§2.1), not part of the
        // request/response fast path.
        let resp = r.model.response_packet(rt, u32::MAX);
        r.resp_map.insert(resp.id, req);
        let now = self.now;
        self.horizons.mark(horizon::IXP);
        let evs = self.ixp.tx_from_host(now, resp);
        self.absorb_ixp(evs);
    }

    /// A packet left on the wire: if it is a RUBiS response, complete the
    /// request at the client.
    pub(crate) fn on_wire_tx(&mut self, pkt: Packet) {
        let now = self.now;
        let wire = self.costs.wire_latency;
        let run_end = self.run_end;
        let Some(r) = self.rubis.as_mut() else {
            self.inference_wire_tx(pkt);
            return;
        };
        let Some(req) = r.resp_map.remove(&pkt.id) else { return };
        let Some(state) = r.reqs.remove(&req) else { return };
        let t_client = now + wire;
        let latency = t_client.saturating_sub(state.start);
        self.responses.record(state.rt.name, latency);
        if let Some(e) = self.energy.as_mut() {
            e.window.record(state.rt.name, latency);
        }
        self.sessions.request_completed();
        // Session bookkeeping and the closed-loop think time.
        let session_len = r.model.config().session_len;
        let think = r.model.think_time();
        let c = &mut r.clients[state.client as usize];
        c.done_in_session += 1;
        if c.done_in_session >= session_len {
            let dur = t_client.saturating_sub(c.session_start);
            self.sessions.session_completed(dur);
            c.done_in_session = 0;
            c.session_start = t_client + think;
        }
        let next = t_client + think;
        if next <= run_end {
            self.horizons.mark(horizon::QUEUE);
            self.q.schedule(next, Ev::ClientSend(state.client));
        }
    }
}
