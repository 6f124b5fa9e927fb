//! The RUBiS request lifecycle across the platform.
//!
//! A request is born at an external client, crosses the wire into the
//! IXP (where DPI classification drives the coordination policy), is
//! DMA'd to the host, delivered into the web VM, processed through
//! whichever tiers its type requires (each inter-VM hop is a Dom0 bridge
//! burst), and its response leaves through the IXP Tx pipeline. Response
//! time is measured client-to-client.

use crate::world::{Ctx, Ev, Platform, RubisState};
use simcore::Nanos;
use workloads::rubis::{RequestType, Tier, TierDemands};
use xsched::{Burst, WakeMode};

/// What serving one RUBiS request needs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Http {
    pub rt: &'static RequestType,
    pub demands: TierDemands,
    pub client: u32,
}

impl RubisState {
    fn vm_of(&self, tier: Tier) -> u32 {
        match tier {
            Tier::Web => self.web_vm,
            Tier::App => self.app_vm,
            Tier::Db => self.db_vm,
        }
    }
}

impl Platform {
    /// A client issues its next request.
    pub(crate) fn client_send(&mut self, client: u32) {
        let Some(r) = self.rubis.as_mut() else { return };
        let rt = r.model.next_request_for(client);
        let demands = r.model.demands(rt);
        let pkt = r.model.request_packet(rt, r.web_vm);
        r.reqs.open(
            pkt.id,
            self.now,
            Http {
                rt,
                demands,
                client,
            },
        );
        self.transmit(pkt.id, 0, pkt);
    }

    /// A client's retransmission timer fired: resend if the request is
    /// still waiting on that attempt.
    pub(crate) fn client_rto(&mut self, req: u64, attempt: u32) {
        let Some(r) = self.rubis.as_mut() else { return };
        let Some((attempt, http)) = r.reqs.retransmit(req, attempt) else {
            return;
        };
        let pkt = r.model.request_packet(http.rt, r.web_vm);
        self.transmit(req, attempt, pkt);
    }

    /// A classified request packet reached the web VM.
    pub(crate) fn rubis_request_arrived(&mut self, vm: u32, req: u64) {
        let Some(r) = self.rubis.as_mut() else { return };
        debug_assert_eq!(vm, r.web_vm, "requests enter at the web tier");
        let Some(http) = r.reqs.arrive(req) else {
            // A stale or duplicate copy: the web server still parses it,
            // then discards it.
            self.consume_rx(vm, 1);
            return;
        };
        self.admit_or_drop(vm, req, Tier::Web, http.demands.web);
    }

    /// Admission control at a tier: start the burst if the tier's backlog
    /// is under its connector cap, otherwise drop the request (the client
    /// recovers by retransmission).
    fn admit_or_drop(&mut self, vm: u32, req: u64, tier: Tier, demand: Nanos) {
        // The energy knobs act here: shrunken cache ways / bandwidth
        // share stretch this tier's service time (identity when the
        // energy dimension is off).
        let demand = self.energy_scaled(tier, demand);
        let Some(slot) = self.slot_by_vm(vm) else {
            return;
        };
        if self.vms[slot].pending >= self.costs.tier_q_cap {
            self.guest_drops += 1;
            if let Some(r) = self.rubis.as_mut() {
                r.reqs.requeue(req);
            }
            if tier == Tier::Web {
                // The dropped copy gives back its receive-window unit.
                self.consume_rx(vm, 1);
            }
            return;
        }
        self.vms[slot].pending += 1;
        let dom = self.vms[slot].dom;
        self.submit(
            dom,
            Burst::user(demand, Ctx::TierDone { req, tier }),
            WakeMode::Boost,
        );
    }

    /// A tier finished its CPU work for a request.
    pub(crate) fn rubis_tier_done(&mut self, req: u64, tier: Tier) {
        let Some(r) = self.rubis.as_ref() else { return };
        let vm = r.vm_of(tier);
        let demands = r.reqs.get(req).map(|h| h.demands);
        if let Some(slot) = self.slot_by_vm(vm) {
            self.vms[slot].pending = self.vms[slot].pending.saturating_sub(1);
        }
        let Some(demands) = demands else { return };
        let next = match tier {
            Tier::Web => {
                // The request packet's receive-window unit is consumed.
                self.consume_rx(vm, 1);
                (demands.app.as_nanos() > 0).then_some(Tier::App)
            }
            Tier::App => (demands.db.as_nanos() > 0).then_some(Tier::Db),
            Tier::Db => None,
        };
        match next {
            Some(next) => self.bridge_hop(req, next),
            None => self.respond(req),
        }
    }

    /// A Dom0 bridge hop finished: start the destination tier's burst
    /// subject to the tier's admission cap.
    pub(crate) fn rubis_hop_done(&mut self, req: u64, tier: Tier) {
        let Some(r) = self.rubis.as_ref() else { return };
        let Some(http) = r.reqs.get(req) else { return };
        let demand = match tier {
            Tier::App => http.demands.app,
            Tier::Db => http.demands.db,
            Tier::Web => unreachable!("requests never hop back to web"),
        };
        let vm = r.vm_of(tier);
        self.admit_or_drop(vm, req, tier, demand);
    }

    /// Queues the Dom0 bridge burst carrying a request to its next tier.
    fn bridge_hop(&mut self, req: u64, tier: Tier) {
        let cost = self.costs.bridge;
        let dom0 = self.dom0;
        self.submit(
            dom0,
            Burst::system(cost, Ctx::HopDone { req, tier }),
            WakeMode::Boost,
        );
    }

    /// The deepest tier finished: emit the response through Dom0 → IXP.
    fn respond(&mut self, req: u64) {
        let cost = self.costs.resp_bridge;
        let dom0 = self.dom0;
        self.submit(
            dom0,
            Burst::system(cost, Ctx::RespOut { req }),
            WakeMode::Boost,
        );
    }

    /// Dom0's response bridge finished: hand the response packet to the
    /// IXP Tx pipeline.
    pub(crate) fn rubis_resp_out(&mut self, req: u64) {
        let Some(r) = self.rubis.as_mut() else { return };
        let Some(http) = r.reqs.get(req) else { return };
        let resp = r.model.response_packet(http.rt, u32::MAX);
        self.send_response(req, resp);
    }

    /// A response left on the wire: complete the request at its client,
    /// which thinks, then sends its next request.
    pub(crate) fn rubis_delivered(&mut self, req: u64) {
        let Some(done) = self.rubis.as_mut().and_then(|r| r.reqs.complete(req)) else {
            return;
        };
        let Http { rt, client, .. } = done.work;
        let t_client = self.record_response(rt.name, done.start);
        let Some(r) = self.rubis.as_mut() else { return };
        // Session bookkeeping and the closed-loop think time.
        let session_len = r.model.config().session_len;
        let think = r.model.think_time();
        let c = &mut r.clients[client as usize];
        c.done_in_session += 1;
        if c.done_in_session >= session_len {
            let dur = t_client.saturating_sub(c.session_start);
            self.sessions.session_completed(dur);
            c.done_in_session = 0;
            c.session_start = t_client + think;
        }
        self.q.schedule(t_client + think, Ev::ClientSend(client));
    }
}
