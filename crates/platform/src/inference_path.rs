//! The inference request lifecycle across the three-island platform.
//!
//! A request is born at an open-loop tenant client, crosses the wire into
//! the IXP (where DPI classification tells the coordination policy each
//! tenant's SLA class), is DMA'd to the host, delivered into the tenant's
//! serving VM, DMA'd onward into the accelerator's per-tenant submission
//! queue, batched and executed on an execution unit, post-processed on
//! the tenant VM's x86 CPU, and its response leaves through the IXP Tx
//! pipeline. Response time is measured client-to-client, so it inherits
//! both islands' queueing *and* the batch-forming delay the Tune knob
//! controls.

use crate::world::{horizon, Ctx, Ev, InfReqState, Platform};
use accel::{AccelRequest, TenantId};
use ixp::{AppTag, Packet};
use xsched::{Burst, WakeMode};

impl Platform {
    /// An open-loop tenant source emits its next request and immediately
    /// schedules the one after it (arrivals never self-throttle).
    pub(crate) fn inference_send(&mut self, tenant: u32) {
        let now = self.now;
        let wire = self.costs.wire_latency;
        let rto = self.costs.rto_initial;
        let run_end = self.run_end;
        let Some(inf) = self.inf.as_mut() else { return };
        let t = tenant as usize;
        let cost = inf.model.compute_cost(t);
        let vm = inf.tenant_vms[t];
        let pkt = inf.model.request_packet(t, vm);
        let req = pkt.id;
        inf.pkt_to_req.insert(pkt.id, req);
        inf.reqs.insert(
            req,
            InfReqState { tenant: t, start: now, attempt: 0, in_service: false, cost },
        );
        let gap = inf.model.next_gap(t);
        self.horizons.mark(horizon::QUEUE);
        self.q.schedule(now + wire, Ev::WireArrive(pkt));
        self.q.schedule(now + rto, Ev::Rto { req, attempt: 0 });
        let next = now + gap;
        if next <= run_end {
            self.q.schedule(next, Ev::ClientSend(tenant));
        }
    }

    /// A tenant client's retransmission timer fired: if the request is
    /// still outstanding, resend it with exponential backoff.
    pub(crate) fn inference_rto(&mut self, req: u64, attempt: u32) {
        let now = self.now;
        let wire = self.costs.wire_latency;
        let rto = self.costs.rto_initial;
        let Some(inf) = self.inf.as_mut() else { return };
        let Some(state) = inf.reqs.get_mut(&req) else { return };
        if state.attempt != attempt || state.in_service {
            return;
        }
        state.attempt += 1;
        let next_attempt = state.attempt;
        let t = state.tenant;
        let vm = inf.tenant_vms[t];
        let pkt = inf.model.request_packet(t, vm);
        inf.pkt_to_req.insert(pkt.id, req);
        self.horizons.mark(horizon::QUEUE);
        self.q.schedule(now + wire, Ev::WireArrive(pkt));
        let backoff = rto * (1u64 << next_attempt.min(4));
        self.q.schedule(now + backoff, Ev::Rto { req, attempt: next_attempt });
    }

    /// A classified inference request reached its tenant's serving VM:
    /// admit it into the runtime's submission queue (bounded by the same
    /// connector cap the RUBiS tiers use) and start the DMA into the
    /// accelerator.
    pub(crate) fn inference_request_arrived(&mut self, vm: u32, pkt: Packet) {
        let AppTag::Inference { .. } = pkt.app else { return };
        let dma = self.accel_dma;
        let now = self.now;
        let Some(slot) = self.slot_by_vm(vm) else {
            self.consume_rx(vm, 1);
            return;
        };
        let over_cap = self.vms[slot].pending >= self.costs.tier_q_cap;
        let Some(inf) = self.inf.as_mut() else {
            self.consume_rx(vm, 1);
            return;
        };
        let Some(req) = inf.pkt_to_req.remove(&pkt.id) else {
            // Stale duplicate of an already-answered request.
            self.consume_rx(vm, 1);
            return;
        };
        let Some(state) = inf.reqs.get_mut(&req) else {
            self.consume_rx(vm, 1);
            return;
        };
        if state.in_service {
            // Original and retransmission both survived; discard the copy.
            self.consume_rx(vm, 1);
            return;
        }
        if over_cap {
            // Runtime submission queue overflow: the client retransmits.
            self.guest_drops += 1;
            self.consume_rx(vm, 1);
            return;
        }
        state.in_service = true;
        self.vms[slot].pending += 1;
        self.consume_rx(vm, 1);
        self.horizons.mark(horizon::QUEUE);
        self.q.schedule(now + dma, Ev::AccelDma { req });
    }

    /// The DMA into the accelerator finished: submit to the tenant's
    /// device-side queue. A synchronous rejection (device memory
    /// exhausted) drops the request back to the client's RTO.
    pub(crate) fn accel_dma_done(&mut self, req: u64) {
        let now = self.now;
        let Some(inf) = self.inf.as_mut() else { return };
        let Some(state) = inf.reqs.get_mut(&req) else { return };
        let t = state.tenant;
        let cost = state.cost;
        let tenant = inf.accel_tenants[t];
        let bytes = inf.model.model_of(t).input_bytes as u64;
        let vm = inf.tenant_vms[t];
        self.horizons.mark(horizon::ACCEL);
        let Some(acc) = self.accel.as_mut() else { return };
        let accepted = acc.submit(now, AccelRequest { id: req, tenant, cost, bytes });
        if !accepted {
            if let Some(inf) = self.inf.as_mut() {
                if let Some(state) = inf.reqs.get_mut(&req) {
                    state.in_service = false; // the RTO will resend
                }
            }
            if let Some(slot) = self.slot_by_vm(vm) {
                self.vms[slot].pending = self.vms[slot].pending.saturating_sub(1);
            }
            self.guest_drops += 1;
        }
    }

    /// The accelerator completed a request: record its batch-forming
    /// delay and start the x86 post-processing burst on the tenant VM.
    pub(crate) fn inference_completed(
        &mut self,
        req: u64,
        tenant: TenantId,
        _batch_size: u32,
        queued: simcore::Nanos,
    ) {
        let Some(inf) = self.inf.as_mut() else { return };
        let Some(idx) = inf.accel_tenants.iter().position(|t| *t == tenant) else {
            return;
        };
        let name = inf.model.config().tenants[idx].name;
        inf.queue_delays.record(name, queued);
        if !inf.reqs.contains_key(&req) {
            return;
        }
        let post = inf.model.post_cost(idx);
        let vm = inf.tenant_vms[idx];
        let Some(dom) = self.dom_of_vm(vm) else { return };
        let tag = self.tags.insert(Ctx::InfPost { req });
        self.submit(dom, Burst::user(post, tag), WakeMode::Boost);
    }

    /// Post-processing finished: the request leaves the guest (freeing
    /// its submission-queue slot) and Dom0 bridges the response out.
    pub(crate) fn inference_post_done(&mut self, req: u64) {
        let Some(inf) = self.inf.as_ref() else { return };
        let Some(state) = inf.reqs.get(&req) else { return };
        let vm = inf.tenant_vms[state.tenant];
        if let Some(slot) = self.slot_by_vm(vm) {
            self.vms[slot].pending = self.vms[slot].pending.saturating_sub(1);
        }
        let cost = self.costs.resp_bridge;
        let tag = self.tags.insert(Ctx::InfRespOut { req });
        let dom0 = self.dom0;
        self.submit(dom0, Burst::system(cost, tag), WakeMode::Boost);
    }

    /// Dom0's response bridge finished: hand the response packet to the
    /// IXP Tx pipeline.
    pub(crate) fn inference_resp_out(&mut self, req: u64) {
        let Some(inf) = self.inf.as_mut() else { return };
        let Some(state) = inf.reqs.get(&req) else { return };
        let t = state.tenant;
        let resp = inf.model.response_packet(t, u32::MAX);
        inf.resp_map.insert(resp.id, req);
        let now = self.now;
        self.horizons.mark(horizon::IXP);
        let evs = self.ixp.tx_from_host(now, resp);
        self.absorb_ixp(evs);
    }

    /// A packet left on the wire: if it is an inference response,
    /// complete the request at the client.
    pub(crate) fn inference_wire_tx(&mut self, pkt: Packet) {
        let now = self.now;
        let wire = self.costs.wire_latency;
        let Some(inf) = self.inf.as_mut() else { return };
        let Some(req) = inf.resp_map.remove(&pkt.id) else { return };
        let Some(state) = inf.reqs.remove(&req) else { return };
        let t_client = now + wire;
        let latency = t_client.saturating_sub(state.start);
        let name = inf.model.config().tenants[state.tenant].name;
        self.responses.record(name, latency);
        if let Some(e) = self.energy.as_mut() {
            e.window.record(name, latency);
        }
        self.sessions.request_completed();
    }
}
