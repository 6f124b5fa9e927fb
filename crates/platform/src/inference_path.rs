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

use crate::world::{Ctx, Ev, Platform};
use accel::{AccelRequest, TenantId};
use simcore::Nanos;
use xsched::{Burst, WakeMode};

/// What serving one inference request needs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Infer {
    /// Tenant index into `tenant_vms` / the model's tenant table.
    pub tenant: usize,
    /// Sampled accelerator compute cost, stable across retransmissions.
    pub cost: Nanos,
}

impl Platform {
    /// An open-loop tenant source emits its next request and immediately
    /// schedules the one after it (arrivals never self-throttle).
    pub(crate) fn inference_send(&mut self, tenant: u32) {
        let Some(inf) = self.inf.as_mut() else { return };
        let t = tenant as usize;
        let cost = inf.model.compute_cost(t);
        let pkt = inf.model.request_packet(t, inf.tenant_vms[t]);
        inf.reqs.open(pkt.id, self.now, Infer { tenant: t, cost });
        let gap = inf.model.next_gap(t);
        self.transmit(pkt.id, 0, pkt);
        self.q.schedule(self.now + gap, Ev::ClientSend(tenant));
    }

    /// A tenant client's retransmission timer fired: resend if the
    /// request is still waiting on that attempt.
    pub(crate) fn inference_rto(&mut self, req: u64, attempt: u32) {
        let Some(inf) = self.inf.as_mut() else { return };
        let Some((attempt, job)) = inf.reqs.retransmit(req, attempt) else {
            return;
        };
        let pkt = inf
            .model
            .request_packet(job.tenant, inf.tenant_vms[job.tenant]);
        self.transmit(req, attempt, pkt);
    }

    /// A classified inference request reached its tenant's serving VM:
    /// admit it into the runtime's submission queue (bounded by the same
    /// connector cap the RUBiS tiers use) and start the DMA into the
    /// accelerator.
    pub(crate) fn inference_request_arrived(&mut self, vm: u32, req: u64) {
        let Some(slot) = self.slot_by_vm(vm) else {
            return;
        };
        let Some(inf) = self.inf.as_mut() else {
            self.consume_rx(vm, 1);
            return;
        };
        if inf.reqs.arrive(req).is_none() {
            // A stale or duplicate copy: discard it.
            self.consume_rx(vm, 1);
            return;
        }
        if self.vms[slot].pending >= self.costs.tier_q_cap {
            // Runtime submission queue overflow: the client retransmits.
            inf.reqs.requeue(req);
            self.guest_drops += 1;
            self.consume_rx(vm, 1);
            return;
        }
        self.vms[slot].pending += 1;
        self.consume_rx(vm, 1);
        self.q
            .schedule(self.now + self.accel_dma, Ev::AccelDma { req });
    }

    /// The DMA into the accelerator finished: submit to the tenant's
    /// device-side queue. A synchronous rejection (device memory
    /// exhausted) drops the request back to the client's RTO.
    pub(crate) fn accel_dma_done(&mut self, req: u64) {
        let now = self.now;
        let Some(inf) = self.inf.as_mut() else { return };
        let Some(Infer { tenant: t, cost }) = inf.reqs.get(req) else {
            return;
        };
        let tenant = inf.accel_tenants[t];
        let bytes = inf.model.model_of(t).input_bytes as u64;
        let vm = inf.tenant_vms[t];
        let Some(acc) = self.accel.as_mut() else {
            return;
        };
        let accepted = acc.submit(
            now,
            AccelRequest {
                id: req,
                tenant,
                cost,
                bytes,
            },
        );
        if !accepted {
            if let Some(inf) = self.inf.as_mut() {
                inf.reqs.requeue(req);
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
        queued: Nanos,
    ) {
        let Some(inf) = self.inf.as_mut() else { return };
        let Some(idx) = inf.accel_tenants.iter().position(|t| *t == tenant) else {
            return;
        };
        let name = inf.model.config().tenants[idx].name;
        inf.queue_delays.record(name, queued);
        if inf.reqs.get(req).is_none() {
            return;
        }
        let post = inf.model.post_cost(idx);
        let vm = inf.tenant_vms[idx];
        let Some(dom) = self.dom_of_vm(vm) else {
            return;
        };
        self.submit(
            dom,
            Burst::user(post, Ctx::InfPost { req }),
            WakeMode::Boost,
        );
    }

    /// Post-processing finished: the request leaves the guest (freeing
    /// its submission-queue slot) and Dom0 bridges the response out.
    pub(crate) fn inference_post_done(&mut self, req: u64) {
        let Some(inf) = self.inf.as_ref() else { return };
        let Some(job) = inf.reqs.get(req) else { return };
        let vm = inf.tenant_vms[job.tenant];
        if let Some(slot) = self.slot_by_vm(vm) {
            self.vms[slot].pending = self.vms[slot].pending.saturating_sub(1);
        }
        let cost = self.costs.resp_bridge;
        let dom0 = self.dom0;
        self.submit(
            dom0,
            Burst::system(cost, Ctx::InfRespOut { req }),
            WakeMode::Boost,
        );
    }

    /// Dom0's response bridge finished: hand the response packet to the
    /// IXP Tx pipeline.
    pub(crate) fn inference_resp_out(&mut self, req: u64) {
        let Some(inf) = self.inf.as_mut() else { return };
        let Some(job) = inf.reqs.get(req) else { return };
        let resp = inf.model.response_packet(job.tenant, u32::MAX);
        self.send_response(req, resp);
    }

    /// A response left on the wire: complete the request at its client.
    pub(crate) fn inference_delivered(&mut self, req: u64) {
        let Some(inf) = self.inf.as_mut() else { return };
        let Some(done) = inf.reqs.complete(req) else {
            return;
        };
        let name = inf.model.config().tenants[done.work.tenant].name;
        self.record_response(name, done.start);
    }
}
