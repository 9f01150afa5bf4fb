//! Requester (client) machine runtime.
//!
//! A client machine (CLI in Table 2) owns its own NIC PU pool, DMA
//! contexts, PCIe link and memory; the paper needs up to eleven of them to
//! saturate one responder (§2.4), and our Figure 11 reproduction recovers
//! that requester-count scaling from these per-machine resources.

use memsys::{MemOp, MemSystem};
use simnet::resource::{Dir, DuplexPipe, MultiServer};

use crate::server::pipeline_out;
use simnet::time::Nanos;
use topology::{MachineSpec, NicSpec};

/// Protocol header bytes per RDMA message on the wire (RoCE/IB transport
/// headers, ICRC, etc.).
pub const WIRE_HDR_BYTES: u64 = 30;
/// Network path MTU: payloads are segmented into MTU-sized frames.
pub const NET_MTU: u64 = 4096;

/// Wire bytes for a message carrying `payload` bytes.
pub fn wire_bytes(payload: u64) -> u64 {
    let frames = payload.div_ceil(NET_MTU).max(1);
    payload + frames * WIRE_HDR_BYTES
}

/// Number of network frames for a message carrying `payload` bytes.
pub fn wire_frames(payload: u64) -> u64 {
    payload.div_ceil(NET_MTU).max(1)
}

/// A requester machine.
pub struct ClientMachine {
    spec: MachineSpec,
    nic: NicSpec,
    pu: MultiServer,
    dma: MultiServer,
    /// Client PCIe link; `Fwd` = towards client memory.
    pcie: DuplexPipe,
    mem: MemSystem,
    /// Client NIC network side; `Fwd` = outbound towards the fabric.
    pub wire: DuplexPipe,
}

impl ClientMachine {
    /// Builds a client runtime from a machine spec.
    pub fn new(spec: MachineSpec) -> Self {
        let nic = *spec.nic.nic();
        let mut mem = MemSystem::host_like();
        mem.set_ddio(spec.host.ddio);
        ClientMachine {
            nic,
            pu: MultiServer::new(nic.pu_total as usize),
            dma: MultiServer::new(nic.dma_contexts as usize),
            pcie: DuplexPipe::new(spec.host.pcie.raw_bandwidth()),
            mem,
            wire: DuplexPipe::new(nic.network_bw),
            spec,
        }
    }

    /// The machine spec.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// Resource-utilization snapshot over `[0, horizon]` for debugging
    /// and reports: (PU pool, DMA contexts, wire out, wire in), each the
    /// fraction of the horizon the resource spent busy.
    pub fn utilization(&self, horizon: simnet::time::Nanos) -> [f64; 4] {
        [
            self.pu.utilization(horizon),
            self.dma.utilization(horizon),
            self.wire.fwd.utilization(horizon),
            self.wire.rev.utilization(horizon),
        ]
    }

    /// Doorbell transit latency from a client core to the client NIC.
    pub fn mmio_transit(&self) -> Nanos {
        self.spec.host.cpu.mmio_latency + self.spec.host.pcie_latency
    }

    /// One-way NIC-to-client-memory latency.
    fn mem_latency(&self) -> Nanos {
        self.spec.host.pcie_latency + self.spec.host.root_complex_latency
    }

    /// Processes an outgoing request whose doorbell reached the NIC at
    /// `nic_seen`. `wire_payload` is the data the request carries
    /// (WRITE/SEND payload; 0 for READ); `fetch_payload` is the part the
    /// NIC must first fetch from client memory (0 for inlined data).
    /// Returns the instant the message starts onto the wire.
    pub fn issue(&mut self, nic_seen: Nanos, fetch_payload: u64, wire_payload: u64) -> Nanos {
        // Reserve the TX *and* RX processing budget of this request up
        // front (2x the PU time): reserving the RX half later, at the
        // response's future arrival time, would block pool units across
        // the request's whole flight time and wildly inflate queueing.
        let pu = self.pu.reserve(nic_seen, self.nic.pu_request_time * 2);
        let pu_out = pipeline_out(&pu);
        let data_at_nic = if fetch_payload > 0 {
            // Fetch the payload from client memory by DMA.
            let lat = self.mem_latency();
            let mem_done = self
                .mem
                .dma_access(pu_out + lat, 0, fetch_payload, MemOp::Read);
            let p = self.pcie.reserve(
                Dir::Rev,
                mem_done,
                fetch_payload,
                fetch_payload.div_ceil(self.spec.host.pcie.mps),
            );
            let busy = self.nic.dma_read_fixed + p.finish.saturating_sub(pu_out);
            self.dma.reserve(pu_out, busy);
            p.finish + lat
        } else {
            pu_out
        };
        let w = self.wire.reserve(
            Dir::Fwd,
            data_at_nic,
            wire_bytes(wire_payload),
            wire_frames(wire_payload),
        );
        w.start
    }

    /// Processes a response arriving from the wire at `arrive` carrying
    /// `inbound_payload` bytes (READ data; 0 otherwise). Returns the
    /// instant the requester CPU observes the completion.
    pub fn complete(&mut self, arrive: Nanos, inbound_payload: u64) -> Nanos {
        let w = self.wire.reserve(
            Dir::Rev,
            arrive,
            wire_bytes(inbound_payload),
            wire_frames(inbound_payload),
        );
        // RX capacity was prepaid at issue time; only pipeline latency
        // applies here.
        let pu_out = w.start + crate::server::PU_PIPE_LAT;
        let lat = self.mem_latency();
        let delivered = if inbound_payload > 0 {
            let p = self.pcie.reserve(
                Dir::Fwd,
                pu_out.max(w.finish),
                inbound_payload,
                inbound_payload.div_ceil(self.spec.host.pcie.mps),
            );
            let busy = self.nic.dma_write_fixed + p.finish.saturating_sub(pu_out);
            self.dma.reserve(pu_out, busy);
            self.mem
                .dma_access(p.finish + lat, 0, inbound_payload, MemOp::Write)
        } else {
            pu_out
        };
        // CQE write to client memory (64 B, folded into one hop).
        delivered + lat
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::MachineSpec;

    fn cli() -> ClientMachine {
        ClientMachine::new(MachineSpec::cli())
    }

    #[test]
    fn wire_byte_arithmetic() {
        assert_eq!(wire_bytes(0), WIRE_HDR_BYTES);
        assert_eq!(wire_bytes(100), 100 + WIRE_HDR_BYTES);
        assert_eq!(wire_bytes(8192), 8192 + 2 * WIRE_HDR_BYTES);
        assert_eq!(wire_frames(0), 1);
        assert_eq!(wire_frames(4097), 2);
    }

    #[test]
    fn issue_read_needs_no_client_dma() {
        let mut c = cli();
        let depart = c.issue(Nanos::new(1000), 0, 0);
        // Just PU time: no payload fetch.
        assert!(depart - Nanos::new(1000) < Nanos::new(500), "{depart}");
    }

    #[test]
    fn issue_write_fetches_payload() {
        let mut c = cli();
        let d0 = c.issue(Nanos::new(1000), 0, 0);
        let mut c = cli();
        let d1 = c.issue(Nanos::new(1000), 4096, 4096);
        assert!(d1 > d0, "payload fetch should add latency");
    }

    #[test]
    fn complete_read_writes_payload_to_memory() {
        let mut c = cli();
        let t0 = c.complete(Nanos::new(1000), 0);
        let mut c = cli();
        let t1 = c.complete(Nanos::new(1000), 4096);
        assert!(t1 > t0);
    }

    #[test]
    fn client_pu_pool_bounds_request_rate() {
        let mut c = cli();
        // 1000 back-to-back 0 B issues at t=0: bounded by 16 PUs each
        // charging 2x the PU time (TX + prepaid RX).
        let mut last = Nanos::ZERO;
        for _ in 0..1000 {
            last = last.max(c.issue(Nanos::ZERO, 0, 0));
        }
        let rate_mops = 1000.0 / last.as_secs_f64() / 1e6;
        // CX-4 spec: 16 / (2 x 220 ns) ~ 36 M/s.
        assert!(
            (30.0..=45.0).contains(&rate_mops),
            "client rate {rate_mops}"
        );
    }

    #[test]
    fn mmio_transit_positive() {
        assert!(cli().mmio_transit() > Nanos::ZERO);
    }

    #[test]
    fn utilization_reports_wire_busy_fractions() {
        let mut c = cli();
        // Reserve known transfers directly on the wire pipes; the busy
        // fraction must equal each reservation's service time over the
        // horizon (the old code reported scaled item counts instead).
        let fwd = c.wire.reserve(Dir::Fwd, Nanos::ZERO, 40_000, 1);
        let rev1 = c.wire.reserve(Dir::Rev, Nanos::ZERO, 40_000, 1);
        let rev2 = c.wire.reserve(Dir::Rev, rev1.finish, 40_000, 1);
        let horizon = Nanos::new(10_000);
        let u = c.utilization(horizon);
        assert_eq!(u[0], 0.0, "PU pool untouched");
        assert_eq!(u[1], 0.0, "DMA contexts untouched");
        let h = horizon.as_nanos() as f64;
        let want_fwd = (fwd.finish - fwd.start).as_nanos() as f64 / h;
        let want_rev =
            ((rev1.finish - rev1.start) + (rev2.finish - rev2.start)).as_nanos() as f64 / h;
        assert!(want_fwd > 0.0);
        assert!(
            (u[2] - want_fwd).abs() < 1e-12,
            "fwd {} vs {want_fwd}",
            u[2]
        );
        assert!(
            (u[3] - want_rev).abs() < 1e-12,
            "rev {} vs {want_rev}",
            u[3]
        );
        // Two reverse transfers vs one forward: rev busy is double.
        assert!((u[3] - 2.0 * u[2]).abs() < 1e-12);
    }
}
