//! The fabric: one responder machine, N requester machines, a wire.
//!
//! [`Fabric::execute`] runs one request end-to-end through every modelled
//! resource and returns its timing milestones. Closed-loop load
//! generation on top of this lives in `snic-core::harness`.

use memsys::MemOp;
use simnet::faults::{FaultPlane, FaultSpec};
use simnet::metrics::{Hop, HopBreakdown};
use simnet::resource::{Dir, Reservation};
use simnet::time::Nanos;
use topology::{ClusterSpec, MachineSpec, WireSpec};

use crate::client::{wire_bytes, wire_frames, ClientMachine};
use crate::request::{Completion, Endpoint, PathKind, RequestDesc, Verb};
use crate::server::{pipeline_out, ServerMachine};

/// Ack/response header payload for verbs that return no data.
const ACK_BYTES: u64 = 0;

/// One responder + its requesters.
pub struct Fabric {
    /// The machine under test.
    pub server: ServerMachine,
    /// Requester machines.
    pub clients: Vec<ClientMachine>,
    wire: WireSpec,
    /// Fault-injection plane (`None` = healthy hardware; inert specs
    /// never install one, keeping the healthy path byte-identical).
    faults: Option<FaultPlane>,
}

/// A request/response exchange handled by a processor on the server
/// machine — the building block for RPC-style applications such as the
/// key-value store of Figure 1.
#[derive(Debug, Clone, Copy)]
pub struct RpcOp {
    /// Communication path carrying the exchange (a remote path).
    pub path: PathKind,
    /// Issuing client machine.
    pub client: usize,
    /// Request payload (client to server).
    pub request_bytes: u64,
    /// Response payload (server to client).
    pub response_bytes: u64,
    /// Handler CPU time beyond the base per-message cost (application
    /// logic, e.g. an index lookup).
    pub handler_extra: Nanos,
    /// Bytes the handler fetches from the *other* endpoint's memory over
    /// path 3 before responding (e.g. the SoC reading a value from host
    /// memory in the offloaded KV design), if any.
    pub fetch_other_endpoint: Option<u64>,
}

impl Fabric {
    /// Builds a fabric with `n_clients` requesters around a given server
    /// machine spec.
    pub fn new(server: MachineSpec, n_clients: usize, wire: WireSpec) -> Self {
        Fabric {
            server: ServerMachine::new(server),
            clients: (0..n_clients)
                .map(|_| ClientMachine::new(MachineSpec::cli()))
                .collect(),
            wire,
            faults: None,
        }
    }

    /// Builds the paper's testbed around a Bluefield-2 server.
    pub fn bluefield_testbed(n_clients: usize) -> Self {
        let c = ClusterSpec::paper_testbed();
        Fabric::new(c.servers[0], n_clients, c.wire)
    }

    /// Builds the RNIC-baseline testbed.
    pub fn rnic_testbed(n_clients: usize) -> Self {
        let c = ClusterSpec::rnic_testbed();
        Fabric::new(c.servers[0], n_clients, c.wire)
    }

    /// The interconnect spec.
    pub fn wire_spec(&self) -> &WireSpec {
        &self.wire
    }

    /// Enables or disables per-request latency attribution. Off by
    /// default; when off every span record is a single-branch no-op.
    pub fn set_metrics(&mut self, on: bool) {
        self.server.spans_mut().set_enabled(on);
    }

    /// Whether per-request attribution is recording.
    pub fn metrics_enabled(&self) -> bool {
        self.server.spans().is_enabled()
    }

    /// Installs a fault schedule. Inert specs install nothing, so the
    /// healthy path stays branch-for-branch identical to a fabric that
    /// never heard of faults.
    pub fn set_faults(&mut self, spec: FaultSpec) {
        self.faults = FaultPlane::new(spec);
    }

    /// The installed fault plane, if any.
    pub fn faults(&self) -> Option<&FaultPlane> {
        self.faults.as_ref()
    }

    /// Applies the fault plane's scheduled windows (PCIe degradation,
    /// SoC stalls) in effect at instant `at` to the server machine.
    /// Transports call this once per attempt; a no-op without windows.
    pub fn apply_fault_windows(&mut self, at: Nanos) {
        let Some(plane) = self.faults.as_ref() else {
            return;
        };
        if !plane.has_windows() {
            return;
        }
        let (slowdown, extra) = plane.pcie_degradation(at);
        let stall = plane.soc_stall(at);
        self.server.set_pcie_degradation(slowdown, extra);
        self.server.set_soc_stall(stall);
    }

    /// Like [`Fabric::execute`], but also attributes the request's
    /// end-to-end latency across hops (see `simnet::metrics`). The
    /// returned breakdown's total equals `completed - posted` exactly.
    ///
    /// Requires metrics to be enabled via [`Fabric::set_metrics`];
    /// otherwise the whole window is charged to [`Hop::Other`].
    pub fn execute_attributed(
        &mut self,
        posted: Nanos,
        req: RequestDesc,
    ) -> (Completion, HopBreakdown) {
        let c = self.execute(posted, req);
        let bd = self.server.spans().attribute(c.posted, c.completed);
        (c, bd)
    }

    /// Executes an RPC exchange posted at `posted`.
    ///
    /// # Panics
    ///
    /// Panics if `op.path` is not a remote path, or the fetch requires a
    /// SmartNIC the server lacks.
    pub fn execute_rpc(&mut self, posted: Nanos, op: RpcOp) -> Completion {
        assert!(op.path.is_remote(), "RPCs originate at client machines");
        self.server.spans_mut().clear();
        let ep = op.path.responder();
        let win = self.send_request(posted, op.client, op.request_bytes, op.request_bytes);
        let pu = self.server.reserve_pu(win.start, ep);
        let pu_out = pipeline_out(&pu);
        // Deliver the request into the responder's memory.
        let delivered = self
            .server
            .dma(pu_out, ep, MemOp::Write, 0, op.request_bytes, true)
            .data_ready
            .max(win.finish);
        // Handler: base message handling plus application logic.
        let mut done = self.server.handle_message(delivered, ep) + op.handler_extra;
        // Optional path-3 fetch from the other memory.
        if let Some(bytes) = op.fetch_other_endpoint {
            let other = match ep {
                Endpoint::Host => Endpoint::Soc,
                Endpoint::Soc => Endpoint::Host,
            };
            done = self
                .server
                .intra_dma(done, ep, other, ep, 0, 0, bytes)
                .data_ready;
        }
        // Response: the NIC DMA-reads the response from the responder's
        // memory and sends it back.
        let resp_pu = self.server.reserve_pu(done, ep);
        let resp_ready = self
            .server
            .dma(
                pipeline_out(&resp_pu),
                ep,
                MemOp::Read,
                0,
                op.response_bytes,
                true,
            )
            .data_ready;
        Completion {
            posted,
            nic_start: pu.start,
            completed: self.send_reply(resp_ready, op.client, op.response_bytes),
        }
    }

    /// The request leg of a remote exchange: doorbell, client NIC
    /// (fetching `fetch` bytes of payload from client memory, 0 when
    /// inlined), then the wire into the server (cut-through at the
    /// server pipe, bounded by both pipes' bandwidth). Returns the
    /// server's RX window for the `outbound` wire bytes.
    fn send_request(
        &mut self,
        posted: Nanos,
        client: usize,
        fetch: u64,
        outbound: u64,
    ) -> Reservation {
        let client = self
            .clients
            .get_mut(client)
            .expect("client index out of range");
        let nic_seen = posted + client.mmio_transit();
        let depart = client.issue(nic_seen, fetch, outbound);
        let arrive = depart + self.wire.one_way_latency;
        let win = self.server.wire.reserve(
            Dir::Fwd,
            arrive,
            wire_bytes(outbound),
            wire_frames(outbound),
        );
        let sp = self.server.spans_mut();
        sp.record(Hop::Post, posted, nic_seen);
        sp.record(Hop::ClientNic, nic_seen, depart);
        sp.record(Hop::Wire, depart, win.finish.max(arrive));
        win
    }

    /// The reply leg of a remote exchange: `inbound` bytes leave the
    /// server at `ready`, cross the wire and complete at the client.
    /// Returns the completion instant.
    fn send_reply(&mut self, ready: Nanos, client: usize, inbound: u64) -> Nanos {
        let wout =
            self.server
                .wire
                .reserve(Dir::Rev, ready, wire_bytes(inbound), wire_frames(inbound));
        let back = wout.start + self.wire.one_way_latency;
        let client = self
            .clients
            .get_mut(client)
            .expect("client index out of range");
        let completed = client
            .complete(back, inbound)
            .max(wout.finish + self.wire.one_way_latency);
        let sp = self.server.spans_mut();
        sp.record(Hop::Wire, wout.start, wout.finish.max(back));
        sp.record(Hop::Completion, back, completed);
        completed
    }

    /// Executes one request posted at `posted`; returns its milestones.
    ///
    /// # Panics
    ///
    /// Panics if the request names a missing client, or runs a SmartNIC
    /// path on an RNIC machine.
    pub fn execute(&mut self, posted: Nanos, req: RequestDesc) -> Completion {
        assert!(
            !req.path.on_smartnic() || self.server.smartnic().is_some(),
            "SmartNIC path on an RNIC machine"
        );
        // Attribution is per request: drop the previous request's spans.
        self.server.spans_mut().clear();
        if req.path.is_remote() {
            self.execute_remote(posted, req)
        } else {
            self.execute_intra(posted, req)
        }
    }

    /// A request from a client machine. The responder NIC either runs
    /// the verb's DMA leg (plus the CPU handler for a SEND), or — for a
    /// SEND terminated on the DPA plane — kicks a DPA core and replies
    /// straight from the NIC: no DMA leg, no PCIe1/switch/PCIe0
    /// crossing, no host or SoC CPU. The only data-plane cost beyond
    /// the wimpy core itself is the spill into SoC DRAM when the
    /// resident bytes exceed the DPA scratch.
    fn execute_remote(&mut self, posted: Nanos, req: RequestDesc) -> Completion {
        let ep = req.path.responder();
        // READ carries data back; WRITE and SEND carry it out.
        let (outbound, inbound) = match req.verb {
            Verb::Read => (0, req.payload),
            Verb::Write | Verb::Send => (req.payload, ACK_BYTES),
        };
        let fetch = if req.inline_data { 0 } else { outbound };
        let win = self.send_request(posted, req.client, fetch, outbound);

        // Responder NIC processing.
        let pu = self.server.reserve_pu(win.start, ep);
        self.server
            .spans_mut()
            .record(Hop::NicPu, pu.start, pu.finish);
        let ready = match req.dpa_resident {
            Some(resident) => {
                assert_eq!(
                    req.verb,
                    Verb::Send,
                    "DPA handlers terminate two-sided SENDs"
                );
                let served =
                    self.server
                        .dpa_serve(pipeline_out(&pu).max(win.finish), resident, req.payload);
                self.server
                    .spans_mut()
                    .record(Hop::NicPu, served.start, served.done);
                served.done
            }
            None => self
                .server
                .serve_verb(&pu, win.finish, req.verb, ep, req.addr, req.payload),
        };
        Completion {
            posted,
            nic_start: pu.start,
            completed: self.send_reply(ready, req.client, inbound),
        }
    }

    fn execute_intra(&mut self, posted: Nanos, req: RequestDesc) -> Completion {
        let requester = match req.path {
            PathKind::Snic3S2H => Endpoint::Soc,
            PathKind::Snic3H2S => Endpoint::Host,
            _ => unreachable!("remote paths handled above"),
        };
        let responder = req.path.responder();

        let nic_seen = posted + self.server.mmio_transit(requester);
        let pu = self.server.reserve_pu(nic_seen, responder);
        let nic_start = pu.start;
        let sp = self.server.spans_mut();
        sp.record(Hop::Post, posted, nic_seen);
        sp.record(Hop::NicPu, pu.start, pu.finish);

        let pu_out = pipeline_out(&pu);
        let done = match req.verb {
            Verb::Read => {
                // Requester reads responder memory: data responder -> requester.
                self.server
                    .intra_dma(
                        pu_out,
                        requester,
                        responder,
                        requester,
                        req.addr,
                        0,
                        req.payload,
                    )
                    .data_ready
            }
            Verb::Write => {
                // Data requester -> responder.
                self.server
                    .intra_dma(
                        pu_out,
                        requester,
                        requester,
                        responder,
                        0,
                        req.addr,
                        req.payload,
                    )
                    .data_ready
            }
            Verb::Send => {
                let moved = self
                    .server
                    .intra_dma(
                        pu_out,
                        requester,
                        requester,
                        responder,
                        0,
                        req.addr,
                        req.payload,
                    )
                    .data_ready;
                self.server.handle_message(moved, responder)
            }
        };

        // CQE back to the requester's memory (one access-latency hop).
        let completed = done + self.server.access_latency(requester);
        self.server
            .spans_mut()
            .record(Hop::Completion, done, completed);
        Completion {
            posted,
            nic_start,
            completed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(verb: Verb, path: PathKind, payload: u64) -> RequestDesc {
        RequestDesc::new(verb, path, payload, 0, 0)
    }

    #[test]
    fn snic_read_latency_tax() {
        // §3.1: SNIC(1) READ is 15-30% slower than RNIC(1).
        let mut rnic = Fabric::rnic_testbed(1);
        let r = rnic.execute(Nanos::ZERO, req(Verb::Read, PathKind::Rnic1, 64));
        let mut snic = Fabric::bluefield_testbed(1);
        let s = snic.execute(Nanos::ZERO, req(Verb::Read, PathKind::Snic1, 64));
        let tax = s.latency().as_nanos() as f64 / r.latency().as_nanos() as f64 - 1.0;
        assert!((0.10..=0.35).contains(&tax), "READ tax {tax:.2}");
    }

    #[test]
    fn write_tax_smaller_than_read_tax() {
        // WRITE crosses the responder PCIe once (posted) vs READ's twice.
        let mut rnic = Fabric::rnic_testbed(1);
        let mut snic = Fabric::bluefield_testbed(1);
        let rr = rnic.execute(Nanos::ZERO, req(Verb::Read, PathKind::Rnic1, 64));
        let rw = rnic.execute(
            Nanos::from_micros(50),
            req(Verb::Write, PathKind::Rnic1, 64),
        );
        let sr = snic.execute(Nanos::ZERO, req(Verb::Read, PathKind::Snic1, 64));
        let sw = snic.execute(
            Nanos::from_micros(50),
            req(Verb::Write, PathKind::Snic1, 64),
        );
        let read_tax = sr.latency().as_nanos() - rr.latency().as_nanos();
        let write_tax = sw.latency().as_nanos() - rw.latency().as_nanos();
        assert!(
            write_tax < read_tax,
            "write tax {write_tax} !< read tax {read_tax}"
        );
    }

    #[test]
    fn soc_read_latency_below_snic1() {
        // §3.2: READ to the SoC is up to 14% faster than to the host.
        let mut f = Fabric::bluefield_testbed(1);
        let host = f.execute(Nanos::ZERO, req(Verb::Read, PathKind::Snic1, 64));
        let soc = f.execute(Nanos::from_micros(50), req(Verb::Read, PathKind::Snic2, 64));
        assert!(
            soc.latency() < host.latency(),
            "soc {} !< host {}",
            soc.latency(),
            host.latency()
        );
    }

    #[test]
    fn send_latency_soc_higher() {
        // §3.2: SEND to the SoC is 21-30% slower than to the host.
        let mut f = Fabric::bluefield_testbed(1);
        let host = f.execute(Nanos::ZERO, req(Verb::Send, PathKind::Snic1, 64));
        let soc = f.execute(Nanos::from_micros(50), req(Verb::Send, PathKind::Snic2, 64));
        let gap = soc.latency().as_nanos() as f64 / host.latency().as_nanos() as f64 - 1.0;
        assert!((0.08..=0.40).contains(&gap), "SEND SoC gap {gap:.2}");
    }

    #[test]
    fn path3_s2h_latency_highest() {
        // §3.3: posting from the SoC is expensive; S2H latency > H2S.
        let mut f = Fabric::bluefield_testbed(1);
        let s2h = f.execute(Nanos::ZERO, req(Verb::Read, PathKind::Snic3S2H, 64));
        let h2s = f.execute(
            Nanos::from_micros(50),
            req(Verb::Read, PathKind::Snic3H2S, 64),
        );
        assert!(
            s2h.latency() > h2s.latency(),
            "s2h {} !> h2s {}",
            s2h.latency(),
            h2s.latency()
        );
    }

    #[test]
    fn s2h_read_latency_above_half_snic2() {
        // §3.3: an S2H READ saves the network round trip, but the SoC's
        // costly doorbell and the PCIe legs keep it above half the
        // latency of a remote SNIC(2) READ.
        let mut f = Fabric::bluefield_testbed(1);
        let s2h = f.execute(Nanos::ZERO, req(Verb::Read, PathKind::Snic3S2H, 64));
        let snic2 = f.execute(Nanos::from_micros(50), req(Verb::Read, PathKind::Snic2, 64));
        assert!(
            s2h.latency().as_nanos() > snic2.latency().as_nanos() / 2,
            "s2h {} !> snic2 {} / 2",
            s2h.latency(),
            snic2.latency()
        );
    }

    #[test]
    fn milestones_ordered() {
        let mut f = Fabric::bluefield_testbed(1);
        for verb in Verb::ALL {
            for path in PathKind::ALL {
                if path == PathKind::Rnic1 {
                    continue;
                }
                let c = f.execute(Nanos::from_micros(100), req(verb, path, 256));
                assert!(c.posted <= c.nic_start, "{verb:?} {path:?}");
                assert!(c.nic_start <= c.completed, "{verb:?} {path:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "SmartNIC path on an RNIC machine")]
    fn rnic_machine_rejects_snic_paths() {
        let mut f = Fabric::rnic_testbed(1);
        f.execute(Nanos::ZERO, req(Verb::Read, PathKind::Snic2, 64));
    }

    #[test]
    #[should_panic(expected = "client index out of range")]
    fn missing_client_panics() {
        let mut f = Fabric::bluefield_testbed(1);
        let mut r = req(Verb::Read, PathKind::Snic1, 64);
        r.client = 5;
        f.execute(Nanos::ZERO, r);
    }

    #[test]
    fn zero_byte_requests_skip_pcie() {
        let mut f = Fabric::bluefield_testbed(1);
        f.execute(Nanos::ZERO, req(Verb::Read, PathKind::Snic1, 0));
        assert_eq!(f.server.counters().total_tlps(), 0);
    }

    #[test]
    fn attribution_total_equals_latency_for_every_path_and_verb() {
        let mut f = Fabric::bluefield_testbed(1);
        f.set_metrics(true);
        let mut at = Nanos::from_micros(10);
        for verb in Verb::ALL {
            for path in PathKind::ALL {
                if path == PathKind::Rnic1 {
                    continue;
                }
                let (c, bd) = f.execute_attributed(at, req(verb, path, 256));
                assert_eq!(
                    bd.total(),
                    c.latency(),
                    "{verb:?} {path:?}: attribution must conserve time"
                );
                at += Nanos::from_micros(50);
            }
        }
    }

    #[test]
    fn attribution_switch_hop_only_on_smartnic() {
        let mut r = Fabric::rnic_testbed(1);
        r.set_metrics(true);
        let (_, bd) = r.execute_attributed(Nanos::ZERO, req(Verb::Read, PathKind::Rnic1, 64));
        assert_eq!(bd.get(Hop::Switch), Nanos::ZERO);
        assert_eq!(bd.get(Hop::Pcie1), Nanos::ZERO);
        assert!(bd.get(Hop::Pcie0) > Nanos::ZERO);

        let mut s = Fabric::bluefield_testbed(1);
        s.set_metrics(true);
        let (_, bd) = s.execute_attributed(Nanos::ZERO, req(Verb::Read, PathKind::Snic1, 64));
        assert!(bd.get(Hop::Switch) > Nanos::ZERO, "{bd:?}");
        assert!(bd.get(Hop::Pcie1) > Nanos::ZERO, "{bd:?}");
        let (_, bd) = s.execute_attributed(Nanos::ZERO, req(Verb::Read, PathKind::Snic2, 64));
        assert!(bd.get(Hop::SocAttach) > Nanos::ZERO, "{bd:?}");
        assert_eq!(bd.get(Hop::Pcie0), Nanos::ZERO, "{bd:?}");
    }

    fn dpa_testbed(n_clients: usize) -> Fabric {
        let c = ClusterSpec::paper_testbed();
        let mut srv = topology::MachineSpec::srv_with_bluefield3_dpa();
        srv.host = c.servers[0].host;
        Fabric::new(srv, n_clients, c.wire)
    }

    #[test]
    fn dpa_send_skips_every_pcie_pipe() {
        let mut f = dpa_testbed(1);
        let c = f.execute(
            Nanos::ZERO,
            req(Verb::Send, PathKind::Snic1, 64).with_dpa(64 << 10),
        );
        assert!(c.posted <= c.nic_start && c.nic_start <= c.completed);
        // No DMA leg: the PCIe counters never tick.
        assert_eq!(f.server.counters().total_tlps(), 0);
        let stats = f.server.dpa_stats().expect("dpa plane present");
        assert_eq!(stats.served, 1);
        assert_eq!(stats.scratch_hits, 1);
        assert_eq!(stats.spills, 0);
    }

    #[test]
    fn dpa_latency_between_resident_and_spilled() {
        // Scratch-resident DPA SENDs undercut the SoC serving path (no
        // switch/attach crossing, no wimpy-core poll-loop tax); spilled
        // ones pay the SoC DRAM trip and give part of it back.
        let mut f = dpa_testbed(1);
        let soc = f.execute(Nanos::ZERO, req(Verb::Send, PathKind::Snic2, 64));
        let hit = f.execute(
            Nanos::from_micros(50),
            req(Verb::Send, PathKind::Snic1, 64).with_dpa(64 << 10),
        );
        let spill = f.execute(
            Nanos::from_micros(100),
            req(Verb::Send, PathKind::Snic1, 64).with_dpa(64 << 20),
        );
        assert!(
            hit.latency() < soc.latency(),
            "resident DPA {} !< SoC path {}",
            hit.latency(),
            soc.latency()
        );
        assert!(
            spill.latency() > hit.latency(),
            "spill {} !> hit {}",
            spill.latency(),
            hit.latency()
        );
    }

    #[test]
    fn dpa_immune_to_pcie_degradation() {
        // The architectural point: a degraded PCIe fabric slows every
        // DMA-crossing path but leaves the DPA-terminated path
        // byte-identical (it never touches a PCIe pipe).
        let run = |degrade: bool| {
            let mut f = dpa_testbed(1);
            if degrade {
                f.server.set_pcie_degradation(4.0, Nanos::new(400));
            }
            let host = f.execute(Nanos::ZERO, req(Verb::Read, PathKind::Snic1, 4096));
            let dpa = f.execute(
                Nanos::from_micros(50),
                req(Verb::Send, PathKind::Snic1, 4096).with_dpa(64 << 10),
            );
            (host.latency(), dpa.latency())
        };
        let (host_ok, dpa_ok) = run(false);
        let (host_bad, dpa_bad) = run(true);
        assert!(host_bad > host_ok, "degradation must hurt the host READ");
        assert_eq!(dpa_ok, dpa_bad, "DPA path must not see PCIe faults");
    }

    #[test]
    fn dpa_scratch_spill_conservation_property() {
        // Property: for any mix of resident sizes, every served request
        // is exactly one of {scratch hit, spill}, split at the scratch
        // boundary of the live spec.
        let mut f = dpa_testbed(2);
        let scratch = f.server.dpa_spec().expect("dpa").scratch_bytes;
        let mut expect_spills = 0u64;
        let mut at = Nanos::ZERO;
        // Deterministic pseudo-random walk over resident sizes spanning
        // the scratch boundary.
        let mut x = 0x9E3779B97F4A7C15u64;
        for i in 0..200u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let resident = x % (4 * scratch);
            if resident > scratch {
                expect_spills += 1;
            }
            let r = req(Verb::Send, PathKind::Snic1, 64 + (i % 7) * 64).with_dpa(resident);
            f.execute(
                at,
                RequestDesc {
                    client: (i % 2) as usize,
                    ..r
                },
            );
            at += Nanos::from_micros(2);
        }
        let s = f.server.dpa_stats().expect("dpa plane present");
        assert_eq!(s.served, 200);
        assert_eq!(
            s.served,
            s.scratch_hits + s.spills,
            "conservation: served == hits + spills"
        );
        assert_eq!(s.spills, expect_spills, "spill verdicts split at scratch");
    }

    #[test]
    #[should_panic(expected = "without a DPA plane")]
    fn dpa_request_on_plain_bluefield_panics() {
        let mut f = Fabric::bluefield_testbed(1);
        f.execute(
            Nanos::ZERO,
            req(Verb::Send, PathKind::Snic1, 64).with_dpa(1024),
        );
    }

    #[test]
    fn metrics_disabled_records_no_spans() {
        let mut f = Fabric::bluefield_testbed(1);
        assert!(!f.metrics_enabled());
        f.execute(Nanos::ZERO, req(Verb::Read, PathKind::Snic1, 64));
        assert!(f.server.spans().is_empty());
        let (c, bd) =
            f.execute_attributed(Nanos::from_micros(50), req(Verb::Read, PathKind::Snic1, 64));
        // Without spans the whole window falls to Other — still exact.
        assert_eq!(bd.get(Hop::Other), c.latency());
        assert_eq!(bd.total(), c.latency());
    }
}
