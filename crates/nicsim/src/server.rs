//! The machine under test: host + (Smart)NIC + optional SoC.
//!
//! `ServerMachine` owns every hardware resource of one responder machine
//! and exposes three operations to the fabric:
//!
//! * [`ServerMachine::reserve_pu`] — claim a NIC processing unit for the
//!   endpoint a request targets (shared pool + per-endpoint reserved
//!   units, the §4 mechanism);
//! * [`ServerMachine::dma`] — execute one DMA leg between the NIC cores
//!   and host or SoC memory, reserving every PCIe pipe it crosses,
//!   ticking the hardware counters, and applying the completion-tag
//!   window that produces the Figure 8 head-of-line collapse;
//! * [`ServerMachine::intra_dma`] — the path-3 composite (read one
//!   memory, write the other), with cut-through below the forwarding
//!   buffer and store-and-forward above it (the Figure 9 collapse).
//!
//! [`ServerMachine::serve_verb`] composes a DMA leg with the SEND
//! handler: the responder step both the fabric and the cluster runtime
//! run for a remote verb.

use memsys::{MemOp, MemSystem};
use pcie_model::counters::{CountDir, LinkId, PcieCounters};
use pcie_model::link::TLP_OVERHEAD_BYTES;
use pcie_model::tlp;
use simnet::metrics::{Hop, SpanSet};
use simnet::resource::{Dir, DuplexPipe, MultiServer, Reservation};
use simnet::time::{Bandwidth, Nanos};
use topology::{DpaSpec, MachineSpec, NicDevice, NicSpec, SmartNicSpec};

use crate::request::{Endpoint, Verb};

/// Per-request-TLP header bytes charged on the wire-facing PCIe pipes for
/// read requests and other control TLPs.
const CTRL_TLP_BYTES: u64 = 24;

/// Latency from DMA-engine issue until the first completion chunk starts
/// flowing back through the return pipes (cut-through head latency).
const FIRST_CHUNK_LAT: Nanos = Nanos::new(50);

/// Per-window reissue overhead once a read degrades to tag-limited
/// fetching (tag recycling, reordering) — part of the Figure 8 collapse
/// depth.
const TAG_REISSUE: Nanos = Nanos::new(220);

/// Extra posted-write engine-slot hold towards the SoC endpoint: with no
/// DDIO to absorb the line, the endpoint returns flow-control credits at
/// DRAM pace, so the engine recycles slots slower than towards the host
/// (part of why WRITE to the SoC trails the plain RNIC, §3.2).
const SOC_WRITE_DRAIN: Nanos = Nanos::new(110);

/// Pipeline latency of a processing unit: a PU accepts a new request
/// every `pu_request_time` (its occupancy) but hands the parsed request
/// to the DMA stage after this much latency.
pub const PU_PIPE_LAT: Nanos = Nanos::new(80);

/// The instant a pipelined unit's output is available downstream, given
/// its reservation.
pub fn pipeline_out(res: &Reservation) -> Nanos {
    res.start + PU_PIPE_LAT.min(res.finish - res.start)
}

/// Result of one DMA leg.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaLeg {
    /// When the NIC issued the first PCIe transaction.
    pub start: Nanos,
    /// When the data was fully transferred (read: at the NIC; write:
    /// durable in memory).
    pub data_ready: Nanos,
}

/// Result of one request served on the DPA plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DpaServe {
    /// When a DPA core picked the request up (post-kick).
    pub start: Nanos,
    /// When the handler finished and the reply WQE was handed back to
    /// the NIC egress.
    pub done: Nanos,
    /// Whether the handler's working state exceeded local scratch and
    /// the request paid the spill round trip into SoC DRAM.
    pub spilled: bool,
}

/// Aggregate counters of the DPA plane. Conservation invariant:
/// `served == scratch_hits + spills` — every served request either fit
/// scratch or spilled, never both, never neither.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DpaStats {
    /// Requests terminated on DPA cores.
    pub served: u64,
    /// Requests whose working state fit local scratch.
    pub scratch_hits: u64,
    /// Requests that paid the spill-to-SoC-DRAM penalty.
    pub spills: u64,
}

/// The datapath-accelerator serving plane: a pool of wimpy cores kicked
/// directly by the NIC parser. Requests served here never touch PCIe1,
/// the switch, or PCIe0 — which is exactly why PCIe degradation windows
/// leave the plane untouched (see `set_pcie_degradation`).
struct DpaPlane {
    spec: DpaSpec,
    pool: MultiServer,
    stats: DpaStats,
}

/// The responder machine runtime.
pub struct ServerMachine {
    spec: MachineSpec,
    nic: NicSpec,
    smart: Option<SmartNicSpec>,

    pu_shared: MultiServer,
    pu_host: Option<MultiServer>,
    pu_soc: Option<MultiServer>,
    dma_ctx: MultiServer,
    dma_ctx_w: MultiServer,
    /// Shared tag-recycling engine: every read that overflows the
    /// completion-reorder buffer drains through this single resource, so
    /// the Figure 8 collapse holds under concurrency.
    tag_engine: simnet::resource::Server,
    /// Shared forwarding engine for path-3 store-and-forward transfers
    /// (Figure 9 collapse under concurrency).
    fwd_engine: simnet::resource::Server,

    /// Network side of the server NIC. `Fwd` = inbound (towards server).
    pub wire: DuplexPipe,
    /// Switch <-> host channel (the only PCIe channel on a plain RNIC).
    /// `Fwd` = towards host memory.
    pcie0: DuplexPipe,
    /// NIC cores <-> switch channel (SmartNIC only). `Fwd` = NIC to
    /// switch.
    pcie1: Option<DuplexPipe>,
    /// Switch <-> SoC memory attach. `Fwd` = towards SoC memory.
    attach: Option<DuplexPipe>,

    host_mem: MemSystem,
    soc_mem: Option<MemSystem>,
    host_cpu: MultiServer,
    soc_cpu: Option<MultiServer>,
    dpa: Option<DpaPlane>,

    counters: PcieCounters,
    /// Residency spans of the request currently in flight (disabled by
    /// default; the fabric enables it and clears it per request).
    spans: SpanSet,

    /// Extra per-hop latency while the PCIe fabric is degraded (fault
    /// injection; zero when healthy).
    pcie_extra_latency: Nanos,
    /// Extra per-message SoC handler time during a stall window (fault
    /// injection; zero when healthy).
    soc_stall: Nanos,
}

impl ServerMachine {
    /// Builds the runtime for a machine spec.
    pub fn new(spec: MachineSpec) -> Self {
        let nic = *spec.nic.nic();
        let smart = spec.nic.smartnic().copied();
        let reserved = nic.pu_reserved_per_endpoint;
        let shared = nic.pu_total - if smart.is_some() { 2 * reserved } else { 0 };
        let mut host_mem = MemSystem::host_like();
        host_mem.set_ddio(spec.host.ddio);
        ServerMachine {
            nic,
            pu_shared: MultiServer::new(shared as usize),
            pu_host: smart
                .filter(|_| reserved > 0)
                .map(|_| MultiServer::new(reserved as usize)),
            pu_soc: smart
                .filter(|_| reserved > 0)
                .map(|_| MultiServer::new(reserved as usize)),
            dma_ctx: MultiServer::new(nic.dma_contexts as usize),
            dma_ctx_w: MultiServer::new(nic.dma_write_contexts as usize),
            tag_engine: simnet::resource::Server::new(),
            fwd_engine: simnet::resource::Server::new(),
            wire: DuplexPipe::new(nic.network_bw),
            pcie0: DuplexPipe::new(match &spec.nic {
                NicDevice::Rnic(_) => spec.host.pcie.raw_bandwidth(),
                NicDevice::SmartNic(s) => s.pcie0.raw_bandwidth(),
            }),
            pcie1: smart.map(|s| DuplexPipe::new(s.pcie1.raw_bandwidth())),
            attach: smart.map(|s| DuplexPipe::new(s.soc.attach_bw)),
            host_mem,
            soc_mem: smart.map(|_| MemSystem::soc_like()),
            host_cpu: MultiServer::new(spec.host.cpu.cores as usize),
            soc_cpu: smart.map(|s| MultiServer::new(s.soc.cores as usize)),
            dpa: smart.and_then(|s| s.dpa).map(|d| DpaPlane {
                spec: d,
                pool: MultiServer::new(d.cores as usize),
                stats: DpaStats::default(),
            }),
            counters: PcieCounters::new(),
            spans: SpanSet::disabled(),
            pcie_extra_latency: Nanos::ZERO,
            soc_stall: Nanos::ZERO,
            smart,
            spec,
        }
    }

    /// Applies (or clears, with `(1.0, 0)`) a PCIe degradation: all PCIe
    /// pipes of the machine serve `slowdown` times slower and every hop
    /// pays `extra_latency` (link retrained to a lower generation — see
    /// `simnet::faults::DegradedWindow`).
    pub fn set_pcie_degradation(&mut self, slowdown: f64, extra_latency: Nanos) {
        self.pcie0.set_derate(slowdown);
        if let Some(p) = self.pcie1.as_mut() {
            p.set_derate(slowdown);
        }
        if let Some(a) = self.attach.as_mut() {
            a.set_derate(slowdown);
        }
        self.pcie_extra_latency = extra_latency;
    }

    /// Applies (or clears, with zero) a transient SoC-core stall: every
    /// SoC-handled message pays `stall` extra service time.
    pub fn set_soc_stall(&mut self, stall: Nanos) {
        self.soc_stall = stall;
    }

    /// The machine spec.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// The NIC-core spec.
    pub fn nic(&self) -> &NicSpec {
        &self.nic
    }

    /// The SmartNIC spec, if this machine carries one.
    pub fn smartnic(&self) -> Option<&SmartNicSpec> {
        self.smart.as_ref()
    }

    /// The PCIe hardware counters.
    pub fn counters(&self) -> &PcieCounters {
        &self.counters
    }

    /// The per-request latency-attribution span collector.
    pub fn spans(&self) -> &SpanSet {
        &self.spans
    }

    /// Mutable access to the span collector (the fabric records
    /// request-level hops and clears it between requests).
    pub fn spans_mut(&mut self) -> &mut SpanSet {
        &mut self.spans
    }

    /// Resource-utilization snapshot over `[0, horizon]`: (shared PUs,
    /// DMA contexts, host CPU, SoC CPU).
    pub fn utilization(&self, horizon: Nanos) -> [f64; 4] {
        [
            self.pu_shared.utilization(horizon),
            self.dma_ctx.utilization(horizon),
            self.host_cpu.utilization(horizon),
            self.soc_cpu
                .as_ref()
                .map_or(0.0, |c| c.utilization(horizon)),
        ]
    }

    /// Pipe utilizations over `[0, horizon]`: (wire in, wire out,
    /// pcie0 down, pcie0 up, pcie1 down, pcie1 up).
    pub fn pipe_utilization(&self, horizon: Nanos) -> [f64; 6] {
        [
            self.wire.fwd.utilization(horizon),
            self.wire.rev.utilization(horizon),
            self.pcie0.fwd.utilization(horizon),
            self.pcie0.rev.utilization(horizon),
            self.pcie1
                .as_ref()
                .map_or(0.0, |p| p.fwd.utilization(horizon)),
            self.pcie1
                .as_ref()
                .map_or(0.0, |p| p.rev.utilization(horizon)),
        ]
    }

    /// Resets the PCIe counters (after warmup).
    pub fn reset_counters(&mut self) {
        self.counters.reset();
    }

    /// Host CPU core pool (two-sided handling, path-3 posting).
    pub fn host_cpu(&mut self) -> &mut MultiServer {
        &mut self.host_cpu
    }

    /// SoC core pool.
    ///
    /// # Panics
    ///
    /// Panics on a plain RNIC machine.
    pub fn soc_cpu(&mut self) -> &mut MultiServer {
        self.soc_cpu.as_mut().expect("machine has no SoC")
    }

    /// Whether this machine's SmartNIC exposes a DPA plane.
    pub fn has_dpa(&self) -> bool {
        self.dpa.is_some()
    }

    /// The DPA plane spec, if present.
    pub fn dpa_spec(&self) -> Option<&DpaSpec> {
        self.dpa.as_ref().map(|d| &d.spec)
    }

    /// The DPA plane's serving counters, if present.
    pub fn dpa_stats(&self) -> Option<DpaStats> {
        self.dpa.as_ref().map(|d| d.stats)
    }

    /// Terminates one request on the DPA plane: the NIC parser kicks a
    /// DPA thread (`kick_latency`, no doorbell, no PCIe), a core from
    /// the pool runs the handler, and — when `resident_bytes` of
    /// handler state exceed local scratch — the request additionally
    /// pays the spill round trip into SoC DRAM plus serialization of
    /// the `touched_bytes` it actually moves.
    ///
    /// Deliberately touches no PCIe pipe and ignores
    /// `pcie_extra_latency`: requests that terminate here are immune to
    /// PCIe degradation windows, which is the architectural point of
    /// the plane.
    ///
    /// # Panics
    ///
    /// Panics if the machine has no DPA plane (`has_dpa` is false).
    pub fn dpa_serve(
        &mut self,
        arrival: Nanos,
        resident_bytes: u64,
        touched_bytes: u64,
    ) -> DpaServe {
        let d = self
            .dpa
            .as_mut()
            .expect("dpa_serve on a machine without a DPA plane");
        let spilled = !d.spec.fits_scratch(resident_bytes);
        let service = if spilled {
            d.spec.handle_time + d.spec.spill_cost(touched_bytes)
        } else {
            d.spec.handle_time
        };
        let res = d.pool.reserve(arrival + d.spec.kick_latency, service);
        d.stats.served += 1;
        if spilled {
            d.stats.spills += 1;
        } else {
            d.stats.scratch_hits += 1;
        }
        DpaServe {
            start: res.start,
            done: res.finish,
            spilled,
        }
    }

    /// Claims a NIC processing unit for a request targeting `ep`.
    ///
    /// On a SmartNIC the PU pool is mostly shared between endpoints with
    /// a few units reserved per endpoint (§4); the earliest-free unit
    /// among {shared pool, `ep`'s reserved pool} wins.
    pub fn reserve_pu(&mut self, arrival: Nanos, ep: Endpoint) -> Reservation {
        let service = self.nic.pu_request_time;
        let reserved = match ep {
            Endpoint::Host => self.pu_host.as_mut(),
            Endpoint::Soc => self.pu_soc.as_mut(),
        };
        match reserved {
            Some(pool) if pool.earliest_free() <= self.pu_shared.earliest_free() => {
                pool.reserve(arrival, service)
            }
            _ => self.pu_shared.reserve(arrival, service),
        }
    }

    /// One-way latency from NIC cores to `ep`'s memory.
    pub fn access_latency(&self, ep: Endpoint) -> Nanos {
        self.pcie_extra_latency + self.base_access_latency(ep)
    }

    fn base_access_latency(&self, ep: Endpoint) -> Nanos {
        match (&self.smart, ep) {
            (None, Endpoint::Host) => {
                self.spec.host.pcie_latency + self.spec.host.root_complex_latency
            }
            (Some(s), Endpoint::Host) => {
                s.pcie1_hop_latency
                    + s.switch.crossing_latency
                    + self.spec.host.pcie_latency
                    + self.spec.host.root_complex_latency
            }
            (Some(s), Endpoint::Soc) => {
                s.pcie1_hop_latency + s.switch.crossing_latency + s.soc.attach_latency
            }
            (None, Endpoint::Soc) => panic!("RNIC machine has no SoC endpoint"),
        }
    }

    /// The PCIe MTU governing data TLPs towards `ep`.
    pub fn endpoint_mtu(&self, ep: Endpoint) -> u64 {
        match (&self.smart, ep) {
            (None, Endpoint::Host) => self.spec.host.pcie.mps,
            (Some(s), Endpoint::Host) => s.pcie0.mps,
            (Some(s), Endpoint::Soc) => s.soc.pcie_mtu,
            (None, Endpoint::Soc) => panic!("RNIC machine has no SoC endpoint"),
        }
    }

    /// MMIO doorbell transit latency from an on-machine requester (`ep`
    /// names the requester processor: host CPU or SoC core) to the NIC.
    pub fn mmio_transit(&self, requester: Endpoint) -> Nanos {
        let s = self.smart.as_ref().expect("path 3 needs a SmartNIC");
        match requester {
            Endpoint::Host => {
                self.spec.host.cpu.mmio_latency
                    + self.spec.host.pcie_latency
                    + s.switch.crossing_latency
                    + s.pcie1_hop_latency
            }
            Endpoint::Soc => {
                s.soc.mmio_latency
                    + s.soc.attach_latency
                    + s.switch.crossing_latency
                    + s.pcie1_hop_latency
            }
        }
    }

    /// Occupies a DMA context for `[start, start+busy]`; the reservation
    /// bounds small-request throughput (the NIC "stalls in its pipeline",
    /// §3.1). Reads and writes use separate engine pools.
    fn hold_dma_ctx(&mut self, start: Nanos, busy: Nanos, op: MemOp) -> Reservation {
        match op {
            MemOp::Read => self.dma_ctx.reserve(start, busy),
            MemOp::Write => self.dma_ctx_w.reserve(start, busy),
        }
    }

    /// Executes one DMA leg between the NIC cores and `ep`'s memory.
    ///
    /// `hold_context` controls whether the leg occupies one of the NIC's
    /// DMA contexts for its duration (true for ordinary verbs; path-3
    /// composites hold a single context across both legs instead).
    pub fn dma(
        &mut self,
        start: Nanos,
        ep: Endpoint,
        op: MemOp,
        addr: u64,
        bytes: u64,
        hold_context: bool,
    ) -> DmaLeg {
        let fixed = match op {
            MemOp::Read => self.nic.dma_read_fixed,
            MemOp::Write => self.nic.dma_write_fixed,
        };
        if bytes == 0 {
            // 0 B requests return before reaching PCIe (Figure 11).
            return DmaLeg {
                start,
                data_ready: start,
            };
        }
        let data_ready = match op {
            MemOp::Write => self.dma_write_leg(start, ep, addr, bytes),
            MemOp::Read => self.dma_read_leg(start, ep, addr, bytes),
        };
        if hold_context {
            // Reads hold their context for the unloaded round trip plus
            // the transfer; posted writes only for the one-way issue.
            // Neither includes downstream *queueing* (that would feed the
            // queue back into the context pool and over-throttle): queued
            // memory or link time is visible in the ack instead.
            let xfer = Bandwidth::gigabytes_per_sec(25.0).transfer_time(bytes);
            let busy = match op {
                MemOp::Read => fixed + self.access_latency(ep) * 2 + xfer,
                MemOp::Write => {
                    let drain = match ep {
                        Endpoint::Soc => SOC_WRITE_DRAIN,
                        Endpoint::Host => Nanos::ZERO,
                    };
                    fixed + self.access_latency(ep) + xfer + drain
                }
            };
            let res = self.hold_dma_ctx(start, busy, op);
            // If all contexts were busy, the whole operation is shifted
            // by the wait for a free context.
            let wait = res.wait(start);
            self.spans
                .record(Hop::DmaEngine, data_ready, data_ready + wait);
            DmaLeg {
                start,
                data_ready: data_ready + wait,
            }
        } else {
            DmaLeg { start, data_ready }
        }
    }

    /// Posted-write leg: data TLPs flow NIC -> (switch) -> endpoint.
    fn dma_write_leg(&mut self, start: Nanos, ep: Endpoint, addr: u64, bytes: u64) -> Nanos {
        let mtu = self.endpoint_mtu(ep);
        let tlps = tlp::write_tlps(bytes, mtu);
        let wire_bytes = bytes + tlps * TLP_OVERHEAD_BYTES;
        let oneway = self.access_latency(ep);
        match (self.smart.is_some(), ep) {
            (false, Endpoint::Host) => {
                // RNIC: one channel (counted as PCIe0).
                self.counters
                    .count(LinkId::Pcie0, CountDir::Down, tlps, bytes);
                let r = self.pcie0.reserve(Dir::Fwd, start, wire_bytes, tlps);
                self.spans.record(
                    LinkId::Pcie0.hop(),
                    r.start,
                    (r.start + oneway).max(r.finish),
                );
                let mem_done = self.host_mem.dma_access_spanned(
                    r.start + oneway,
                    addr,
                    bytes,
                    MemOp::Write,
                    &mut self.spans,
                );
                mem_done.max(r.finish + oneway)
            }
            (true, Endpoint::Host) => {
                let s = *self.smart.as_ref().expect("smart checked");
                self.counters
                    .count(LinkId::Pcie1, CountDir::Down, tlps, bytes);
                self.counters
                    .count(LinkId::Pcie0, CountDir::Down, tlps, bytes);
                let p1 = self.pcie1.as_mut().expect("smartnic has pcie1").reserve(
                    Dir::Fwd,
                    start,
                    wire_bytes,
                    tlps,
                );
                // Cut-through: PCIe0 starts once the head arrives at the
                // switch.
                let hop = s.pcie1_hop_latency + s.switch.crossing_latency;
                self.spans.record(
                    LinkId::Pcie1.hop(),
                    p1.start,
                    p1.finish.max(p1.start + s.pcie1_hop_latency),
                );
                self.spans
                    .record(Hop::Switch, p1.start + s.pcie1_hop_latency, p1.start + hop);
                let p0 = self
                    .pcie0
                    .reserve(Dir::Fwd, p1.start + hop, wire_bytes, tlps);
                let mem_arrive =
                    p0.start + self.spec.host.pcie_latency + self.spec.host.root_complex_latency;
                self.spans
                    .record(LinkId::Pcie0.hop(), p0.start, p0.finish.max(mem_arrive));
                let mem_done = self.host_mem.dma_access_spanned(
                    mem_arrive,
                    addr,
                    bytes,
                    MemOp::Write,
                    &mut self.spans,
                );
                mem_done.max(p0.finish).max(p1.finish)
            }
            (true, Endpoint::Soc) => {
                let s = *self.smart.as_ref().expect("smart checked");
                self.counters
                    .count(LinkId::Pcie1, CountDir::Down, tlps, bytes);
                self.counters
                    .count(LinkId::SocAttach, CountDir::Down, tlps, bytes);
                let p1 = self.pcie1.as_mut().expect("smartnic has pcie1").reserve(
                    Dir::Fwd,
                    start,
                    wire_bytes,
                    tlps,
                );
                let hop = s.pcie1_hop_latency + s.switch.crossing_latency;
                self.spans.record(
                    LinkId::Pcie1.hop(),
                    p1.start,
                    p1.finish.max(p1.start + s.pcie1_hop_latency),
                );
                self.spans
                    .record(Hop::Switch, p1.start + s.pcie1_hop_latency, p1.start + hop);
                let at = self.attach.as_mut().expect("smartnic has attach").reserve(
                    Dir::Fwd,
                    p1.start + hop,
                    wire_bytes,
                    tlps,
                );
                let mem_arrive = at.start + s.soc.attach_latency;
                self.spans
                    .record(LinkId::SocAttach.hop(), at.start, at.finish.max(mem_arrive));
                let mem_done = self
                    .soc_mem
                    .as_mut()
                    .expect("smartnic has soc mem")
                    .dma_access_spanned(mem_arrive, addr, bytes, MemOp::Write, &mut self.spans);
                mem_done.max(at.finish).max(p1.finish)
            }
            (false, Endpoint::Soc) => panic!("RNIC machine has no SoC endpoint"),
        }
    }

    /// DMA-read leg: request TLPs out, completion TLPs back.
    fn dma_read_leg(&mut self, start: Nanos, ep: Endpoint, addr: u64, bytes: u64) -> Nanos {
        let mtu = self.endpoint_mtu(ep);
        let mrrs = match &self.smart {
            Some(s) => s.pcie1.mrrs,
            None => self.spec.host.pcie.mrrs,
        };
        let req_tlps = tlp::read_request_tlps(bytes, mrrs);
        let cpl_tlps = tlp::completion_tlps(bytes, mtu);
        let cpl_bytes = bytes + cpl_tlps * TLP_OVERHEAD_BYTES;
        let oneway = self.access_latency(ep);

        // Issue the read requests (control TLPs, negligible bytes but
        // counted). Memory serves the stream and completions cut through
        // the return pipes while it does; the read is done when both the
        // memory stream and the slowest return pipe finish.
        let mem_arrive = start + oneway;
        let first_data = mem_arrive + FIRST_CHUNK_LAT;
        let ready = match (self.smart.is_some(), ep) {
            (false, Endpoint::Host) => {
                self.counters
                    .count(LinkId::Pcie0, CountDir::Down, req_tlps, 0);
                self.counters
                    .count(LinkId::Pcie0, CountDir::Up, cpl_tlps, bytes);
                let rq = self
                    .pcie0
                    .reserve(Dir::Fwd, start, req_tlps * CTRL_TLP_BYTES, req_tlps);
                self.spans
                    .record(LinkId::Pcie0.hop(), rq.start, mem_arrive.max(rq.finish));
                let mem_done = self.host_mem.dma_access_spanned(
                    mem_arrive,
                    addr,
                    bytes,
                    MemOp::Read,
                    &mut self.spans,
                );
                let r = self
                    .pcie0
                    .reserve(Dir::Rev, first_data, cpl_bytes, cpl_tlps);
                let tail = oneway.saturating_sub(self.spec.host.root_complex_latency);
                let done = r.finish.max(mem_done) + tail;
                self.spans.record(LinkId::Pcie0.hop(), r.start, done);
                done
            }
            (true, Endpoint::Host) => {
                let s = *self.smart.as_ref().expect("smart checked");
                self.counters
                    .count(LinkId::Pcie1, CountDir::Down, req_tlps, 0);
                self.counters
                    .count(LinkId::Pcie0, CountDir::Down, req_tlps, 0);
                self.counters
                    .count(LinkId::Pcie0, CountDir::Up, cpl_tlps, bytes);
                self.counters
                    .count(LinkId::Pcie1, CountDir::Up, cpl_tlps, bytes);
                let rq = self.pcie1.as_mut().expect("smartnic has pcie1").reserve(
                    Dir::Fwd,
                    start,
                    req_tlps * CTRL_TLP_BYTES,
                    req_tlps,
                );
                let hop = s.switch.crossing_latency + s.pcie1_hop_latency;
                self.spans.record(
                    LinkId::Pcie1.hop(),
                    rq.start,
                    rq.finish.max(rq.start + s.pcie1_hop_latency),
                );
                self.spans
                    .record(Hop::Switch, rq.start + s.pcie1_hop_latency, rq.start + hop);
                self.spans
                    .record(LinkId::Pcie0.hop(), rq.start + hop, mem_arrive);
                let mem_done = self.host_mem.dma_access_spanned(
                    mem_arrive,
                    addr,
                    bytes,
                    MemOp::Read,
                    &mut self.spans,
                );
                let p0 = self
                    .pcie0
                    .reserve(Dir::Rev, first_data, cpl_bytes, cpl_tlps);
                self.spans
                    .record(LinkId::Pcie0.hop(), p0.start, p0.finish.max(mem_done));
                self.spans.record(
                    Hop::Switch,
                    p0.finish.max(mem_done),
                    p0.finish.max(mem_done) + s.switch.crossing_latency,
                );
                let p1 = self.pcie1.as_mut().expect("smartnic has pcie1").reserve(
                    Dir::Rev,
                    p0.start + hop,
                    cpl_bytes,
                    cpl_tlps,
                );
                let done = p1.finish.max(p0.finish + hop).max(mem_done + hop);
                self.spans.record(LinkId::Pcie1.hop(), p1.start, done);
                done
            }
            (true, Endpoint::Soc) => {
                let s = *self.smart.as_ref().expect("smart checked");
                self.counters
                    .count(LinkId::Pcie1, CountDir::Down, req_tlps, 0);
                self.counters
                    .count(LinkId::SocAttach, CountDir::Down, req_tlps, 0);
                self.counters
                    .count(LinkId::SocAttach, CountDir::Up, cpl_tlps, bytes);
                self.counters
                    .count(LinkId::Pcie1, CountDir::Up, cpl_tlps, bytes);
                let rq = self.pcie1.as_mut().expect("smartnic has pcie1").reserve(
                    Dir::Fwd,
                    start,
                    req_tlps * CTRL_TLP_BYTES,
                    req_tlps,
                );
                let hop = s.switch.crossing_latency + s.pcie1_hop_latency;
                self.spans.record(
                    LinkId::Pcie1.hop(),
                    rq.start,
                    rq.finish.max(rq.start + s.pcie1_hop_latency),
                );
                self.spans
                    .record(Hop::Switch, rq.start + s.pcie1_hop_latency, rq.start + hop);
                self.spans
                    .record(LinkId::SocAttach.hop(), rq.start + hop, mem_arrive);
                let mem_done = self
                    .soc_mem
                    .as_mut()
                    .expect("smartnic has soc mem")
                    .dma_access_spanned(mem_arrive, addr, bytes, MemOp::Read, &mut self.spans);
                let at = self.attach.as_mut().expect("smartnic has attach").reserve(
                    Dir::Rev,
                    first_data,
                    cpl_bytes,
                    cpl_tlps,
                );
                self.spans
                    .record(LinkId::SocAttach.hop(), at.start, at.finish.max(mem_done));
                self.spans.record(
                    Hop::Switch,
                    at.finish.max(mem_done),
                    at.finish.max(mem_done) + s.switch.crossing_latency,
                );
                let p1 = self.pcie1.as_mut().expect("smartnic has pcie1").reserve(
                    Dir::Rev,
                    at.start + hop,
                    cpl_bytes,
                    cpl_tlps,
                );
                let done = p1.finish.max(at.finish + hop).max(mem_done + hop);
                self.spans.record(LinkId::Pcie1.hop(), p1.start, done);
                done
            }
            (false, Endpoint::Soc) => panic!("RNIC machine has no SoC endpoint"),
        };

        // Completion-tag window (Figure 8): once the completion stream of
        // a single read exceeds the reorder buffer, the NIC degrades to a
        // tag-limited fetch whose bandwidth is tags * MTU per (round trip
        // + reissue). The tag pool is one shared resource, so concurrent
        // oversized reads do not recover the lost bandwidth.
        if cpl_tlps > self.nic.reorder_tlp_slots {
            let rtt = oneway * 2 + TAG_REISSUE;
            let tag_bw = Bandwidth::bytes_per_sec(
                (self.nic.completion_tags * mtu) as f64 / rtt.as_secs_f64(),
            );
            let tag_time = tag_bw.transfer_time(bytes);
            let res = self.tag_engine.reserve(start, tag_time);
            self.spans
                .record(Hop::DmaEngine, res.start, res.finish + rtt);
            return ready.max(res.finish + rtt);
        }
        ready
    }

    /// Path-3 forwarding-buffer threshold: payloads above it lose the
    /// cut-through overlap between the two PCIe1 crossings (Figure 9).
    ///
    /// The buffer is capacity-limited in TLP slots; both legs touch the
    /// SoC (128 B TLPs) and the buffer is shared by the inbound and
    /// outbound legs, halving it. An S2H requester additionally keeps its
    /// WQE/doorbell state in SoC memory, halving the usable window again
    /// — which is why S2H collapses earlier than H2S (§3.3).
    pub fn path3_threshold(&self, requester: Endpoint) -> u64 {
        let s = self.smart.as_ref().expect("path 3 needs a SmartNIC");
        let base = self.nic.reorder_tlp_slots * s.soc.pcie_mtu / 2;
        match requester {
            Endpoint::Host => base,
            Endpoint::Soc => base / 2,
        }
    }

    /// Executes a path-3 data movement: read `bytes` from `src` memory,
    /// write them into `dst` memory. `requester` names the processor that
    /// issued the verb (affects the forwarding-buffer threshold).
    // Mirrors the hardware operation (requester, two memories, two
    // addresses, a size); bundling into a struct would only rename the
    // arguments.
    #[allow(clippy::too_many_arguments)]
    pub fn intra_dma(
        &mut self,
        start: Nanos,
        requester: Endpoint,
        src: Endpoint,
        dst: Endpoint,
        src_addr: u64,
        dst_addr: u64,
        bytes: u64,
    ) -> DmaLeg {
        assert_ne!(src, dst, "path 3 moves data between different memories");
        if bytes == 0 {
            return DmaLeg {
                start,
                data_ready: start,
            };
        }
        let threshold = self.path3_threshold(requester);
        let read = self.dma(start, src, MemOp::Read, src_addr, bytes, false);
        let data_ready = if bytes <= threshold {
            // Cut-through: the write leg starts as soon as the head of
            // the read stream reaches the NIC.
            let head = start + self.access_latency(src) * 2;
            let write = self.dma(head, dst, MemOp::Write, dst_addr, bytes, false);
            write
                .data_ready
                .max(read.data_ready + self.access_latency(dst))
        } else {
            // Store-and-forward: the write leg waits for the full read,
            // and the transfer drains through the single shared
            // forwarding buffer, serializing concurrent oversized
            // transfers too (Figure 9). The engine is held for the pure
            // in+out service time (no queueing feedback).
            let write = self.dma(read.data_ready, dst, MemOp::Write, dst_addr, bytes, false);
            let in_mtu = self.endpoint_mtu(src);
            let out_mtu = self.endpoint_mtu(dst);
            let in_tlps = tlp::tlp_count(bytes, in_mtu);
            let out_tlps = tlp::tlp_count(bytes, out_mtu);
            let p1 = self.pcie1.as_mut().expect("path 3 needs a SmartNIC");
            let occupancy = p1
                .rev
                .service_time(bytes + in_tlps * TLP_OVERHEAD_BYTES, in_tlps)
                + p1.fwd
                    .service_time(bytes + out_tlps * TLP_OVERHEAD_BYTES, out_tlps);
            let res = self.fwd_engine.reserve(start, occupancy);
            self.spans.record(Hop::DmaEngine, res.start, res.finish);
            write.data_ready.max(res.finish)
        };
        // One read-engine context spans the composite; it is held for
        // the unloaded service time of both legs (no queue feedback).
        let xfer = Bandwidth::gigabytes_per_sec(25.0).transfer_time(bytes);
        let busy = self.nic.dma_read_fixed
            + self.access_latency(src) * 2
            + self.access_latency(dst)
            + xfer * 2;
        let res = self.hold_dma_ctx(start, busy, MemOp::Read);
        let wait = res.wait(start);
        self.spans
            .record(Hop::DmaEngine, data_ready, data_ready + wait);
        DmaLeg {
            start,
            data_ready: data_ready + wait,
        }
    }

    /// Reserves a responder CPU core (host or SoC) for two-sided message
    /// handling; returns (completion time, extra latency already folded).
    pub fn handle_message(&mut self, arrival: Nanos, ep: Endpoint) -> Nanos {
        let done = match ep {
            Endpoint::Host => {
                let t = self.spec.host.cpu.msg_handle_time;
                self.host_cpu.reserve(arrival, t).finish
            }
            Endpoint::Soc => {
                let s = *self.smart.as_ref().expect("SoC endpoint needs a SmartNIC");
                let t = s.soc.msg_handle_time + self.soc_stall;
                let extra = s.soc.msg_extra_latency;
                self.soc_cpu
                    .as_mut()
                    .expect("smartnic has soc cores")
                    .reserve(arrival, t)
                    .finish
                    + extra
            }
        };
        self.spans.record(Hop::Cpu, arrival, done);
        done
    }

    /// The responder step of a remote verb once the NIC has parsed it
    /// on `pu`: the DMA leg into or out of `ep`'s memory, then — for a
    /// SEND — the CPU message handler. Nothing starts the handler or the
    /// reply before `floor`, the instant the inbound transfer is fully
    /// in. Returns when the reply may leave.
    pub fn serve_verb(
        &mut self,
        pu: &Reservation,
        floor: Nanos,
        verb: Verb,
        ep: Endpoint,
        addr: u64,
        payload: u64,
    ) -> Nanos {
        let op = match verb {
            Verb::Read => MemOp::Read,
            Verb::Write | Verb::Send => MemOp::Write,
        };
        // The DMA leg starts as soon as the PU pipeline emits the parsed
        // request (the unit stays occupied for its full service time).
        let leg = self.dma(pipeline_out(pu), ep, op, addr, payload, true);
        let ready = leg.data_ready.max(floor);
        if verb == Verb::Send {
            self.handle_message(ready, ep)
        } else {
            ready
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::MachineSpec;

    fn bf2() -> ServerMachine {
        ServerMachine::new(MachineSpec::srv_with_bluefield())
    }

    fn rnic() -> ServerMachine {
        ServerMachine::new(MachineSpec::srv_with_rnic())
    }

    #[test]
    fn access_latency_ordering() {
        let s = bf2();
        let r = rnic();
        // RNIC host access < SmartNIC host access (the "tax").
        assert!(r.access_latency(Endpoint::Host) < s.access_latency(Endpoint::Host));
        // SoC memory is closer than host memory on the SmartNIC.
        assert!(s.access_latency(Endpoint::Soc) < s.access_latency(Endpoint::Host));
        // ... and at most about the RNIC's host access (the paper's
        // "closer packaging" observation).
        assert!(
            s.access_latency(Endpoint::Soc) <= r.access_latency(Endpoint::Host) + Nanos::new(20)
        );
    }

    #[test]
    fn mtu_per_endpoint() {
        let s = bf2();
        assert_eq!(s.endpoint_mtu(Endpoint::Host), 512);
        assert_eq!(s.endpoint_mtu(Endpoint::Soc), 128);
    }

    #[test]
    fn zero_byte_dma_touches_nothing() {
        let mut s = bf2();
        let leg = s.dma(Nanos::new(100), Endpoint::Host, MemOp::Read, 0, 0, true);
        assert_eq!(leg.data_ready, Nanos::new(100));
        assert_eq!(s.counters().total_tlps(), 0);
    }

    #[test]
    fn write_counts_tlps_on_both_channels() {
        let mut s = bf2();
        s.dma(Nanos::ZERO, Endpoint::Host, MemOp::Write, 0, 4096, true);
        assert_eq!(s.counters().tlps(LinkId::Pcie1), 8);
        assert_eq!(s.counters().tlps(LinkId::Pcie0), 8);
        assert_eq!(s.counters().tlps(LinkId::SocAttach), 0);
    }

    #[test]
    fn soc_write_uses_128b_tlps() {
        let mut s = bf2();
        s.dma(Nanos::ZERO, Endpoint::Soc, MemOp::Write, 0, 4096, true);
        assert_eq!(s.counters().tlps(LinkId::Pcie1), 32);
        assert_eq!(s.counters().tlps(LinkId::SocAttach), 32);
        assert_eq!(s.counters().tlps(LinkId::Pcie0), 0);
    }

    #[test]
    fn read_counts_requests_and_completions() {
        let mut s = bf2();
        s.dma(Nanos::ZERO, Endpoint::Host, MemOp::Read, 0, 4096, true);
        // 8 request TLPs down + 8 completions up on each channel.
        assert_eq!(s.counters().dir_tlps(LinkId::Pcie0, CountDir::Down), 8);
        assert_eq!(s.counters().dir_tlps(LinkId::Pcie0, CountDir::Up), 8);
    }

    #[test]
    fn soc_read_faster_than_host_read_small() {
        let mut s = bf2();
        let host = s.dma(Nanos::ZERO, Endpoint::Host, MemOp::Read, 0, 64, false);
        let mut s = bf2();
        let soc = s.dma(Nanos::ZERO, Endpoint::Soc, MemOp::Read, 0, 64, false);
        assert!(
            soc.data_ready < host.data_ready,
            "soc {:?} !< host {:?}",
            soc.data_ready,
            host.data_ready
        );
    }

    #[test]
    fn huge_soc_read_hits_tag_window() {
        // Figure 8: >9 MB READ to the SoC collapses.
        let mut s = bf2();
        let n: u64 = 12 << 20;
        let leg = s.dma(Nanos::ZERO, Endpoint::Soc, MemOp::Read, 0, n, false);
        let gbps = n as f64 * 8.0 / leg.data_ready.as_secs_f64() / 1e9;
        assert!(gbps < 140.0, "no collapse: {gbps:.0} Gbps");

        // Just below the threshold: full bandwidth.
        let mut s = bf2();
        let n: u64 = 8 << 20;
        let leg = s.dma(Nanos::ZERO, Endpoint::Soc, MemOp::Read, 0, n, false);
        let gbps = n as f64 * 8.0 / leg.data_ready.as_secs_f64() / 1e9;
        assert!(
            gbps > 150.0,
            "below-threshold read too slow: {gbps:.0} Gbps"
        );
    }

    #[test]
    fn huge_host_read_does_not_collapse() {
        let mut s = bf2();
        let n: u64 = 12 << 20;
        let leg = s.dma(Nanos::ZERO, Endpoint::Host, MemOp::Read, 0, n, false);
        let gbps = n as f64 * 8.0 / leg.data_ready.as_secs_f64() / 1e9;
        assert!(gbps > 150.0, "host read collapsed: {gbps:.0} Gbps");
    }

    #[test]
    fn path3_thresholds() {
        let s = bf2();
        assert_eq!(s.path3_threshold(Endpoint::Host), (9 << 20) / 2);
        assert_eq!(s.path3_threshold(Endpoint::Soc), (9 << 20) / 4);
    }

    #[test]
    fn path3_small_transfer_cut_through() {
        let mut s = bf2();
        let n: u64 = 256 << 10;
        let leg = s.intra_dma(
            Nanos::ZERO,
            Endpoint::Soc,
            Endpoint::Soc,
            Endpoint::Host,
            0,
            0,
            n,
        );
        let gbps = n as f64 * 8.0 / leg.data_ready.as_secs_f64() / 1e9;
        // Peak path-3 bandwidth ~204 Gbps (PCIe-bound, §3.3); a single
        // 256 KB transfer with fixed latencies lands below but well above
        // the collapsed regime.
        assert!(gbps > 120.0, "cut-through too slow: {gbps:.0} Gbps");
    }

    #[test]
    fn path3_large_transfer_store_and_forward() {
        let mut s = bf2();
        let n: u64 = 8 << 20;
        let leg = s.intra_dma(
            Nanos::ZERO,
            Endpoint::Soc,
            Endpoint::Soc,
            Endpoint::Host,
            0,
            0,
            n,
        );
        let gbps = n as f64 * 8.0 / leg.data_ready.as_secs_f64() / 1e9;
        assert!(
            (60.0..=130.0).contains(&gbps),
            "store-and-forward regime: {gbps:.0} Gbps"
        );
    }

    #[test]
    fn path3_packet_blowup_matches_table3() {
        // §3.3: moving N bytes SoC->host needs ceil(N/128) + ceil(N/512)
        // on PCIe1 and ceil(N/512) on PCIe0 (~6x path 1).
        let mut s = bf2();
        let n: u64 = 1 << 20;
        s.intra_dma(
            Nanos::ZERO,
            Endpoint::Soc,
            Endpoint::Soc,
            Endpoint::Host,
            0,
            0,
            n,
        );
        let p1 = s.counters().tlps(LinkId::Pcie1);
        let p0 = s.counters().tlps(LinkId::Pcie0);
        let expect_p1 = n.div_ceil(128) + n.div_ceil(512) + n.div_ceil(512); // cpl up + req + posted down
        assert!(
            p1 >= n.div_ceil(128) + n.div_ceil(512) && p1 <= expect_p1 + 10,
            "pcie1 tlps {p1}"
        );
        assert!(
            p0 >= n.div_ceil(512) && p0 <= n.div_ceil(512) + n.div_ceil(4096) + 10,
            "pcie0 tlps {p0}"
        );
    }

    #[test]
    fn pu_reservation_prefers_idle_reserved_pool() {
        let mut s = bf2();
        // Saturate the shared pool.
        for _ in 0..26 {
            s.pu_shared.reserve(Nanos::ZERO, Nanos::new(1000));
        }
        let r = s.reserve_pu(Nanos::ZERO, Endpoint::Host);
        assert_eq!(r.start, Nanos::ZERO, "reserved pool should be idle");
    }

    #[test]
    fn rnic_uses_full_pu_pool() {
        let s = rnic();
        assert_eq!(s.pu_shared.units(), 32);
        assert!(s.pu_host.is_none());
    }

    #[test]
    fn message_handling_soc_slower() {
        let mut s = bf2();
        let h = s.handle_message(Nanos::ZERO, Endpoint::Host);
        let mut s = bf2();
        let c = s.handle_message(Nanos::ZERO, Endpoint::Soc);
        assert!(c > h, "SoC message handling should be slower");
    }

    #[test]
    fn mmio_transit_soc_higher() {
        let s = bf2();
        assert!(s.mmio_transit(Endpoint::Soc) > s.mmio_transit(Endpoint::Host));
    }

    #[test]
    #[should_panic(expected = "no SoC endpoint")]
    fn rnic_rejects_soc_dma() {
        let mut s = rnic();
        s.dma(Nanos::ZERO, Endpoint::Soc, MemOp::Write, 0, 64, true);
    }
}
