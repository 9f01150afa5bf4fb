//! On-path SmartNIC model (§2.2, Figure 2(b)) — the architectural foil.
//!
//! On-path SmartNICs (Marvell LiquidIO, Netronome Agilio) expose the NIC
//! cores themselves to offloaded code. The paper's background section
//! makes two claims this model reproduces:
//!
//! * *inline* requests that only touch on-board memory are extremely
//!   efficient — no PCIe switch, no host PCIe, just the NIC cores and
//!   their local DRAM;
//! * the offloaded code **competes for NIC cores** with the network
//!   requests destined for the host, so heavy offload degrades the
//!   host's network performance — exactly what the off-path design's
//!   separation avoids.

use simnet::resource::{Dir, DuplexPipe, MultiServer, Reservation};
use simnet::time::{Bandwidth, Nanos};
use topology::NicSpec;

use crate::server::pipeline_out;

/// Static description of an on-path SmartNIC.
#[derive(Debug, Clone, Copy)]
pub struct OnPathSpec {
    /// The underlying NIC-core complex.
    pub nic: NicSpec,
    /// On-board memory bandwidth (packet-buffer DRAM).
    pub onboard_bw: Bandwidth,
    /// On-board memory access latency from a NIC core.
    pub onboard_latency: Nanos,
    /// Host PCIe latency (one way) for host-bound requests.
    pub host_latency: Nanos,
}

impl OnPathSpec {
    /// A LiquidIO-class device built on the same 200 Gbps core complex
    /// for an apples-to-apples comparison with Bluefield-2.
    pub fn liquidio_like() -> Self {
        OnPathSpec {
            nic: NicSpec::connectx6(),
            onboard_bw: Bandwidth::gigabytes_per_sec(25.6),
            onboard_latency: Nanos::new(45),
            host_latency: Nanos::new(275),
        }
    }
}

/// The on-path device runtime: one PU pool shared by *everything*.
pub struct OnPathNic {
    spec: OnPathSpec,
    pus: MultiServer,
    onboard: DuplexPipe,
    host_pcie: DuplexPipe,
    offload_cycles: Nanos,
    served_host: u64,
    served_inline: u64,
}

impl OnPathNic {
    /// Creates the runtime.
    pub fn new(spec: OnPathSpec) -> Self {
        OnPathNic {
            pus: MultiServer::new(spec.nic.pu_total as usize),
            onboard: DuplexPipe::new(spec.onboard_bw),
            host_pcie: DuplexPipe::new(Bandwidth::gbps(252.0)),
            offload_cycles: Nanos::ZERO,
            served_host: 0,
            served_inline: 0,
            spec,
        }
    }

    /// The spec.
    pub fn spec(&self) -> &OnPathSpec {
        &self.spec
    }

    /// Serves a host-bound request (the ordinary datapath): PU parse +
    /// PCIe DMA to host memory. Returns (nic_start, data_ready).
    pub fn serve_host_request(&mut self, arrive: Nanos, bytes: u64) -> (Nanos, Nanos) {
        let pu = self.pus.reserve(arrive, self.spec.nic.pu_request_time);
        let out = pipeline_out(&pu);
        let p = self
            .host_pcie
            .reserve(Dir::Fwd, out + self.spec.host_latency, bytes.max(1));
        self.served_host += 1;
        (pu.start, p.finish + self.spec.host_latency)
    }

    /// Serves an *inline* request that only touches on-board memory —
    /// the fast case the paper highlights (Figure 2(b) path 2).
    pub fn serve_inline_request(&mut self, arrive: Nanos, bytes: u64) -> (Nanos, Nanos) {
        let pu = self.pus.reserve(arrive, self.spec.nic.pu_request_time);
        let out = pipeline_out(&pu);
        let m = self
            .onboard
            .reserve(Dir::Fwd, out + self.spec.onboard_latency, bytes.max(1));
        self.served_inline += 1;
        (pu.start, m.finish + self.spec.onboard_latency)
    }

    /// Runs `cpu_time` of offloaded application code on a NIC core —
    /// stealing it from the packet pipeline.
    pub fn run_offloaded(&mut self, arrive: Nanos, cpu_time: Nanos) -> Reservation {
        self.offload_cycles += cpu_time;
        self.pus.reserve(arrive, cpu_time)
    }

    /// Host requests served.
    pub fn served_host(&self) -> u64 {
        self.served_host
    }

    /// Inline requests served.
    pub fn served_inline(&self) -> u64 {
        self.served_inline
    }

    /// Total offloaded core time consumed.
    pub fn offload_cycles(&self) -> Nanos {
        self.offload_cycles
    }

    /// Closed-form host-path capacity (requests/s) when a fraction
    /// `offload_share` of core time runs offloaded code.
    pub fn host_capacity_mops(&self, offload_share: f64) -> f64 {
        assert!((0.0..1.0).contains(&offload_share), "share in [0,1)");
        self.spec.nic.peak_request_rate_mops() * (1.0 - offload_share)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_requests_beat_host_requests() {
        // Figure 2(b): requests to on-board memory skip the host PCIe.
        let mut n = OnPathNic::new(OnPathSpec::liquidio_like());
        let (_, inline_done) = n.serve_inline_request(Nanos::ZERO, 64);
        let mut n2 = OnPathNic::new(OnPathSpec::liquidio_like());
        let (_, host_done) = n2.serve_host_request(Nanos::ZERO, 64);
        assert!(
            inline_done < host_done,
            "inline {inline_done} !< host {host_done}"
        );
    }

    #[test]
    fn offload_steals_host_throughput() {
        // §2.2: "if too much computation is offloaded onto it, the
        // network performance of the host suffers".
        let spec = OnPathSpec::liquidio_like();
        // Saturate with host requests while half the cores' time runs
        // offloaded handlers.
        let mut idle = OnPathNic::new(spec);
        let mut busy = OnPathNic::new(spec);
        let horizon = Nanos::from_micros(100);
        // Offload load: 16 handlers x 50 us on the busy NIC.
        for _ in 0..16 {
            busy.run_offloaded(Nanos::ZERO, Nanos::from_micros(50));
        }
        let count = |nic: &mut OnPathNic| {
            let mut served = 0u64;
            'outer: loop {
                for _ in 0..64 {
                    let (_, done) = nic.serve_host_request(Nanos::ZERO, 0);
                    if done > horizon {
                        break 'outer;
                    }
                    served += 1;
                }
            }
            served
        };
        let free = count(&mut idle);
        let contended = count(&mut busy);
        assert!(
            contended < free * 9 / 10,
            "offload did not degrade host path: {contended} vs {free}"
        );
    }

    #[test]
    fn closed_form_capacity_scales_linearly() {
        let n = OnPathNic::new(OnPathSpec::liquidio_like());
        let full = n.host_capacity_mops(0.0);
        let half = n.host_capacity_mops(0.5);
        assert!((half - full / 2.0).abs() < 1e-9);
        assert!(full > 195.0);
    }

    #[test]
    #[should_panic(expected = "share in [0,1)")]
    fn capacity_rejects_full_offload() {
        OnPathNic::new(OnPathSpec::liquidio_like()).host_capacity_mops(1.0);
    }

    #[test]
    fn counters_track_requests() {
        let mut n = OnPathNic::new(OnPathSpec::liquidio_like());
        n.serve_host_request(Nanos::ZERO, 64);
        n.serve_inline_request(Nanos::ZERO, 64);
        n.run_offloaded(Nanos::ZERO, Nanos::from_micros(1));
        assert_eq!(n.served_host(), 1);
        assert_eq!(n.served_inline(), 1);
        assert_eq!(n.offload_cycles(), Nanos::from_micros(1));
    }
}
