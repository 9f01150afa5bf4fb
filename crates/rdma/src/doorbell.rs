//! Doorbell-batching cost model (paper Advice #4, Figure 10).
//!
//! Posting one request costs the requester CPU a WQE build plus an MMIO
//! doorbell. Doorbell batching (DB) replaces the N MMIOs of a batch with
//! one, after which the NIC *fetches* the WQEs by DMA from requester
//! memory. Whether that trade wins depends on which side of the SmartNIC
//! the requester sits:
//!
//! * **SoC requester (S2H)** — MMIO from the ARM cores is very expensive
//!   (strongly-ordered store across the internal fabric, ~0.7 us), and
//!   the NIC reads SoC memory quickly (§3.2), so DB wins by multiples.
//! * **Host requester (H2S)** — MMIO is cheap (write-combining retires it
//!   in tens of ns) while NIC DMA reads of host memory are compara-
//!   tively slow (§3.1), so DB *loses* a few percent at small batches.
//!
//! The per-WQE fetch penalties below are calibrated against Figure 10(b):
//! -9%/-7%/-6% at host-side batches of 16/32/48, and a 2.7-4.6x win on
//! the SoC side.

use nicsim::{Endpoint, PathKind};
use simnet::time::Nanos;
use topology::{MachineSpec, SmartNicSpec};

/// Per-batch bookkeeping overhead of a doorbell ring that is not hidden
/// by pipelining (ring update, one doorbell MMIO worth of fabric time).
const DB_BATCH_OVERHEAD: Nanos = Nanos::new(100);
/// Per-WQE NIC DMA-fetch cost from *host* memory (slow path, §3.1).
const WQE_FETCH_HOST: Nanos = Nanos::new(47);
/// Per-WQE NIC DMA-fetch cost from *SoC* memory (fast path, §3.2).
const WQE_FETCH_SOC: Nanos = Nanos::new(40);
/// Per-WQE NIC DMA-fetch cost from a client machine's memory.
const WQE_FETCH_CLIENT: Nanos = Nanos::new(30);
/// Extra WQE-build time under DB (linking entries into a chain).
const DB_LINK_EXTRA: Nanos = Nanos::new(20);

/// How a requester hands requests to its NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostMode {
    /// One MMIO per request (WQE pushed inline by the CPU).
    Mmio,
    /// Doorbell batching with the given batch size.
    Doorbell(u32),
}

impl PostMode {
    /// Stable short label used for metric names (batch size elided so a
    /// sweep over batch sizes shares one counter).
    pub fn label(self) -> &'static str {
        match self {
            PostMode::Mmio => "mmio",
            PostMode::Doorbell(_) => "doorbell",
        }
    }
}

/// Who is posting: determines MMIO and WQE-fetch costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PosterKind {
    /// A remote client machine's CPU.
    Client,
    /// The server host CPU (path 3 H2S).
    HostCpu,
    /// The SmartNIC SoC cores (path 3 S2H).
    SocCore,
}

impl PosterKind {
    /// The poster for a communication path.
    pub fn for_path(path: PathKind) -> PosterKind {
        match path {
            PathKind::Rnic1 | PathKind::Snic1 | PathKind::Snic2 => PosterKind::Client,
            PathKind::Snic3H2S => PosterKind::HostCpu,
            PathKind::Snic3S2H => PosterKind::SocCore,
        }
    }

    /// Requester threads per machine in the paper's methodology: 12-thread
    /// client processes; path-3 requesters use all 24 host cores or all 8
    /// SoC cores.
    pub fn default_threads(self) -> usize {
        match self {
            PosterKind::Client => 12,
            PosterKind::HostCpu => 24,
            PosterKind::SocCore => 8,
        }
    }

    /// Outstanding requests per thread, calibrated to the paper's §3.3
    /// observation that a single requester processor cannot saturate the
    /// NIC with small requests (S2H 29 M/s, H2S 51.2 M/s).
    pub fn default_window(self) -> usize {
        match self {
            PosterKind::Client => 8,
            PosterKind::HostCpu => 4,
            PosterKind::SocCore => 9,
        }
    }

    /// Posting mode under the paper's framework, which applies the known
    /// optimizations (§2.4): on the SoC that means doorbell batching,
    /// since Advice #4 makes MMIO posting from the A72 prohibitive.
    pub fn default_post_mode(self) -> PostMode {
        match self {
            PosterKind::SocCore => PostMode::Doorbell(32),
            PosterKind::Client | PosterKind::HostCpu => PostMode::Mmio,
        }
    }

    /// The on-server endpoint whose memory holds this poster's WQEs, if
    /// the poster lives on the server machine.
    pub fn endpoint(self) -> Option<Endpoint> {
        match self {
            PosterKind::Client => None,
            PosterKind::HostCpu => Some(Endpoint::Host),
            PosterKind::SocCore => Some(Endpoint::Soc),
        }
    }
}

/// Requester-side posting costs for one (machine, poster) combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PostCostModel {
    /// CPU time to build one WQE.
    pub post_time: Nanos,
    /// CPU-side cost of one MMIO doorbell.
    pub mmio_issue: Nanos,
    /// Per-WQE NIC DMA-fetch cost under DB.
    pub wqe_fetch: Nanos,
}

impl PostCostModel {
    /// Builds the model for a poster on the given machine.
    ///
    /// # Panics
    ///
    /// Panics if a SoC poster is requested for a machine without a
    /// SmartNIC.
    pub fn new(machine: &MachineSpec, poster: PosterKind) -> Self {
        match poster {
            PosterKind::Client | PosterKind::HostCpu => PostCostModel {
                post_time: machine.host.cpu.post_time,
                mmio_issue: machine.host.cpu.mmio_issue,
                wqe_fetch: match poster {
                    PosterKind::Client => WQE_FETCH_CLIENT,
                    _ => WQE_FETCH_HOST,
                },
            },
            PosterKind::SocCore => {
                let s: &SmartNicSpec = machine
                    .nic
                    .smartnic()
                    .expect("SoC poster requires a SmartNIC");
                PostCostModel {
                    post_time: s.soc.post_time,
                    // The A72 lacks write-combining towards the doorbell
                    // BAR: the store stalls for the full MMIO latency.
                    mmio_issue: s.soc.mmio_latency,
                    wqe_fetch: WQE_FETCH_SOC,
                }
            }
        }
    }

    /// Requester-CPU time consumed per request under `mode` (the posting
    /// throughput bound; completions overlap).
    pub fn cpu_time_per_request(&self, mode: PostMode) -> Nanos {
        match mode {
            PostMode::Mmio => self.post_time + self.mmio_issue,
            PostMode::Doorbell(n) => {
                assert!(n > 0, "doorbell batch must be non-empty");
                let per_batch = self.mmio_issue + DB_BATCH_OVERHEAD;
                self.post_time + DB_LINK_EXTRA + per_batch / n as u64 + self.wqe_fetch
            }
        }
    }

    /// Peak posting rate in M requests/s for one thread under `mode`.
    pub fn posting_rate_mops(&self, mode: PostMode) -> f64 {
        1e3 / self.cpu_time_per_request(mode).as_nanos() as f64
    }

    /// The DB speedup (>1 means batching helps) at batch size `n`.
    pub fn db_speedup(&self, n: u32) -> f64 {
        self.cpu_time_per_request(PostMode::Mmio).as_nanos() as f64
            / self.cpu_time_per_request(PostMode::Doorbell(n)).as_nanos() as f64
    }

    /// Advice #4 as a predicate: should this poster enable DB at batch
    /// size `n`?
    pub fn db_recommended(&self, n: u32) -> bool {
        self.db_speedup(n) > 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use topology::MachineSpec;

    fn bf2() -> MachineSpec {
        MachineSpec::srv_with_bluefield()
    }

    #[test]
    fn soc_side_db_wins_by_multiples() {
        // Figure 10(b): 2.7-4.6x for batches 16-80.
        let m = PostCostModel::new(&bf2(), PosterKind::SocCore);
        let s16 = m.db_speedup(16);
        let s80 = m.db_speedup(80);
        assert!((2.5..=5.5).contains(&s16), "s16 = {s16:.2}");
        assert!((2.5..=5.5).contains(&s80), "s80 = {s80:.2}");
        assert!(s80 > s16, "speedup should grow with batch size");
    }

    #[test]
    fn host_side_db_loses_at_small_batches() {
        // Figure 10(b): -9%/-7%/-6% at batches 16/32/48.
        let m = PostCostModel::new(&bf2(), PosterKind::HostCpu);
        for n in [16, 32, 48] {
            let s = m.db_speedup(n);
            assert!(
                (0.85..1.0).contains(&s),
                "batch {n}: speedup {s:.3} should be slightly below 1"
            );
            assert!(!m.db_recommended(n));
        }
        // Losses shrink as the batch grows.
        assert!(m.db_speedup(48) > m.db_speedup(16));
    }

    #[test]
    fn client_side_db_mildly_positive() {
        // Figure 10(b): 2-30% improvement for RNIC(1)/SNIC(1).
        let m = PostCostModel::new(&MachineSpec::cli(), PosterKind::Client);
        let s = m.db_speedup(32);
        assert!((1.0..=1.4).contains(&s), "client DB speedup {s:.2}");
        assert!(m.db_recommended(32));
    }

    #[test]
    fn poster_for_path() {
        assert_eq!(PosterKind::for_path(PathKind::Snic1), PosterKind::Client);
        assert_eq!(
            PosterKind::for_path(PathKind::Snic3S2H),
            PosterKind::SocCore
        );
        assert_eq!(
            PosterKind::for_path(PathKind::Snic3H2S),
            PosterKind::HostCpu
        );
        assert_eq!(PosterKind::SocCore.endpoint(), Some(Endpoint::Soc));
        assert_eq!(PosterKind::Client.endpoint(), None);
    }

    #[test]
    fn posting_rate_inverse_of_cpu_time() {
        let m = PostCostModel::new(&bf2(), PosterKind::HostCpu);
        let t = m.cpu_time_per_request(PostMode::Mmio).as_nanos() as f64;
        let r = m.posting_rate_mops(PostMode::Mmio);
        assert!((r - 1e3 / t).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "doorbell batch must be non-empty")]
    fn zero_batch_rejected() {
        PostCostModel::new(&bf2(), PosterKind::HostCpu).cpu_time_per_request(PostMode::Doorbell(0));
    }

    #[test]
    #[should_panic(expected = "requires a SmartNIC")]
    fn soc_poster_needs_smartnic() {
        PostCostModel::new(&MachineSpec::srv_with_rnic(), PosterKind::SocCore);
    }
}
