//! `snic-farmem` — the far-memory tier: SmartNIC SoC DRAM as a
//! disaggregated memory pool for the host.
//!
//! The paper observes that an off-path SmartNIC ships with gigabytes of
//! idle SoC DRAM; this crate characterizes *when* using it as a far
//! memory tier beats paging to a conventional backing store. Hosts keep
//! a bounded set of 4 KB pages resident in host DRAM and demote cold
//! pages to SoC DRAM — **local** SoC DRAM over path ③ (two PCIe1
//! crossings) or a **remote** machine's SoC DRAM over path ② (wire, no
//! PCIe1 crossing):
//!
//! * [`access::PageAccessGen`] — deterministic page-access generator:
//!   a Zipf-skewed hot working set reused with probability `reuse`,
//!   cold uniform accesses otherwise;
//! * [`residency::ResidencyTable`] — the host-side residency policy:
//!   age-based demotion, miss-triggered promotion with write-back of
//!   dirty victims;
//! * [`soc_cache::SocPageCache`] — the SoC-side serving layer over
//!   [`memsys::MemSystem::soc_like`]: an inclusive hot-page cache with
//!   LRU eviction in front of a larger backing region, every byte
//!   movement costed through the 1-channel SoC DRAM bank model.
//!
//! The cluster runtime (`snic-cluster`) wires these into the
//! 23-machine testbed as a dedicated stream kind; experiment
//! `18_farmem` sweeps placement, cache size and degraded-PCIe windows
//! into the viability frontier.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod residency;
pub mod soc_cache;

pub use access::{PageAccess, PageAccessGen};
pub use residency::{Demotion, ResidencyTable};
pub use soc_cache::{SocGet, SocPageCache};

use simnet::Nanos;

/// Far-memory request/response header bytes on the wire (opcode, page
/// id, stamp, credits) — same envelope size as the KV request header.
pub const FM_REQ_BYTES: u64 = 32;

/// Host DRAM hit cost charged when an accessed page is resident: one
/// cache-missing 64 B load/store out of host DDR4 (the residency check
/// itself is a hash probe folded into the same figure).
pub const FM_HOST_HIT: Nanos = Nanos::new(100);

/// Base address of the SoC hot-page cache slots (contiguous region).
pub const FM_CACHE_BASE: u64 = 1 << 33;

/// Base address of the SoC backing page region (hashed placement).
pub const FM_BACKING_BASE: u64 = 1 << 34;

/// Where a host places its demoted pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FmPlacement {
    /// Path ③: the host's own SmartNIC SoC DRAM, two PCIe1 crossings
    /// per transfer, exposed to PCIe degradation windows.
    LocalSoc,
    /// Path ②: a remote machine's SoC DRAM over the wire, terminating
    /// at the SoC without crossing its PCIe1.
    RemoteSoc,
}

/// Configuration of one far-memory stream: the access pattern, the
/// host residency policy, the SoC cache, and the baseline it must beat.
#[derive(Debug, Clone, Copy)]
pub struct FmStreamSpec {
    /// Where demoted pages live.
    pub placement: FmPlacement,
    /// Total pages in the address space of one host.
    pub n_pages: u64,
    /// Pages in the hot working set (Zipf-reused head of the space).
    pub working_set: u64,
    /// Probability an access re-uses the hot working set.
    pub reuse: f64,
    /// Zipf skew within the working set (`theta`, 0 = uniform).
    pub theta: f64,
    /// Probability an access is a store (dirties the page).
    pub write_fraction: f64,
    /// Host-resident page capacity; misses promote, evicting the LRU
    /// resident when full.
    pub resident_cap: usize,
    /// Residency entries untouched for this long are demoted.
    pub demote_age: Nanos,
    /// SoC hot-page cache capacity in pages.
    pub soc_cache_pages: usize,
    /// Miss penalty of the conventional backing store the far-memory
    /// tier competes against (NVMe-class read). The viability frontier
    /// compares effective far-memory AMAT against an all-host-DRAM
    /// hierarchy that pays this on every residency miss.
    pub miss_penalty: Nanos,
    /// Page size in bytes (the transfer unit on both paths).
    pub page_bytes: u64,
}

impl FmStreamSpec {
    /// The default tier: 4 KB pages, 2 Ki-page hot set reused 90 % of
    /// the time under Zipf(0.99), 1 Ki resident pages, 512-page SoC
    /// cache, against a 2.5 µs backing-store miss.
    pub fn new(placement: FmPlacement) -> Self {
        FmStreamSpec {
            placement,
            n_pages: 1 << 16,
            working_set: 2048,
            reuse: 0.9,
            theta: 0.99,
            write_fraction: 0.2,
            resident_cap: 1024,
            demote_age: Nanos::new(20_000),
            soc_cache_pages: 512,
            miss_penalty: Nanos::new(2_500),
            page_bytes: 4096,
        }
    }

    /// Flatten the access pattern: every page equally likely, no
    /// working-set reuse (the regime where far memory should lose).
    pub fn zipf_flat(mut self) -> Self {
        self.reuse = 0.0;
        self.theta = 0.0;
        self
    }

    /// Override the SoC hot-page cache capacity.
    pub fn cache_pages(mut self, pages: usize) -> Self {
        self.soc_cache_pages = pages;
        self
    }

    /// Override the backing-store miss penalty being competed against.
    pub fn backing_miss(mut self, penalty: Nanos) -> Self {
        self.miss_penalty = penalty;
        self
    }
}
