//! The far-memory tier over the cluster runtime.
//!
//! An [`FmStreamSpec`](snic_farmem::FmStreamSpec) turns one
//! [`ClusterStream`](crate::ClusterStream) into a page-access stream:
//! each issuing host runs a deterministic
//! [`PageAccessGen`](snic_farmem::PageAccessGen) against its
//! [`ResidencyTable`](snic_farmem::ResidencyTable); hits cost one host
//! DRAM access, misses promote the page from the far tier, and idle
//! pages age out (dirty ones write back). The far tier is the SmartNIC
//! SoC DRAM, reached two ways:
//!
//! * [`FmPlacement::LocalSoc`](snic_farmem::FmPlacement) — path ③: the
//!   host's own SoC, two PCIe1 crossings per transfer, synchronous, so
//!   PCIe degradation and TLP corruption hit every promotion twice;
//! * [`FmPlacement::RemoteSoc`](snic_farmem::FmPlacement) — path ②:
//!   pages hash across *all* pool servers' SoCs
//!   ([`kv_home_server`](crate::kv::kv_home_server) over the global
//!   page id), the wire terminates at the SoC and never crosses PCIe1.
//!
//! Either way the serving side is a doorbell-batched SoC-core pool in
//! front of the [`SocPageCache`](snic_farmem::SocPageCache), whose
//! every byte movement is costed through the 1-channel SoC DRAM bank
//! model — the weak memory the paper's Advice #1 warns about.

use simnet::resource::MultiServer;
use simnet::rng::Zipf;
use simnet::time::Nanos;
use snic_farmem::{Demotion, FmStreamSpec, PageAccessGen, ResidencyTable, SocPageCache};

use crate::msg::ShardId;

/// SoC cores dedicated to far-memory serving (the full BlueField-2
/// complement: the pool is DRAM-limited, not core-limited).
pub(crate) const FM_SOC_CORES: usize = 8;

/// Pages are globally namespaced by their owning shard so one pool
/// server can hold pages from many hosts without collisions.
pub(crate) fn fm_global_page(owner: ShardId, page: u64) -> u64 {
    ((owner as u64) << 40) | page
}

/// Recovers the owner-local page index from a global page id.
pub(crate) fn fm_local_page(gpage: u64) -> u64 {
    gpage & ((1 << 40) - 1)
}

/// Host-side (requester) slice of a far-memory stream on one shard.
pub(crate) struct FmHost {
    /// The stream's configuration.
    pub spec: FmStreamSpec,
    /// Deterministic access trace (owns a forked RNG).
    pub gen: PageAccessGen,
    /// Which pages are resident in host DRAM.
    pub table: ResidencyTable,
    /// Cluster shape, for routing global pages to pool servers.
    pub n_clients: usize,
    pub n_servers: usize,
    /// Version stamp allocator for demoted dirty pages.
    pub next_stamp: u64,
    /// Scratch buffer for demotion sweeps (reused, never reallocated
    /// in steady state).
    pub demote_buf: Vec<Demotion>,
    /// Promotions installed (far fetches that completed).
    pub promotes: u64,
    /// Demotion write-backs acknowledged by the pool.
    pub put_acked: u64,
    /// Path-③ retries rolled while fetching or writing back under
    /// stochastic PCIe faults (local placement only).
    pub path3_retries: u64,
}

impl FmHost {
    /// A host slice drawing hot pages from `zipf`, the stream's shared
    /// table over its working set.
    pub fn new(
        spec: FmStreamSpec,
        rng: simnet::SimRng,
        zipf: Zipf,
        n_clients: usize,
        n_servers: usize,
    ) -> Self {
        FmHost {
            spec,
            gen: PageAccessGen::with_zipf(
                rng,
                zipf,
                spec.n_pages,
                spec.working_set,
                spec.reuse,
                spec.write_fraction,
            ),
            table: ResidencyTable::new(spec.resident_cap, spec.demote_age),
            n_clients,
            n_servers,
            next_stamp: 0,
            demote_buf: Vec::new(),
            promotes: 0,
            put_acked: 0,
            path3_retries: 0,
        }
    }

    /// Accesses generated so far (hits + misses).
    pub fn accesses(&self) -> u64 {
        self.table.hits + self.table.misses
    }
}

/// Pool-server slice: the SoC cache plus its serving cores.
pub(crate) struct FmServer {
    /// The hot-page cache over this server's SoC DRAM.
    pub cache: SocPageCache,
    /// SoC serving cores (requests complete behind a doorbell batch).
    pub pool: MultiServer,
    /// Base service time per request on a SoC core (message handling
    /// plus the doorbell-batched response post).
    pub svc: Nanos,
    /// Page transfer unit.
    pub page_bytes: u64,
}

impl FmServer {
    pub fn new(spec: &FmStreamSpec, svc: Nanos) -> Self {
        FmServer {
            cache: SocPageCache::new(spec.soc_cache_pages, spec.page_bytes),
            pool: MultiServer::new(FM_SOC_CORES),
            svc,
            page_bytes: spec.page_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_page_roundtrips_owner_and_page() {
        let g = fm_global_page(21, 0xABCDE);
        assert_eq!(fm_local_page(g), 0xABCDE);
        assert_ne!(
            fm_global_page(1, 7),
            fm_global_page(2, 7),
            "same page on two owners must not collide in the pool"
        );
    }
}
