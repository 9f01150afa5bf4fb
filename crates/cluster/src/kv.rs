//! The replicated, sharded KV service over the cluster runtime.
//!
//! A [`KvStreamSpec`] turns one [`ClusterStream`](crate::ClusterStream)
//! into a YCSB op stream: clients draw keys from the configured
//! distribution, route each op to the key's home *server shard* (all
//! servers of the testbed serve, not just the scenario's responder),
//! and the server answers according to its current index placement
//! ([`Design`]):
//!
//! * `HostRpc` — host serving cores look the key up and DMA the value
//!   (1 network round trip, burns scarce host cores);
//! * `SocIndex` — SoC cores own the index; the value is pulled from
//!   host memory over path 3 (1 round trip, wimpy cores + weak SoC
//!   DRAM, double PCIe1 exposure under faults);
//! * `OneSidedRnic` / `OneSidedSnic` — the client resolves the get with
//!   one-sided READs: one per probe-chain bucket plus the value READ (no
//!   server CPU, network amplification). Only these and `HostRpc` run
//!   on a server without a SmartNIC.
//!
//! Placement is either pinned ([`KvPlacement::Static`]) or re-decided
//! at fixed epoch boundaries by an online policy consuming the last
//! window's observations ([`KvWindowObs`]) — skew, load vs capacity,
//! probe amplification and fault signals. Decisions happen at fixed
//! simulated instants from shard-local state only, so worker-count
//! byte-invariance is preserved.

use std::collections::HashMap;

use simnet::resource::MultiServer;
use simnet::time::Nanos;
use snic_kvstore::{Design, HashIndex, KeyDist, Mix};
use topology::DpaSpec;

/// Re-decision observation window handed to an online policy.
#[derive(Debug, Clone, Copy)]
pub struct KvWindowObs {
    /// Window length.
    pub window: Nanos,
    /// Ops served in the window (gets + puts).
    pub ops: u64,
    /// Gets served.
    pub reads: u64,
    /// Puts served.
    pub updates: u64,
    /// Summed index probes over served gets (amplification estimate).
    pub probe_sum: u64,
    /// Share of ops hitting the hottest key (skew estimate).
    pub top_key_share: f64,
    /// Value size of the stream.
    pub value_size: u32,
    /// Offered load observed this window (ops/s arriving at this shard).
    pub offered_per_sec: f64,
    /// Analytic capacity of the host serving pool at the window's mean
    /// probe count (ops/s).
    pub host_capacity_per_sec: f64,
    /// Analytic capacity of the SoC serving pool likewise (ops/s).
    pub soc_capacity_per_sec: f64,
    /// Path-3 retransmissions rolled inside the window (nonzero only
    /// while the SoC placement is fetching values under PCIe faults).
    pub path3_retries: u64,
    /// Whether PCIe fault pressure is active at the decision instant
    /// (a degradation window, or stochastic PCIe TLP corruption armed).
    pub pcie_faulty: bool,
    /// Analytic capacity of the DPA serving plane at this shard's
    /// resident-state size (ops/s); 0.0 when the server's SmartNIC
    /// carries no DPA plane. Spill cost is folded in when the resident
    /// state exceeds the DPA scratch.
    pub dpa_capacity_per_sec: f64,
    /// Whether the shard's resident KV state (index region + value
    /// region) fits the DPA scratch; false when there is no DPA plane.
    pub dpa_resident_fits: bool,
    /// Placement the window ran under.
    pub current: Design,
}

impl KvWindowObs {
    /// Mean probes per get in the window (1.0 when no gets ran).
    pub fn mean_probes(&self) -> f64 {
        if self.reads == 0 {
            1.0
        } else {
            self.probe_sum as f64 / self.reads as f64
        }
    }
}

/// An online placement policy: pure function of the window observation.
/// A plain `fn` keeps the spec `Copy` and the decision deterministic.
pub type KvPolicy = fn(&KvWindowObs) -> Design;

/// Index placement for the KV service.
#[derive(Debug, Clone, Copy)]
pub enum KvPlacement {
    /// Pin one design for the whole run.
    Static(Design),
    /// Re-decide at every epoch boundary with the given policy.
    Online(KvPolicy),
}

/// Configuration of the cluster KV service stream.
#[derive(Debug, Clone, Copy)]
pub struct KvStreamSpec {
    /// YCSB mix (read fraction).
    pub mix: Mix,
    /// Key distribution.
    pub dist: KeyDist,
    /// Keys preloaded across the server shards.
    pub n_keys: u64,
    /// Value bytes.
    pub value_size: u32,
    /// Index buckets *per server shard*.
    pub index_buckets: usize,
    /// Host cores reserved for KV serving (scarce by design — the
    /// paper's premise is that host cores are the precious resource).
    pub host_cores: usize,
    /// SoC cores serving when the index is offloaded.
    pub soc_cores: usize,
    /// Placement mode.
    pub placement: KvPlacement,
    /// Online re-decision period (ignored for static placements).
    pub decision_every: Nanos,
}

impl KvStreamSpec {
    /// Paper-shaped defaults: 20k keys, 256 B values, a loaded index
    /// (multi-probe chains appear), two reserved host cores, all eight
    /// BlueField-2 SoC cores, 50 µs decision epochs.
    pub fn new(mix: Mix, dist: KeyDist, placement: KvPlacement) -> Self {
        KvStreamSpec {
            mix,
            dist,
            n_keys: 20_000,
            value_size: 256,
            index_buckets: 4096,
            host_cores: 2,
            soc_cores: 8,
            placement,
            decision_every: Nanos::from_micros(50),
        }
    }

    /// Overrides the key count.
    pub fn with_keys(mut self, n_keys: u64) -> Self {
        self.n_keys = n_keys;
        self
    }

    /// Overrides the value size.
    pub fn with_value_size(mut self, bytes: u32) -> Self {
        self.value_size = bytes;
        self
    }

    /// Overrides the reserved host serving cores.
    pub fn with_host_cores(mut self, cores: usize) -> Self {
        self.host_cores = cores.max(1);
        self
    }

    /// Overrides the re-decision period.
    pub fn with_decision_every(mut self, period: Nanos) -> Self {
        self.decision_every = period.max(Nanos::new(1));
        self
    }
}

/// Routes a key to its home server shard index (0-based among the
/// cluster's servers). Clients and servers compute this identically —
/// a SplitMix64 finalizer so consecutive keys scatter.
pub fn kv_home_server(key: u64, n_servers: usize) -> usize {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % n_servers as u64) as usize
}

/// Base address of a server shard's KV value region.
pub const KV_VALUES_BASE: u64 = 1 << 32;
/// Base address of a server shard's KV index region.
pub const KV_INDEX_BASE: u64 = 1 << 28;
/// KV request/response header bytes.
pub const KV_REQ_BYTES: u64 = 32;
/// DRAM banks modelled on the SoC's (weak) memory system: a hot key
/// serializes on its home bucket's bank while the host side, with its
/// server-class memory, is deliberately not bank-limited.
pub const SOC_BANKS: usize = 8;
/// Bank hold per SoC index lookup. Eight banks at this hold give the
/// SoC plenty of aggregate capacity for uniform traffic, but a single
/// hot key caps at ~2 Mops — well below what a hot-key storm offers one
/// shard, and below even the scarce host pool (Advice #1: the SoC's
/// single-channel DRAM collapses under skew; the host's server-class
/// memory does not).
pub const SOC_BANK_HOLD: Nanos = Nanos::new(480);
/// Extra host handler time for a put (value copy + index update).
pub const KV_PUT_EXTRA: Nanos = Nanos::new(120);
/// Per-probe host lookup cost (cache-resident index walk).
pub const KV_HOST_PROBE: Nanos = Nanos::new(25);
/// Per-probe SoC lookup cost (wimpy cores, weak DRAM).
pub const KV_SOC_PROBE: Nanos = Nanos::new(60);

/// The default online policy: the advisor distilled from the paper's
/// guidelines, and the only entry point to it
/// (`KvPlacement::Online(advisor_policy)`).
///
/// Decision order matters:
/// 1. PCIe fault pressure poisons path 3 (double PCIe1 exposure), so
///    the SoC placement is off the table; host serves if it has
///    headroom, else one-sided READs bypass both CPUs entirely (the
///    last resort — one-sided chains pay a round trip per probe, the
///    network amplification of Figure 1(a)).
/// 2. A hot key saturates one SoC DRAM bank long before the SoC cores
///    saturate (Advice #1), so skewed overload *stays on the host*:
///    DDIO and server-class multi-channel DRAM absorb the skew, and a
///    queued host core is still cheaper than a collapsed SoC bank or an
///    amplified one-sided chain.
/// 3. Plain overload of the scarce host cores offloads the index to
///    the SoC (Advice #4 polarity: its cores post behind a doorbell).
/// 4. Otherwise the host's fat cores give the lowest latency.
///
/// A DPA plane (BlueField-3), when present, amends two branches:
///
/// * Under fault pressure with load, the DPA beats one-sided READs —
///   its serving loop never crosses PCIe1, so PCIe corruption cannot
///   touch it, and unlike `OneSidedRnic` it pays no probe-chain
///   round-trip amplification. This is the advice the DPA *flips*.
/// * Under skewless overload, the DPA only displaces the SoC when it
///   actually out-runs it — which requires the shard's resident state
///   to fit (or nearly fit) the tiny DPA scratch; a spilling DPA core
///   is slower than an A72. Under skewed overload the hot-key verdict
///   likewise survives unless the state fits scratch: a spilling DPA
///   pays SoC-DRAM latency per op, exactly the weak-memory trap that
///   keeps skew on the host.
pub fn advisor_policy(obs: &KvWindowObs) -> Design {
    let loaded = obs.offered_per_sec > 0.85 * obs.host_capacity_per_sec;
    let hot = obs.top_key_share > 0.15;
    let faulty = obs.pcie_faulty || obs.path3_retries > 0;
    let dpa = obs.dpa_capacity_per_sec > 0.0;
    if faulty {
        if dpa && loaded {
            Design::DpaHandler
        } else if loaded {
            Design::OneSidedRnic
        } else {
            Design::HostRpc
        }
    } else if loaded && hot {
        if dpa && obs.dpa_resident_fits {
            Design::DpaHandler
        } else {
            Design::HostRpc
        }
    } else if loaded {
        if dpa && obs.dpa_capacity_per_sec > obs.soc_capacity_per_sec {
            Design::DpaHandler
        } else {
            Design::SocIndex
        }
    } else {
        Design::HostRpc
    }
}

/// Per-op pending state a client keeps while it drives a one-sided
/// probe chain (the server's first reply describes the chain; the
/// client then issues the remaining probe READs and the value READ as
/// separate round trips).
#[derive(Debug, Clone, Copy)]
pub(crate) struct KvPending {
    /// Home server *shard* of the op (destination for follow-up READs).
    pub server: usize,
    /// The key, kept so follow-up probe READs can be addressed.
    pub key: u64,
    /// Total probes the chain needs (0 until the chain reply arrives).
    pub probes: u32,
    /// Next probe hop to issue (1-based; hop 0 was the first reply).
    pub next_hop: u32,
    /// Value address learned from the chain reply.
    pub value_addr: u64,
    /// Value length learned from the chain reply.
    pub value_len: u32,
}

/// Server-shard-local KV serving state.
pub(crate) struct KvServer {
    /// This server's index over its key subset.
    pub index: HashIndex,
    /// Value slot size.
    pub value_size: u32,
    /// Bump allocator for the value region.
    pub next_value: u64,
    /// Current placement.
    pub design: Design,
    /// Online policy, if placement is dynamic.
    pub policy: Option<KvPolicy>,
    /// Re-decision period.
    pub decision_every: Nanos,
    /// Host serving cores (scarce pool).
    pub host_pool: MultiServer,
    /// SoC serving cores.
    pub soc_pool: MultiServer,
    /// DPA plane of this server's SmartNIC, when it carries one. The
    /// serving contention lives in the fabric's `ServerMachine`; this
    /// copy feeds the advisor's capacity/fits signals.
    pub dpa: Option<DpaSpec>,
    /// SoC DRAM bank free times (index lookups serialize per bank).
    pub bank_free: [Nanos; SOC_BANKS],
    /// Base service time per op on a host core (message handling plus
    /// the host-side response post, MMIO polarity).
    pub host_svc: Nanos,
    /// Base service time per op on a SoC core (message handling plus
    /// the SoC-side response post, doorbell-batched polarity).
    pub soc_svc: Nanos,
    /// Window accumulators for the online advisor.
    pub win_start: Nanos,
    pub win_ops: u64,
    pub win_reads: u64,
    pub win_updates: u64,
    pub win_probe_sum: u64,
    pub win_path3_retries: u64,
    pub win_key_counts: HashMap<u64, u32>,
    pub win_top_count: u32,
    /// Run counters.
    pub gets: u64,
    pub puts: u64,
    pub probe_trips: u64,
    pub path3_retries: u64,
    pub decisions: u64,
    pub design_changes: u64,
    /// Gets served by the DPA plane (subset of `gets`).
    pub dpa_gets: u64,
}

impl KvServer {
    /// Builds the serving state and preloads this server's key subset
    /// (every key `k` with `kv_home_server(k, n_servers) == me`).
    pub fn new(
        spec: &KvStreamSpec,
        me: usize,
        n_servers: usize,
        host_svc: Nanos,
        soc_svc: Nanos,
        dpa: Option<DpaSpec>,
    ) -> Self {
        let mut index = HashIndex::new(spec.index_buckets, KV_INDEX_BASE);
        let mut next_value = 0u64;
        for k in 0..spec.n_keys {
            if kv_home_server(k, n_servers) == me {
                index
                    .insert(k, KV_VALUES_BASE + next_value, spec.value_size)
                    .expect("preload must fit the configured index");
                next_value += spec.value_size as u64;
            }
        }
        let (design, policy) = match spec.placement {
            KvPlacement::Static(d) => (d, None),
            // Online placement starts conservative: the host serves
            // until the first window says otherwise.
            KvPlacement::Online(p) => (Design::HostRpc, Some(p)),
        };
        KvServer {
            index,
            value_size: spec.value_size,
            next_value,
            design,
            policy,
            decision_every: spec.decision_every,
            host_pool: MultiServer::new(spec.host_cores.max(1)),
            soc_pool: MultiServer::new(spec.soc_cores.max(1)),
            dpa,
            bank_free: [Nanos::ZERO; SOC_BANKS],
            host_svc,
            soc_svc,
            win_start: Nanos::ZERO,
            win_ops: 0,
            win_reads: 0,
            win_updates: 0,
            win_probe_sum: 0,
            win_path3_retries: 0,
            win_key_counts: HashMap::new(),
            win_top_count: 0,
            gets: 0,
            puts: 0,
            probe_trips: 0,
            path3_retries: 0,
            decisions: 0,
            design_changes: 0,
            dpa_gets: 0,
        }
    }

    /// Resident working state a DPA handler for this shard would hold:
    /// the index region plus the populated value region.
    pub fn resident_bytes(&self) -> u64 {
        self.index.region_len() + self.next_value
    }

    /// Stores `key` for a put and returns its value slot. An overwrite
    /// keeps the key's slot; only a fresh key advances the allocator,
    /// so a long update run never walks off the value region.
    pub fn put(&mut self, key: u64) -> u64 {
        let existing = self.index.lookup(key).ok().map(|l| l.entry.value_addr);
        let addr = existing.unwrap_or(KV_VALUES_BASE + self.next_value);
        self.index
            .insert(key, addr, self.value_size)
            .expect("put fits the configured index");
        if existing.is_none() {
            self.next_value += self.value_size as u64;
        }
        addr
    }

    /// Records one served op into the advisor window.
    pub fn observe(&mut self, key: u64, is_read: bool, probes: u32) {
        self.win_ops += 1;
        if is_read {
            self.win_reads += 1;
            self.win_probe_sum += probes as u64;
        } else {
            self.win_updates += 1;
        }
        let c = self.win_key_counts.entry(key).or_insert(0);
        *c += 1;
        self.win_top_count = self.win_top_count.max(*c);
    }

    /// Closes the window into an observation and resets the
    /// accumulators. `pcie_faulty` is sampled by the caller from the
    /// fabric's fault plane at the decision instant.
    pub fn take_window(&mut self, now: Nanos, pcie_faulty: bool) -> KvWindowObs {
        let window = now - self.win_start;
        let secs = window.as_secs_f64();
        let offered = if secs > 0.0 {
            self.win_ops as f64 / secs
        } else {
            0.0
        };
        let mean_probes = if self.win_reads == 0 {
            1.0
        } else {
            self.win_probe_sum as f64 / self.win_reads as f64
        };
        let host_op =
            self.host_svc.as_nanos() as f64 + KV_HOST_PROBE.as_nanos() as f64 * mean_probes;
        let soc_op = self.soc_svc.as_nanos() as f64 + KV_SOC_PROBE.as_nanos() as f64 * mean_probes;
        let resident = self.resident_bytes();
        let dpa_fits = self.dpa.map(|d| d.fits_scratch(resident)).unwrap_or(false);
        let dpa_capacity = self
            .dpa
            .map(|d| {
                // Per-op DPA service: the handle, plus — when the
                // shard's state spills past scratch — the SoC-DRAM
                // fetch of the bytes the op touches (probed buckets +
                // the value).
                let touched = (64.0 * mean_probes) as u64 + self.value_size as u64;
                let mut op = d.handle_time;
                if !d.fits_scratch(resident) {
                    op += d.spill_cost(touched);
                }
                d.cores as f64 / op.as_nanos() as f64 * 1e9
            })
            .unwrap_or(0.0);
        let obs = KvWindowObs {
            window,
            ops: self.win_ops,
            reads: self.win_reads,
            updates: self.win_updates,
            probe_sum: self.win_probe_sum,
            top_key_share: if self.win_ops == 0 {
                0.0
            } else {
                self.win_top_count as f64 / self.win_ops as f64
            },
            value_size: self.value_size,
            offered_per_sec: offered,
            host_capacity_per_sec: self.host_pool.units() as f64 / host_op * 1e9,
            soc_capacity_per_sec: self.soc_pool.units() as f64 / soc_op * 1e9,
            path3_retries: self.win_path3_retries,
            pcie_faulty,
            dpa_capacity_per_sec: dpa_capacity,
            dpa_resident_fits: dpa_fits,
            current: self.design,
        };
        self.win_start = now;
        self.win_ops = 0;
        self.win_reads = 0;
        self.win_updates = 0;
        self.win_probe_sum = 0;
        self.win_path3_retries = 0;
        self.win_key_counts.clear();
        self.win_top_count = 0;
        obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn home_server_is_stable_and_covers_all_servers() {
        let mut seen = [false; 3];
        for k in 0..1000u64 {
            let h = kv_home_server(k, 3);
            assert_eq!(h, kv_home_server(k, 3));
            seen[h] = true;
        }
        assert!(seen.iter().all(|&s| s), "all servers get keys");
    }

    #[test]
    fn preload_partitions_keys_exactly() {
        let spec = KvStreamSpec::new(
            Mix::C,
            KeyDist::Uniform,
            KvPlacement::Static(Design::HostRpc),
        );
        let servers: Vec<KvServer> = (0..3)
            .map(|me| KvServer::new(&spec, me, 3, Nanos::new(300), Nanos::new(320), None))
            .collect();
        let total: u64 = servers.iter().map(|s| s.index.len()).sum();
        assert_eq!(total, spec.n_keys);
        for k in 0..spec.n_keys {
            let home = kv_home_server(k, 3);
            for (i, s) in servers.iter().enumerate() {
                assert_eq!(s.index.lookup(k).is_ok(), i == home, "key {k} server {i}");
            }
        }
    }

    /// Regression: updating one key 10k times must not move the value
    /// allocator, or a long update run walks off the value region.
    #[test]
    fn put_overwrite_pins_value_allocator() {
        let spec = KvStreamSpec::new(
            Mix::A,
            KeyDist::Uniform,
            KvPlacement::Static(Design::HostRpc),
        )
        .with_keys(2000);
        let mut s = KvServer::new(&spec, 0, 1, Nanos::new(300), Nanos::new(320), None);
        let before = s.next_value;
        assert_eq!(before, 2000 * 256);
        let slot = s.put(7);
        for _ in 0..10_000 {
            assert_eq!(s.put(7), slot);
        }
        assert_eq!(s.next_value, before);
        assert_eq!(s.index.len(), 2000);
        // A fresh key still takes exactly one new slot.
        assert_eq!(s.put(1_000_000), KV_VALUES_BASE + before);
        assert_eq!(s.next_value, before + 256);
    }

    #[test]
    fn advisor_policy_covers_the_quadrants() {
        let base = KvWindowObs {
            window: Nanos::from_micros(50),
            ops: 1000,
            reads: 900,
            updates: 100,
            probe_sum: 1000,
            top_key_share: 0.01,
            value_size: 256,
            offered_per_sec: 1.0e6,
            host_capacity_per_sec: 6.0e6,
            soc_capacity_per_sec: 20.0e6,
            path3_retries: 0,
            pcie_faulty: false,
            dpa_capacity_per_sec: 0.0,
            dpa_resident_fits: false,
            current: Design::HostRpc,
        };
        assert_eq!(advisor_policy(&base), Design::HostRpc);
        let loaded = KvWindowObs {
            offered_per_sec: 8.0e6,
            ..base
        };
        assert_eq!(advisor_policy(&loaded), Design::SocIndex);
        let hot_loaded = KvWindowObs {
            top_key_share: 0.4,
            ..loaded
        };
        assert_eq!(
            advisor_policy(&hot_loaded),
            Design::HostRpc,
            "skew keeps the index on the host's DDIO side"
        );
        let faulty = KvWindowObs {
            pcie_faulty: true,
            ..base
        };
        assert_eq!(advisor_policy(&faulty), Design::HostRpc);
        let faulty_loaded = KvWindowObs {
            pcie_faulty: true,
            ..loaded
        };
        assert_eq!(advisor_policy(&faulty_loaded), Design::OneSidedRnic);
        let retried = KvWindowObs {
            path3_retries: 9,
            current: Design::SocIndex,
            ..base
        };
        assert_eq!(advisor_policy(&retried), Design::HostRpc);
    }

    #[test]
    fn advisor_policy_dpa_amendments() {
        let base = KvWindowObs {
            window: Nanos::from_micros(50),
            ops: 1000,
            reads: 900,
            updates: 100,
            probe_sum: 1000,
            top_key_share: 0.01,
            value_size: 256,
            offered_per_sec: 8.0e6,
            host_capacity_per_sec: 6.0e6,
            soc_capacity_per_sec: 20.0e6,
            path3_retries: 0,
            pcie_faulty: false,
            dpa_capacity_per_sec: 12.0e6,
            dpa_resident_fits: false,
            current: Design::HostRpc,
        };
        // The DPA flip: loaded + faulty goes to the PCIe-free plane
        // instead of amplified one-sided chains.
        let faulty_loaded = KvWindowObs {
            pcie_faulty: true,
            ..base
        };
        assert_eq!(advisor_policy(&faulty_loaded), Design::DpaHandler);
        // Survivals: a spilling DPA displaces neither the SoC offload
        // (slower than the A72 pool here) nor the host under skew.
        assert_eq!(advisor_policy(&base), Design::SocIndex);
        let hot_loaded = KvWindowObs {
            top_key_share: 0.4,
            ..base
        };
        assert_eq!(advisor_policy(&hot_loaded), Design::HostRpc);
        // When the state fits scratch and the plane out-runs the SoC,
        // both overload branches flip to the DPA.
        let small_state = KvWindowObs {
            dpa_capacity_per_sec: 32.0e6,
            dpa_resident_fits: true,
            ..base
        };
        assert_eq!(advisor_policy(&small_state), Design::DpaHandler);
        let small_hot = KvWindowObs {
            top_key_share: 0.4,
            ..small_state
        };
        assert_eq!(advisor_policy(&small_hot), Design::DpaHandler);
        // Calm traffic stays on the host even with a DPA available.
        let calm = KvWindowObs {
            offered_per_sec: 1.0e6,
            ..small_state
        };
        assert_eq!(advisor_policy(&calm), Design::HostRpc);
    }

    #[test]
    fn window_observation_resets() {
        let spec = KvStreamSpec::new(
            Mix::A,
            KeyDist::Zipf(0.99),
            KvPlacement::Online(advisor_policy),
        );
        let mut s = KvServer::new(&spec, 0, 3, Nanos::new(300), Nanos::new(330), None);
        for i in 0..100 {
            s.observe(i % 10, i % 2 == 0, 2);
        }
        let obs = s.take_window(Nanos::from_micros(50), false);
        assert_eq!(obs.ops, 100);
        assert_eq!(obs.reads, 50);
        assert!(obs.top_key_share >= 0.1);
        assert!(obs.host_capacity_per_sec > 0.0);
        let empty = s.take_window(Nanos::from_micros(100), false);
        assert_eq!(empty.ops, 0);
        assert_eq!(empty.top_key_share, 0.0);
        assert_eq!(empty.window, Nanos::from_micros(50));
    }

    #[test]
    fn window_reports_dpa_signals() {
        let spec = KvStreamSpec::new(
            Mix::C,
            KeyDist::Uniform,
            KvPlacement::Online(advisor_policy),
        );
        let mut none = KvServer::new(&spec, 0, 3, Nanos::new(300), Nanos::new(330), None);
        let obs = none.take_window(Nanos::from_micros(50), false);
        assert_eq!(obs.dpa_capacity_per_sec, 0.0);
        assert!(!obs.dpa_resident_fits);

        let mut dpa = KvServer::new(
            &spec,
            0,
            3,
            Nanos::new(300),
            Nanos::new(330),
            Some(DpaSpec::bluefield3()),
        );
        // Default shard state (~6.7k × 256 B values + the index region)
        // overflows the 1 MiB scratch: capacity is the spilled rate.
        assert!(dpa.resident_bytes() > DpaSpec::bluefield3().scratch_bytes);
        let spilled = dpa.take_window(Nanos::from_micros(100), false);
        assert!(spilled.dpa_capacity_per_sec > 0.0);
        assert!(!spilled.dpa_resident_fits);

        // A small-state shard fits scratch and reports a higher rate.
        let small = spec.with_keys(500).with_value_size(64);
        let mut fits = KvServer::new(
            &small,
            0,
            3,
            Nanos::new(300),
            Nanos::new(330),
            Some(DpaSpec::bluefield3()),
        );
        let resident = fits.take_window(Nanos::from_micros(100), false);
        assert!(resident.dpa_resident_fits);
        assert!(resident.dpa_capacity_per_sec > spilled.dpa_capacity_per_sec);
    }
}
