//! `18_farmem` — the far-memory viability frontier: SoC DRAM as a
//! disaggregated page pool over paths ② and ③.
//!
//! Hosts keep a bounded set of resident 4 KB pages; misses promote the
//! page from SoC DRAM — the *local* SoC over path ③ (two PCIe1
//! crossings, synchronous) or the *remote* pool over path ② (wire to
//! the SoC, never crossing PCIe1) — and idle dirty pages write back in
//! the background. The question the frontier answers: when does SoC
//! DRAM beat a conventional backing store with a fixed per-miss
//! penalty (an RDMA-to-host-DRAM tier or a fast swap device)?
//!
//! Three regimes bracket the answer:
//!
//! * **high-reuse** — 90 % of accesses hit a Zipf-skewed working set,
//!   so the residency table absorbs most traffic and misses are cheap
//!   promotions of hot pages: the SoC tier wins, local (path ③)
//!   strictly ahead of remote (path ②'s extra wire trip);
//! * **zipf-flat** — uniform accesses over 16× the resident capacity:
//!   near-every access promotes *and* demotes, each miss dragging
//!   ~3 page transfers through the 1-channel SoC DRAM (Advice #1's
//!   weak memory), so the local tier saturates and loses to the flat
//!   penalty, while the remote pool — 3 servers' banks — still wins;
//! * **degraded-pcie** — a deterministic PCIe degradation window
//!   (12.8× slowdown, +500 ns, covering the whole measurement window)
//!   multiplies only path ③'s crossings: local loses, remote does not
//!   care (path ② terminates at the SoC).
//!
//! The per-regime baseline is computed from the *same run's* hit/miss
//! trace: `(hits × host_hit + misses × miss_penalty) / accesses` — an
//! AMAT with the SoC tier replaced by the fixed-penalty store. A
//! second table sweeps the SoC hot-page cache size in the high-reuse
//! regime to show the serving side's sensitivity to its inclusive
//! cache. The frontier flips are pinned by tests.

use simnet::arrivals::OpenLoopSpec;
use simnet::faults::{DegradedWindow, FaultSpec};
use simnet::time::Nanos;
use snic_cluster::{run_cluster, ClusterResult, ClusterScenario, ClusterStream};
use snic_farmem::{FmPlacement, FmStreamSpec, FM_HOST_HIT};

use crate::report::{fmt_f, Table};

use super::cluster_scenario;

/// Client machines driving the remote placement (the local placement
/// runs on the responder machine itself).
const N_CLIENTS: usize = 6;

/// Total offered page-access rate (accesses/s). High enough that the
/// zipf-flat regime's ~3 page moves per access (~24 GB/s) exceed the
/// 1-channel SoC DRAM's ~19 GB/s, low enough that the high-reuse
/// regime (~5 GB/s of promotions) stays uncontended.
const OFFERED_PER_SEC: f64 = 2.0e6;

/// Fixed per-miss penalty of the conventional backing store the SoC
/// tier competes with (≈ a one-sided RDMA fetch to a far host).
const MISS_PENALTY: Nanos = Nanos::from_micros(6);

/// One access-pattern/fault regime of the frontier.
pub struct FmCase {
    /// Regime label.
    pub name: &'static str,
    /// Stream spec under this regime (placement filled in per point).
    spec: fn(FmPlacement) -> FmStreamSpec,
    /// Fault schedule active during the regime.
    pub faults: FaultSpec,
}

impl FmCase {
    /// The regime's stream spec for `placement`.
    pub fn stream_spec(&self, placement: FmPlacement) -> FmStreamSpec {
        (self.spec)(placement)
    }
}

fn high_reuse(p: FmPlacement) -> FmStreamSpec {
    FmStreamSpec::new(p).backing_miss(MISS_PENALTY)
}

fn zipf_flat(p: FmPlacement) -> FmStreamSpec {
    FmStreamSpec::new(p).zipf_flat().backing_miss(MISS_PENALTY)
}

/// The three regimes (see the module docs).
pub fn cases() -> Vec<FmCase> {
    vec![
        FmCase {
            name: "high-reuse",
            spec: high_reuse,
            faults: FaultSpec::none(),
        },
        FmCase {
            name: "zipf-flat",
            spec: zipf_flat,
            faults: FaultSpec::none(),
        },
        FmCase {
            name: "degraded-pcie",
            spec: high_reuse,
            // Deterministic window covering the whole measurement
            // window of both quick and full runs: only path ③ crosses
            // PCIe1, so only the local placement feels it.
            faults: FaultSpec::none().with_pcie_window(DegradedWindow {
                from: Nanos::new(0),
                to: Nanos::from_millis(10),
                slowdown: 12.8,
                extra_latency: Nanos::new(500),
            }),
        },
    ]
}

/// The two SoC placements of every regime.
pub fn placements() -> [(&'static str, FmPlacement); 2] {
    [
        ("local-p3", FmPlacement::LocalSoc),
        ("remote-p2", FmPlacement::RemoteSoc),
    ]
}

/// Runs one `(regime, placement)` point at the standard offered rate.
pub fn point(quick: bool, case: &FmCase, placement: FmPlacement) -> ClusterResult {
    point_with_spec(quick, case, (case.spec)(placement))
}

/// Runs one regime point with an explicit spec (cache sweeps).
pub fn point_with_spec(quick: bool, case: &FmCase, spec: FmStreamSpec) -> ClusterResult {
    point_on(&cluster_scenario(quick), case, spec)
}

/// Runs one regime point on an explicit base scenario (the BlueField-3
/// what-if swaps the server machines and re-runs the frontier).
pub fn point_on(base: &ClusterScenario, case: &FmCase, spec: FmStreamSpec) -> ClusterResult {
    let clients = match spec.placement {
        FmPlacement::LocalSoc => vec![],
        FmPlacement::RemoteSoc => (0..N_CLIENTS).collect(),
    };
    let st =
        ClusterStream::fm_service(spec, clients).open_loop(OpenLoopSpec::poisson(OFFERED_PER_SEC));
    let sc = base.clone().with_faults(case.faults.clone());
    run_cluster(&sc, &[st])
}

fn counter(r: &ClusterResult, name: &str) -> u64 {
    r.metrics.counter_value(name).unwrap_or(0)
}

/// Measured mean whole-access latency (µs) — the frontier score.
pub fn mean_us(r: &ClusterResult) -> f64 {
    r.streams[0].latency.mean.as_nanos() as f64 / 1e3
}

/// The fixed-penalty baseline AMAT (µs) over the same hit/miss trace.
pub fn baseline_us(r: &ClusterResult) -> f64 {
    let acc = counter(r, "fm_accesses").max(1);
    let hits = counter(r, "fm_host_hits");
    let misses = acc - hits;
    let ns = (hits as f64) * FM_HOST_HIT.as_nanos() as f64
        + (misses as f64) * MISS_PENALTY.as_nanos() as f64;
    ns / acc as f64 / 1e3
}

/// Runs the far-memory frontier experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let mut frontier = Table::new(
        "Far-memory viability frontier: SoC DRAM tier vs a fixed-penalty backing store \
         (mean access latency; viable < 1.0)",
        &[
            "regime",
            "placement",
            "mean_us",
            "p99_us",
            "baseline_us",
            "vs_baseline",
            "host_hit_pct",
            "cache_hit_pct",
            "p3_retries",
        ],
    );
    for case in cases() {
        for (name, p) in placements() {
            let r = point(quick, &case, p);
            let s = &r.streams[0];
            let acc = counter(&r, "fm_accesses").max(1);
            let pool = (counter(&r, "fm_pool_gets") + counter(&r, "fm_pool_puts")).max(1);
            let base = baseline_us(&r);
            frontier.push(vec![
                case.name.into(),
                name.into(),
                fmt_f(mean_us(&r)),
                fmt_f(s.latency.p99.as_nanos() as f64 / 1e3),
                fmt_f(base),
                fmt_f(mean_us(&r) / base.max(1e-9)),
                fmt_f(100.0 * counter(&r, "fm_host_hits") as f64 / acc as f64),
                fmt_f(100.0 * counter(&r, "fm_cache_hits") as f64 / pool as f64),
                counter(&r, "fm_path3_retries").to_string(),
            ]);
        }
    }

    let mut sweep = Table::new(
        "SoC hot-page cache sweep (high-reuse regime): serving-side cache size vs \
         pool DRAM traffic",
        &[
            "placement",
            "cache_pages",
            "mean_us",
            "cache_hit_pct",
            "evictions",
            "pool_writebacks",
        ],
    );
    let reuse = &cases()[0];
    for (name, p) in placements() {
        for pages in [128usize, 512, 2048] {
            let r = point_with_spec(quick, reuse, high_reuse(p).cache_pages(pages));
            let pool = (counter(&r, "fm_pool_gets") + counter(&r, "fm_pool_puts")).max(1);
            sweep.push(vec![
                name.into(),
                pages.to_string(),
                fmt_f(mean_us(&r)),
                fmt_f(100.0 * counter(&r, "fm_cache_hits") as f64 / pool as f64),
                counter(&r, "fm_cache_evictions").to_string(),
                counter(&r, "fm_cache_writebacks").to_string(),
            ]);
        }
    }
    vec![frontier, sweep]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_flips_with_regime() {
        let all = cases();
        let reuse = &all[0];
        let flat = &all[1];
        let degraded = &all[2];

        // High reuse: the SoC tier is viable, local strictly fastest,
        // remote strictly between local and the fixed-penalty store.
        let local = point(true, reuse, FmPlacement::LocalSoc);
        let remote = point(true, reuse, FmPlacement::RemoteSoc);
        let (l, r) = (mean_us(&local), mean_us(&remote));
        let base = baseline_us(&local);
        assert!(
            l < r,
            "path ③ must undercut path ②'s wire trip: {l:.2} vs {r:.2} µs"
        );
        assert!(
            r < baseline_us(&remote),
            "remote SoC must still beat the backing store: {r:.2} µs vs baseline"
        );
        assert!(
            l < base,
            "local SoC must beat the backing store: {l:.2} vs {base:.2} µs"
        );

        // Zipf-flat: every access drags pages through the 1-channel SoC
        // DRAM; the single local SoC saturates and loses.
        let local = point(true, flat, FmPlacement::LocalSoc);
        assert!(
            mean_us(&local) > baseline_us(&local),
            "a flat access pattern must sink the local tier: {:.2} µs vs {:.2} µs",
            mean_us(&local),
            baseline_us(&local)
        );

        // Degraded PCIe: only path ③ crosses PCIe1, so local flips to
        // non-viable while remote stays where it was.
        let local = point(true, degraded, FmPlacement::LocalSoc);
        let remote_deg = point(true, degraded, FmPlacement::RemoteSoc);
        assert!(
            mean_us(&local) > baseline_us(&local),
            "a 12.8x PCIe window must sink path ③: {:.2} µs vs {:.2} µs",
            mean_us(&local),
            baseline_us(&local)
        );
        assert!(
            mean_us(&remote_deg) < baseline_us(&remote_deg),
            "path ② never crosses PCIe1 and must stay viable"
        );
        assert!(
            (mean_us(&remote_deg) - r).abs() < 0.05 * r,
            "PCIe degradation must not move the remote tier: {:.2} vs {:.2} µs",
            mean_us(&remote_deg),
            r
        );
    }

    #[test]
    fn farmem_ops_are_conserved() {
        let reuse = &cases()[0];
        for (_, p) in placements() {
            let run = point(true, reuse, p);
            let s = &run.streams[0];
            assert!(s.generated > 200, "{}", s.generated);
            assert_eq!(s.dropped, 0, "far-memory streams have no admission queue");
            assert_eq!(
                s.generated,
                s.completed_total + s.inflight,
                "every generated access must complete or stay in flight"
            );
        }
    }

    #[test]
    fn quick_tables_cover_the_sweep() {
        let tables = run(true);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].rows.len(), cases().len() * placements().len());
        assert_eq!(tables[1].rows.len(), placements().len() * 3);
    }
}
