//! `17_kv_cluster` — the replicated, sharded KV service on the rack,
//! static index placements vs the *online* offload advisor.
//!
//! Every YCSB op issued by the client machines is routed to its key's
//! home server shard and served under an index placement
//! ([`Design`]): host RPC (one trip, scarce host cores), SoC-offloaded
//! index (one trip, SoC cores + path-③ value fetch), or one-sided
//! chain walks (no server CPU, one trip per probe). No single
//! placement wins everywhere — that is the paper's point — so the
//! online advisor ([`snic_cluster::advisor_policy`]) re-decides each
//! server's placement every 50 µs from windowed observations.
//!
//! Six workload regimes stress the quadrants of that decision:
//!
//! * YCSB A/B/C at moderate uniform load — host cores keep up, host
//!   RPC's single trip wins;
//! * an incast burst (read-only, 2x the host capacity) — the host pool
//!   saturates, the SoC's 4x cores absorb it (Advice #4 polarity);
//! * a hot-key storm (Zipf 2.5: one key carries ~75% of the ops) — the
//!   hot key's SoC DRAM bank serializes far below even the scarce host
//!   pool, so the index must stay on the host's skew-proof memory
//!   (Advice #1);
//! * a PCIe fault window — path-③ value fetches retry on corrupted
//!   TLPs, so the SoC placement must be abandoned (Advice #3).
//!
//! The summary table totals mean latency across regimes: the online
//! advisor matches the best static placement in every regime and
//! therefore beats each static on the total (pinned by a test).

use simnet::arrivals::OpenLoopSpec;
use simnet::faults::FaultSpec;
use simnet::time::Nanos;
use snic_cluster::{
    advisor_policy, run_cluster, ClusterResult, ClusterStream, KvPlacement, KvStreamSpec,
};
use snic_kvstore::{Design, KeyDist, Mix};

use crate::report::{fmt_f, Table};

use super::cluster_scenario;

/// Fault seed for the PCIe-fault regime (any value works; fixed for
/// reproducibility).
const FAULT_SEED: u64 = 77;

/// Client machines driving the service.
const N_CLIENTS: usize = 6;

/// One workload regime of the sweep.
pub struct KvCase {
    /// Regime label.
    pub name: &'static str,
    /// YCSB mix.
    pub mix: Mix,
    /// Key distribution.
    pub dist: KeyDist,
    /// Offered load as a fraction of the measured host-RPC capacity.
    pub frac: f64,
    /// Fault schedule active during the regime.
    pub faults: FaultSpec,
}

/// The six regimes (see the module docs).
pub fn cases() -> Vec<KvCase> {
    let c = |name, mix, dist, frac| KvCase {
        name,
        mix,
        dist,
        frac,
        faults: FaultSpec::none(),
    };
    vec![
        c("ycsb-a", Mix::A, KeyDist::Uniform, 0.5),
        c("ycsb-b", Mix::B, KeyDist::Uniform, 0.5),
        c("ycsb-c", Mix::C, KeyDist::Uniform, 0.5),
        c("incast", Mix::C, KeyDist::Uniform, 2.0),
        c("hot-storm", Mix::B, KeyDist::Zipf(2.5), 0.7),
        KvCase {
            name: "pcie-fault",
            mix: Mix::B,
            dist: KeyDist::Uniform,
            frac: 0.5,
            faults: FaultSpec::none()
                .with_seed(FAULT_SEED)
                .with_pcie_corrupt(0.08),
        },
    ]
}

/// The placements compared in every regime.
pub fn placements() -> [(&'static str, KvPlacement); 4] {
    [
        ("host-rpc", KvPlacement::Static(Design::HostRpc)),
        ("soc-index", KvPlacement::Static(Design::SocIndex)),
        ("one-sided", KvPlacement::Static(Design::OneSidedRnic)),
        ("online", KvPlacement::Online(advisor_policy)),
    ]
}

/// Measured host-RPC capacity of the whole service (Mops): read-only
/// uniform gets, closed loop at the paper-default window depth, summed
/// over the three server shards. All regime rates are fractions of it.
pub fn host_capacity_mops(quick: bool) -> f64 {
    let spec = KvStreamSpec::new(
        Mix::C,
        KeyDist::Uniform,
        KvPlacement::Static(Design::HostRpc),
    );
    let st = ClusterStream::kv_service(spec, (0..N_CLIENTS).collect());
    let r = run_cluster(&cluster_scenario(quick), &[st]);
    r.streams[0].ops.as_mops()
}

/// Runs one `(regime, placement)` point at `rate` offered ops/s.
pub fn point(quick: bool, case: &KvCase, placement: KvPlacement, rate: f64) -> ClusterResult {
    let spec = KvStreamSpec::new(case.mix, case.dist, placement);
    let st = ClusterStream::kv_service(spec, (0..N_CLIENTS).collect())
        .open_loop(OpenLoopSpec::poisson(rate));
    let sc = cluster_scenario(quick).with_faults(case.faults.clone());
    run_cluster(&sc, &[st])
}

/// Nanos as microseconds.
fn us(n: Nanos) -> f64 {
    n.as_nanos() as f64 / 1e3
}

fn counter(r: &ClusterResult, name: &str) -> u64 {
    r.metrics.counter_value(name).unwrap_or(0)
}

/// Mean whole-op latency (µs) of a point — the per-regime score.
fn score_us(r: &ClusterResult) -> f64 {
    us(r.streams[0].latency.mean)
}

/// Per-placement totals across all regimes, in [`placements`] order.
pub fn total_scores(quick: bool) -> Vec<(&'static str, f64)> {
    let cap = host_capacity_mops(quick);
    let mut totals: Vec<(&'static str, f64)> =
        placements().iter().map(|(n, _)| (*n, 0.0)).collect();
    for case in cases() {
        for (i, (_, p)) in placements().into_iter().enumerate() {
            let r = point(quick, &case, p, case.frac * cap * 1e6);
            totals[i].1 += score_us(&r);
        }
    }
    totals
}

/// Runs the KV cluster experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let cap = host_capacity_mops(quick);
    let mut sweep = Table::new(
        "KV service: static placements vs the online advisor (offered load in fractions of host-RPC capacity)",
        &[
            "regime",
            "placement",
            "offered_mops",
            "measured_mops",
            "mean_us",
            "p99_us",
            "probes_per_get",
            "p3_retries",
            "decisions",
            "changes",
        ],
    );
    let mut totals: Vec<(&'static str, f64)> =
        placements().iter().map(|(n, _)| (*n, 0.0)).collect();
    for case in cases() {
        for (i, (name, p)) in placements().into_iter().enumerate() {
            let r = point(quick, &case, p, case.frac * cap * 1e6);
            let s = &r.streams[0];
            let gets = counter(&r, "kv_gets").max(1);
            totals[i].1 += score_us(&r);
            sweep.push(vec![
                case.name.into(),
                name.into(),
                fmt_f(s.offered.as_mops()),
                fmt_f(s.ops.as_mops()),
                fmt_f(score_us(&r)),
                fmt_f(us(s.latency.p99)),
                fmt_f(counter(&r, "kv_probe_trips") as f64 / gets as f64),
                counter(&r, "kv_path3_retries").to_string(),
                counter(&r, "kv_decisions").to_string(),
                counter(&r, "kv_design_changes").to_string(),
            ]);
        }
    }

    let mut summary = Table::new(
        "Summed mean latency across regimes (µs; lower is better — the online advisor must not lose to any static placement)",
        &["placement", "total_mean_us", "vs_online"],
    );
    let online = totals.last().expect("online is the last placement").1;
    for (name, t) in &totals {
        summary.push(vec![(*name).into(), fmt_f(*t), fmt_f(t / online.max(1e-9))]);
    }
    vec![sweep, summary]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_advisor_beats_every_static_placement() {
        let totals = total_scores(true);
        let online = totals.last().expect("online last").1;
        assert!(online > 0.0);
        for (name, t) in &totals[..totals.len() - 1] {
            assert!(
                online <= 1.05 * t,
                "online advisor ({online:.1} µs summed mean) must not lose \
                 to static {name} ({t:.1} µs)"
            );
        }
    }

    #[test]
    fn advisor_reacts_to_overload_and_hot_keys() {
        let cap = host_capacity_mops(true);
        let online = KvPlacement::Online(advisor_policy);
        let all = cases();
        let incast = all.iter().find(|c| c.name == "incast").expect("incast");
        let r = point(true, incast, online, incast.frac * cap * 1e6);
        assert!(
            counter(&r, "kv_design_changes") > 0,
            "2x overload must push the advisor off host RPC"
        );
        // The hot-key storm keeps the index host-side: the hot bucket's
        // SoC bank would serialize, so online must beat the static SoC
        // placement while never issuing one-sided probe trips.
        let storm = all.iter().find(|c| c.name == "hot-storm").expect("storm");
        let online_r = point(true, storm, online, storm.frac * cap * 1e6);
        let soc_r = point(
            true,
            storm,
            KvPlacement::Static(Design::SocIndex),
            storm.frac * cap * 1e6,
        );
        assert_eq!(counter(&online_r, "kv_probe_trips"), 0);
        assert!(
            score_us(&online_r) < score_us(&soc_r),
            "skew must make the advisor avoid the SoC index: {:.1} vs {:.1} µs",
            score_us(&online_r),
            score_us(&soc_r)
        );
        // The calm regimes keep host RPC: no probe trips at all.
        let calm = all.iter().find(|c| c.name == "ycsb-b").expect("b");
        let r = point(true, calm, online, calm.frac * cap * 1e6);
        assert_eq!(
            counter(&r, "kv_probe_trips"),
            0,
            "moderate uniform load stays on host RPC"
        );
    }

    #[test]
    fn fault_window_punishes_the_soc_placement() {
        let cap = host_capacity_mops(true);
        let all = cases();
        let fault = all.iter().find(|c| c.name == "pcie-fault").expect("fault");
        let soc = point(
            true,
            fault,
            KvPlacement::Static(Design::SocIndex),
            fault.frac * cap * 1e6,
        );
        assert!(
            counter(&soc, "kv_path3_retries") > 0,
            "corrupted path-3 TLPs must force value-fetch retries"
        );
        let online = point(
            true,
            fault,
            KvPlacement::Online(advisor_policy),
            fault.frac * cap * 1e6,
        );
        assert!(
            counter(&online, "kv_path3_retries") < counter(&soc, "kv_path3_retries"),
            "the advisor keeps the value path off path 3 under faults"
        );
        assert!(score_us(&online) < score_us(&soc));
    }

    #[test]
    fn quick_tables_cover_the_sweep() {
        let tables = run(true);
        assert_eq!(tables.len(), 2);
        assert_eq!(tables[0].rows.len(), cases().len() * placements().len());
        assert_eq!(tables[1].rows.len(), placements().len());
    }
}
