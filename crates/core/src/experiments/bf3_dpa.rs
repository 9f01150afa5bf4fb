//! `19_bf3_dpa` — the BlueField-3 DPA plane across the key sweeps:
//! BF-2 vs BF-3 vs BF-3 + DPA, under clean and degraded PCIe.
//!
//! Three questions, one table each:
//!
//! 1. **Fault immunity (Fig-4 regime).** Single-machine latency and
//!    throughput of the host-memory path vs the DPA plane, clean and
//!    under a degraded-PCIe regime (8% TLP corruption plus a Gen1-style
//!    retraining window). Requests served on the DPA never cross PCIe1,
//!    so the degraded columns are *byte-identical* to the clean ones —
//!    while the host READ path pays both the retraining latency and
//!    retransmissions (pinned).
//! 2. **The scratch knee (Fig-7 regime).** Sweeping the handler's
//!    working state across the 1 MiB DPA scratch: resident requests run
//!    at the wimpy-core service rate; one byte past the scratch, every
//!    request pays the spill round-trip to SoC DRAM and throughput
//!    falls off a knee (pinned).
//! 3. **Which offload advices flip (17_kv_cluster regimes).** The KV
//!    service re-run on BF-2 / BF-3 / BF-3+DPA racks with the online
//!    advisor. Two advices *flip* once a DPA exists: the fault-burst
//!    regime (degraded PCIe at 2x load) abandons one-sided chains for
//!    the PCIe-free DPA plane, and a small-state incast (shards fit the
//!    scratch) moves the index from the SoC to the resident DPA. Two
//!    advices *survive*: the hot-key storm stays on the host's
//!    skew-proof memory, and the default-state incast stays on the SoC
//!    because a spilling DPA handler is slower than the A72 pool. All
//!    four polarities are pinned.

use simnet::arrivals::OpenLoopSpec;
use simnet::faults::{DegradedWindow, FaultSpec};
use simnet::time::Nanos;
use snic_cluster::{
    advisor_policy, run_cluster, ClusterResult, ClusterScenario, ClusterStream, KvPlacement,
    KvStreamSpec,
};
use snic_kvstore::{Design, KeyDist, Mix};
use topology::{DpaSpec, MachineSpec};

use crate::harness::{run_scenario, Scenario, ServerKind, StreamResult, StreamSpec};
use crate::report::{fmt_bytes, fmt_f, Table};

use nicsim::{PathKind, Verb};

use super::{cluster_scenario, scenario};

/// Fault seed shared by every degraded regime (fixed for byte-stable
/// tables).
const FAULT_SEED: u64 = 19;

/// Payload used by the single-machine sweeps.
const PAYLOAD: u64 = 256;

/// Client machines driving the KV service (matches `17_kv_cluster`).
const N_CLIENTS: usize = 6;

/// The hardware generations compared. The bool marks a DPA plane.
pub fn variants() -> [(&'static str, MachineSpec, bool); 3] {
    [
        ("bf2", MachineSpec::srv_with_bluefield(), false),
        ("bf3", MachineSpec::srv_with_bluefield3(), false),
        ("bf3-dpa", MachineSpec::srv_with_bluefield3_dpa(), true),
    ]
}

/// The degraded-PCIe regime: stochastic TLP corruption plus a
/// retraining-style window covering the whole run (extra latency on
/// every PCIe read leg).
pub fn degraded_pcie() -> FaultSpec {
    FaultSpec::none()
        .with_seed(FAULT_SEED)
        .with_pcie_corrupt(0.08)
        .with_pcie_window(DegradedWindow {
            from: Nanos::ZERO,
            to: Nanos::from_millis(100),
            slowdown: 4.0,
            extra_latency: Nanos::new(400),
        })
}

/// Runs one single-machine stream on `machine` under `faults`.
fn point(quick: bool, machine: MachineSpec, spec: StreamSpec, faults: FaultSpec) -> StreamResult {
    let sc = Scenario {
        server: ServerKind::Custom(machine),
        ..scenario(quick)
    }
    .with_faults(faults);
    run_scenario(&sc, &[spec]).streams.remove(0)
}

/// The single-machine streams contrasted by the fault-immunity table.
/// The DPA stream only exists on hardware that has the plane.
fn fig4_streams(n_clients: usize, dpa: bool) -> Vec<(&'static str, StreamSpec)> {
    let mut v = vec![
        (
            "host-read",
            StreamSpec::new(PathKind::Snic1, Verb::Read, PAYLOAD, n_clients),
        ),
        (
            "host-send",
            StreamSpec::new(PathKind::Snic1, Verb::Send, PAYLOAD, n_clients),
        ),
    ];
    if dpa {
        // Working state well inside the 1 MiB scratch: the headline
        // resident-service latency.
        v.push((
            "dpa-send",
            StreamSpec::new(PathKind::Snic1, Verb::Send, PAYLOAD, n_clients)
                .with_range(512 << 10)
                .with_dpa(),
        ));
    }
    v
}

/// Nanos as microseconds.
fn us(n: Nanos) -> f64 {
    n.as_nanos() as f64 / 1e3
}

/// Table 1: latency/throughput per hardware generation, clean vs
/// degraded PCIe.
fn immunity_table(quick: bool) -> Table {
    let mut t = Table::new(
        "BF-2/BF-3/BF-3+DPA: host path vs DPA plane, clean vs degraded PCIe (8% TLP corruption + retraining window)",
        &[
            "hw", "stream", "regime", "mean_us", "p99_us", "mops", "retx",
        ],
    );
    for (hw, machine, dpa) in variants() {
        for (label, spec) in fig4_streams(scenario(quick).n_clients, dpa) {
            for (regime, faults) in [("clean", FaultSpec::none()), ("degraded", degraded_pcie())] {
                let r = point(quick, machine, spec.clone(), faults);
                t.push(vec![
                    hw.into(),
                    label.into(),
                    regime.into(),
                    fmt_f(us(r.latency.mean)),
                    fmt_f(us(r.latency.p99)),
                    fmt_f(r.ops.as_mops()),
                    r.retransmits.to_string(),
                ]);
            }
        }
    }
    t
}

/// Working-state sweep for the scratch-knee table: three resident
/// points up to the scratch boundary, two spilled ones past it.
pub fn knee_ranges(quick: bool) -> Vec<u64> {
    let scratch = DpaSpec::bluefield3().scratch_bytes;
    if quick {
        vec![scratch / 4, scratch, 8 * scratch]
    } else {
        vec![
            scratch / 16,
            scratch / 4,
            scratch / 2,
            scratch,
            2 * scratch,
            8 * scratch,
        ]
    }
}

/// One knee-sweep point: a DPA SEND stream whose handler holds
/// `resident` bytes of working state.
fn knee_point(quick: bool, resident: u64) -> StreamResult {
    let n = scenario(quick).n_clients;
    let spec = StreamSpec::new(PathKind::Snic1, Verb::Send, PAYLOAD, n)
        .with_range(resident)
        .with_dpa();
    point(
        quick,
        MachineSpec::srv_with_bluefield3_dpa(),
        spec,
        FaultSpec::none(),
    )
}

/// Table 2: the DPA scratch knee.
fn knee_table(quick: bool) -> Table {
    let scratch = DpaSpec::bluefield3().scratch_bytes;
    let mut t = Table::new(
        "DPA working-state sweep: throughput falls off a knee one byte past the 1 MiB scratch",
        &["resident", "fits", "mean_us", "p99_us", "mops"],
    );
    for resident in knee_ranges(quick) {
        let r = knee_point(quick, resident);
        t.push(vec![
            fmt_bytes(resident),
            (resident <= scratch).to_string(),
            fmt_f(us(r.latency.mean)),
            fmt_f(us(r.latency.p99)),
            fmt_f(r.ops.as_mops()),
        ]);
    }
    t
}

/// One KV workload regime of the cluster sweep.
pub struct DpaKvCase {
    /// Regime label.
    pub name: &'static str,
    /// YCSB mix.
    pub mix: Mix,
    /// Key distribution.
    pub dist: KeyDist,
    /// Offered load as a fraction of measured host-RPC capacity.
    pub frac: f64,
    /// Keyspace override (`None` keeps the paper default, whose shard
    /// state spills the DPA scratch).
    pub keys: Option<u64>,
    /// Value-size override.
    pub value_size: Option<u32>,
    /// Fault schedule active during the regime.
    pub faults: FaultSpec,
}

/// The five regimes whose advice polarity the experiment pins.
pub fn kv_cases() -> Vec<DpaKvCase> {
    let c = |name, mix, dist, frac| DpaKvCase {
        name,
        mix,
        dist,
        frac,
        keys: None,
        value_size: None,
        faults: FaultSpec::none(),
    };
    vec![
        // Calm uniform load: host RPC everywhere (survives).
        c("ycsb-b", Mix::B, KeyDist::Uniform, 0.5),
        // 2x read-only incast with the default keyspace: the shard
        // state (~2 MB of index + values) spills the scratch, so the
        // SoC's A72 pool still wins (survives).
        c("incast", Mix::C, KeyDist::Uniform, 2.0),
        // The same incast on a small table: the shard state fits the
        // scratch and the 16 resident DPA cores out-serve the SoC
        // (flips SoC -> DPA).
        DpaKvCase {
            keys: Some(500),
            value_size: Some(64),
            ..c("incast-small", Mix::C, KeyDist::Uniform, 2.0)
        },
        // Hot-key storm: the hot bucket serializes on any offload
        // engine; the index stays on the host (survives).
        c("hot-storm", Mix::B, KeyDist::Zipf(2.5), 0.7),
        // Degraded PCIe *under load*: without a DPA the advisor flees
        // to one-sided chains (no server CPU, but per-probe trips);
        // with one it serves on the PCIe-free plane (flips).
        DpaKvCase {
            faults: FaultSpec::none()
                .with_seed(FAULT_SEED)
                .with_pcie_corrupt(0.08),
            ..c("fault-burst", Mix::B, KeyDist::Uniform, 2.0)
        },
    ]
}

/// Cluster scenario with every server carrying `machine`.
fn kv_scenario(quick: bool, machine: MachineSpec) -> ClusterScenario {
    let mut sc = cluster_scenario(quick);
    let n = sc.cluster.servers.len();
    sc.cluster.servers = vec![machine; n];
    sc
}

/// Measured host-RPC capacity (Mops) of the BF-2 rack: all regime
/// rates are fractions of it, so every hardware generation faces the
/// *same* offered load.
pub fn kv_capacity_mops(quick: bool) -> f64 {
    let spec = KvStreamSpec::new(
        Mix::C,
        KeyDist::Uniform,
        KvPlacement::Static(Design::HostRpc),
    );
    let st = ClusterStream::kv_service(spec, (0..N_CLIENTS).collect());
    let r = run_cluster(
        &kv_scenario(quick, MachineSpec::srv_with_bluefield()),
        &[st],
    );
    r.streams[0].ops.as_mops()
}

/// Runs one `(regime, hardware)` point under the online advisor.
pub fn kv_point(quick: bool, case: &DpaKvCase, machine: MachineSpec, rate: f64) -> ClusterResult {
    let mut spec = KvStreamSpec::new(case.mix, case.dist, KvPlacement::Online(advisor_policy));
    if let Some(k) = case.keys {
        spec = spec.with_keys(k);
    }
    if let Some(v) = case.value_size {
        spec = spec.with_value_size(v);
    }
    let st = ClusterStream::kv_service(spec, (0..N_CLIENTS).collect())
        .open_loop(OpenLoopSpec::poisson(rate));
    let sc = kv_scenario(quick, machine).with_faults(case.faults.clone());
    run_cluster(&sc, &[st])
}

fn counter(r: &ClusterResult, name: &str) -> u64 {
    r.metrics.counter_value(name).unwrap_or(0)
}

/// The placement the advisor settled on, inferred from which serving
/// machinery left tracks in the counters.
fn advice(r: &ClusterResult) -> &'static str {
    if counter(r, "kv_dpa_gets") > 0 {
        "dpa-handler"
    } else if counter(r, "kv_probe_trips") > 0 {
        "one-sided"
    } else if counter(r, "kv_design_changes") > 0 {
        // The advisor left host RPC but neither the DPA nor the
        // one-sided machinery left tracks: it settled on the SoC index.
        "soc-index"
    } else {
        "host-rpc"
    }
}

/// Table 3: the KV regimes across hardware generations.
fn kv_table(quick: bool) -> Table {
    let cap = kv_capacity_mops(quick);
    let mut t = Table::new(
        "KV service under the online advisor: which offload advices flip once a DPA plane exists",
        &[
            "regime",
            "hw",
            "advice",
            "offered_mops",
            "measured_mops",
            "mean_us",
            "p99_us",
            "dpa_gets",
            "probe_trips",
            "changes",
        ],
    );
    for case in kv_cases() {
        for (hw, machine, _) in variants() {
            let r = kv_point(quick, &case, machine, case.frac * cap * 1e6);
            let s = &r.streams[0];
            t.push(vec![
                case.name.into(),
                hw.into(),
                advice(&r).into(),
                fmt_f(s.offered.as_mops()),
                fmt_f(s.ops.as_mops()),
                fmt_f(us(s.latency.mean)),
                fmt_f(us(s.latency.p99)),
                counter(&r, "kv_dpa_gets").to_string(),
                counter(&r, "kv_probe_trips").to_string(),
                counter(&r, "kv_design_changes").to_string(),
            ]);
        }
    }
    t
}

/// Runs the BF-3 DPA experiment.
pub fn run(quick: bool) -> Vec<Table> {
    vec![immunity_table(quick), knee_table(quick), kv_table(quick)]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The DPA plane never crosses PCIe1: the degraded-PCIe regime is
    /// invisible to it, down to the byte, while the host READ path pays
    /// both the retraining latency and the corruption retransmissions.
    #[test]
    fn dpa_plane_is_immune_to_pcie_degradation() {
        let machine = MachineSpec::srv_with_bluefield3_dpa();
        let streams = fig4_streams(scenario(true).n_clients, true);
        let (_, host_read) = &streams[0];
        let (_, dpa_send) = &streams[2];

        let hr_clean = point(true, machine, host_read.clone(), FaultSpec::none());
        let hr_bad = point(true, machine, host_read.clone(), degraded_pcie());
        assert!(hr_bad.retransmits > 0, "corrupted TLPs must retransmit");
        assert!(
            hr_bad.latency.mean > hr_clean.latency.mean,
            "degraded PCIe must inflate host-read latency: {:?} vs {:?}",
            hr_bad.latency.mean,
            hr_clean.latency.mean
        );

        let dpa_clean = point(true, machine, dpa_send.clone(), FaultSpec::none());
        let dpa_bad = point(true, machine, dpa_send.clone(), degraded_pcie());
        assert_eq!(dpa_bad.retransmits, 0, "no PCIe1 crossing, no verdicts");
        assert_eq!(
            dpa_bad.latency, dpa_clean.latency,
            "the DPA plane must not see the PCIe fault regime at all"
        );
    }

    /// Working state past the scratch costs every request the spill
    /// round-trip: latency and throughput fall off a knee, while every
    /// resident point is identical.
    #[test]
    fn scratch_knee_is_sharp() {
        let scratch = DpaSpec::bluefield3().scratch_bytes;
        let resident = knee_point(true, scratch);
        let quarter = knee_point(true, scratch / 4);
        let spilled = knee_point(true, 8 * scratch);
        assert_eq!(
            resident.latency, quarter.latency,
            "resident service time does not depend on working-state size"
        );
        assert!(
            spilled.latency.mean > resident.latency.mean,
            "spilling must cost latency: {:?} vs {:?}",
            spilled.latency.mean,
            resident.latency.mean
        );
        assert!(
            spilled.ops.as_mops() < 0.8 * resident.ops.as_mops(),
            "the spill knee must cost >20% throughput: {:.2} vs {:.2} Mops",
            spilled.ops.as_mops(),
            resident.ops.as_mops()
        );
    }

    /// The four pinned advice polarities: fault-burst and small-state
    /// incast *flip* to the DPA, hot-storm and default-state incast
    /// *survive* on their BF-2-era advice.
    #[test]
    fn dpa_flips_and_survivals_are_pinned() {
        let cap = kv_capacity_mops(true);
        let bf3 = MachineSpec::srv_with_bluefield3();
        let dpa = MachineSpec::srv_with_bluefield3_dpa();
        let all = kv_cases();
        let case = |n: &str| all.iter().find(|c| c.name == n).expect("case");

        // FLIP: degraded PCIe under load. BF-3 flees to one-sided
        // chains; BF-3+DPA serves on the PCIe-free plane instead.
        let fault = case("fault-burst");
        let r3 = kv_point(true, fault, bf3, fault.frac * cap * 1e6);
        assert!(
            counter(&r3, "kv_probe_trips") > 0,
            "without a DPA the loaded fault regime goes one-sided"
        );
        assert_eq!(counter(&r3, "kv_dpa_gets"), 0);
        let rd = kv_point(true, fault, dpa, fault.frac * cap * 1e6);
        assert!(
            counter(&rd, "kv_dpa_gets") > 0,
            "with a DPA the advisor serves the fault regime on the plane"
        );
        assert_eq!(
            counter(&rd, "kv_probe_trips"),
            0,
            "the DPA flip replaces the one-sided escape entirely"
        );

        // FLIP: small-state incast fits the scratch — the resident DPA
        // out-serves the SoC pool.
        let small = case("incast-small");
        let rd = kv_point(true, small, dpa, small.frac * cap * 1e6);
        assert!(
            counter(&rd, "kv_dpa_gets") > 0,
            "a scratch-resident table moves the overloaded index to the DPA"
        );

        // SURVIVES: default-state incast spills, and a spilling DPA is
        // slower than the A72 pool — the SoC advice stands.
        let incast = case("incast");
        let rd = kv_point(true, incast, dpa, incast.frac * cap * 1e6);
        assert_eq!(
            counter(&rd, "kv_dpa_gets"),
            0,
            "a spilling handler must not displace the SoC index"
        );
        assert!(
            counter(&rd, "kv_design_changes") > 0,
            "the overload still pushes the advisor off host RPC"
        );

        // SURVIVES: the hot-key storm stays on the host's skew-proof
        // memory — no DPA serving, no one-sided probes.
        let storm = case("hot-storm");
        let rd = kv_point(true, storm, dpa, storm.frac * cap * 1e6);
        assert_eq!(counter(&rd, "kv_dpa_gets"), 0);
        assert_eq!(counter(&rd, "kv_probe_trips"), 0);
    }

    #[test]
    fn quick_tables_cover_the_sweep() {
        let tables = run(true);
        assert_eq!(tables.len(), 3);
        // 2 streams on bf2 + 2 on bf3 + 3 on bf3-dpa, clean + degraded.
        assert_eq!(tables[0].rows.len(), 7 * 2);
        assert_eq!(tables[1].rows.len(), knee_ranges(true).len());
        assert_eq!(tables[2].rows.len(), kv_cases().len() * variants().len());
    }
}
