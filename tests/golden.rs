//! Golden digests of the cluster runtime's serving arms.
//!
//! Every case runs one short `ClusterScenario::quick()` rack (1 worker,
//! 6 clients) and hashes its serialized per-stream CSV plus every
//! registry counter into one FNV-1a digest. The constants were recorded
//! before the shard serving code was restructured; any refactor behind
//! the `run_cluster` contract must reproduce them bit for bit.
//!
//! The cases are chosen to reach the arms the benchmark workloads skip:
//! raw paths ①/②/③ in both loop modes, wire loss with retry exhaustion,
//! PCIe corruption on every path-③ retry site, both admission policies,
//! every KV placement, both far-memory placements and DPA scratch/spill.
//! Each case also names the counters it exists for, which must be
//! non-zero, so a case cannot silently stop exercising its arm.

use offpath_smartnic::cluster::{
    advisor_policy, run_cluster, ClusterResult, ClusterScenario, ClusterStream, KvPlacement,
    KvStreamSpec,
};
use offpath_smartnic::farmem::{FmPlacement, FmStreamSpec};
use offpath_smartnic::kvstore::{Design, KeyDist, Mix};
use offpath_smartnic::nicsim::{PathKind, Verb};
use offpath_smartnic::simnet::arrivals::{DropPolicy, OpenLoopSpec};
use offpath_smartnic::simnet::faults::{DegradedWindow, FaultSpec};
use offpath_smartnic::simnet::time::Nanos;
use offpath_smartnic::topology::MachineSpec;

/// One golden case: its name, the scenario and streams it runs, the
/// counters it must drive above zero, and the digest recorded for it.
type Case = (
    &'static str,
    ClusterScenario,
    Vec<ClusterStream>,
    &'static [&'static str],
    u64,
);

fn rack() -> ClusterScenario {
    let mut sc = ClusterScenario::quick().with_workers(1).with_seed(42);
    sc.cluster.clients.truncate(6);
    sc
}

fn dpa_rack() -> ClusterScenario {
    let mut sc = rack();
    let n = sc.cluster.servers.len();
    sc.cluster.servers = vec![MachineSpec::srv_with_bluefield3_dpa(); n];
    sc
}

/// PCIe TLP corruption plus a degradation window, so arms that never
/// roll a verdict still see derated PCIe timing.
fn pcie_faults() -> FaultSpec {
    FaultSpec::none()
        .with_seed(7)
        .with_pcie_corrupt(0.05)
        .with_pcie_window(DegradedWindow {
            from: Nanos::from_micros(200),
            to: Nanos::from_micros(400),
            slowdown: 4.0,
            extra_latency: Nanos::new(200),
        })
}

/// FNV-1a over the CSV and every `name=value` counter line.
fn digest(r: &ClusterResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(r.to_csv().as_bytes());
    for (name, v) in r.metrics.counters() {
        eat(format!("{name}={v}\n").as_bytes());
    }
    h
}

/// Runs every case and reports all failures at once, so a recording
/// pass prints the whole table.
fn check(cases: Vec<Case>) {
    let mut failures = Vec::new();
    for (case, scenario, streams, nonzero, recorded) in cases {
        let r = run_cluster(&scenario, &streams);
        for &name in nonzero {
            if r.metrics.counter_value(name).unwrap_or(0) == 0 {
                failures.push(format!("{case}: counter {name} is zero"));
            }
        }
        let got = digest(&r);
        if got != recorded {
            failures.push(format!(
                "{case}: digest {got:#018x}, recorded {recorded:#018x}"
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

fn raw(path: PathKind, verb: Verb, payload: u64) -> ClusterStream {
    let clients = if path.is_remote() {
        vec![0, 1, 2]
    } else {
        vec![]
    };
    ClusterStream::new(path, verb, payload, clients)
}

/// The KV service from every client. The default 20k keys overflow
/// the DPA scratch; 500 keys fit it.
fn kv(placement: KvPlacement, keys: u64) -> ClusterStream {
    let spec = KvStreamSpec::new(Mix::B, KeyDist::Zipf(0.99), placement).with_keys(keys);
    ClusterStream::kv_service(spec, (0..6).collect())
}

fn fm(placement: FmPlacement) -> ClusterStream {
    let clients = match placement {
        FmPlacement::LocalSoc => vec![],
        FmPlacement::RemoteSoc => (0..6).collect(),
    };
    ClusterStream::fm_service(FmStreamSpec::new(placement), clients)
}

#[test]
fn golden_raw_paths() {
    let open = |s: ClusterStream| s.open_loop(OpenLoopSpec::poisson(2.0e6));
    check(vec![
        (
            "p1 read closed",
            rack(),
            vec![raw(PathKind::Snic1, Verb::Read, 256)],
            &["requests_completed"],
            0x756d_6f4d_685b_7ce1,
        ),
        (
            "p1 write + p2 send closed",
            rack(),
            vec![
                raw(PathKind::Snic1, Verb::Write, 4096),
                raw(PathKind::Snic2, Verb::Send, 64),
            ],
            &["stream00_completed", "stream01_completed"],
            0x6396_e36d_b891_3fb8,
        ),
        (
            "p2 read closed",
            rack(),
            vec![raw(PathKind::Snic2, Verb::Read, 1024)],
            &["requests_completed"],
            0x1ffb_0740_c280_a723,
        ),
        (
            "p3 h2s + s2h closed",
            rack(),
            vec![
                raw(PathKind::Snic3H2S, Verb::Write, 1024),
                raw(PathKind::Snic3S2H, Verb::Read, 512),
            ],
            &["stream00_completed", "stream01_completed", "posts_deferred"],
            0x7d31_3310_d0f1_decc,
        ),
        (
            "p1 + p2 open",
            rack(),
            vec![
                open(raw(PathKind::Snic1, Verb::Write, 512)),
                open(raw(PathKind::Snic2, Verb::Read, 256)),
            ],
            &["openloop_generated", "openloop_completed"],
            0x861c_0821_4bfe_715e,
        ),
        (
            "p3 h2s + s2h open",
            rack(),
            vec![
                open(raw(PathKind::Snic3H2S, Verb::Write, 1024)),
                open(raw(PathKind::Snic3S2H, Verb::Read, 512)),
            ],
            &["openloop_generated", "openloop_completed"],
            0x740e_638d_1c84_67ae,
        ),
    ]);
}

#[test]
fn golden_faults_and_admission() {
    let mixed = || {
        vec![
            raw(PathKind::Snic1, Verb::Write, 4096),
            ClusterStream::new(PathKind::Snic2, Verb::Read, 256, vec![3, 4, 5]),
            raw(PathKind::Snic3H2S, Verb::Write, 1024),
        ]
    };
    check(vec![
        (
            "wire loss + pcie corrupt + window",
            rack().with_faults(pcie_faults().with_wire_loss(0.005)),
            mixed(),
            &["rc_retransmits", "msgs_dropped"],
            0xacad_33fc_dda5_5e5a,
        ),
        (
            "retry exhaustion",
            rack()
                .with_faults(
                    FaultSpec::none()
                        .with_seed(3)
                        .with_wire_loss(0.3)
                        .with_pcie_corrupt(0.3),
                )
                .with_rc(Nanos::from_micros(5), 1),
            mixed(),
            &["rc_retry_exhausted", "dup_responses", "msgs_dropped"],
            0x61bc_abb3_e471_13d1,
        ),
        (
            "admission drop-tail",
            rack(),
            vec![
                raw(PathKind::Snic1, Verb::Write, 512)
                    .open_loop(OpenLoopSpec::poisson(60.0e6).with_queue_cap(16)),
                raw(PathKind::Snic3H2S, Verb::Write, 4096)
                    .open_loop(OpenLoopSpec::poisson(40.0e6).with_queue_cap(8)),
            ],
            &["admission_drop_tail", "openloop_dropped"],
            0xa4c4_2be5_fc69_2667,
        ),
        (
            "admission drop-deadline",
            rack(),
            vec![raw(PathKind::Snic1, Verb::Write, 512).open_loop(
                OpenLoopSpec::poisson(60.0e6)
                    .with_policy(DropPolicy::DropDeadline(Nanos::new(300))),
            )],
            &["admission_drop_deadline", "openloop_dropped"],
            0x4d2b_b37d_989a_3469,
        ),
    ]);
}

#[test]
fn golden_kv() {
    let open = |s: ClusterStream| s.open_loop(OpenLoopSpec::poisson(16.0e6));
    let faulty = || rack().with_faults(pcie_faults());
    let host = KvPlacement::Static(Design::HostRpc);
    let soc = KvPlacement::Static(Design::SocIndex);
    let one_sided = KvPlacement::Static(Design::OneSidedRnic);
    let dpa = KvPlacement::Static(Design::DpaHandler);
    let online = KvPlacement::Online(advisor_policy);
    check(vec![
        (
            "kv host closed",
            rack(),
            vec![kv(host, 4000)],
            &["kv_gets", "kv_puts"],
            0xc77e_9576_d24b_e8a7,
        ),
        (
            "kv host open",
            rack(),
            vec![open(kv(host, 4000))],
            &["kv_gets"],
            0xa854_b9c8_1be2_c186,
        ),
        (
            "kv host pcie",
            faulty(),
            vec![kv(host, 4000)],
            &["kv_gets"],
            0x1ac3_b3c4_43e5_13d1,
        ),
        (
            "kv soc closed",
            rack(),
            vec![kv(soc, 4000)],
            &["kv_gets"],
            0x0936_bb7f_9c2d_6bc5,
        ),
        (
            "kv soc open",
            rack(),
            vec![open(kv(soc, 4000))],
            &["kv_gets"],
            0x8ad6_7e71_e28c_6c69,
        ),
        (
            "kv soc pcie",
            faulty(),
            vec![kv(soc, 4000)],
            &["kv_path3_retries", "rc_retransmits"],
            0x5d05_361c_cd17_dfe6,
        ),
        (
            "kv one-sided closed",
            rack(),
            vec![kv(one_sided, 4000)],
            &["kv_probe_trips"],
            0xded5_5192_92c9_3a54,
        ),
        (
            "kv one-sided open",
            rack(),
            vec![open(kv(one_sided, 4000))],
            &["kv_probe_trips"],
            0xf730_0d3b_3c09_afb6,
        ),
        (
            "kv one-sided pcie",
            faulty(),
            vec![kv(one_sided, 4000)],
            &["kv_probe_trips"],
            0xbee0_7933_af0b_e30f,
        ),
        (
            "kv dpa closed",
            dpa_rack(),
            vec![kv(dpa, 20_000)],
            &["kv_dpa_gets", "dpa_spills"],
            0xd835_e25e_567e_1ea5,
        ),
        (
            "kv dpa open",
            dpa_rack(),
            vec![open(kv(dpa, 500))],
            &["kv_dpa_gets", "dpa_scratch_hits"],
            0x9633_5002_801b_7732,
        ),
        // Same digest as "kv dpa closed": gets served on the DPA plane
        // never cross PCIe1, so PCIe faults cannot reach them.
        (
            "kv dpa pcie",
            dpa_rack().with_faults(pcie_faults()),
            vec![kv(dpa, 20_000)],
            &["kv_dpa_gets"],
            0xd835_e25e_567e_1ea5,
        ),
        (
            "kv online closed",
            rack(),
            vec![kv(online, 4000)],
            &["kv_decisions"],
            0x44fa_018a_f082_fedc,
        ),
        (
            "kv online open",
            rack(),
            vec![open(kv(online, 4000))],
            &["kv_decisions", "kv_design_changes"],
            0x4275_b0b9_f87f_15f5,
        ),
        (
            "kv online pcie",
            faulty(),
            vec![open(kv(online, 4000))],
            &["kv_decisions", "kv_design_changes", "kv_probe_trips"],
            0x002c_a285_1354_2625,
        ),
    ]);
}

#[test]
fn golden_farmem() {
    let open = |s: ClusterStream| s.open_loop(OpenLoopSpec::poisson(2.0e6));
    let local = FmPlacement::LocalSoc;
    let remote = FmPlacement::RemoteSoc;
    check(vec![
        (
            "fm local closed",
            rack(),
            vec![fm(local)],
            &["fm_promotes", "fm_host_hits", "fm_writebacks"],
            0xbe8c_5c84_1f68_1115,
        ),
        (
            "fm local open",
            rack(),
            vec![open(fm(local))],
            &["fm_promotes", "fm_demotions"],
            0x5cfc_f110_27fe_59a9,
        ),
        (
            "fm local pcie",
            rack().with_faults(pcie_faults()),
            vec![fm(local)],
            &["fm_path3_retries", "rc_retransmits"],
            0x485d_643d_5eb8_a854,
        ),
        (
            "fm remote closed",
            rack(),
            vec![fm(remote)],
            &["fm_pool_gets", "fm_put_acks"],
            0x9c79_1c64_795a_8379,
        ),
        (
            "fm remote open",
            rack(),
            vec![open(fm(remote))],
            &["fm_pool_gets", "fm_demotions"],
            0x9cb9_a813_7d8f_cf4e,
        ),
        (
            "fm remote wire loss",
            rack().with_faults(FaultSpec::none().with_seed(5).with_wire_loss(0.01)),
            vec![open(fm(remote))],
            &["fm_pool_gets", "msgs_dropped"],
            0xcd4d_416d_7696_f778,
        ),
    ]);
}

#[test]
fn golden_dpa() {
    let send = |range: u64| {
        raw(PathKind::Snic1, Verb::Send, 256)
            .with_range(range)
            .with_dpa()
    };
    check(vec![
        (
            "dpa send fits scratch",
            dpa_rack(),
            vec![send(64 << 10)],
            &["dpa_scratch_hits"],
            0x1cc9_b949_cf99_f6b7,
        ),
        (
            "dpa send spills",
            dpa_rack(),
            vec![send(8 << 20)],
            &["dpa_spills"],
            0xa7c2_f0c0_420d_d3d9,
        ),
        (
            "dpa send open + wire loss",
            dpa_rack().with_faults(FaultSpec::none().with_seed(11).with_wire_loss(0.01)),
            vec![send(8 << 20).open_loop(OpenLoopSpec::poisson(4.0e6))],
            &["dpa_spills", "msgs_dropped"],
            0xdd8a_ceb0_3bf0_829f,
        ),
    ]);
}
