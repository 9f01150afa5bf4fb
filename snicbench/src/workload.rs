//! The benchmark's workloads, each a fixed list of simulation calls into
//! the program's public entry points (`snic_cluster::run_cluster` and
//! `snic_core::harness::run_scenario_detailed`), built from the seed alone.
//!
//! One *pass* runs every call of a workload once. The same calls with a
//! zero-length horizon ([`Horizon::Zero`]) only build the machine models,
//! preload the services and aggregate an empty result: that is set-up.

use std::panic::{catch_unwind, AssertUnwindSafe};

use nicsim::{DpaStats, PathKind, Verb};
use simnet::arrivals::OpenLoopSpec;
use simnet::faults::{DegradedWindow, FaultSpec};
use simnet::time::Nanos;
use snic_cluster::{
    advisor_policy, run_cluster, ClusterResult, ClusterScenario, ClusterStream, KvPlacement,
    KvStreamSpec,
};
use snic_core::harness::{run_scenario_detailed, Scenario, ScenarioResult, ServerKind, StreamSpec};
use snic_farmem::{FmPlacement, FmStreamSpec};
use snic_kvstore::{KeyDist, Mix};
use topology::MachineSpec;

/// The seed whose outputs are pinned by recorded digests.
pub const DEFAULT_SEED: u64 = 42;

/// Simulated horizon of the rack workloads: the paper's §2.4 defaults
/// for the verbs; the services run long enough for the advisor to see
/// the degradation window and re-place.
const RACK_WARMUP: Nanos = Nanos::from_micros(200);
const VERBS_DURATION: Nanos = Nanos::from_millis(2);
const SERVICES_DURATION: Nanos = Nanos::from_millis(10);
/// Horizon of the Fig-4/7 points and the DPA and corruption points.
const POINT_WARMUP: Nanos = Nanos::from_micros(100);
const POINT_DURATION: Nanos = Nanos::from_micros(600);
/// Horizon of the Fig-8 large-READ points: few, TLP-heavy events.
const LARGE_WARMUP: Nanos = Nanos::from_millis(2);
const LARGE_DURATION: Nanos = Nanos::from_millis(16);

/// One named set of inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop verbs on the paper's Table-2 rack, 2 workers.
    RackVerbs,
    /// Open-loop KV, far-memory and DPA services on a BF-3 rack, 1 worker.
    RackServices,
    /// Single-machine figure points through the closed-loop harness.
    HarnessSweep,
}

/// Full simulated horizon, or the zero-length horizon of set-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Horizon {
    /// The workload's stated horizon.
    Full,
    /// Zero-length: build, preload and aggregate only.
    Zero,
}

impl Horizon {
    fn scale(self, warmup: Nanos, duration: Nanos) -> (Nanos, Nanos) {
        match self {
            Horizon::Full => (warmup, duration),
            Horizon::Zero => (Nanos::ZERO, Nanos::ZERO),
        }
    }
}

/// One simulation call.
pub struct Call {
    /// Stable label; keys the recorded digests.
    pub label: String,
    /// What to simulate.
    pub sim: Sim,
}

/// The entry point a call goes through and its inputs.
// A harness scenario can embed a whole machine spec; calls are built once
// per run, so the size difference between the variants costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Sim {
    /// `run_cluster` on a rack.
    Cluster(ClusterScenario, Vec<ClusterStream>),
    /// The single-machine harness.
    Harness(Scenario, Vec<StreamSpec>),
}

/// The public result of one call.
pub enum Output {
    /// A rack run.
    Cluster(ClusterResult),
    /// A harness run, with the responder's DPA counters when it has a DPA.
    Harness(ScenarioResult, Option<DpaStats>),
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::RackVerbs,
        Workload::RackServices,
        Workload::HarnessSweep,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RackVerbs => "rack_verbs",
            Workload::RackServices => "rack_services",
            Workload::HarnessSweep => "harness_sweep",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs on the rack runtime.
    pub fn is_rack(self) -> bool {
        self != Workload::HarnessSweep
    }

    /// Worker threads of the timed configuration.
    pub fn workers(self) -> usize {
        match self {
            Workload::RackVerbs => 2,
            Workload::RackServices | Workload::HarnessSweep => 1,
        }
    }

    /// The workload's calls at `horizon`, generated from `seed`.
    pub fn calls(self, seed: u64, horizon: Horizon) -> Vec<Call> {
        match self {
            Workload::RackVerbs => vec![Call {
                label: "rack_verbs".into(),
                sim: Sim::Cluster(rack(seed, horizon, VERBS_DURATION), rack_verbs_streams()),
            }],
            Workload::RackServices => {
                let mut sc = rack(seed, horizon, SERVICES_DURATION);
                let n = sc.cluster.servers.len();
                sc.cluster.servers = vec![MachineSpec::srv_with_bluefield3_dpa(); n];
                // PCIe degradation over the middle fifth of the run, so the
                // advisor re-places mid-run.
                let d = sc.duration.as_nanos();
                sc.faults = FaultSpec::none()
                    .with_seed(seed)
                    .with_pcie_window(DegradedWindow {
                        from: Nanos::new(d * 2 / 5),
                        to: Nanos::new(d * 3 / 5),
                        slowdown: 4.0,
                        extra_latency: Nanos::new(200),
                    });
                vec![Call {
                    label: "rack_services".into(),
                    sim: Sim::Cluster(sc, rack_services_streams()),
                }]
            }
            Workload::HarnessSweep => harness_calls(seed, horizon),
        }
    }
}

fn rack(seed: u64, horizon: Horizon, duration: Nanos) -> ClusterScenario {
    let mut sc = ClusterScenario::paper_testbed().with_seed(seed);
    (sc.warmup, sc.duration) = horizon.scale(RACK_WARMUP, duration);
    sc
}

/// Four closed-loop streams against server 0: the Fig-5 path-① 4 KB
/// READ+WRITE pair and small path-② READs and WRITEs.
fn rack_verbs_streams() -> Vec<ClusterStream> {
    let wide = |s: ClusterStream| s.with_threads(12).with_window(16);
    vec![
        wide(ClusterStream::new(
            PathKind::Snic1,
            Verb::Read,
            4096,
            (0..5).collect(),
        )),
        wide(ClusterStream::new(
            PathKind::Snic1,
            Verb::Write,
            4096,
            (5..10).collect(),
        )),
        ClusterStream::new(PathKind::Snic2, Verb::Read, 256, (10..15).collect()),
        ClusterStream::new(PathKind::Snic2, Verb::Write, 64, (15..20).collect()),
    ]
}

/// The KV service under the online advisor, a remote far-memory stream
/// and DPA-served SENDs, all open-loop.
fn rack_services_streams() -> Vec<ClusterStream> {
    let kv = KvStreamSpec::new(
        Mix::A,
        KeyDist::Zipf(0.99),
        KvPlacement::Online(advisor_policy),
    );
    vec![
        ClusterStream::kv_service(kv, (0..10).collect()).open_loop(OpenLoopSpec::poisson(8.0e6)),
        ClusterStream::fm_service(
            FmStreamSpec::new(FmPlacement::RemoteSoc),
            (10..16).collect(),
        )
        .open_loop(OpenLoopSpec::poisson(2.0e6)),
        ClusterStream::new(PathKind::Snic1, Verb::Send, 64, (16..20).collect())
            .with_range(512 << 10)
            .with_dpa()
            .open_loop(OpenLoopSpec::poisson(6.0e6)),
    ]
}

fn harness_calls(seed: u64, horizon: Horizon) -> Vec<Call> {
    let point =
        |server: ServerKind, n_clients: usize, (warmup, duration): (Nanos, Nanos)| Scenario {
            server,
            n_clients,
            warmup,
            duration,
            seed,
            ..Scenario::default()
        };
    let short = horizon.scale(POINT_WARMUP, POINT_DURATION);
    let long = horizon.scale(LARGE_WARMUP, LARGE_DURATION);
    let call = |label: String, sc: Scenario, spec: StreamSpec| Call {
        label,
        sim: Sim::Harness(sc, vec![spec]),
    };
    let mut calls = Vec::new();
    // Fig 4: every path, READ and WRITE, 64 B and 4 KB; path ③ runs on
    // the responder itself, so one client machine is enough.
    for verb in [Verb::Read, Verb::Write] {
        for payload in [64u64, 4096] {
            for path in PathKind::ALL {
                let server = if path == PathKind::Rnic1 {
                    ServerKind::Rnic
                } else {
                    ServerKind::Bluefield
                };
                let n = if path.is_remote() { 11 } else { 1 };
                calls.push(call(
                    fig4_label(path, verb, payload),
                    point(server, n, short),
                    StreamSpec::new(path, verb, payload, n),
                ));
            }
        }
    }
    // Fig 7: 64 B over a 1.5 KiB range.
    for (path, verb) in [
        (PathKind::Snic2, Verb::Write),
        (PathKind::Snic1, Verb::Read),
    ] {
        calls.push(call(
            fig7_label(path, verb),
            point(ServerKind::Bluefield, 11, short),
            StreamSpec::new(path, verb, 64, 11).with_range(1536),
        ));
    }
    // Fig 8: large READs, few outstanding.
    for (path, payload) in [(PathKind::Snic2, 16u64 << 20), (PathKind::Snic1, 1 << 20)] {
        calls.push(call(
            fig8_label(path, payload),
            point(ServerKind::Bluefield, 4, long),
            StreamSpec::new(path, Verb::Read, payload, 4)
                .with_threads(2)
                .with_window(2),
        ));
    }
    calls.push(call(
        "bf3-dpa SEND 64B".into(),
        point(
            ServerKind::Custom(MachineSpec::srv_with_bluefield3_dpa()),
            11,
            short,
        ),
        StreamSpec::new(PathKind::Snic1, Verb::Send, 64, 11)
            .with_range(512 << 10)
            .with_dpa(),
    ));
    calls.push(call(
        "pcie-corrupt-2% SNIC(1) WRITE 512B".into(),
        point(ServerKind::Bluefield, 11, short)
            .with_faults(FaultSpec::none().with_seed(seed).with_pcie_corrupt(0.02)),
        StreamSpec::new(PathKind::Snic1, Verb::Write, 512, 11),
    ));
    calls
}

/// Label of a Fig-4 grid point.
pub fn fig4_label(path: PathKind, verb: Verb, payload: u64) -> String {
    format!("fig4 {} {} {payload}B", path.label(), verb.label())
}

/// Label of a Fig-7 narrow-range point.
pub fn fig7_label(path: PathKind, verb: Verb) -> String {
    format!("fig7 {} {} 64B@1.5KiB", path.label(), verb.label())
}

/// Label of a Fig-8 large-READ point.
pub fn fig8_label(path: PathKind, payload: u64) -> String {
    format!("fig8 {} READ {}MiB", path.label(), payload >> 20)
}

impl Call {
    /// Runs the call; rack calls use `workers` threads, harness calls
    /// turn on per-hop attribution when `metrics` is set. A panic is
    /// returned as an error.
    pub fn run(&self, workers: usize, metrics: bool) -> Result<Output, String> {
        catch_unwind(AssertUnwindSafe(|| match &self.sim {
            Sim::Cluster(sc, streams) => {
                Output::Cluster(run_cluster(&sc.clone().with_workers(workers), streams))
            }
            Sim::Harness(sc, streams) => {
                let sc = if metrics {
                    sc.clone().with_metrics()
                } else {
                    sc.clone()
                };
                let (r, fabric) = run_scenario_detailed(&sc, streams);
                Output::Harness(r, fabric.server.dpa_stats())
            }
        }))
        .map_err(|payload| {
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".into())
        })
    }
}
