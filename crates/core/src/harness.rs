//! Closed-loop measurement harness.
//!
//! Reimplements the paper's methodology (§2.4) on the simulator: one
//! requester machine for latency, up to eleven to saturate a responder;
//! each requester thread keeps a window of outstanding requests and posts
//! a new one as each completes; runs have a warmup phase after which
//! meters and hardware counters are reset.
//!
//! A [`Scenario`] runs one or more concurrent [`StreamSpec`]s against a
//! single responder — concurrency experiments (paths 1+2, 1+3) are just
//! multi-stream scenarios.

use nicsim::{Completion, Fabric, PathKind, RequestDesc, Verb};
use pcie_model::counters::{LinkId, PcieCounters};
use rdma_sim::doorbell::{PostCostModel, PostMode, PosterKind};
use rdma_sim::transport::RcParams;
use simnet::engine::{Engine, Step};
use simnet::faults::{drive_attempts, fault_key, FaultSpec};
use simnet::metrics::{CounterId, Hop, HopBreakdown, Registry};
use simnet::rng::SimRng;
use simnet::stats::{Histogram, LatencySummary, RateMeter};
use simnet::time::{Bandwidth, Nanos, Rate};
use simnet::trace::{TraceCat, TraceRing};

/// Which responder machine a scenario runs against.
// `Custom` embeds a full MachineSpec (~500 B); scenarios are built a
// handful of times per experiment, so moving it by value is fine.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServerKind {
    /// Bluefield-2 SmartNIC (all paths available).
    Bluefield,
    /// Plain ConnectX-6 RNIC (only `RNIC(1)`).
    Rnic,
    /// A custom machine spec (ablation studies).
    Custom(topology::MachineSpec),
}

impl ServerKind {
    /// The paper's responder for `path`: the plain RNIC for `RNIC(1)`,
    /// the Bluefield-2 for every SmartNIC path.
    pub fn for_path(path: PathKind) -> ServerKind {
        if path == PathKind::Rnic1 {
            ServerKind::Rnic
        } else {
            ServerKind::Bluefield
        }
    }

    /// A fabric of this responder with `n_clients` requester machines.
    pub fn fabric(self, n_clients: usize) -> Fabric {
        match self {
            ServerKind::Bluefield => Fabric::bluefield_testbed(n_clients),
            ServerKind::Rnic => Fabric::rnic_testbed(n_clients),
            ServerKind::Custom(spec) => {
                Fabric::new(spec, n_clients, topology::cluster::WireSpec::sb7890())
            }
        }
    }
}

/// One load stream: a set of requester threads issuing one verb on one
/// path.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Label used in reports.
    pub label: String,
    /// Communication path.
    pub path: PathKind,
    /// Verb.
    pub verb: Verb,
    /// Payload bytes.
    pub payload: u64,
    /// Base of the target address region.
    pub addr_base: u64,
    /// Size of the target address region (random offsets within).
    pub addr_range: u64,
    /// Requester machines used (client indices; ignored for path 3).
    pub clients: Vec<usize>,
    /// Threads per requester machine (path 3: total threads).
    pub threads_per_client: usize,
    /// Outstanding requests per thread.
    pub window: usize,
    /// Posting mode.
    pub post_mode: PostMode,
    /// Optional per-stream goodput cap (used by the §4 bandwidth-budget
    /// experiment to throttle path 3).
    pub rate_cap: Option<Bandwidth>,
    /// When true, SENDs of this stream terminate at a DPA handler whose
    /// working state is `addr_range` bytes: no PCIe1 crossing (fault
    /// verdicts see zero crossings), spill penalty past the DPA scratch.
    /// Requires a server with a DPA-carrying SmartNIC.
    pub dpa: bool,
}

impl StreamSpec {
    /// A stream over `n_clients` requester machines with the path's
    /// paper-default threads, window and posting mode (see
    /// [`PosterKind::default_threads`]), targeting a 10 GB region (§2.4
    /// uses 10 GB of randomly addressed memory... scaled to 1 GB here to
    /// bound memory tracking; the range only matters at the small end,
    /// Figure 7).
    pub fn new(path: PathKind, verb: Verb, payload: u64, n_clients: usize) -> Self {
        let poster = PosterKind::for_path(path);
        StreamSpec {
            label: format!("{} {}", path.label(), verb.label()),
            path,
            verb,
            payload,
            addr_base: 0,
            addr_range: 1 << 30,
            clients: (0..n_clients).collect(),
            threads_per_client: poster.default_threads(),
            window: poster.default_window(),
            post_mode: poster.default_post_mode(),
            rate_cap: None,
            dpa: false,
        }
    }

    /// Overrides the target address range (Figure 7 skew sweeps).
    pub fn with_range(mut self, range: u64) -> Self {
        self.addr_range = range;
        self
    }

    /// Overrides the posting mode (Figure 10).
    pub fn with_post_mode(mut self, mode: PostMode) -> Self {
        self.post_mode = mode;
        self
    }

    /// Caps the stream's goodput (the §4 budget experiment).
    pub fn with_rate_cap(mut self, cap: Bandwidth) -> Self {
        self.rate_cap = Some(cap);
        self
    }

    /// Routes this stream's SENDs to the server's DPA plane. The DPA
    /// handler's working state is taken to be the stream's `addr_range`
    /// (range sweeps then walk the scratch-hit / spill knee exactly as
    /// Figure 7 walks the reorder-window knee).
    pub fn with_dpa(mut self) -> Self {
        self.dpa = true;
        self
    }

    /// Overrides the window.
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }

    /// Overrides threads per client.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads_per_client = threads;
        self
    }

    fn total_threads(&self) -> usize {
        if self.path.is_remote() {
            self.clients.len() * self.threads_per_client
        } else {
            self.threads_per_client
        }
    }
}

/// A measurement run configuration.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Responder machine kind.
    pub server: ServerKind,
    /// Number of client machines to instantiate.
    pub n_clients: usize,
    /// Warmup simulated time (meters reset afterwards).
    pub warmup: Nanos,
    /// Total simulated time.
    pub duration: Nanos,
    /// PRNG seed.
    pub seed: u64,
    /// Enable the metrics registry and per-request hop attribution
    /// (off by default: the hot path then pays one branch per record
    /// site and [`ScenarioResult::breakdown`] stays empty).
    pub metrics: bool,
    /// Capacity of the scenario trace ring; `0` (the default) disables
    /// tracing entirely.
    pub trace_cap: usize,
    /// Fault-injection schedule. The default ([`FaultSpec::none`]) is
    /// inert: no fault plane is installed and the run is byte-identical
    /// to one that never heard of faults.
    pub faults: FaultSpec,
    /// Transport reliability parameters used by the closed-loop driver
    /// when stochastic faults are active (ack timeout and retry budget).
    pub rc: RcParams,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario {
            server: ServerKind::Bluefield,
            n_clients: 11,
            warmup: Nanos::from_micros(200),
            duration: Nanos::from_millis(2),
            seed: 42,
            metrics: false,
            trace_cap: 0,
            faults: FaultSpec::none(),
            rc: RcParams::default(),
        }
    }
}

impl Scenario {
    /// A latency-oriented scenario: one client, single outstanding
    /// request per thread (the paper's latency methodology).
    pub fn latency() -> Self {
        Scenario {
            n_clients: 1,
            ..Self::default()
        }
    }

    /// A throughput scenario against the RNIC baseline.
    pub fn rnic() -> Self {
        Scenario {
            server: ServerKind::Rnic,
            ..Self::default()
        }
    }

    /// Turns on the metrics registry and per-hop attribution.
    pub fn with_metrics(mut self) -> Self {
        self.metrics = true;
        self
    }

    /// Sets the trace-ring capacity (0 disables tracing).
    pub fn with_trace_cap(mut self, cap: usize) -> Self {
        self.trace_cap = cap;
        self
    }

    /// Installs a fault-injection schedule.
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// Overrides the transport reliability parameters.
    pub fn with_rc(mut self, rc: RcParams) -> Self {
        self.rc = rc;
        self
    }
}

/// Per-stream measurement outcome.
#[derive(Debug, Clone)]
pub struct StreamResult {
    /// The stream's label.
    pub label: String,
    /// Latency distribution over the measurement window.
    pub latency: LatencySummary,
    /// Completed-operations rate.
    pub ops: Rate,
    /// Payload goodput.
    pub goodput: Bandwidth,
    /// Transport retransmissions over the measurement window (0 unless
    /// stochastic faults are active).
    pub retransmits: u64,
    /// Operations abandoned after exhausting the retry budget.
    pub retry_exhausted: u64,
}

/// Measured per-hop latency attribution of one stream, aggregated over
/// every request completing inside the measurement window.
///
/// Residencies come from the simulator's span accounting (see
/// `simnet::metrics`), so for each request they sum *exactly* to its
/// end-to-end latency — [`MeasuredBreakdown::mean_total`] and
/// [`MeasuredBreakdown::e2e_mean`] reconcile by construction.
#[derive(Debug, Clone)]
pub struct MeasuredBreakdown {
    /// The stream's label.
    pub label: String,
    /// Communication path.
    pub path: PathKind,
    /// Verb.
    pub verb: Verb,
    /// Payload bytes.
    pub payload: u64,
    /// Requests aggregated.
    pub count: u64,
    /// Summed per-hop residencies.
    pub residency: HopBreakdown,
    /// Summed end-to-end latencies.
    pub e2e_total: Nanos,
}

impl MeasuredBreakdown {
    /// Mean residency on one hop.
    pub fn mean(&self, hop: Hop) -> Nanos {
        if self.count == 0 {
            return Nanos::ZERO;
        }
        Nanos::new(self.residency.get(hop).as_nanos() / self.count)
    }

    /// Mean of the per-request hop sums.
    pub fn mean_total(&self) -> Nanos {
        if self.count == 0 {
            return Nanos::ZERO;
        }
        Nanos::new(self.residency.total().as_nanos() / self.count)
    }

    /// Mean end-to-end latency of the same requests.
    pub fn e2e_mean(&self) -> Nanos {
        if self.count == 0 {
            return Nanos::ZERO;
        }
        Nanos::new(self.e2e_total.as_nanos() / self.count)
    }
}

/// Whole-scenario outcome.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// One result per stream, in input order.
    pub streams: Vec<StreamResult>,
    /// PCIe counter deltas over the measurement window.
    pub counters: PcieCounters,
    /// Measurement window length.
    pub window: Nanos,
    /// Per-stream measured hop attribution (empty unless
    /// [`Scenario::metrics`] was set).
    pub breakdown: Vec<MeasuredBreakdown>,
    /// Metrics registry over the measurement window (empty unless
    /// [`Scenario::metrics`] was set).
    pub metrics: Registry,
    /// Scenario trace ring (disabled unless [`Scenario::trace_cap`] > 0).
    pub trace: TraceRing,
    /// Simulator events delivered over the whole run (warmup included) —
    /// the denominator for events/sec macro benchmarks.
    pub events: u64,
}

impl ScenarioResult {
    /// Aggregate operations rate across streams.
    pub fn total_ops(&self) -> Rate {
        Rate::per_sec(self.streams.iter().map(|s| s.ops.as_per_sec()).sum())
    }

    /// Aggregate goodput across streams.
    pub fn total_goodput(&self) -> Bandwidth {
        Bandwidth::bytes_per_sec(
            self.streams
                .iter()
                .map(|s| s.goodput.as_bytes_per_sec())
                .sum(),
        )
    }

    /// TLP throughput on one link over the measurement window.
    pub fn tlp_rate(&self, link: LinkId) -> Rate {
        self.counters.tlp_rate(link, self.window)
    }

    /// TLP throughput across all links.
    pub fn total_tlp_rate(&self) -> Rate {
        self.counters.total_tlp_rate(self.window)
    }

    /// TLP throughput on the SmartNIC's PCIe channels (PCIe1 + PCIe0) —
    /// the quantity the paper's hardware counters report (Fig 8b/9b).
    pub fn nic_tlp_rate(&self) -> Rate {
        Rate::per_sec(
            (self.counters.tlps(LinkId::Pcie1) + self.counters.tlps(LinkId::Pcie0)) as f64
                / self.window.as_secs_f64().max(1e-12),
        )
    }

    /// Data-bearing TLP throughput on the SmartNIC's PCIe channels —
    /// matches Table 3's simplified model (control packets omitted).
    pub fn nic_data_tlp_rate(&self) -> Rate {
        Rate::per_sec(
            (self.counters.data_tlps(LinkId::Pcie1) + self.counters.data_tlps(LinkId::Pcie0))
                as f64
                / self.window.as_secs_f64().max(1e-12),
        )
    }

    /// Data-bearing TLP throughput on one link, one direction.
    pub fn dir_data_tlp_rate(&self, link: LinkId, dir: pcie_model::counters::CountDir) -> Rate {
        Rate::per_sec(
            self.counters.dir_data_tlps(link, dir) as f64 / self.window.as_secs_f64().max(1e-12),
        )
    }
}

struct ThreadState {
    cpu_free: Nanos,
    next_allowed: Nanos,
    rng: SimRng,
    posts: u64,
}

struct StreamState {
    spec: StreamSpec,
    cost: PostCostModel,
    threads: Vec<ThreadState>,
    hist: Histogram,
    meter: RateMeter,
    pace: Nanos,
    bd_sum: HopBreakdown,
    bd_count: u64,
    e2e_sum: Nanos,
    retransmits: u64,
    retry_exhausted: u64,
}

#[derive(Clone, Copy)]
struct Ev {
    stream: usize,
    thread: usize,
}

/// Runs `streams` concurrently under `scenario`.
///
/// # Panics
///
/// Panics if a stream references a missing client machine, or a SmartNIC
/// path is run against the RNIC server.
pub fn run_scenario(scenario: &Scenario, streams: &[StreamSpec]) -> ScenarioResult {
    run_scenario_detailed(scenario, streams).0
}

/// Like [`run_scenario`] but also returns the post-run fabric, exposing
/// resource utilizations and raw counters for deeper analysis.
pub fn run_scenario_detailed(
    scenario: &Scenario,
    streams: &[StreamSpec],
) -> (ScenarioResult, Fabric) {
    let mut fabric = scenario.server.fabric(scenario.n_clients);
    let mut root_rng = SimRng::seed(scenario.seed);

    let mut states: Vec<StreamState> = streams
        .iter()
        .map(|spec| {
            let poster = PosterKind::for_path(spec.path);
            let cost = match poster {
                PosterKind::Client => {
                    let c = spec.clients.first().expect("stream needs clients");
                    PostCostModel::new(fabric.clients[*c].spec(), poster)
                }
                _ => PostCostModel::new(fabric.server.spec(), poster),
            };
            let n = spec.total_threads();
            let pace = match spec.rate_cap {
                Some(cap) => {
                    // Per-thread inter-post interval to hold the cap.
                    let per_thread = Bandwidth::bytes_per_sec(cap.as_bytes_per_sec() / n as f64);
                    per_thread.transfer_time(spec.payload.max(1))
                }
                None => Nanos::ZERO,
            };
            StreamState {
                cost,
                threads: (0..n)
                    .map(|i| ThreadState {
                        cpu_free: Nanos::ZERO,
                        next_allowed: Nanos::ZERO,
                        rng: root_rng.fork(i as u64),
                        posts: 0,
                    })
                    .collect(),
                hist: Histogram::new(),
                meter: RateMeter::new(),
                pace,
                bd_sum: HopBreakdown::new(),
                bd_count: 0,
                e2e_sum: Nanos::ZERO,
                retransmits: 0,
                retry_exhausted: 0,
                spec: spec.clone(),
            }
        })
        .collect();

    // Fault plane: an inert spec installs nothing (see simnet::faults),
    // so a default scenario runs the exact same instruction stream as
    // one with `faults` explicitly set to `FaultSpec::none()`.
    fabric.set_faults(scenario.faults.clone());
    let rc = scenario.rc;

    // Metrics registry and trace ring (no-ops unless opted in).
    let metrics_on = scenario.metrics;
    fabric.set_metrics(metrics_on);
    let mut registry = Registry::new();
    let c_posted = registry.counter("requests_posted");
    let c_completed = registry.counter("requests_completed");
    let c_deferred = registry.counter("posts_deferred");
    let c_late = registry.counter("completions_past_horizon");
    let c_retrans = registry.counter("rc_retransmits");
    let c_exhausted = registry.counter("rc_retry_exhausted");
    let h_other = registry.histogram("attribution_other_ns");
    let post_ctrs: Vec<CounterId> = states
        .iter()
        .map(|st| registry.counter(&format!("posted_{}", st.spec.post_mode.label())))
        .collect();
    let mut trace = if scenario.trace_cap > 0 {
        TraceRing::new(scenario.trace_cap)
    } else {
        TraceRing::disabled()
    };

    let horizon = scenario.duration;
    let mut eng: Engine<Ev> = Engine::new();
    // Seed the windows, staggering posts slightly so same-instant FIFO
    // ordering does not favour stream 0.
    for (si, st) in states.iter().enumerate() {
        for ti in 0..st.threads.len() {
            for w in 0..st.spec.window {
                let jitter = Nanos::new((si + ti * 7 + w * 13) as u64 % 97);
                eng.schedule(
                    jitter,
                    Ev {
                        stream: si,
                        thread: ti,
                    },
                )
                .expect("seeding events at t~0");
            }
        }
    }

    let handler = |eng: &mut Engine<Ev>,
                   now: Nanos,
                   ev: Ev,
                   fabric: &mut Fabric,
                   states: &mut Vec<StreamState>,
                   registry: &mut Registry,
                   trace: &mut TraceRing| {
        let st = &mut states[ev.stream];
        let spec = &st.spec;
        let th = &mut st.threads[ev.thread];
        // If the thread cannot post yet (CPU pacing or a rate cap),
        // defer the event instead of reserving resources with a future
        // post time — early reservations would block FIFO resources for
        // later-posted-but-earlier requests of other threads.
        let earliest = th.cpu_free.max(th.next_allowed);
        if earliest > now {
            if metrics_on {
                registry.inc(c_deferred);
            }
            eng.schedule(earliest, ev)
                .expect("deferred post is in the future");
            return;
        }
        let posted = now;
        th.cpu_free = posted + st.cost.cpu_time_per_request(spec.post_mode);
        if st.pace > Nanos::ZERO {
            th.next_allowed = posted + st.pace;
        }
        let align = 64;
        let addr = if spec.addr_range >= align {
            th.rng.addr_in_range(spec.addr_base, spec.addr_range, align)
        } else {
            spec.addr_base
        };
        let client = if spec.path.is_remote() {
            spec.clients[ev.thread / spec.threads_per_client]
        } else {
            0
        };
        let mut req = RequestDesc::new(spec.verb, spec.path, spec.payload, addr, client);
        if spec.dpa {
            req = req.with_dpa(spec.addr_range);
        }
        let post_idx = th.posts;
        th.posts += 1;
        let stochastic = fabric
            .faults()
            .map(|p| p.has_stochastic_faults())
            .unwrap_or(false);
        // Reliable-transport loop (shared engine: `drive_attempts`).
        // Each attempt burns full fabric resources (loss is detected
        // only after the frame crossed every hop); the requester times
        // out `rc.timeout` later and retransmits, up to `rc.retry_cnt`
        // retries before abandoning the operation (no completion
        // recorded; the closed loop reposts). With no stochastic faults
        // this collapses to the single execute of the fault-free path.
        let outcome = drive_attempts(posted, rc.timeout, rc.retry_cnt, |t, attempt| {
            fabric.apply_fault_windows(t);
            let (c, bd) = if metrics_on {
                let (c, bd) = fabric.execute_attributed(t, req);
                if attempt == 0 {
                    registry.inc(c_posted);
                    registry.inc(post_ctrs[ev.stream]);
                }
                (c, Some(bd))
            } else {
                (fabric.execute(t, req), None)
            };
            let failed = stochastic
                && fabric
                    .faults()
                    .map(|p| {
                        p.attempt_fails(
                            fault_key(&[
                                ev.stream as u64,
                                ev.thread as u64,
                                post_idx,
                                u64::from(attempt),
                            ]),
                            spec.path.wire_crossings(),
                            // DPA service terminates at the NIC-resident
                            // cores: the attempt never crosses PCIe1.
                            if spec.dpa {
                                0
                            } else {
                                spec.path.pcie1_crossings()
                            },
                        )
                    })
                    .unwrap_or(false);
            ((c, bd), failed)
        });
        st.retransmits += u64::from(outcome.retries);
        if metrics_on {
            registry.add(c_retrans, u64::from(outcome.retries));
        }
        if outcome.exhausted {
            st.retry_exhausted += 1;
            if metrics_on {
                registry.inc(c_exhausted);
            }
            eng.schedule((outcome.last_start + rc.timeout).max(now), ev)
                .expect("repost after retry exhaustion");
            return;
        }
        let (c, bd) = outcome.result;
        // A retransmitted completion's latency is still measured from
        // the original post instant.
        let c = Completion { posted, ..c };
        if trace.is_enabled() {
            trace.record(
                posted,
                TraceCat::Post,
                format!("s{} t{}", ev.stream, ev.thread),
            );
            trace.record(
                c.completed,
                TraceCat::Complete,
                format!(
                    "s{} t{} lat={}",
                    ev.stream,
                    ev.thread,
                    c.latency().as_nanos()
                ),
            );
        }
        // Only completions inside the fixed measurement window count:
        // completions past the horizon belong to terminal backlog and
        // would bias the rate (their posts are matched by pre-window
        // posts completing inside the window).
        if c.completed <= horizon {
            st.hist.record(c.latency());
            st.meter.record(c.completed, spec.payload);
            if let Some(bd) = bd {
                st.bd_sum.merge(&bd);
                st.bd_count += 1;
                st.e2e_sum += c.latency();
                registry.inc(c_completed);
                registry.observe(h_other, bd.get(Hop::Other));
            }
        } else if metrics_on {
            registry.inc(c_late);
        }
        eng.schedule(
            c.completed.max(now),
            Ev {
                stream: ev.stream,
                thread: ev.thread,
            },
        )
        .expect("completion is in the future");
    };

    // Warmup phase.
    eng.run_until(scenario.warmup, |eng, now, ev| {
        handler(
            eng,
            now,
            ev,
            &mut fabric,
            &mut states,
            &mut registry,
            &mut trace,
        );
        Step::Continue
    });
    // Reset meters and counters; measure.
    for st in &mut states {
        st.hist = Histogram::new();
        st.meter.open_window(scenario.warmup);
        st.bd_sum = HopBreakdown::new();
        st.bd_count = 0;
        st.e2e_sum = Nanos::ZERO;
        st.retransmits = 0;
        st.retry_exhausted = 0;
    }
    registry.reset_values();
    let snap = fabric.server.counters().snapshot();
    eng.run_until(scenario.duration, |eng, now, ev| {
        handler(
            eng,
            now,
            ev,
            &mut fabric,
            &mut states,
            &mut registry,
            &mut trace,
        );
        Step::Continue
    });

    let counters = fabric.server.counters().delta_since(&snap);
    let window = scenario.duration - scenario.warmup;
    let wsecs = window.as_secs_f64();
    let breakdown = if metrics_on {
        states
            .iter()
            .map(|st| MeasuredBreakdown {
                label: st.spec.label.clone(),
                path: st.spec.path,
                verb: st.spec.verb,
                payload: st.spec.payload,
                count: st.bd_count,
                residency: st.bd_sum,
                e2e_total: st.e2e_sum,
            })
            .collect()
    } else {
        Vec::new()
    };
    let result = ScenarioResult {
        streams: states
            .iter()
            .map(|st| StreamResult {
                label: st.spec.label.clone(),
                latency: st.hist.summary(),
                ops: Rate::per_sec(st.meter.ops() as f64 / wsecs),
                goodput: Bandwidth::bytes_per_sec(st.meter.bytes() as f64 / wsecs),
                retransmits: st.retransmits,
                retry_exhausted: st.retry_exhausted,
            })
            .collect(),
        counters,
        window,
        breakdown,
        metrics: registry,
        trace,
        events: eng.delivered(),
    };
    (result, fabric)
}

/// Convenience: measure one stream's latency with the paper's latency
/// methodology (1 client, window 1, 1 thread).
pub fn measure_latency(path: PathKind, verb: Verb, payload: u64) -> StreamResult {
    let scenario = Scenario {
        server: ServerKind::for_path(path),
        ..Scenario::latency()
    };
    let spec = StreamSpec {
        threads_per_client: 1,
        window: 1,
        ..StreamSpec::new(path, verb, payload, 1)
    };
    run_scenario(&scenario, &[spec]).streams.remove(0)
}

/// Convenience: measure one stream's per-hop latency attribution with
/// the paper's latency methodology (1 client, window 1, 1 thread) and
/// metrics enabled.
pub fn measure_breakdown(path: PathKind, verb: Verb, payload: u64) -> MeasuredBreakdown {
    let scenario = Scenario {
        server: ServerKind::for_path(path),
        ..Scenario::latency().with_metrics()
    };
    let spec = StreamSpec {
        threads_per_client: 1,
        window: 1,
        ..StreamSpec::new(path, verb, payload, 1)
    };
    run_scenario(&scenario, &[spec]).breakdown.remove(0)
}

/// Convenience: measure one stream's peak throughput with the paper's
/// throughput methodology (11 clients for remote paths).
pub fn measure_throughput(path: PathKind, verb: Verb, payload: u64) -> StreamResult {
    let scenario = Scenario {
        server: ServerKind::for_path(path),
        ..Scenario::default()
    };
    let n = if path.is_remote() { 11 } else { 1 };
    let spec = StreamSpec::new(path, verb, payload, n);
    run_scenario(&scenario, &[spec]).streams.remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_run_single_request_window() {
        let r = measure_latency(PathKind::Snic1, Verb::Read, 64);
        assert!(
            r.latency.count > 100,
            "too few samples: {}",
            r.latency.count
        );
        // Window 1: p50 should be tight around the mean.
        let p50 = r.latency.p50.as_nanos() as f64;
        let mean = r.latency.mean.as_nanos() as f64;
        assert!((p50 - mean).abs() / mean < 0.25, "p50 {p50} vs mean {mean}");
    }

    #[test]
    fn throughput_run_produces_rates() {
        let r = measure_throughput(PathKind::Snic1, Verb::Write, 64);
        assert!(r.ops.as_mops() > 10.0, "write rate {}", r.ops);
        assert!(r.goodput.as_gbps() > 0.0);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = measure_throughput(PathKind::Snic2, Verb::Read, 256);
        let b = measure_throughput(PathKind::Snic2, Verb::Read, 256);
        assert_eq!(a.ops.as_per_sec(), b.ops.as_per_sec());
        assert_eq!(a.latency.p99, b.latency.p99);
    }

    #[test]
    fn multi_stream_scenario_reports_each() {
        let scenario = Scenario::default();
        let s1 = StreamSpec::new(PathKind::Snic1, Verb::Read, 64, 5);
        let mut s2 = StreamSpec::new(PathKind::Snic2, Verb::Read, 64, 5);
        s2.clients = (5..10).collect();
        let r = run_scenario(&scenario, &[s1, s2]);
        assert_eq!(r.streams.len(), 2);
        assert!(r.total_ops().as_mops() > r.streams[0].ops.as_mops());
    }

    #[test]
    fn rate_cap_throttles_stream() {
        let scenario = Scenario::default();
        let uncapped = StreamSpec::new(PathKind::Snic3H2S, Verb::Write, 4096, 1);
        let capped = uncapped.clone().with_rate_cap(Bandwidth::gbps(10.0));
        let ru = run_scenario(&scenario, &[uncapped]);
        let rc = run_scenario(&scenario, &[capped]);
        let gu = ru.streams[0].goodput.as_gbps();
        let gc = rc.streams[0].goodput.as_gbps();
        assert!(gc < 12.0, "cap violated: {gc:.1} Gbps");
        assert!(gu > gc, "uncapped {gu:.1} should exceed capped {gc:.1}");
    }

    #[test]
    fn counters_cover_measurement_window_only() {
        let scenario = Scenario::default();
        let spec = StreamSpec::new(PathKind::Snic1, Verb::Write, 512, 2);
        let r = run_scenario(&scenario, &[spec]);
        let tlps = r.counters.tlps(LinkId::Pcie0);
        assert!(tlps > 0);
        // TLP count should be consistent with ops (1 TLP per 512 B write).
        let ops_in_window = r.streams[0].ops.as_per_sec() * r.window.as_secs_f64();
        let ratio = tlps as f64 / ops_in_window;
        assert!((0.8..=1.3).contains(&ratio), "tlps/op {ratio:.2}");
    }

    #[test]
    fn zero_payload_supported() {
        let r = measure_throughput(PathKind::Snic1, Verb::Read, 0);
        assert!(r.ops.as_mops() > 50.0, "0B rate {}", r.ops);
    }
}
