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
use simnet::engine::Engine;
use simnet::faults::{drive_attempts, fault_key, FaultSpec};
use simnet::metrics::{CounterId, HistogramId, Hop, HopBreakdown, Registry};
use simnet::rng::SimRng;
use simnet::stats::{Histogram, LatencySummary};
use simnet::time::{measured_window, Bandwidth, Nanos, Rate};

/// RC ack timeout: how long a requester waits for an attempt's
/// response before declaring it lost and retransmitting. About 4x the
/// worst small-request RTT on the testbed: early enough to matter, late
/// enough to avoid spurious retries.
pub const RC_TIMEOUT: Nanos = Nanos::from_micros(20);

/// RC transport retry budget: retransmissions of a timed-out attempt
/// before the operation is abandoned (ibverbs `retry_cnt`, 3 bits, max 7).
pub const RC_RETRY_CNT: u32 = 7;

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
    /// Size of the target address region, which starts at address 0
    /// (random offsets within).
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
    /// [`PosterKind::default_threads`]), targeting a 1 GiB region. §2.4
    /// randomly addresses 10 GB; 1 GiB bounds memory tracking, and the
    /// range only matters at the small end (Figure 7).
    pub fn new(path: PathKind, verb: Verb, payload: u64, n_clients: usize) -> Self {
        let poster = PosterKind::for_path(path);
        StreamSpec {
            label: format!("{} {}", path.label(), verb.label()),
            path,
            verb,
            payload,
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
    /// Fault-injection schedule. The default ([`FaultSpec::none`]) is
    /// inert: no fault plane is installed and the run is byte-identical
    /// to one that never heard of faults. Stochastic faults retry after
    /// [`RC_TIMEOUT`], up to [`RC_RETRY_CNT`] times.
    pub faults: FaultSpec,
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
            faults: FaultSpec::none(),
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

    /// Turns on the metrics registry and per-hop attribution.
    pub fn with_metrics(mut self) -> Self {
        self.metrics = true;
        self
    }

    /// Installs a fault-injection schedule.
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
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

/// One stream's meters. The warmup's values are dropped by replacing
/// them with the default.
#[derive(Default)]
struct Meters {
    hist: Histogram,
    /// Completions inside the measured window, and their payload bytes.
    completed: u64,
    bytes: u64,
    bd_sum: HopBreakdown,
    bd_count: u64,
    e2e_sum: Nanos,
    retransmits: u64,
    retry_exhausted: u64,
}

struct StreamState {
    spec: StreamSpec,
    /// Requester CPU time per post.
    cpu_cost: Nanos,
    /// Per-thread interval between posts that holds the rate cap (zero
    /// when uncapped).
    pace: Nanos,
    threads: Vec<ThreadState>,
    /// The registry counter of posts in this stream's posting mode.
    posted_mode: CounterId,
    meters: Meters,
}

#[derive(Clone, Copy)]
struct Ev {
    stream: usize,
    thread: usize,
}

/// One run's closed loop: the responder, every stream's requester
/// threads and meters, and the registry. [`ClosedLoop::post`] handles
/// every event of the warmup and of the measured phase.
struct ClosedLoop {
    fabric: Fabric,
    streams: Vec<StreamState>,
    registry: Registry,
    c_posted: CounterId,
    c_completed: CounterId,
    c_deferred: CounterId,
    c_late: CounterId,
    c_retrans: CounterId,
    c_exhausted: CounterId,
    h_other: HistogramId,
    /// Whether the registry and hop attribution record.
    metrics: bool,
    /// Whether the fault plane can fail an attempt.
    stochastic: bool,
    horizon: Nanos,
}

impl ClosedLoop {
    fn new(scenario: &Scenario, streams: &[StreamSpec]) -> Self {
        let mut fabric = scenario.server.fabric(scenario.n_clients);
        // Fault plane: an inert spec installs nothing (see simnet::faults),
        // so a default scenario runs the exact same instruction stream as
        // one with `faults` explicitly set to `FaultSpec::none()`.
        fabric.set_faults(scenario.faults.clone());
        fabric.set_metrics(scenario.metrics);
        let stochastic = fabric.faults().is_some_and(|p| p.has_stochastic_faults());
        // The registry is a no-op unless opted in, but always lists its
        // counters.
        let mut registry = Registry::new();
        let c_posted = registry.counter("requests_posted");
        let c_completed = registry.counter("requests_completed");
        let c_deferred = registry.counter("posts_deferred");
        let c_late = registry.counter("completions_past_horizon");
        let c_retrans = registry.counter("rc_retransmits");
        let c_exhausted = registry.counter("rc_retry_exhausted");
        let h_other = registry.histogram("attribution_other_ns");
        let mut root_rng = SimRng::seed(scenario.seed);
        let streams = streams
            .iter()
            .map(|spec| {
                let poster = PosterKind::for_path(spec.path);
                let machine = match poster {
                    PosterKind::Client => {
                        let c = spec.clients.first().expect("stream needs clients");
                        fabric.clients[*c].spec()
                    }
                    _ => fabric.server.spec(),
                };
                let cpu_cost =
                    PostCostModel::new(machine, poster).cpu_time_per_request(spec.post_mode);
                let n = spec.total_threads();
                let pace = spec.rate_cap.map_or(Nanos::ZERO, |cap| {
                    let per_thread = Bandwidth::bytes_per_sec(cap.as_bytes_per_sec() / n as f64);
                    per_thread.transfer_time(spec.payload.max(1))
                });
                StreamState {
                    spec: spec.clone(),
                    cpu_cost,
                    pace,
                    threads: (0..n)
                        .map(|i| ThreadState {
                            cpu_free: Nanos::ZERO,
                            next_allowed: Nanos::ZERO,
                            rng: root_rng.fork(i as u64),
                            posts: 0,
                        })
                        .collect(),
                    posted_mode: registry.counter(&format!("posted_{}", spec.post_mode.label())),
                    meters: Meters::default(),
                }
            })
            .collect();
        ClosedLoop {
            fabric,
            streams,
            registry,
            c_posted,
            c_completed,
            c_deferred,
            c_late,
            c_retrans,
            c_exhausted,
            h_other,
            metrics: scenario.metrics,
            stochastic,
            horizon: scenario.duration,
        }
    }

    /// Thread `ev.thread` of stream `ev.stream` posts one request, runs
    /// it through the transport's retries and schedules its next post at
    /// the completion. A thread whose CPU or rate cap is not free yet
    /// defers instead.
    // Inlined into both phases' loops: out of line, `harness_sweep`
    // spends about 3% more wall time.
    #[inline]
    fn post(&mut self, eng: &mut Engine<Ev>, now: Nanos, ev: Ev) {
        let st = &mut self.streams[ev.stream];
        let spec = &st.spec;
        let th = &mut st.threads[ev.thread];
        // If the thread cannot post yet (CPU pacing or a rate cap),
        // defer the event instead of reserving resources with a future
        // post time — early reservations would block FIFO resources for
        // later-posted-but-earlier requests of other threads.
        let earliest = th.cpu_free.max(th.next_allowed);
        if earliest > now {
            if self.metrics {
                self.registry.inc(self.c_deferred);
            }
            eng.schedule(earliest, ev)
                .expect("deferred post is in the future");
            return;
        }
        let posted = now;
        th.cpu_free = posted + st.cpu_cost;
        if st.pace > Nanos::ZERO {
            th.next_allowed = posted + st.pace;
        }
        let align = 64;
        let addr = if spec.addr_range >= align {
            th.rng.addr_in_range(0, spec.addr_range, align)
        } else {
            0
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
        // Reliable-transport loop (shared engine: `drive_attempts`).
        // Each attempt burns full fabric resources (loss is detected
        // only after the frame crossed every hop); the requester times
        // out `RC_TIMEOUT` later and retransmits, up to `RC_RETRY_CNT`
        // retries before abandoning the operation (no completion
        // recorded; the closed loop reposts). With no stochastic faults
        // this collapses to the single execute of the fault-free path.
        let outcome = drive_attempts(posted, RC_TIMEOUT, RC_RETRY_CNT, |t, attempt| {
            self.fabric.apply_fault_windows(t);
            let (c, bd) = if self.metrics {
                let (c, bd) = self.fabric.execute_attributed(t, req);
                if attempt == 0 {
                    self.registry.inc(self.c_posted);
                    self.registry.inc(st.posted_mode);
                }
                (c, Some(bd))
            } else {
                (self.fabric.execute(t, req), None)
            };
            let failed = self.stochastic
                && self.fabric.faults().is_some_and(|p| {
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
                });
            ((c, bd), failed)
        });
        let m = &mut st.meters;
        m.retransmits += u64::from(outcome.retries);
        if self.metrics {
            self.registry
                .add(self.c_retrans, u64::from(outcome.retries));
        }
        if outcome.exhausted {
            m.retry_exhausted += 1;
            if self.metrics {
                self.registry.inc(self.c_exhausted);
            }
            eng.schedule((outcome.last_start + RC_TIMEOUT).max(now), ev)
                .expect("repost after retry exhaustion");
            return;
        }
        let (c, bd) = outcome.result;
        // A retransmitted completion's latency is still measured from
        // the original post instant.
        let c = Completion { posted, ..c };
        // Only completions inside the fixed measurement window count:
        // completions past the horizon belong to terminal backlog and
        // would bias the rate (their posts are matched by pre-window
        // posts completing inside the window).
        if c.completed <= self.horizon {
            m.hist.record(c.latency());
            m.completed += 1;
            m.bytes += spec.payload;
            if let Some(bd) = bd {
                m.bd_sum.merge(&bd);
                m.bd_count += 1;
                m.e2e_sum += c.latency();
                self.registry.inc(self.c_completed);
                self.registry.observe(self.h_other, bd.get(Hop::Other));
            }
        } else if self.metrics {
            self.registry.inc(self.c_late);
        }
        eng.schedule(c.completed.max(now), ev)
            .expect("completion is in the future");
    }
}

/// Runs `streams` concurrently under `scenario`.
///
/// # Panics
///
/// Panics if the warmup ends after the run, a remote stream lists no
/// client machines or references a missing one, a SmartNIC path is run
/// against the RNIC server, or a DPA stream meets a server without a DPA
/// plane.
pub fn run_scenario(scenario: &Scenario, streams: &[StreamSpec]) -> ScenarioResult {
    run_scenario_detailed(scenario, streams).0
}

/// Like [`run_scenario`] but also returns the post-run fabric, exposing
/// resource utilizations and raw counters for deeper analysis.
pub fn run_scenario_detailed(
    scenario: &Scenario,
    streams: &[StreamSpec],
) -> (ScenarioResult, Fabric) {
    let window = measured_window(scenario.warmup, scenario.duration);
    let mut run = ClosedLoop::new(scenario, streams);
    let mut eng: Engine<Ev> = Engine::new();
    // Seed the windows, staggering posts slightly so same-instant FIFO
    // ordering does not favour stream 0.
    for (si, st) in run.streams.iter().enumerate() {
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

    eng.run_until(scenario.warmup, |eng, now, ev| run.post(eng, now, ev));
    // Reset meters and counters; measure.
    for st in &mut run.streams {
        st.meters = Meters::default();
    }
    run.registry.reset_values();
    let snap = run.fabric.server.counters().snapshot();
    eng.run_until(scenario.duration, |eng, now, ev| run.post(eng, now, ev));

    let counters = run.fabric.server.counters().delta_since(&snap);
    let breakdown = if run.metrics {
        run.streams
            .iter()
            .map(|st| MeasuredBreakdown {
                label: st.spec.label.clone(),
                path: st.spec.path,
                verb: st.spec.verb,
                payload: st.spec.payload,
                count: st.meters.bd_count,
                residency: st.meters.bd_sum,
                e2e_total: st.meters.e2e_sum,
            })
            .collect()
    } else {
        Vec::new()
    };
    let result = ScenarioResult {
        streams: run
            .streams
            .iter()
            .map(|st| StreamResult {
                label: st.spec.label.clone(),
                latency: st.meters.hist.summary(),
                ops: Rate::over(st.meters.completed, window),
                goodput: Bandwidth::over(st.meters.bytes, window),
                retransmits: st.meters.retransmits,
                retry_exhausted: st.meters.retry_exhausted,
            })
            .collect(),
        counters,
        window,
        breakdown,
        metrics: run.registry,
        events: eng.delivered(),
    };
    (result, run.fabric)
}

/// The paper's latency methodology (§2.4) for one stream: one client,
/// one thread, window 1, against the path's responder.
fn latency_point(path: PathKind, verb: Verb, payload: u64) -> (Scenario, StreamSpec) {
    let scenario = Scenario {
        server: ServerKind::for_path(path),
        ..Scenario::latency()
    };
    let spec = StreamSpec {
        threads_per_client: 1,
        window: 1,
        ..StreamSpec::new(path, verb, payload, 1)
    };
    (scenario, spec)
}

/// Convenience: measure one stream's latency with the paper's latency
/// methodology (1 client, window 1, 1 thread).
pub fn measure_latency(path: PathKind, verb: Verb, payload: u64) -> StreamResult {
    let (scenario, spec) = latency_point(path, verb, payload);
    run_scenario(&scenario, &[spec]).streams.remove(0)
}

/// Convenience: measure one stream's per-hop latency attribution with
/// the paper's latency methodology (1 client, window 1, 1 thread) and
/// metrics enabled.
pub fn measure_breakdown(path: PathKind, verb: Verb, payload: u64) -> MeasuredBreakdown {
    let (scenario, spec) = latency_point(path, verb, payload);
    run_scenario(&scenario.with_metrics(), &[spec])
        .breakdown
        .remove(0)
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
    #[should_panic(expected = "warmup (300.000us) exceeds duration (200.000us)")]
    fn warmup_past_the_run_is_rejected() {
        let sc = Scenario {
            warmup: Nanos::from_micros(300),
            duration: Nanos::from_micros(200),
            ..Scenario::latency()
        };
        run_scenario(&sc, &[StreamSpec::new(PathKind::Snic1, Verb::Read, 64, 1)]);
    }

    /// A run whose warmup is the whole run (a zero-horizon set-up call)
    /// has an empty measured window: its rates read zero, not NaN.
    #[test]
    fn empty_window_reports_zero_rates() {
        let sc = Scenario {
            warmup: Nanos::ZERO,
            duration: Nanos::ZERO,
            ..Scenario::latency()
        };
        let r = run_scenario(&sc, &[StreamSpec::new(PathKind::Snic1, Verb::Read, 64, 1)]);
        let s = &r.streams[0];
        assert_eq!(s.ops.as_per_sec(), 0.0);
        assert_eq!(s.goodput.as_bytes_per_sec(), 0.0);
        assert_eq!(r.total_ops().as_per_sec(), 0.0);
        assert_eq!(r.total_goodput().as_bytes_per_sec(), 0.0);
    }

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
