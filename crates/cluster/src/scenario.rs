//! Cluster-scale scenario API, mirroring `snic-core`'s
//! `Scenario`/`StreamSpec` shape: a [`ClusterScenario`] runs one or more
//! [`ClusterStream`]s against one responder machine of a full
//! [`ClusterSpec`] — but with every machine in its own shard and real
//! switch-port contention between them.

use std::sync::Mutex;

use nicsim::{ClientMachine, Fabric, PathKind, Verb};
use rdma_sim::doorbell::{PostCostModel, PostMode, PosterKind};
use simnet::arrivals::{AdmissionQueue, OpenLoopSpec};
use simnet::faults::FaultSpec;
use simnet::metrics::Registry;
use simnet::rng::SimRng;
use simnet::stats::LatencySummary;
use simnet::time::{measured_window, Bandwidth, Nanos, Rate};
use snic_farmem::{FmPlacement, FmStreamSpec};
use snic_kvstore::Design;
use topology::{ClusterSpec, MachineSpec};

use crate::fm::{FmHost, FmServer};
use crate::kv::{KvPlacement, KvServer, KvStreamSpec};
use crate::runtime;
use crate::shard::{Outbox, Shard, ShardCounters, StreamAgg, StreamZipfs};
use crate::switch::SwitchFabric;

/// One cluster-wide load stream: requester threads on a set of client
/// *machines* (shards), all targeting the scenario's responder. Path-3
/// streams run on the responder machine itself and take no clients.
#[derive(Debug, Clone)]
pub struct ClusterStream {
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
    /// Client machine indices issuing this stream (empty for path 3).
    pub clients: Vec<usize>,
    /// Threads per client machine (path 3: total threads).
    pub threads_per_client: usize,
    /// Outstanding requests per thread (closed loop only).
    pub window: usize,
    /// Posting mode.
    pub post_mode: PostMode,
    /// `Some` turns the stream open-loop: ops arrive on the spec's
    /// intended-arrival schedule (the rate is the *total* offered load,
    /// split evenly across the stream's client machines) instead of
    /// being regenerated by completions, latency is measured from the
    /// intended arrival, and the responder bounds its backlog with the
    /// spec's admission queue.
    pub open: Option<OpenLoopSpec>,
    /// `Some` turns the stream into the cluster KV service: posts become
    /// YCSB ops routed to each key's home *server shard* (the service is
    /// sharded across every server of the cluster, not just the
    /// scenario's responder), served under the spec's index placement.
    pub kv: Option<KvStreamSpec>,
    /// `Some` turns the stream into a far-memory tier: posts become
    /// page accesses against a host residency table, misses promote
    /// pages from SoC DRAM (the local SoC over path ③ or the remote
    /// pool over path ②), and idle dirty pages write back in the
    /// background.
    pub farmem: Option<FmStreamSpec>,
    /// When true, the stream's remote SENDs terminate at the
    /// responder's DPA plane with `addr_range` bytes of handler
    /// working state (no PCIe1 crossing; spill penalty past the DPA
    /// scratch). Requires DPA-carrying servers; ignored for path-3
    /// streams.
    pub dpa: bool,
}

impl ClusterStream {
    /// A stream issued from `clients` with the path's paper-default
    /// threads, window and posting mode (see
    /// [`PosterKind::default_threads`]) and the same address range as
    /// `snic-core`'s `StreamSpec::new`.
    pub fn new(path: PathKind, verb: Verb, payload: u64, clients: Vec<usize>) -> Self {
        let poster = PosterKind::for_path(path);
        ClusterStream {
            label: format!("{} {}", path.label(), verb.label()),
            path,
            verb,
            payload,
            addr_range: 1 << 30,
            clients,
            threads_per_client: poster.default_threads(),
            window: poster.default_window(),
            post_mode: poster.default_post_mode(),
            open: None,
            kv: None,
            farmem: None,
            dpa: false,
        }
    }

    /// The KV service stream: YCSB ops issued from `clients` against the
    /// replicated, sharded KV service spanning *all* server machines.
    /// Combine with [`ClusterStream::open_loop`] for an offered-load
    /// arrival schedule.
    pub fn kv_service(spec: KvStreamSpec, clients: Vec<usize>) -> Self {
        let mut s =
            ClusterStream::new(PathKind::Snic1, Verb::Send, spec.value_size as u64, clients);
        s.label = format!("kv-{}", spec.mix.label());
        s.kv = Some(spec);
        s
    }

    /// A far-memory tier stream. Local placement runs on the responder
    /// machine itself against its own SoC over path ③ and takes no
    /// clients; remote placement issues from `clients`, with pages
    /// hashed across every pool server's SoC over path ②.
    ///
    /// # Panics
    ///
    /// Panics if `clients` disagrees with the placement (local streams
    /// take none, remote streams need at least one).
    pub fn fm_service(spec: FmStreamSpec, clients: Vec<usize>) -> Self {
        let (path, tag) = match spec.placement {
            FmPlacement::LocalSoc => {
                assert!(
                    clients.is_empty(),
                    "local far memory runs on the server machine itself"
                );
                (PathKind::Snic3H2S, "local")
            }
            FmPlacement::RemoteSoc => {
                assert!(
                    !clients.is_empty(),
                    "remote far memory lists no client machines"
                );
                (PathKind::Snic2, "remote")
            }
        };
        let mut s = ClusterStream::new(path, Verb::Write, spec.page_bytes, clients);
        s.label = format!("fm-{tag}");
        s.farmem = Some(spec);
        s
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

    /// Overrides the target address range.
    pub fn with_range(mut self, range: u64) -> Self {
        self.addr_range = range;
        self
    }

    /// Overrides the posting mode.
    pub fn with_post_mode(mut self, mode: PostMode) -> Self {
        self.post_mode = mode;
        self
    }

    /// Turns the stream open-loop with the given arrival spec (see
    /// [`ClusterStream::open`]).
    pub fn open_loop(mut self, spec: OpenLoopSpec) -> Self {
        self.open = Some(spec);
        self
    }

    /// Routes the stream's remote SENDs to the responder's DPA plane
    /// (see [`ClusterStream::dpa`]).
    pub fn with_dpa(mut self) -> Self {
        self.dpa = true;
        self
    }
}

/// A cluster measurement run configuration.
#[derive(Debug, Clone)]
pub struct ClusterScenario {
    /// The machines and the wire.
    pub cluster: ClusterSpec,
    /// Which server machine the streams target.
    pub server: usize,
    /// Warmup simulated time (completions before it are discarded).
    pub warmup: Nanos,
    /// Total simulated time.
    pub duration: Nanos,
    /// PRNG seed.
    pub seed: u64,
    /// The most worker threads a run may use, the caller's included: a
    /// cap of `n` lets the runtime spawn `n - 1` threads while the
    /// calling thread runs shards as worker 0. It spawns them only once
    /// an epoch's spare work pays for them, so a rack too small to gain
    /// from them runs on the calling thread alone. `0` means one per
    /// available core. Results are byte-identical for every value.
    pub workers: usize,
    /// Fault-injection schedule; the default ([`FaultSpec::none`]) is
    /// inert and installs nothing anywhere.
    pub faults: FaultSpec,
    /// Requester ack timeout before a retransmission (only armed when
    /// stochastic faults are active).
    pub rc_timeout: Nanos,
    /// Retransmissions allowed before an operation is abandoned.
    pub rc_retry: u32,
}

impl ClusterScenario {
    /// The paper's rack-scale testbed (Table 2) with the default
    /// measurement methodology (§2.4): 200 µs warmup, 2 ms run.
    pub fn paper_testbed() -> Self {
        ClusterScenario {
            cluster: ClusterSpec::paper_testbed(),
            server: 0,
            warmup: Nanos::from_micros(200),
            duration: Nanos::from_millis(2),
            seed: 42,
            workers: 0,
            faults: FaultSpec::none(),
            rc_timeout: Nanos::from_micros(10),
            rc_retry: 7,
        }
    }

    /// A shortened run for smoke tests and `--quick` mode.
    pub fn quick() -> Self {
        ClusterScenario {
            warmup: Nanos::from_micros(100),
            duration: Nanos::from_micros(700),
            ..Self::paper_testbed()
        }
    }

    /// Overrides the worker-thread cap.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Overrides the PRNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Installs a fault-injection schedule.
    pub fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// Overrides the transport recovery parameters.
    pub fn with_rc(mut self, timeout: Nanos, retry: u32) -> Self {
        self.rc_timeout = timeout;
        self.rc_retry = retry;
        self
    }
}

/// Per-stream cluster measurement outcome.
#[derive(Debug, Clone)]
pub struct ClusterStreamResult {
    /// The stream's label.
    pub label: String,
    /// Latency distribution over the measurement window.
    pub latency: LatencySummary,
    /// Completed-operations rate.
    pub ops: Rate,
    /// Payload goodput.
    pub goodput: Bandwidth,
    /// Raw completions inside the measurement window.
    pub completions: u64,
    /// Configured offered load (zero for closed-loop streams; the
    /// open-loop fields below likewise stay zero when closed).
    pub offered: Rate,
    /// Open-loop arrivals generated over the whole run.
    pub generated: u64,
    /// Open-loop ops rejected by the admission queue (client-accounted).
    pub dropped: u64,
    /// Open-loop ops still in flight when the run's horizon was reached
    /// (`generated == completed_total + dropped + inflight` exactly).
    pub inflight: u64,
    /// Open-loop completions over the whole run (any instant).
    pub completed_total: u64,
    /// Summed slip of actual issue past intended arrival — the excess
    /// delay a closed loop would have hidden by coordinated omission.
    pub excess_ns: u64,
}

/// Whole-run outcome.
#[derive(Debug, Clone)]
pub struct ClusterResult {
    /// One result per stream, in input order.
    pub streams: Vec<ClusterStreamResult>,
    /// Measurement window length.
    pub window: Nanos,
    /// Deterministic run counters (shard events, routed messages, …).
    pub metrics: Registry,
    /// Non-empty epochs the runtime executed.
    pub epochs: u64,
    /// Of those, the epochs the runtime ran on its worker threads. Like
    /// `workers` and `spare_events`, it describes the executor, not the
    /// simulation, so it stays out of the CSV and the registry.
    pub parallel_epochs: u64,
    /// Spare work summed over the epochs with more than one active
    /// shard: in each, the events of the active shards other than the
    /// busiest, which a second thread could have taken. It is the same
    /// at every worker cap.
    pub spare_events: u64,
    /// Messages routed through the switch.
    pub messages: u64,
    /// The worker cap the runtime ran with, the caller's included: the
    /// requested count, clamped to the number of shards.
    pub workers: usize,
    /// Simulator events delivered across all shards — the denominator
    /// for events/sec macro benchmarks.
    pub events: u64,
}

impl ClusterResult {
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

    /// Serializes the per-stream results. Covers every
    /// simulation-derived quantity (worker count and wall-clock figures
    /// are deliberately excluded), so two byte-identical dumps mean two
    /// identical simulations — the determinism test diffs this.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "stream,completions,p50_ns,p99_ns,p999_ns,goodput_bps,mops,\
             offered_per_sec,generated,dropped,inflight,excess_ns\n",
        );
        for s in &self.streams {
            out.push_str(&format!(
                "{},{},{},{},{},{:.3},{:.6},{:.3},{},{},{},{}\n",
                s.label,
                s.completions,
                s.latency.p50.as_nanos(),
                s.latency.p99.as_nanos(),
                s.latency.p999.as_nanos(),
                s.goodput.as_bytes_per_sec(),
                s.ops.as_per_sec() / 1e6,
                s.offered.as_per_sec(),
                s.generated,
                s.dropped,
                s.inflight,
                s.excess_ns,
            ));
        }
        out
    }
}

/// Runs `streams` on the cluster under `scenario`.
///
/// # Panics
///
/// Checks the input before it builds any machine, and panics if:
///
/// - the warmup ends after the run, or the scenario names a missing
///   server;
/// - a KV placement other than host RPC or one-sided READs, or a
///   far-memory pool, meets a server without a SmartNIC;
/// - there are more than 65,536 streams, or a stream has more than
///   65,536 threads per client (events carry both indices as `u16`);
/// - a SmartNIC path targets a server without a SmartNIC;
/// - a remote stream lists no client machines, references a missing one
///   or lists one twice, or a KV stream runs on a local path;
/// - there is more than one KV stream or more than one far-memory
///   stream.
///
/// A DPA stream on a server without a DPA plane panics later, in the
/// server's shard, when the plane first serves.
pub fn run_cluster(scenario: &ClusterScenario, streams: &[ClusterStream]) -> ClusterResult {
    run_with_grain(scenario, streams, runtime::PARALLEL_GRAIN)
}

impl ClusterScenario {
    /// Runs every check [`run_cluster`] documents, in that order, and
    /// returns the measured window.
    fn validate(&self, streams: &[ClusterStream]) -> Nanos {
        let window = measured_window(self.warmup, self.duration);
        let (clients, servers) = (&self.cluster.clients, &self.cluster.servers);
        assert!(
            self.server < servers.len(),
            "scenario targets server {} but the cluster has {}",
            self.server,
            servers.len()
        );
        // The KV service and the far-memory pool span every server. A
        // plain RNIC serves only the KV placements that touch no SoC or
        // DPA (host RPC and one-sided READs), and no pool.
        for st in streams {
            let (service, needs) = if st.kv.is_some_and(|k| !host_only(k.placement)) {
                ("KV", "places its index off the host")
            } else if st.farmem.is_some() {
                ("far-memory", "pools its pages on every server's SoC")
            } else {
                continue;
            };
            if let Some(j) = servers.iter().position(|m| m.nic.smartnic().is_none()) {
                panic!(
                    "{service} stream '{}' {needs}, which needs a SmartNIC on server {j}",
                    st.label
                );
            }
        }
        for (si, stream) in streams.iter().enumerate() {
            // Rack events carry stream and thread indices as `u16`.
            assert!(
                si < 1 << 16,
                "stream '{}' is stream {si}, but rack events index at most 65536 streams",
                stream.label
            );
            assert!(
                stream.threads_per_client <= 1 << 16,
                "stream '{}' has {} threads per client, but rack events index at most 65536",
                stream.label,
                stream.threads_per_client
            );
            // KV streams fan out over every server; the check above
            // covers them.
            if stream.path.on_smartnic() && stream.kv.is_none() {
                assert!(
                    servers[self.server].nic.smartnic().is_some(),
                    "stream '{}' needs a SmartNIC on server {}",
                    stream.label,
                    self.server
                );
            }
            if stream.path.is_remote() {
                assert!(
                    !stream.clients.is_empty(),
                    "remote stream '{}' lists no client machines",
                    stream.label
                );
                for (k, &ci) in stream.clients.iter().enumerate() {
                    assert!(
                        ci < clients.len(),
                        "stream '{}' references missing client {ci}",
                        stream.label
                    );
                    assert!(
                        !stream.clients[..k].contains(&ci),
                        "stream '{}' lists client {ci} twice",
                        stream.label
                    );
                }
            } else {
                assert!(
                    stream.kv.is_none(),
                    "KV stream '{}' must list client machines",
                    stream.label
                );
            }
        }
        let kv_streams = streams.iter().filter(|s| s.kv.is_some()).count();
        assert!(
            kv_streams <= 1,
            "at most one KV service stream per run (got {kv_streams})"
        );
        let fm_streams = streams.iter().filter(|s| s.farmem.is_some()).count();
        assert!(
            fm_streams <= 1,
            "at most one far-memory stream per run (got {fm_streams})"
        );
        window
    }
}

/// [`run_cluster`] with the runtime's parallel grain set to `grain`
/// spare events per epoch. At zero every epoch with more than one active
/// shard runs on the workers, which lets tests drive the parallel path
/// on racks too small to choose it.
pub(crate) fn run_with_grain(
    scenario: &ClusterScenario,
    streams: &[ClusterStream],
    grain: u64,
) -> ClusterResult {
    let window = scenario.validate(streams);
    let (clients, servers) = (&scenario.cluster.clients, &scenario.cluster.servers);
    let (n_clients, n_servers) = (clients.len(), servers.len());
    let server_shard = n_clients + scenario.server;
    let n_shards = n_clients + n_servers;
    let nic_bws: Vec<Bandwidth> = clients
        .iter()
        .chain(servers)
        .map(|m| m.nic.nic().network_bw)
        .collect();
    let mut switch = SwitchFabric::new(&scenario.cluster.wire, &nic_bws);
    switch.set_faults(scenario.faults.clone());

    // Every shard's RNG is forked from the root by shard index, so the
    // stream of random numbers a shard sees is independent of how many
    // worker threads run the simulation.
    let mut root = SimRng::seed(scenario.seed);
    let mut shard_rngs: Vec<SimRng> = (0..n_shards).map(|i| root.fork(i as u64)).collect();

    // Arm transport recovery only where loss is possible: clients need
    // wire timeouts; server shards retry path-3 attempts synchronously
    // whenever any stochastic fault can fail one. Fault-free runs arm
    // nothing, keeping their event schedule untouched.
    let wire_faulty = scenario.faults.wire_loss > 0.0;
    let any_stochastic = wire_faulty || scenario.faults.pcie_corrupt > 0.0;
    let (n_streams, from, to) = (streams.len(), scenario.warmup, scenario.duration);
    let mut shards: Vec<Shard> = Vec::with_capacity(n_shards);
    for (i, m) in clients.iter().enumerate() {
        let machine = ClientMachine::new(*m);
        let mut shard = Shard::new_client(i, machine, server_shard, n_streams, from, to);
        if wire_faulty {
            shard.set_retry(scenario.rc_timeout, scenario.rc_retry);
        }
        shards.push(shard);
    }
    for (j, m) in servers.iter().enumerate() {
        let fabric = Fabric::new(*m, 0, scenario.cluster.wire);
        let mut shard = Shard::new_server(n_clients + j, fabric, n_streams, from, to);
        if any_stochastic {
            shard.set_retry(scenario.rc_timeout, scenario.rc_retry);
        }
        shard.set_faults(scenario.faults.clone());
        shards.push(shard);
    }

    for (si, stream) in streams.iter().enumerate() {
        let zipfs = StreamZipfs::new(stream);
        // A remote stream runs on its client machines, each offering an
        // even share of the stream's total load; a local one runs on the
        // responder.
        let (hosts, open) = if stream.path.is_remote() {
            let share = stream.open.as_ref().map(|o| o.share(stream.clients.len()));
            (&stream.clients[..], share)
        } else {
            (std::slice::from_ref(&server_shard), stream.open.clone())
        };
        let poster = PosterKind::for_path(stream.path);
        for &i in hosts {
            let m = if i < n_clients {
                &clients[i]
            } else {
                &servers[scenario.server]
            };
            let cost = PostCostModel::new(m, poster).cpu_time_per_request(stream.post_mode);
            shards[i].install_stream(
                si,
                stream,
                &zipfs,
                cost,
                &mut shard_rngs[i],
                open.clone(),
                (n_clients, n_servers),
            );
        }
        if let Some(o) = &stream.open {
            if stream.kv.is_none() && stream.farmem.is_none() {
                // The responder bounds this stream's backlog regardless
                // of where its requesters live. (KV streams fan out over
                // all servers and are served unconditionally; their
                // open-loop mode measures the service under pure offered
                // load, no admission control.)
                shards[server_shard]
                    .install_admission(si, AdmissionQueue::new(o.queue_cap, o.policy));
            }
        }
    }
    // The KV service and the far-memory pool span every server machine.
    // Each server gets its key subset, its (scarce) host serving cores
    // and its SoC pool, plus, for online placement, its own
    // epoch-decision chain. Remote far-memory streams hash global pages
    // across every server's SoC; the local stream only touches the
    // responder's, but installing the pool uniformly keeps one code path.
    // Host cores answer with MMIO posts, SoC cores behind a doorbell.
    let kv = streams.iter().find_map(|s| s.kv.as_ref());
    let fm = streams.iter().find_map(|s| s.farmem.as_ref());
    for (j, m) in servers.iter().enumerate() {
        let shard = &mut shards[n_clients + j];
        if let Some(spec) = kv {
            let host_svc = m.host.cpu.msg_handle_time
                + PostCostModel::new(m, PosterKind::HostCpu).cpu_time_per_request(PostMode::Mmio);
            shard.install_kv_server(KvServer::new(spec, j, n_servers, host_svc, soc_service(m)));
        }
        if let Some(spec) = fm {
            shard.install_fm_server(FmServer::new(spec, soc_service(m)));
        }
    }

    let workers = if scenario.workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        scenario.workers
    };
    let cells: Vec<Mutex<Shard>> = shards.into_iter().map(Mutex::new).collect();
    let stats = runtime::drive(&cells, &mut switch, scenario.duration, workers, grain);
    let shards: Vec<Shard> = cells
        .into_iter()
        .map(|c| c.into_inner().expect("no shard panicked"))
        .collect();
    let outbox_sum = |f: fn(&Outbox) -> u64| -> u64 { shards.iter().map(|s| f(s.outbox())).sum() };
    debug_assert_eq!(
        outbox_sum(Outbox::emitted),
        switch.routed() + switch.dropped() + outbox_sum(Outbox::waiting),
        "every emitted message is routed, lost on the wire or waiting in its outbox"
    );

    // Merge per-stream aggregates and counters in shard-index order —
    // another fixed order, independent of the worker count.
    let results: Vec<ClusterStreamResult> = streams
        .iter()
        .enumerate()
        .map(|(si, stream)| {
            let mut a = StreamAgg::default();
            for shard in &shards {
                a.merge(shard.agg(si));
            }
            ClusterStreamResult {
                label: stream.label.clone(),
                latency: a.hist.summary(),
                ops: Rate::over(a.ops, window),
                goodput: Bandwidth::over(a.bytes, window),
                completions: a.ops,
                offered: Rate::per_sec(stream.open.as_ref().map_or(0.0, |o| o.offered_per_sec())),
                generated: a.generated,
                dropped: a.dropped,
                inflight: a.outstanding,
                completed_total: a.total_completed,
                excess_ns: a.excess_ns,
            }
        })
        .collect();

    let mut registry = Registry::new();
    let mut set = |name: &str, v: u64| {
        let id = registry.counter(name);
        registry.add(id, v);
    };
    let shard_sum =
        |f: fn(&ShardCounters) -> u64| -> u64 { shards.iter().map(|s| f(s.counters())).sum() };
    let stream_sum = |f: fn(&ClusterStreamResult) -> u64| -> u64 { results.iter().map(f).sum() };
    let admission_sum = |f: fn(&AdmissionQueue) -> u64| -> u64 {
        (0..streams.len())
            .filter_map(|si| shards[server_shard].admission(si))
            .map(f)
            .sum()
    };
    set("requests_posted", shard_sum(|c| c.posted));
    set("requests_completed", stream_sum(|r| r.completions));
    set("posts_deferred", shard_sum(|c| c.deferred));
    // The echo server reposts each receive it consumes (§2.4): no SEND meets an empty queue.
    set("rnr_events", 0);
    set("rc_retransmits", shard_sum(|c| c.retransmits));
    set("rc_retry_exhausted", shard_sum(|c| c.retry_exhausted));
    set("dup_responses", shard_sum(|c| c.dup_responses));
    set("msgs_dropped", switch.dropped());
    set("forced_signals", shard_sum(|c| c.forced_signals));
    set("msgs_routed", switch.routed());
    set("epochs", stats.epochs);
    for (i, shard) in shards.iter().enumerate() {
        set(&format!("shard{i:02}_events"), shard.events_delivered());
    }
    set("openloop_generated", stream_sum(|r| r.generated));
    set("openloop_completed", stream_sum(|r| r.completed_total));
    set("openloop_dropped", stream_sum(|r| r.dropped));
    set("openloop_inflight", stream_sum(|r| r.inflight));
    set("openloop_excess_ns", stream_sum(|r| r.excess_ns));
    set("admission_drop_tail", admission_sum(|q| q.dropped_tail()));
    set(
        "admission_drop_deadline",
        admission_sum(|q| q.dropped_deadline()),
    );
    for (si, r) in results.iter().enumerate() {
        set(&format!("stream{si:02}_completed"), r.completions);
    }
    if shards.iter().any(|s| s.kv().is_some()) {
        let kv_sum =
            |f: fn(&KvServer) -> u64| -> u64 { shards.iter().filter_map(|s| s.kv()).map(f).sum() };
        set("kv_gets", kv_sum(|k| k.gets));
        set("kv_puts", kv_sum(|k| k.puts));
        set("kv_probe_trips", kv_sum(|k| k.probe_trips));
        set("kv_path3_retries", kv_sum(|k| k.path3_retries));
        set("kv_decisions", kv_sum(|k| k.decisions));
        set("kv_design_changes", kv_sum(|k| k.design_changes));
        if shards.iter().any(|s| s.has_dpa()) {
            set("kv_dpa_gets", kv_sum(|k| k.dpa_gets));
        }
    }
    // DPA plane conservation counters, emitted only when at least one
    // server carries the plane so DPA-less runs keep byte-identical
    // counter sets: dpa_served == dpa_scratch_hits + dpa_spills.
    if shards.iter().any(|s| s.has_dpa()) {
        let dpa_sum = |f: fn(&nicsim::DpaStats) -> u64| -> u64 {
            shards
                .iter()
                .filter_map(|s| s.dpa_stats())
                .map(|d| f(&d))
                .sum()
        };
        set("dpa_served", dpa_sum(|d| d.served));
        set("dpa_scratch_hits", dpa_sum(|d| d.scratch_hits));
        set("dpa_spills", dpa_sum(|d| d.spills));
    }
    if shards.iter().any(|s| s.fm().is_some()) {
        let host_sum = |f: fn(&FmHost) -> u64| -> u64 {
            shards.iter().flat_map(|s| s.fm_clients()).map(f).sum()
        };
        set("fm_accesses", host_sum(|h| h.accesses()));
        set("fm_host_hits", host_sum(|h| h.table.hits));
        set("fm_promotes", host_sum(|h| h.promotes));
        set("fm_demotions", host_sum(|h| h.table.demotions));
        set("fm_writebacks", host_sum(|h| h.table.writebacks));
        set("fm_put_acks", host_sum(|h| h.put_acked));
        set("fm_path3_retries", host_sum(|h| h.path3_retries));
        let pool_sum =
            |f: fn(&FmServer) -> u64| -> u64 { shards.iter().filter_map(|s| s.fm()).map(f).sum() };
        set("fm_pool_gets", pool_sum(|p| p.cache.gets));
        set("fm_pool_puts", pool_sum(|p| p.cache.puts));
        set("fm_cache_hits", pool_sum(|p| p.cache.hits));
        set("fm_cache_misses", pool_sum(|p| p.cache.misses));
        set("fm_cache_evictions", pool_sum(|p| p.cache.evictions));
        set("fm_cache_writebacks", pool_sum(|p| p.cache.writebacks));
    }

    ClusterResult {
        streams: results,
        window,
        metrics: registry,
        epochs: stats.epochs,
        parallel_epochs: stats.parallel_epochs,
        spare_events: stats.spare,
        messages: switch.routed(),
        workers: stats.workers,
        events: shards.iter().map(|s| s.events_delivered()).sum(),
    }
}

/// The service time of one request on `m`'s SoC cores: the handler plus
/// a reply posted behind a doorbell batch. Zero without a SmartNIC, where
/// `validate` lets no SoC serve.
fn soc_service(m: &MachineSpec) -> Nanos {
    m.nic.smartnic().map_or(Nanos::ZERO, |snic| {
        snic.soc.msg_handle_time
            + PostCostModel::new(m, PosterKind::SocCore)
                .cpu_time_per_request(PostMode::Doorbell(32))
    })
}

/// Whether a KV placement serves from host memory alone, so a server
/// without a SmartNIC can run it.
fn host_only(placement: KvPlacement) -> bool {
    matches!(
        placement,
        KvPlacement::Static(Design::HostRpc | Design::OneSidedRnic | Design::OneSidedSnic)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kv::advisor_policy;
    use snic_kvstore::{KeyDist, Mix};

    fn tiny() -> ClusterScenario {
        let mut sc = ClusterScenario::quick();
        sc.cluster.clients.truncate(3);
        sc
    }

    fn tiny_dpa() -> ClusterScenario {
        let mut sc = tiny();
        sc.cluster.servers = vec![MachineSpec::srv_with_bluefield3_dpa(); sc.cluster.servers.len()];
        sc
    }

    fn kv_spec(placement: KvPlacement) -> KvStreamSpec {
        KvStreamSpec::new(Mix::B, KeyDist::Uniform, placement).with_keys(2000)
    }

    fn cv(r: &ClusterResult, name: &str) -> u64 {
        r.metrics.counter_value(name).unwrap_or(0)
    }

    #[test]
    fn workers_reports_the_count_the_runtime_used() {
        // Three clients and three servers are six shards: workers past
        // the sixth would have nothing to run.
        let mut sc = tiny().with_workers(8);
        sc.duration = Nanos::from_micros(150);
        let st = ClusterStream::new(PathKind::Snic1, Verb::Read, 64, vec![0, 1, 2]);
        assert_eq!(run_cluster(&sc, &[st]).workers, 6);
    }

    #[test]
    fn kv_service_runs_under_every_static_placement() {
        for d in [Design::HostRpc, Design::SocIndex, Design::OneSidedRnic] {
            let sc = tiny().with_workers(1);
            let st = ClusterStream::kv_service(kv_spec(KvPlacement::Static(d)), vec![0, 1, 2]);
            let r = run_cluster(&sc, &[st]);
            assert!(
                r.streams[0].completions > 200,
                "{d:?}: {}",
                r.streams[0].completions
            );
            let gets = cv(&r, "kv_gets");
            let puts = cv(&r, "kv_puts");
            assert!(gets > 0, "{d:?} served no gets");
            assert!(puts > 0, "{d:?} served no puts (mix B has 5% updates)");
            match d {
                Design::OneSidedRnic => assert!(
                    cv(&r, "kv_probe_trips") > gets,
                    "one-sided gets need at least a chain reply + value READ"
                ),
                Design::HostRpc | Design::SocIndex => {
                    assert_eq!(cv(&r, "kv_probe_trips"), 0)
                }
                Design::OneSidedSnic | Design::DpaHandler => unreachable!(),
            }
            assert_eq!(cv(&r, "kv_decisions"), 0, "static placements never decide");
        }
    }

    #[test]
    fn kv_mix_sets_the_read_share() {
        for (mix, reads) in [(Mix::C, 1.0..=1.0), (Mix::A, 0.38..=0.62)] {
            let spec =
                KvStreamSpec::new(mix, KeyDist::Uniform, KvPlacement::Static(Design::HostRpc))
                    .with_keys(2000);
            let st = ClusterStream::kv_service(spec, vec![0, 1, 2]);
            let r = run_cluster(&tiny().with_workers(1), &[st]);
            let (gets, puts) = (cv(&r, "kv_gets"), cv(&r, "kv_puts"));
            let share = gets as f64 / (gets + puts) as f64;
            assert!(reads.contains(&share), "{mix:?} read share {share}");
        }
    }

    #[test]
    fn kv_on_a_plain_rnic_takes_only_host_placements() {
        let mut sc = tiny().with_workers(1);
        sc.cluster = ClusterSpec::rnic_testbed();
        sc.cluster.clients.truncate(2);
        let st = |d| ClusterStream::kv_service(kv_spec(KvPlacement::Static(d)), vec![0, 1]);
        let r = run_cluster(&sc, &[st(Design::OneSidedRnic)]);
        assert!(r.streams[0].completions > 100);
        assert!(cv(&r, "kv_probe_trips") > cv(&r, "kv_gets"));
        let soc = std::panic::AssertUnwindSafe(|| run_cluster(&sc, &[st(Design::SocIndex)]));
        let err = std::panic::catch_unwind(soc).expect_err("SoC index on a ConnectX-6");
        let msg = err.downcast_ref::<String>().expect("a formatted panic");
        assert!(msg.contains("needs a SmartNIC on server 0"), "{msg}");
    }

    #[test]
    fn kv_dpa_placement_serves_gets_on_the_plane_and_conserves() {
        let sc = tiny_dpa().with_workers(1);
        let st = ClusterStream::kv_service(
            kv_spec(KvPlacement::Static(Design::DpaHandler)),
            vec![0, 1, 2],
        );
        let r = run_cluster(&sc, &[st]);
        let gets = cv(&r, "kv_gets");
        assert!(gets > 0);
        // Every get terminated on the plane, and the plane's own
        // conservation holds: served == scratch hits + spills.
        assert_eq!(cv(&r, "kv_dpa_gets"), gets);
        assert_eq!(cv(&r, "dpa_served"), gets);
        assert_eq!(
            cv(&r, "dpa_served"),
            cv(&r, "dpa_scratch_hits") + cv(&r, "dpa_spills")
        );
        // This test's 2k-key shards (~430 KB of index + values) fit the
        // 1 MiB scratch: nothing spills.
        assert_eq!(cv(&r, "dpa_spills"), 0);
        // A DPA-less run of the same shape emits none of the counters.
        let plain = run_cluster(
            &tiny().with_workers(1),
            &[ClusterStream::kv_service(
                kv_spec(KvPlacement::Static(Design::HostRpc)),
                vec![0, 1, 2],
            )],
        );
        assert!(plain.metrics.counter_value("dpa_served").is_none());
        assert!(plain.metrics.counter_value("kv_dpa_gets").is_none());
    }

    #[test]
    fn dpa_stream_terminates_on_the_plane() {
        // A generic SEND stream routed to the DPA: the plane serves
        // every completed request; small working state stays in
        // scratch, a large one spills on every serve.
        for (range, expect_spills) in [(64u64 << 10, false), (8u64 << 20, true)] {
            let sc = tiny_dpa().with_workers(1);
            let st = ClusterStream::new(PathKind::Snic1, Verb::Send, 256, vec![0, 1, 2])
                .with_range(range)
                .with_dpa();
            let r = run_cluster(&sc, &[st]);
            assert!(r.streams[0].completions > 100);
            let served = cv(&r, "dpa_served");
            assert!(served > 0);
            assert_eq!(served, cv(&r, "dpa_scratch_hits") + cv(&r, "dpa_spills"));
            if expect_spills {
                assert_eq!(cv(&r, "dpa_scratch_hits"), 0, "8 MB state must spill");
            } else {
                assert_eq!(cv(&r, "dpa_spills"), 0, "64 KB state fits scratch");
            }
        }
    }

    #[test]
    fn kv_online_advisor_decides_and_stays_worker_invariant() {
        let st = || {
            ClusterStream::kv_service(kv_spec(KvPlacement::Online(advisor_policy)), vec![0, 1, 2])
        };
        let a = run_cluster(&tiny().with_workers(1), &[st()]);
        let b = run_cluster(&tiny().with_workers(3), &[st()]);
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(a.epochs, b.epochs);
        assert_eq!(a.messages, b.messages);
        // 3 servers × (700 µs / 50 µs epochs, last one past the horizon).
        assert!(
            cv(&a, "kv_decisions") >= 3 * 10,
            "{}",
            cv(&a, "kv_decisions")
        );
        assert_eq!(cv(&a, "kv_decisions"), cv(&b, "kv_decisions"));
        assert_eq!(cv(&a, "kv_design_changes"), cv(&b, "kv_design_changes"));
    }

    #[test]
    fn kv_open_loop_conserves_ops() {
        let sc = tiny().with_workers(1);
        let st =
            ClusterStream::kv_service(kv_spec(KvPlacement::Static(Design::HostRpc)), vec![0, 1, 2])
                .open_loop(OpenLoopSpec::poisson(2.0e6));
        let r = run_cluster(&sc, &[st]);
        let s = &r.streams[0];
        assert!(s.generated > 500, "{}", s.generated);
        assert!(s.completed_total > 0);
        assert_eq!(s.dropped, 0, "the KV service has no admission queue");
        assert_eq!(s.generated, s.completed_total + s.inflight);
    }

    #[test]
    fn single_stream_produces_throughput() {
        let sc = tiny().with_workers(1);
        let st = ClusterStream::new(PathKind::Snic1, Verb::Read, 64, vec![0, 1, 2]);
        let r = run_cluster(&sc, &[st]);
        assert_eq!(r.streams.len(), 1);
        assert!(
            r.streams[0].completions > 1000,
            "{}",
            r.streams[0].completions
        );
        assert!(
            r.streams[0].latency.p50 > Nanos::new(900),
            "one-way wire is 450ns x2"
        );
        assert!(r.epochs > 0);
        assert!(r.messages > 0);
    }

    #[test]
    fn path3_stream_needs_no_clients() {
        let sc = tiny().with_workers(1);
        let st = ClusterStream::new(PathKind::Snic3H2S, Verb::Write, 256, vec![]);
        let r = run_cluster(&sc, &[st]);
        assert!(r.streams[0].completions > 1000);
        // Path 3 never crosses the switch.
        assert_eq!(r.messages, 0);
    }

    #[test]
    fn worker_counts_do_not_change_results() {
        let st = || ClusterStream::new(PathKind::Snic1, Verb::Write, 512, vec![0, 1, 2]);
        let a = run_cluster(&tiny().with_workers(1), &[st()]);
        let b = run_cluster(&tiny().with_workers(3), &[st()]);
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(a.epochs, b.epochs);
        assert_eq!(a.messages, b.messages);
    }

    #[test]
    fn open_loop_stream_conserves_ops() {
        let sc = tiny().with_workers(1);
        let st = ClusterStream::new(PathKind::Snic1, Verb::Write, 256, vec![0, 1, 2])
            .open_loop(OpenLoopSpec::poisson(3.0e6));
        let r = run_cluster(&sc, &[st]);
        let s = &r.streams[0];
        assert!(s.generated > 500, "{}", s.generated);
        assert!(s.completed_total > 0);
        assert_eq!(s.generated, s.completed_total + s.dropped + s.inflight);
        assert!((s.offered.as_per_sec() - 3.0e6).abs() < 1.0);
        assert!(r.to_csv().contains("offered_per_sec"));
    }

    #[test]
    fn open_loop_overload_sheds_load() {
        let sc = tiny().with_workers(1);
        let st = ClusterStream::new(PathKind::Snic1, Verb::Write, 512, vec![0, 1, 2])
            .open_loop(OpenLoopSpec::poisson(60.0e6).with_queue_cap(16));
        let r = run_cluster(&sc, &[st]);
        let s = &r.streams[0];
        assert!(s.dropped > 0, "overload at queue cap 16 must shed load");
        assert_eq!(s.generated, s.completed_total + s.dropped + s.inflight);
    }

    #[test]
    fn open_loop_path3_runs_locally() {
        let sc = tiny().with_workers(1);
        let st = ClusterStream::new(PathKind::Snic3H2S, Verb::Write, 256, vec![])
            .open_loop(OpenLoopSpec::poisson(2.0e6));
        let r = run_cluster(&sc, &[st]);
        let s = &r.streams[0];
        assert!(s.completed_total > 0);
        assert_eq!(s.inflight, 0, "path-3 open-loop ops retire synchronously");
        assert_eq!(s.generated, s.completed_total + s.dropped);
        assert_eq!(r.messages, 0);
    }

    #[test]
    fn farmem_local_runs_and_conserves_ops() {
        let sc = tiny().with_workers(1);
        let st = ClusterStream::fm_service(FmStreamSpec::new(FmPlacement::LocalSoc), vec![])
            .open_loop(OpenLoopSpec::poisson(2.0e6));
        let r = run_cluster(&sc, &[st]);
        let s = &r.streams[0];
        assert!(s.generated > 200, "{}", s.generated);
        assert_eq!(s.dropped, 0, "far-memory streams have no admission queue");
        assert_eq!(s.inflight, 0, "path-③ promotions retire synchronously");
        assert_eq!(s.generated, s.completed_total);
        assert!(cv(&r, "fm_promotes") > 0, "cold misses must promote");
        assert!(cv(&r, "fm_demotions") > 0, "idle pages must age out");
        assert!(
            cv(&r, "fm_host_hits") > 0,
            "working-set reuse must hit resident pages"
        );
        assert_eq!(r.messages, 0, "local far memory never crosses the switch");
    }

    #[test]
    fn farmem_remote_runs_and_conserves_ops() {
        let sc = tiny().with_workers(1);
        let st =
            ClusterStream::fm_service(FmStreamSpec::new(FmPlacement::RemoteSoc), vec![0, 1, 2])
                .open_loop(OpenLoopSpec::poisson(2.0e6));
        let r = run_cluster(&sc, &[st]);
        let s = &r.streams[0];
        assert!(s.generated > 200, "{}", s.generated);
        assert_eq!(s.dropped, 0, "far-memory streams have no admission queue");
        assert_eq!(s.generated, s.completed_total + s.inflight);
        assert!(cv(&r, "fm_pool_gets") > 0, "misses must reach the pool");
        assert!(
            cv(&r, "fm_put_acks") <= cv(&r, "fm_writebacks"),
            "acks cannot outrun posted write-backs"
        );
        assert!(r.messages > 0, "remote promotions cross the switch");
    }

    #[test]
    fn farmem_and_kv_mix_under_pcie_faults() {
        let mut sc = tiny().with_workers(1);
        sc.faults = FaultSpec::none().with_pcie_corrupt(0.05);
        let kv =
            ClusterStream::kv_service(kv_spec(KvPlacement::Static(Design::SocIndex)), vec![0, 1]);
        let fm = ClusterStream::fm_service(FmStreamSpec::new(FmPlacement::LocalSoc), vec![]);
        let r = run_cluster(&sc, &[kv, fm]);
        assert!(r.streams[0].completions > 100, "KV starved in the mix");
        assert!(
            r.streams[1].completions > 100,
            "far memory starved in the mix"
        );
        assert!(
            cv(&r, "fm_path3_retries") > 0,
            "stochastic PCIe corruption must roll path-③ retries"
        );
    }

    #[test]
    fn farmem_worker_counts_do_not_change_results() {
        let st = || {
            ClusterStream::fm_service(FmStreamSpec::new(FmPlacement::RemoteSoc), vec![0, 1, 2])
                .open_loop(OpenLoopSpec::poisson(1.5e6))
        };
        let a = run_cluster(&tiny().with_workers(1), &[st()]);
        let b = run_cluster(&tiny().with_workers(3), &[st()]);
        assert_eq!(a.to_csv(), b.to_csv());
        assert_eq!(a.messages, b.messages);
    }

    #[test]
    #[should_panic(expected = "local far memory")]
    fn local_farmem_rejects_clients() {
        let _ = ClusterStream::fm_service(FmStreamSpec::new(FmPlacement::LocalSoc), vec![0]);
    }

    /// A run whose warmup is the whole run (a zero-horizon set-up call)
    /// has an empty measured window: its rates and its CSV read zero,
    /// not NaN.
    #[test]
    fn empty_window_reports_zero_rates() {
        let mut sc = tiny().with_workers(1);
        (sc.warmup, sc.duration) = (Nanos::ZERO, Nanos::ZERO);
        let st = ClusterStream::new(PathKind::Snic1, Verb::Read, 64, vec![0]);
        let r = run_cluster(&sc, &[st]);
        let s = &r.streams[0];
        assert_eq!(s.ops.as_per_sec(), 0.0);
        assert_eq!(s.goodput.as_bytes_per_sec(), 0.0);
        let csv = r.to_csv();
        assert!(!csv.contains("NaN"), "{csv}");
    }

    #[test]
    #[should_panic(expected = "warmup (300.000us) exceeds duration (200.000us)")]
    fn warmup_past_the_run_is_rejected() {
        let mut sc = tiny().with_workers(1);
        (sc.warmup, sc.duration) = (Nanos::from_micros(300), Nanos::from_micros(200));
        let st = ClusterStream::new(PathKind::Snic1, Verb::Read, 64, vec![0]);
        run_cluster(&sc, &[st]);
    }

    #[test]
    #[should_panic(expected = "has 65537 threads per client, but rack events index at most 65536")]
    fn threads_past_the_event_index_are_rejected() {
        let mut sc = tiny().with_workers(1);
        (sc.warmup, sc.duration) = (Nanos::ZERO, Nanos::from_micros(1));
        let st = ClusterStream::new(PathKind::Snic1, Verb::Read, 64, vec![0]).with_threads(65_537);
        run_cluster(&sc, &[st]);
    }

    #[test]
    #[should_panic(expected = "missing client")]
    fn missing_client_is_rejected() {
        let sc = tiny();
        let st = ClusterStream::new(PathKind::Snic1, Verb::Read, 64, vec![99]);
        run_cluster(&sc, &[st]);
    }

    #[test]
    #[should_panic(
        expected = "far-memory stream 'fm-remote' pools its pages on every server's SoC, \
                    which needs a SmartNIC on server 1"
    )]
    fn farmem_pool_rejects_an_rnic_server() {
        // The responder carries a SmartNIC, so only the pool's check
        // sees the plain RNIC on server 1.
        let mut sc = tiny();
        sc.cluster.servers[1] = MachineSpec::srv_with_rnic();
        let st =
            ClusterStream::fm_service(FmStreamSpec::new(FmPlacement::RemoteSoc), vec![0, 1, 2]);
        run_cluster(&sc, &[st]);
    }

    #[test]
    #[should_panic(expected = "stream 'SNIC(1) READ' lists client 0 twice")]
    fn duplicate_client_is_rejected() {
        let st = ClusterStream::new(PathKind::Snic1, Verb::Read, 64, vec![0, 1, 0]);
        run_cluster(&tiny(), &[st]);
    }

    #[test]
    #[should_panic(expected = "needs a SmartNIC")]
    fn smartnic_path_rejected_on_rnic_cluster() {
        let mut sc = tiny();
        sc.cluster = ClusterSpec::rnic_testbed();
        sc.cluster.clients.truncate(2);
        let st = ClusterStream::new(PathKind::Snic2, Verb::Read, 64, vec![0]);
        run_cluster(&sc, &[st]);
    }
}
