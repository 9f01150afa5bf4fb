//! Shards: one machine per shard, each with a private event engine.
//!
//! A shard is `{ engine, io, role }`. [`Io`] is the bookkeeping every
//! machine shares: the stream slices it hosts, their aggregates and
//! counters, the outbox and the retry settings. The [`Role`] holds the
//! machine model plus the state only that role uses:
//!
//! * a client shard ([`client`]) owns a `nicsim::ClientMachine`, its
//!   table of outstanding (retransmittable) ops and its in-flight KV
//!   gets, and runs the requester side of every remote stream that
//!   lists it;
//! * a server shard ([`server`]) owns a full `nicsim::Fabric` (with zero
//!   embedded clients — real clients live in their own shards), its
//!   receive queue, the admission queues and the KV / far-memory serving
//!   state; it answers inbound requests and runs the path-3 streams that
//!   never leave the machine.
//!
//! [`Shard::run_until`] dispatches each event to the role's handler.
//! Shards communicate only through [`NetMsg`]s collected at epoch
//! barriers, which is what makes them safe to simulate on parallel OS
//! threads.

mod client;
mod server;

use std::collections::VecDeque;

use nicsim::{ClientMachine, DpaStats, Fabric, PathKind, Verb};
use rdma_sim::transport::SignalTracker;
use simnet::arrivals::{user_home_addr, AdmissionQueue, ArrivalGen, OpenLoopSpec};
use simnet::engine::Engine;
use simnet::faults::FaultSpec;
use simnet::resource::MultiServer;
use simnet::rng::{SimRng, Zipf};
use simnet::stats::Histogram;
use simnet::time::Nanos;

use crate::fm::{FmHost, FmServer};
use crate::kv::{KvServer, KV_DECISION_EVERY};
use crate::msg::{MsgKind, NetMsg, ShardId};
use crate::scenario::ClusterStream;

use client::Client;
use server::Server;

/// Address alignment of generated accesses (one cache line).
const ADDR_ALIGN: u64 = 64;

/// A shard-local event.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    /// A requester thread (re)fills one slot of its window.
    Post {
        /// Global stream index.
        stream: u16,
        /// Thread index within this shard's stream.
        thread: u16,
    },
    /// A message delivered by the switch.
    Arrive {
        /// Message payload.
        kind: MsgKind,
        /// Wire payload bytes.
        bytes: u64,
        /// Emitting shard (responses are routed back to it).
        from: ShardId,
        /// When the full transfer has drained through the destination
        /// port (completions cannot precede this).
        drained: Nanos,
    },
    /// A requester-side ack timeout: fires `rc_timeout` after an
    /// attempt departed. Acts only if the operation is still
    /// outstanding *at the same attempt number* (a response or a later
    /// retransmission makes it a no-op).
    Timeout {
        /// Transaction id of the guarded operation.
        xid: u64,
        /// Attempt number this timeout was armed for.
        attempt: u32,
    },
    /// A KV epoch boundary on a server shard: the online advisor closes
    /// its observation window and re-decides the index placement. Fires
    /// at fixed simulated instants from shard-local state only, so
    /// worker-count byte-invariance is preserved.
    KvEpoch,
}

/// Per-stream measurement aggregate on one shard.
///
/// The open-loop fields (`generated` and below) stay zero for
/// closed-loop streams; they cover the *whole* run (not just the
/// measurement window) so the ops-conservation invariant
/// `generated == total_completed + dropped + outstanding` holds exactly
/// at the horizon.
#[derive(Default)]
pub(crate) struct StreamAgg {
    pub hist: Histogram,
    pub ops: u64,
    pub bytes: u64,
    /// Open-loop arrivals generated on this shard.
    pub generated: u64,
    /// Open-loop ops rejected by the responder's admission queue
    /// (counted at the requester when the NACK arrives, so in-flight
    /// NACKs stay in `outstanding`).
    pub dropped: u64,
    /// Open-loop completions at any instant inside the run.
    pub total_completed: u64,
    /// Open-loop ops issued but not yet completed or dropped.
    pub outstanding: u64,
    /// Summed issue slip past the intended arrival (CPU-side excess
    /// delay, the part coordinated omission would have hidden).
    pub excess_ns: u64,
}

/// Shard-local counters, merged into the result registry in shard order.
#[derive(Default)]
pub(crate) struct ShardCounters {
    pub posted: u64,
    pub deferred: u64,
    pub forced_signals: u64,
    pub retransmits: u64,
    pub retry_exhausted: u64,
    pub dup_responses: u64,
}

struct LocalThread {
    cpu_free: Nanos,
    rng: SimRng,
    signal: SignalTracker,
    /// Closed-loop posts so far (salts path-3 fault verdicts).
    posts: u64,
}

/// Open-loop state of a stream's shard-local slice: the arrival chain
/// plus the posting-core pool that turns intended arrivals into issues
/// (its backlog is the *excess delay* a closed loop would hide).
struct OpenLocal {
    gen: ArrivalGen,
    posters: MultiServer,
    /// Logical user of the arrival event currently scheduled (drawn
    /// together with its instant; events only carry u16 indices).
    next_user: u64,
}

/// Client-side slice of the KV service stream: the op generator. The
/// client only picks keys and routes them — which CPU (if any) serves
/// a get is the *server's* current placement decision, invisible here
/// until the reply's shape (value vs. probe chain) comes back.
struct KvClient {
    read_fraction: f64,
    zipf: Option<Zipf>,
    n_keys: u64,
    value_size: u32,
    n_clients: usize,
    n_servers: usize,
}

/// The Zipf tables of one stream, built once per run and shared by
/// every shard that installs the stream.
pub(crate) struct StreamZipfs {
    /// Over a KV stream's keys, when they are Zipf-distributed.
    keys: Option<Zipf>,
    /// Over a far-memory stream's working-set pages.
    pages: Option<Zipf>,
}

impl StreamZipfs {
    /// Builds the tables `stream` draws its keys or pages from.
    pub(crate) fn new(stream: &ClusterStream) -> Self {
        StreamZipfs {
            keys: stream.kv.and_then(|spec| match spec.dist {
                snic_kvstore::KeyDist::Zipf(theta) => Some(Zipf::new(spec.n_keys as usize, theta)),
                snic_kvstore::KeyDist::Uniform => None,
            }),
            pages: stream
                .farmem
                .map(|spec| Zipf::new(spec.working_set as usize, spec.theta)),
        }
    }
}

/// A stream's shard-local slice: config + its requester threads
/// (closed loop) or arrival generator (open loop).
struct LocalStream {
    verb: Verb,
    path: PathKind,
    payload: u64,
    addr_range: u64,
    cpu_cost: Nanos,
    threads: Vec<LocalThread>,
    open: Option<OpenLocal>,
    kv: Option<KvClient>,
    fm: Option<FmHost>,
    dpa: bool,
}

impl LocalStream {
    /// The target address of one raw op: an open-loop arrival hits its
    /// user's home line, a closed-loop post a random line of the range.
    fn addr(&mut self, thread: u16, user: Option<u64>) -> u64 {
        if self.addr_range < ADDR_ALIGN {
            return 0;
        }
        match user {
            Some(u) => user_home_addr(u, 0, self.addr_range, ADDR_ALIGN),
            None => self.threads[thread as usize]
                .rng
                .addr_in_range(0, self.addr_range, ADDR_ALIGN),
        }
    }

    /// A raw-verb request and its outbound wire payload. `posted` is the
    /// intended arrival (open loop) or post instant (closed loop), echoed
    /// back so latency spans the whole op, retransmissions included.
    fn request(
        &self,
        stream: u16,
        thread: u16,
        addr: u64,
        posted: Nanos,
        xid: u64,
    ) -> (u64, MsgKind) {
        let outbound = match self.verb {
            Verb::Read => 0,
            Verb::Write | Verb::Send => self.payload,
        };
        let kind = MsgKind::Request {
            verb: self.verb,
            payload: self.payload,
            addr,
            endpoint: self.path.responder(),
            stream,
            thread,
            posted,
            xid,
            dpa_resident: self.dpa.then_some(self.addr_range),
        };
        (outbound, kind)
    }
}

/// A paced post: when it actually issues, and — for an open-loop
/// arrival — the logical user drawn with it.
#[derive(Clone, Copy)]
struct Issue {
    start: Nanos,
    user: Option<u64>,
}

/// Every message this shard emitted that the switch has not routed yet,
/// stamped with this shard as source and a per-source sequence number
/// (the merge tie-breaker). A machine emits only through one FIFO wire
/// direction (`ClientMachine::issue` on a client, the reply site of
/// `Server::receive` on a server), so departures never decrease: the
/// queue is in key order, and the merge takes a prefix.
pub(crate) struct Outbox {
    src: ShardId,
    seq: u64,
    msgs: VecDeque<NetMsg>,
}

impl Outbox {
    pub(crate) fn new(src: ShardId) -> Self {
        Outbox {
            src,
            seq: 0,
            msgs: VecDeque::new(),
        }
    }

    /// Queues a message, departing no earlier than the last one queued.
    pub(crate) fn push(&mut self, dst: ShardId, depart: Nanos, bytes: u64, kind: MsgKind) {
        let last = self.msgs.back().map_or(Nanos::ZERO, |m| m.depart);
        assert!(last <= depart, "departure {depart:?} precedes {last:?}");
        self.msgs.push_back(NetMsg {
            src: self.src,
            dst,
            seq: self.seq,
            depart,
            bytes,
            kind,
        });
        self.seq += 1;
    }

    /// The earliest queued departure.
    pub(crate) fn front(&self) -> Option<Nanos> {
        self.msgs.front().map(|m| m.depart)
    }

    /// Moves the queued messages departing before `end` into `into`.
    pub(crate) fn take_due(&mut self, end: Nanos, into: &mut Vec<NetMsg>) {
        while self.msgs.front().is_some_and(|m| m.depart < end) {
            into.extend(self.msgs.pop_front());
        }
    }

    /// Messages emitted so far.
    pub(crate) fn emitted(&self) -> u64 {
        self.seq
    }

    /// Messages queued.
    pub(crate) fn waiting(&self) -> u64 {
        self.msgs.len() as u64
    }
}

/// Returns the current value of an id allocator and advances it.
fn next_id(counter: &mut u64) -> u64 {
    let id = *counter;
    *counter += 1;
    id
}

/// The far-memory host slice of `stream`.
fn fm_host(streams: &mut [Option<LocalStream>], stream: u16) -> &mut FmHost {
    streams[stream as usize]
        .as_mut()
        .and_then(|st| st.fm.as_mut())
        .expect("far-memory event for a stream without a host slice")
}

/// The bookkeeping every shard shares, whatever its role.
struct Io {
    id: ShardId,
    streams: Vec<Option<LocalStream>>,
    aggs: Vec<StreamAgg>,
    counters: ShardCounters,
    outbox: Outbox,
    measure_from: Nanos,
    measure_to: Nanos,
    /// `(ack timeout, retry budget)` when transport recovery is armed
    /// (stochastic faults active); `None` keeps the fault-free event
    /// schedule byte-identical to a build without fault injection.
    retry: Option<(Nanos, u32)>,
    /// Transaction ids: request xids on clients, fault-verdict salts on
    /// servers.
    next_xid: u64,
}

impl Io {
    fn stream(&mut self, stream: u16) -> &mut LocalStream {
        self.streams[stream as usize]
            .as_mut()
            .expect("event for a stream not installed on this shard")
    }

    /// Paces one post of `stream`. An open-loop post is an *intended
    /// arrival*: it chains its successor, queues for a posting core and
    /// enters `outstanding`; latency is later measured from `now` no
    /// matter how late the core gets to it — the gap coordinated
    /// omission would hide. A closed-loop thread whose CPU is still busy
    /// defers instead of reserving ahead, so FIFO resources stay
    /// available to earlier posts (`None`).
    fn pace(
        &mut self,
        eng: &mut Engine<Ev>,
        now: Nanos,
        stream: u16,
        thread: u16,
    ) -> Option<Issue> {
        let si = stream as usize;
        let st = self.streams[si]
            .as_mut()
            .expect("post event for a stream not installed on this shard");
        let (start, user) = if let Some(open) = st.open.as_mut() {
            let user = open.next_user;
            let next = open.gen.next_arrival();
            open.next_user = next.user;
            eng.schedule(next.at, Ev::Post { stream, thread: 0 })
                .expect("arrival chain advances strictly");
            let start = open.posters.reserve(now, st.cpu_cost).start;
            let agg = &mut self.aggs[si];
            agg.generated += 1;
            agg.excess_ns += start.saturating_sub(now).as_nanos();
            agg.outstanding += 1;
            (start, Some(user))
        } else {
            let th = &mut st.threads[thread as usize];
            if th.cpu_free > now {
                self.counters.deferred += 1;
                eng.schedule(th.cpu_free, Ev::Post { stream, thread })
                    .expect("deferred post is in the future");
                return None;
            }
            th.cpu_free = now + st.cpu_cost;
            if th.signal.on_post() {
                self.counters.forced_signals += 1;
            }
            (now, None)
        };
        self.counters.posted += 1;
        Some(Issue { start, user })
    }

    /// Retires one op of `stream` completing at `completed`: an
    /// open-loop op leaves `outstanding`, an in-window op is sampled
    /// from `posted`, and a closed-loop op refills its window slot.
    fn retire(
        &mut self,
        eng: &mut Engine<Ev>,
        now: Nanos,
        stream: u16,
        thread: u16,
        posted: Nanos,
        completed: Nanos,
    ) {
        let si = stream as usize;
        let st = self.streams[si]
            .as_ref()
            .expect("completion for a stream not installed on this shard");
        let a = &mut self.aggs[si];
        if st.open.is_some() {
            a.total_completed += 1;
            a.outstanding -= 1;
        }
        if completed > self.measure_from && completed <= self.measure_to {
            a.hist.record(completed.saturating_sub(posted));
            a.ops += 1;
            a.bytes += st.payload;
        }
        if st.open.is_none() {
            eng.schedule(completed.max(now), Ev::Post { stream, thread })
                .expect("completion is in the future");
        }
    }

    /// Accounts an open-loop op rejected by admission control.
    fn drop_op(&mut self, stream: u16) {
        let a = &mut self.aggs[stream as usize];
        a.dropped += 1;
        a.outstanding -= 1;
    }
}

/// The machine a shard models, with the state only that role uses.
enum Role {
    Client(Client),
    Server(Box<Server>),
}

/// One machine of the cluster with its private engine and resources.
pub(crate) struct Shard {
    engine: Engine<Ev>,
    io: Io,
    role: Role,
}

impl Shard {
    fn new(
        id: ShardId,
        role: Role,
        n_streams: usize,
        measure_from: Nanos,
        measure_to: Nanos,
    ) -> Self {
        Shard {
            engine: Engine::new(),
            io: Io {
                id,
                streams: (0..n_streams).map(|_| None).collect(),
                aggs: (0..n_streams).map(|_| StreamAgg::default()).collect(),
                counters: ShardCounters::default(),
                outbox: Outbox::new(id),
                measure_from,
                measure_to,
                retry: None,
                next_xid: 0,
            },
            role,
        }
    }

    /// A requester machine shard.
    pub(crate) fn new_client(
        id: ShardId,
        machine: ClientMachine,
        server_shard: ShardId,
        n_streams: usize,
        measure_from: Nanos,
        measure_to: Nanos,
    ) -> Self {
        let role = Role::Client(Client::new(machine, server_shard));
        Shard::new(id, role, n_streams, measure_from, measure_to)
    }

    /// A responder machine shard.
    pub(crate) fn new_server(
        id: ShardId,
        fabric: Fabric,
        n_streams: usize,
        measure_from: Nanos,
        measure_to: Nanos,
    ) -> Self {
        let role = Role::Server(Box::new(Server::new(fabric, n_streams)));
        Shard::new(id, role, n_streams, measure_from, measure_to)
    }

    fn server(&self) -> Option<&Server> {
        match &self.role {
            Role::Server(s) => Some(s),
            Role::Client(_) => None,
        }
    }

    fn server_mut(&mut self) -> &mut Server {
        match &mut self.role {
            Role::Server(s) => s,
            Role::Client(_) => panic!("serving state installed on client shard {}", self.io.id),
        }
    }

    /// Arms transport recovery: an ack timeout and retry budget for
    /// this shard's requester threads (clients: timeout/retransmit over
    /// the wire; servers: synchronous path-3 retries).
    pub(crate) fn set_retry(&mut self, timeout: Nanos, retry_cnt: u32) {
        self.io.retry = Some((timeout, retry_cnt));
    }

    /// Installs the fault schedule on a server shard's fabric (PCIe
    /// degradation windows and per-crossing TLP verdicts).
    pub(crate) fn set_faults(&mut self, spec: FaultSpec) {
        self.server_mut().fabric.set_faults(spec);
    }

    /// Installs a stream's shard-local slice and seeds its initial
    /// events. Closed loop (`open == None`): `threads_per_client`
    /// requester threads, each with `stream.window` outstanding slots,
    /// seeded with jittered posts so same-instant FIFO ordering does not
    /// favour stream 0. Open loop: an arrival generator (the spec must
    /// already carry this shard's *share* of the offered load) whose
    /// chain of intended-arrival events replaces the window; the threads
    /// become posting cores that bound the issue rate, and any slip past
    /// the intended arrival is recorded as excess delay.
    ///
    /// A KV stream's slice turns its posts into KV ops routed to each
    /// key's home server; a far-memory slice turns them into page
    /// accesses against this host's residency table.
    ///
    /// # Panics
    ///
    /// Panics if the stream was already installed on this shard (a
    /// duplicate client index in `ClusterStream::clients`).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn install_stream(
        &mut self,
        idx: usize,
        stream: &ClusterStream,
        zipfs: &StreamZipfs,
        cpu_cost: Nanos,
        rng: &mut SimRng,
        open: Option<OpenLoopSpec>,
        (n_clients, n_servers): (usize, usize),
    ) {
        assert!(
            self.io.streams[idx].is_none(),
            "stream {idx} installed twice on shard {} (duplicate client index?)",
            self.io.id
        );
        let n_threads = stream.threads_per_client;
        let mut open_rng = rng.fork(((idx as u64) << 32) | 0xA11);
        let threads = (0..n_threads)
            .map(|t| LocalThread {
                cpu_free: Nanos::ZERO,
                rng: rng.fork(((idx as u64) << 32) | t as u64),
                signal: SignalTracker::new(),
                posts: 0,
            })
            .collect();
        // Open loop: seed the arrival chain with one pending intended
        // arrival; each delivery schedules its successor.
        let post = |thread: usize| Ev::Post {
            stream: idx as u16,
            thread: thread as u16,
        };
        let open = open.map(|spec| {
            let mut gen = ArrivalGen::new(spec.process.clone(), spec.users, open_rng.fork(1));
            let first = gen.next_arrival();
            self.engine
                .schedule(first.at, post(0))
                .expect("first arrival is not in the past");
            OpenLocal {
                gen,
                posters: MultiServer::new(n_threads.max(1)),
                next_user: first.user,
            }
        });
        if open.is_none() {
            for t in 0..n_threads {
                for w in 0..stream.window {
                    let jitter = Nanos::new((idx + t * 7 + w * 13) as u64 % 97);
                    self.engine
                        .schedule(jitter, post(t))
                        .expect("seeding events at t~0");
                }
            }
        }
        let kv = stream.kv.as_ref().map(|spec| KvClient {
            read_fraction: spec.mix.read_fraction(),
            zipf: zipfs.keys.clone(),
            n_keys: spec.n_keys,
            value_size: spec.value_size,
            n_clients,
            n_servers,
        });
        let fm = stream.farmem.zip(zipfs.pages.clone()).map(|(spec, zipf)| {
            let rng = rng.fork(((idx as u64) << 32) | 0xFA12);
            FmHost::new(spec, rng, zipf, n_clients, n_servers)
        });
        self.io.streams[idx] = Some(LocalStream {
            verb: stream.verb,
            path: stream.path,
            payload: stream.payload,
            addr_range: stream.addr_range,
            cpu_cost,
            threads,
            open,
            kv,
            fm,
            dpa: stream.dpa,
        });
    }

    /// Installs the far-memory pool state on this (server) shard.
    pub(crate) fn install_fm_server(&mut self, fm: FmServer) {
        self.server_mut().fm = Some(fm);
    }

    /// The shard's far-memory pool state, if any.
    pub(crate) fn fm(&self) -> Option<&FmServer> {
        self.server()?.fm.as_ref()
    }

    /// Every far-memory host slice installed on this shard.
    pub(crate) fn fm_clients(&self) -> impl Iterator<Item = &FmHost> + '_ {
        self.io
            .streams
            .iter()
            .filter_map(|s| s.as_ref().and_then(|st| st.fm.as_ref()))
    }

    /// Installs the KV serving state on this (server) shard and, for
    /// online placements, seeds the epoch chain.
    pub(crate) fn install_kv_server(&mut self, kv: KvServer) {
        if kv.policy.is_some() {
            self.engine
                .schedule(KV_DECISION_EVERY, Ev::KvEpoch)
                .expect("first KV epoch is in the future");
        }
        self.server_mut().kv = Some(kv);
    }

    /// The shard's KV serving state, if any.
    pub(crate) fn kv(&self) -> Option<&KvServer> {
        self.server()?.kv.as_ref()
    }

    /// Whether this (server) shard's SmartNIC carries a DPA plane.
    pub(crate) fn has_dpa(&self) -> bool {
        self.server().is_some_and(|s| s.fabric.server.has_dpa())
    }

    /// The DPA plane's serving counters, when the plane exists.
    pub(crate) fn dpa_stats(&self) -> Option<DpaStats> {
        self.server()?.fabric.server.dpa_stats()
    }

    /// Installs an admission queue guarding `idx` on this (server)
    /// shard: every inbound open-loop request of the stream passes
    /// through it before reserving responder resources.
    pub(crate) fn install_admission(&mut self, idx: usize, queue: AdmissionQueue) {
        self.server_mut().admission[idx] = Some(queue);
    }

    /// The admission queue guarding stream `idx`, if one is installed.
    pub(crate) fn admission(&self, idx: usize) -> Option<&AdmissionQueue> {
        self.server()?.admission[idx].as_ref()
    }

    /// The delivery time of the shard's next pending event, if any.
    pub(crate) fn peek_time(&self) -> Option<Nanos> {
        self.engine.peek_time()
    }

    /// Events delivered by this shard's engine so far.
    pub(crate) fn events_delivered(&self) -> u64 {
        self.engine.delivered()
    }

    /// The messages this shard emitted that are not routed yet.
    pub(crate) fn outbox(&self) -> &Outbox {
        &self.io.outbox
    }

    /// The same, for the merge to take the due ones.
    pub(crate) fn outbox_mut(&mut self) -> &mut Outbox {
        &mut self.io.outbox
    }

    /// Schedules a switch-delivered message into the shard's engine.
    /// `arrive` is always at least one lookahead past the emitting
    /// event, so it can never land in this shard's past.
    pub(crate) fn deliver(&mut self, arrive: Nanos, m: &NetMsg, drained: Nanos) {
        let ev = Ev::Arrive {
            kind: m.kind,
            bytes: m.bytes,
            from: m.src,
            drained,
        };
        self.engine
            .schedule(arrive, ev)
            .expect("lookahead guarantees delivery is in the future");
    }

    /// Per-stream aggregate.
    pub(crate) fn agg(&self, idx: usize) -> &StreamAgg {
        &self.io.aggs[idx]
    }

    /// Shard-local counters.
    pub(crate) fn counters(&self) -> &ShardCounters {
        &self.io.counters
    }

    /// Runs all shard-local events with `time <= deadline` (one epoch),
    /// handing each to the role that owns it.
    pub(crate) fn run_until(&mut self, deadline: Nanos) {
        let Shard { engine, io, role } = self;
        engine.run_until(deadline, |eng, now, ev| match (ev, &mut *role) {
            (Ev::Post { stream, thread }, Role::Client(c)) => c.post(io, eng, now, stream, thread),
            (Ev::Post { stream, thread }, Role::Server(s)) => s.post(io, eng, now, stream, thread),
            (
                Ev::Arrive {
                    kind,
                    bytes,
                    drained,
                    ..
                },
                Role::Client(c),
            ) => c.receive(io, eng, now, kind, bytes, drained),
            (
                Ev::Arrive {
                    kind,
                    bytes,
                    from,
                    drained,
                },
                Role::Server(s),
            ) => s.receive(io, now, kind, bytes, from, drained),
            (Ev::Timeout { xid, attempt }, Role::Client(c)) => {
                c.timeout(io, eng, now, xid, attempt)
            }
            (Ev::KvEpoch, Role::Server(s)) => s.kv_epoch(eng, now),
            (Ev::Timeout { .. }, Role::Server(_)) | (Ev::KvEpoch, Role::Client(_)) => {
                unreachable!("event armed on the wrong shard role")
            }
        });
    }
}
