//! Conservative-lookahead epoch executor.
//!
//! Time is diced into epochs of length `L = SwitchFabric::lookahead()`
//! (the wire's one-way latency). Within epoch `k` — the half-open
//! interval `[kL, (k+1)L)` — shards cannot interact: any message emitted
//! by an event at time `t` departs at `depart >= t` and arrives no
//! earlier than `depart + L >= (k+1)L`, i.e. in a later epoch. So all
//! shards run one epoch in parallel, then the calling thread merges their
//! outboxes in global `(depart, src, seq)` order, arbitrates switch
//! ports single-threaded, and schedules the arrivals. Because both the
//! per-epoch work and the merge order are independent of how shards are
//! assigned to threads, the simulation is byte-identical for any
//! worker count.
//!
//! Empty epochs are skipped: the driver jumps straight to the next
//! pending instant (minimum over shard engines and undelivered
//! messages), so wall-clock cost scales with events, not with horizon /
//! lookahead.
//!
//! The hot path avoids per-epoch full scans with a lock-free cache of
//! each shard's next event time (`AtomicU64`, `u64::MAX` = idle),
//! refreshed by whoever last touched the shard under its lock. The
//! cache drives three decisions, all functions of shard state alone —
//! never of the worker count — so determinism is preserved:
//!
//! * `next_time` reads the cache instead of locking every shard;
//! * only *active* shards (next event inside the epoch) are run and
//!   have their outboxes drained — an idle shard's `run_until` would be
//!   a stateless no-op, so skipping it is invisible;
//! * epochs with at most one active shard run inline on the driver
//!   without waking a worker (the common case when traffic is in
//!   flight and only the switch has work).
//!
//! The calling thread is worker 0: `n` workers spawn `n - 1` threads,
//! and the driver runs shards too. A parallel epoch goes through the
//! [`Gate`]: the driver publishes the epoch's active list, then it
//! claims shards from the server end while the spawned workers claim
//! from the client end, so at two workers a shard tends to stay on one
//! thread. Waiting threads spin a bounded number of times, then park;
//! on an oversubscribed host they park at once.
//!
//! Undelivered messages wait in [`Pending`], one bucket per departure
//! epoch. No message departs before the epoch that emitted it, so each
//! merge routes exactly one bucket, sorted by key. Each routed message
//! goes onto its destination shard's list in [`Arrivals`], which also
//! keeps the destinations in order of their first arrival; delivery
//! then locks each destination once and schedules its list in routing
//! order. Shards share nothing but messages, so the order in which the
//! destinations are served cannot show. The outbox, the buckets and the
//! lists keep their allocations across epochs.

use std::any::Any;
use std::collections::VecDeque;
use std::hint;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::{self, Thread};

use simnet::time::Nanos;

use crate::msg::NetMsg;
use crate::shard::Shard;
use crate::switch::SwitchFabric;

/// What the driver observed while running.
pub(crate) struct RunStats {
    /// Non-empty epochs executed.
    pub epochs: u64,
    /// Workers the driver ran with, itself included.
    pub workers: usize,
}

/// Cache value for a shard with no pending events. A real event at
/// `u64::MAX` ns would alias, but horizons are bounded far below that.
const IDLE: u64 = u64::MAX;

/// Polls a waiting thread makes before it parks: enough to ride out the
/// driver's serial merge between two parallel epochs, few enough that
/// an idle worker soon gives its core back. 4096 polls take about 57 µs
/// on a 2-core Intel Xeon host.
const SPINS: u32 = 1 << 12;

/// Why locking a shard cannot fail: a shard's mutex is poisoned only by
/// a panic inside that shard, and the driver re-raises it before anyone
/// locks the shard again.
const UNPOISONED: &str = "a shard panic is re-raised before its lock is taken again";

/// Re-publishes a shard's next event time. Callers hold the shard lock;
/// the `Relaxed` store is ordered against readers by the lock release
/// (and by the gate's `remaining` count on the parallel path).
fn refresh_cache(slot: &AtomicU64, shard: &Shard) {
    let t = shard.peek_time().map_or(IDLE, |t| t.as_nanos());
    slot.store(t, Ordering::Relaxed);
}

/// Undelivered messages, one bucket per departure epoch (`depart / L`).
/// Bucket `i` holds the messages departing in epoch `base + i`, in the
/// order they were emitted; emptied buckets keep their allocations in
/// `spare`.
struct Pending {
    lookahead: u64,
    base: u64,
    buckets: VecDeque<Vec<NetMsg>>,
    spare: Vec<Vec<NetMsg>>,
}

impl Pending {
    fn new(lookahead: u64) -> Self {
        Pending {
            lookahead,
            base: 0,
            buckets: VecDeque::new(),
            spare: Vec::new(),
        }
    }

    fn push(&mut self, m: NetMsg) {
        let ahead = (m.depart.as_nanos() / self.lookahead)
            .checked_sub(self.base)
            .expect("no message departs before the epoch that emitted it");
        let i = usize::try_from(ahead).expect("a departure fewer than usize::MAX epochs ahead");
        while self.buckets.len() <= i {
            let bucket = self.spare.pop().unwrap_or_default();
            self.buckets.push_back(bucket);
        }
        self.buckets[i].push(m);
    }

    /// The earliest departure of any pending message.
    fn first_departure(&self) -> Option<u64> {
        let bucket = self.buckets.iter().find(|b| !b.is_empty())?;
        bucket.iter().map(|m| m.depart.as_nanos()).min()
    }

    /// Pops the bucket of `epoch` and hands its messages to `route` in
    /// key order (keys are unique, so an unstable sort is exact). Every
    /// earlier bucket is empty: the driver never runs an epoch past a
    /// pending departure.
    fn drain_epoch(&mut self, epoch: u64, mut route: impl FnMut(NetMsg)) {
        // At most `len`, so the cast back is exact.
        let skipped = (epoch - self.base).min(self.buckets.len() as u64) as usize;
        for bucket in self.buckets.drain(..skipped) {
            debug_assert!(bucket.is_empty(), "a departure before epoch {epoch}");
            self.spare.push(bucket);
        }
        self.base = epoch + 1;
        if let Some(mut ready) = self.buckets.pop_front() {
            ready.sort_unstable_by_key(NetMsg::key);
            ready.drain(..).for_each(&mut route);
            self.spare.push(ready);
        }
    }
}

/// One epoch's routed messages, as `(arrive, drained, message)`: a list
/// per destination shard in global routing order, and the shards that
/// have one, in order of their first arrival.
struct Arrivals {
    by_dst: Vec<Vec<(Nanos, Nanos, NetMsg)>>,
    dsts: Vec<usize>,
}

impl Arrivals {
    fn new(shards: usize) -> Self {
        Arrivals {
            by_dst: (0..shards).map(|_| Vec::new()).collect(),
            dsts: Vec::new(),
        }
    }

    fn push(&mut self, arrive: Nanos, drained: Nanos, m: NetMsg) {
        let list = &mut self.by_dst[m.dst];
        if list.is_empty() {
            self.dsts.push(m.dst);
        }
        list.push((arrive, drained, m));
    }
}

/// The earliest instant anything can still happen: the minimum over
/// every shard's cached next event and every undelivered message's
/// departure. Departures must participate, otherwise the driver could
/// skip past the epoch in which a message was due to arrive.
fn next_time(cache: &[AtomicU64], pending: &Pending) -> Option<Nanos> {
    let mut t = pending.first_departure().unwrap_or(IDLE);
    for slot in cache {
        t = t.min(slot.load(Ordering::Relaxed));
    }
    (t != IDLE).then(|| Nanos::new(t))
}

/// Merge step: collect the outboxes of the shards that ran this epoch,
/// then arbitrate every message departing in `epoch` in global
/// `(depart, src, seq)` order. Messages departing later stay pending —
/// their switch-port reservations must wait until all earlier traffic
/// is known.
///
/// Routing order is the global key order (port arbitration is
/// stateful), and each destination's list keeps it, so each shard
/// observes its arrivals in the global order restricted to it — the
/// exact sequence the unbatched loop produced — while being locked once.
#[allow(clippy::too_many_arguments)]
fn merge(
    cells: &[Mutex<Shard>],
    cache: &[AtomicU64],
    active: &[usize],
    switch: &mut SwitchFabric,
    pending: &mut Pending,
    outbox: &mut Vec<NetMsg>,
    arrivals: &mut Arrivals,
    epoch: u64,
) {
    for &i in active {
        cells[i].lock().expect(UNPOISONED).drain_outbox(outbox);
    }
    for m in outbox.drain(..) {
        pending.push(m);
    }
    pending.drain_epoch(epoch, |m| {
        // `None` means the fault plane lost the frame on the wire: the
        // uplink reservation is burned but nothing arrives — recovery is
        // the requester's timeout, never the switch's.
        if let Some(d) = switch.route(&m) {
            arrivals.push(d.arrive, d.drained, m);
        }
    });
    for dst in arrivals.dsts.drain(..) {
        let mut shard = cells[dst].lock().expect(UNPOISONED);
        for (arrive, drained, m) in arrivals.by_dst[dst].drain(..) {
            shard.deliver(arrive, &m, drained);
        }
        refresh_cache(&cache[dst], &shard);
    }
}

/// Low half of [`Gate::claims`]: the exclusive top of the unclaimed range.
const HI: u64 = u32::MAX as u64;

/// Where the driver and the spawned workers meet each parallel epoch.
///
/// The driver writes the epoch — its active list, its end and the
/// `remaining` count — then opens the claim range with a `Release`
/// store to `claims` and bumps `generation` (`Release`) to wake the
/// workers. A thread reads the epoch only after an `Acquire` claim
/// succeeds, so a worker that wakes late either claims a shard of the
/// epoch that is open or finds the range empty. Each finished shard
/// counts `remaining` down (`Release`); the driver merges once its
/// `Acquire` load reads zero, which also makes the workers' cache
/// refreshes visible to it.
struct Gate {
    /// Changes whenever there is a new epoch or a stop.
    generation: AtomicU64,
    /// Set before the final `generation` bump: workers exit.
    stop: AtomicBool,
    /// The open epoch's active shards, in shard order.
    active: Vec<AtomicUsize>,
    /// The unclaimed positions `[lo, hi)` of `active`, as `lo << 32 | hi`.
    claims: AtomicU64,
    /// The open epoch's exclusive end [ns].
    end: AtomicU64,
    /// Active shards of the open epoch not yet run to its end.
    remaining: AtomicUsize,
    /// Whether waiting threads spin before they park. Never on an
    /// oversubscribed host, where a spinning thread holds the core the
    /// thread it waits for needs.
    spin: bool,
    /// The thread that runs the epoch loop (worker 0).
    driver: Thread,
    /// The first worker panic, re-raised on the driver.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Gate {
    fn new(shards: usize, workers: usize) -> Self {
        let cores = thread::available_parallelism();
        Gate {
            generation: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            active: (0..shards).map(|_| AtomicUsize::new(0)).collect(),
            claims: AtomicU64::new(0),
            end: AtomicU64::new(0),
            remaining: AtomicUsize::new(0),
            spin: workers > 1 && cores.is_ok_and(|n| workers <= n.get()),
            driver: thread::current(),
            panic: Mutex::new(None),
        }
    }

    /// Blocks until `ready()` holds. `park` may return spuriously, and
    /// an `unpark` that comes first makes the next `park` return, so
    /// re-checking after every wake loses no wake-up.
    fn wait(&self, ready: impl Fn() -> bool) {
        if self.spin {
            for _ in 0..SPINS {
                if ready() {
                    return;
                }
                hint::spin_loop();
            }
        }
        while !ready() {
            thread::park();
        }
    }

    /// Claims the highest (`top`) or lowest unclaimed active shard of
    /// the open epoch, with the epoch's end.
    fn claim(&self, top: bool) -> Option<(usize, u64)> {
        let open = self
            .claims
            .fetch_update(Ordering::Acquire, Ordering::Acquire, |c| {
                (c >> 32 < c & HI).then(|| if top { c - 1 } else { c + (1 << 32) })
            })
            .ok()?;
        let pos = if top { (open & HI) - 1 } else { open >> 32 };
        let shard = self.active[pos as usize].load(Ordering::Relaxed);
        Some((shard, self.end.load(Ordering::Relaxed)))
    }

    /// Counts one claimed shard done; the last one wakes the driver.
    fn finish(&self) {
        if self.remaining.fetch_sub(1, Ordering::Release) == 1 {
            self.driver.unpark();
        }
    }

    /// A spawned worker's loop: wait for an epoch, `run(shard, end)` the
    /// shards it claims from the client end until none is left, repeat.
    /// A panic in a shard is handed to the driver, and the worker exits.
    fn work(&self, run: &impl Fn(usize, u64)) {
        let mut seen = 0;
        loop {
            self.wait(|| self.generation.load(Ordering::Acquire) != seen);
            seen = self.generation.load(Ordering::Acquire);
            if self.stop.load(Ordering::Relaxed) {
                return;
            }
            while let Some((i, end)) = self.claim(false) {
                let ran = panic::catch_unwind(AssertUnwindSafe(|| run(i, end)));
                if let Err(payload) = ran {
                    let mut slot = self.panic.lock().expect("held only to store or take");
                    slot.get_or_insert(payload);
                    drop(slot); // before waking the driver, which takes the payload
                    self.finish();
                    return;
                }
                self.finish();
            }
        }
    }
}

/// The driver's side of the gate: the spawned workers to wake. Dropping
/// it stops them, however the driver leaves the epoch loop, so the
/// thread scope can join them even while a panic unwinds.
struct Crew<'g> {
    gate: &'g Gate,
    workers: Vec<Thread>,
}

impl<'g> Crew<'g> {
    /// Spawns `n` workers on `scope`, each running the gate's claims
    /// with `run`.
    fn spawn<'env>(
        scope: &'g thread::Scope<'g, 'env>,
        gate: &'g Gate,
        n: usize,
        run: &'g (impl Fn(usize, u64) + Sync),
    ) -> Self {
        let workers = (0..n)
            .map(|_| scope.spawn(move || gate.work(run)).thread().clone())
            .collect();
        Crew { gate, workers }
    }

    /// Runs one epoch's `active` shards to `end` on the driver and the
    /// workers, and re-raises a worker's panic here.
    fn run_epoch(&self, active: &[usize], end: u64, run: &impl Fn(usize, u64)) {
        let gate = self.gate;
        for (slot, &i) in gate.active.iter().zip(active) {
            slot.store(i, Ordering::Relaxed);
        }
        gate.end.store(end, Ordering::Relaxed);
        gate.remaining.store(active.len(), Ordering::Relaxed);
        let hi = u32::try_from(active.len()).expect("fewer than 2^32 shards");
        gate.claims.store(u64::from(hi), Ordering::Release);
        gate.generation.fetch_add(1, Ordering::Release);
        for w in &self.workers {
            w.unpark();
        }
        // Servers come last in shard order and are the busiest shards
        // when many clients share a few servers: the driver starts on them.
        while let Some((i, end)) = gate.claim(true) {
            run(i, end);
            gate.finish();
        }
        gate.wait(|| gate.remaining.load(Ordering::Acquire) == 0);
        let worker_panic = gate
            .panic
            .lock()
            .expect("held only to store or take")
            .take();
        if let Some(payload) = worker_panic {
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for Crew<'_> {
    fn drop(&mut self) {
        self.gate.stop.store(true, Ordering::Relaxed);
        self.gate.generation.fetch_add(1, Ordering::Release);
        for w in &self.workers {
            w.unpark();
        }
    }
}

/// Runs the cluster until no shard has an event at or before `horizon`
/// on `workers` threads, the calling one included (clamped to the shard
/// count). Every epoch has the same schedule whatever the count; at one
/// worker the driver runs every epoch itself and spawns no thread.
pub(crate) fn drive(
    cells: &[Mutex<Shard>],
    switch: &mut SwitchFabric,
    horizon: Nanos,
    workers: usize,
) -> RunStats {
    let lookahead = switch.lookahead().as_nanos().max(1);
    let mut pending = Pending::new(lookahead);
    let mut epochs = 0u64;
    let workers = workers.clamp(1, cells.len().max(1));

    let cache: Vec<AtomicU64> = cells
        .iter()
        .map(|cell| {
            let shard = cell.lock().expect(UNPOISONED);
            AtomicU64::new(shard.peek_time().map_or(IDLE, |t| t.as_nanos()))
        })
        .collect();
    let mut active: Vec<usize> = Vec::with_capacity(cells.len());
    let mut outbox: Vec<NetMsg> = Vec::new();
    let mut arrivals = Arrivals::new(cells.len());

    // Runs shard `i` to the end of the epoch ending at `end` (exclusive).
    let run = |i: usize, end: u64| {
        let mut shard = cells[i].lock().expect(UNPOISONED);
        shard.run_until(Nanos::new(end - 1));
        refresh_cache(&cache[i], &shard);
    };
    let gate = Gate::new(cells.len(), workers);
    thread::scope(|scope| {
        let crew = Crew::spawn(scope, &gate, workers - 1, &run);
        while let Some(t) = next_time(&cache, &pending) {
            if t > horizon {
                break;
            }
            let epoch = t.as_nanos() / lookahead;
            let end = (epoch + 1) * lookahead;
            // The active set: shards whose next event lies inside the
            // epoch. Depends only on shard state, never on which thread
            // runs a shard.
            active.clear();
            active.extend((0..cells.len()).filter(|&i| cache[i].load(Ordering::Relaxed) < end));
            if active.len() > 1 && !crew.workers.is_empty() {
                crew.run_epoch(&active, end, &run);
            } else {
                for &i in &active {
                    run(i, end);
                }
            }
            merge(
                cells,
                &cache,
                &active,
                switch,
                &mut pending,
                &mut outbox,
                &mut arrivals,
                epoch,
            );
            epochs += 1;
        }
    });
    RunStats { epochs, workers }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::mpsc;
    use std::time::Duration;

    use nicsim::{PathKind, Verb};
    use simnet::rng::SimRng;

    use crate::msg::MsgKind;
    use crate::scenario::{run_cluster, ClusterScenario, ClusterStream};

    #[test]
    fn buckets_release_messages_in_ordered_map_order() {
        // Oracle: an ordered map keyed by `(depart, src, seq)`, the
        // routing order. Departures sit on a 150 ns grid, so equal
        // departures from different sources are common, and they are
        // often emitted in different epochs in the opposite order.
        const L: u64 = 450;
        let mut rng = SimRng::seed(11);
        let mut pending = Pending::new(L);
        let mut oracle: BTreeMap<(u64, usize, u64), NetMsg> = BTreeMap::new();
        let mut seq = [0u64; 8];
        let (mut skips, mut inversions, mut far) = (0, 0, 0);
        let mut epoch = 0u64;
        for _ in 0..4000 {
            for _ in 0..rng.uniform_u64(6) {
                let src = rng.index(seq.len());
                let ahead = if rng.chance(0.3) { L } else { 200 * L };
                let depart = epoch * L + rng.uniform_u64(ahead) / 150 * 150;
                far += usize::from(depart >= (epoch + 150) * L);
                let m = NetMsg {
                    src,
                    dst: 0,
                    seq: seq[src],
                    depart: Nanos::new(depart),
                    bytes: epoch, // the emitting epoch, for the inversion count
                    kind: MsgKind::Response {
                        stream: 0,
                        thread: 0,
                        posted: Nanos::ZERO,
                        xid: 0,
                    },
                };
                seq[src] += 1;
                oracle.insert(m.key(), m);
                pending.push(m);
            }
            let rest = oracle.split_off(&((epoch + 1) * L, 0, 0));
            let want: Vec<NetMsg> = std::mem::replace(&mut oracle, rest).into_values().collect();
            let mut got = Vec::new();
            pending.drain_epoch(epoch, |m| got.push(m));
            let keys = |v: &[NetMsg]| v.iter().map(NetMsg::key).collect::<Vec<_>>();
            assert_eq!(keys(&got), keys(&want), "epoch {epoch}");
            inversions += want
                .windows(2)
                .filter(|w| w[0].depart == w[1].depart && w[0].bytes > w[1].bytes)
                .count();
            let first = oracle.keys().next().map(|k| k.0);
            assert_eq!(pending.first_departure(), first, "after epoch {epoch}");
            // A shard event in the next epoch or a few later, or none:
            // then the driver jumps to the first departure.
            let shard = rng
                .chance(0.5)
                .then(|| (epoch + 1 + rng.uniform_u64(3)) * L);
            let Some(next) = first.into_iter().chain(shard).min() else {
                epoch += 1;
                continue;
            };
            skips += usize::from(next / L > epoch + 1);
            epoch = next / L;
        }
        assert!(skips > 100, "only {skips} skipped stretches");
        assert!(
            inversions > 100,
            "only {inversions} emission-order inversions"
        );
        assert!(far > 100, "only {far} departures 150+ epochs ahead");
    }

    #[test]
    fn gate_re_raises_a_worker_panic_on_the_driver() {
        // The driver claims shard 1 from the top and holds it until the
        // worker has started shard 0, so the worker is the one to panic.
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let started = AtomicBool::new(false);
            let run = |i: usize, _end: u64| {
                if i == 0 {
                    started.store(true, Ordering::SeqCst);
                    panic!("shard 0 failed");
                }
                while !started.load(Ordering::SeqCst) {
                    hint::spin_loop();
                }
            };
            let gate = Gate::new(2, 2);
            let payload = panic::catch_unwind(AssertUnwindSafe(|| {
                thread::scope(|scope| {
                    Crew::spawn(scope, &gate, 1, &run).run_epoch(&[0, 1], 1, &run);
                })
            }))
            .expect_err("the worker's panic reaches the driver");
            let _ = tx.send(payload.downcast_ref::<&str>().copied());
        });
        let message = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the driver hung on a dead worker");
        assert_eq!(message, Some("shard 0 failed"));
    }

    #[test]
    fn a_worker_panic_reaches_the_caller() {
        // A DPA stream on BF-2 servers panics in the server handler. The
        // caller must see that panic's message at every worker count,
        // not a hang: run each count on a helper thread with a deadline.
        let panic_message = |workers: usize| {
            let (tx, rx) = mpsc::channel();
            thread::spawn(move || {
                let mut sc = ClusterScenario::quick().with_workers(workers);
                sc.cluster.clients.truncate(3);
                let st =
                    ClusterStream::new(PathKind::Snic1, Verb::Send, 64, vec![0, 1, 2]).with_dpa();
                let payload = panic::catch_unwind(AssertUnwindSafe(|| run_cluster(&sc, &[st])))
                    .expect_err("a DPA stream needs DPA-carrying servers");
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned());
                let _ = tx.send(message);
            });
            rx.recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("run_cluster hung at {workers} workers"))
        };
        let one = panic_message(1);
        assert!(
            one.as_deref().is_some_and(|m| m.contains("DPA plane")),
            "{one:?}"
        );
        assert_eq!(panic_message(2), one);
    }
}
