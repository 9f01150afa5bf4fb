//! Conservative-lookahead epoch executor.
//!
//! Time is diced into epochs of length `L = SwitchFabric::lookahead()`
//! (the wire's one-way latency). Within epoch `k` — the half-open
//! interval `[kL, (k+1)L)` — shards cannot interact: any message emitted
//! by an event at time `t` departs at `depart >= t` and arrives no
//! earlier than `depart + L >= (k+1)L`, i.e. in a later epoch. So all
//! shards may run one epoch in parallel, then the calling thread merges
//! their outboxes in global `(depart, src, seq)` order, arbitrates switch
//! ports single-threaded, and schedules the arrivals. Because both the
//! per-epoch work and the merge order are independent of how shards are
//! assigned to threads, the simulation is byte-identical for any worker
//! count.
//!
//! Empty epochs are skipped: the driver jumps straight to the next
//! pending instant (minimum over shard engines and undelivered
//! messages), so wall-clock cost scales with events, not with horizon /
//! lookahead.
//!
//! The hot path avoids per-epoch full scans with a lock-free cache of
//! each shard's next event time and of the departure at the front of its
//! outbox (`AtomicU64`s, `u64::MAX` = none), refreshed by whoever last
//! touched the shard under its lock. The cache drives four decisions,
//! all functions of shard state alone — never of the worker count — so
//! determinism is preserved:
//!
//! * `next_time` reads the cache instead of locking every shard;
//! * only *active* shards (next event inside the epoch) are run — an
//!   idle shard's `run_until` would be a stateless no-op, so skipping it
//!   is invisible;
//! * epochs with at most one active shard run inline on the driver
//!   without waking a worker (the common case when traffic is in
//!   flight and only the switch has work);
//! * the merge locks only the shards with a departure in the epoch.
//!
//! The worker count is a cap, not a command. The calling thread is
//! worker 0 and starts every run alone; a cap of `n` lets it spawn
//! `n - 1` threads, which it does, with the [`Gate`] they meet at, only
//! for the first epoch it runs in parallel. A multi-shard epoch runs on
//! the workers only while a [`Rule`] over the last 32 multi-shard epochs
//! says that their *spare work* — the events the active shards other
//! than the busiest handled, which a second thread could take while the
//! driver runs the busiest — clears [`PARALLEL_GRAIN`]. The rule keeps
//! its window at every cap; at one worker nothing reads it. Which
//! executor runs an epoch never shows in the results, for the same
//! reason the worker count does not.
//!
//! A parallel epoch goes through the gate: the driver publishes the
//! epoch's active list, then it claims shards from the server end while
//! the spawned workers claim from the client end, so at two workers a
//! shard tends to stay on one thread. Waiting threads spin a bounded
//! number of times, then park; on an oversubscribed host they park at
//! once.
//!
//! Undelivered messages wait in their sender's
//! [`Outbox`](crate::shard::Outbox), already in key order. Each merge
//! takes every outbox's prefix departing before the epoch's end, sorts
//! their union by key and routes it. Each routed message goes onto its
//! destination shard's list in [`Arrivals`], which also keeps the
//! destinations in order of their first arrival; delivery then locks
//! each destination once and schedules its list in routing order.
//! Shards share nothing but messages, so the order in which the
//! destinations are served cannot show. The outboxes, the due list and
//! the arrival lists keep their allocations across epochs.

use std::any::Any;
use std::cell::OnceCell;
use std::hint;
use std::ops::Range;
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
    /// Of those, the epochs run on the worker threads.
    pub parallel_epochs: u64,
    /// Spare work summed over the multi-shard epochs (see [`spare`]).
    pub spare: u64,
    /// The worker cap the driver ran with, itself included.
    pub workers: usize,
}

/// Spare work per multi-shard epoch, in events, from which running the
/// epoch on the workers pays for its gate round and for the slower runs
/// of shards on another core. Read off `examples/rack_scaling.rs` on a
/// 2-vCPU Intel Xeon host (DESIGN.md §9): always-parallel at two workers
/// against one worker cost 22% and 8% on racks whose epochs held a
/// median of 13 and 21 spare events, broke even at 29 and saved 3–14%
/// from 38 up. The grain sits at that break-even.
pub(crate) const PARALLEL_GRAIN: u64 = 30;

/// Votes of the last 32 multi-shard epochs (see [`Rule`]) that start
/// parallel epochs, and below which they stop.
const VOTES_ON: u32 = 24;
const VOTES_OFF: u32 = 8;

/// Whether multi-shard epochs run on the workers. Each multi-shard epoch
/// votes for the workers when its spare work reached the grain, and the
/// last 32 votes decide: parallel starts at three quarters of them and
/// stops below a quarter. So a start-up burst of a few huge epochs does
/// not start it, spare work that hovers at the grain does not flip it,
/// and a lasting change of load does within 25 epochs.
struct Rule {
    grain: u64,
    /// Bit `j` is the vote of the `j`-th most recent multi-shard epoch.
    votes: u32,
    parallel: bool,
}

impl Rule {
    /// A rule whose window holds 32 epochs without spare work: inline,
    /// unless the grain is zero.
    fn new(grain: u64) -> Self {
        let votes = if grain == 0 { u32::MAX } else { 0 };
        Rule {
            grain,
            votes,
            parallel: votes.count_ones() >= VOTES_ON,
        }
    }

    /// Takes the vote of a multi-shard epoch with `spare` spare events.
    fn record(&mut self, spare: u64) {
        self.votes = self.votes << 1 | u32::from(spare >= self.grain);
        let votes = self.votes.count_ones();
        self.parallel = votes >= if self.parallel { VOTES_OFF } else { VOTES_ON };
    }
}

/// An epoch's spare work: the events its `active` shards other than the
/// busiest handled (`ran[i]` for shard `i`), the work a second thread
/// could take while the driver runs the busiest.
fn spare(active: &[usize], ran: &[AtomicU64]) -> u64 {
    let (sum, max) = active
        .iter()
        .map(|&i| ran[i].load(Ordering::Relaxed))
        .fold((0, 0), |(sum, max), n| (sum + n, max.max(n)));
    sum - max
}

/// Cache value for no pending event or no queued message. A real time
/// at `u64::MAX` ns would alias, but horizons are bounded far below that.
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

/// Re-publishes a shard's next event time and the departure at the
/// front of its outbox. Callers hold the shard lock; the `Relaxed`
/// stores are ordered against readers by the lock release (and by the
/// gate's `remaining` count on the parallel path).
fn refresh_cache(event: &AtomicU64, depart: &AtomicU64, shard: &Shard) {
    let ns = |t: Option<Nanos>| t.map_or(IDLE, |t| t.as_nanos());
    event.store(ns(shard.peek_time()), Ordering::Relaxed);
    depart.store(ns(shard.outbox().front()), Ordering::Relaxed);
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
/// every shard's cached next event and outbox front. Departures must
/// participate, otherwise the driver could skip past the epoch in which
/// a message was due to arrive.
fn next_time(cache: &[AtomicU64], fronts: &[AtomicU64]) -> Option<Nanos> {
    let mut t = IDLE;
    for slot in cache.iter().chain(fronts) {
        t = t.min(slot.load(Ordering::Relaxed));
    }
    (t != IDLE).then(|| Nanos::new(t))
}

/// Merge step: take every message departing in `epoch` from the
/// outboxes that hold one, then arbitrate them in global `(depart, src,
/// seq)` order. Messages departing later wait in their outboxes — their
/// switch-port reservations must wait until all earlier traffic is
/// known.
///
/// Routing order is the global key order (port arbitration is
/// stateful), and each destination's list keeps it, so each shard
/// observes its arrivals in the global order restricted to it — the
/// exact sequence the unbatched loop produced — while being locked once.
fn merge(
    cells: &[Mutex<Shard>],
    cache: &[AtomicU64],
    fronts: &[AtomicU64],
    switch: &mut SwitchFabric,
    due: &mut Vec<NetMsg>,
    arrivals: &mut Arrivals,
    epoch: Range<u64>,
) {
    for (i, front) in fronts.iter().enumerate() {
        if front.load(Ordering::Relaxed) < epoch.end {
            let mut shard = cells[i].lock().expect(UNPOISONED);
            shard.outbox_mut().take_due(Nanos::new(epoch.end), due);
            refresh_cache(&cache[i], front, &shard);
        }
    }
    // Keys are unique, so an unstable sort is exact.
    due.sort_unstable_by_key(NetMsg::key);
    let t = due.first().map_or(epoch.start, |m| m.depart.as_nanos());
    assert!(t >= epoch.start, "a departure at {t} ns before its epoch");
    for m in due.drain(..) {
        // `None` means the fault plane lost the frame on the wire: the
        // uplink reservation is burned but nothing arrives — recovery is
        // the requester's timeout, never the switch's.
        if let Some(d) = switch.route(&m) {
            arrivals.push(d.arrive, d.drained, m);
        }
    }
    for dst in arrivals.dsts.drain(..) {
        let mut shard = cells[dst].lock().expect(UNPOISONED);
        for (arrive, drained, m) in arrivals.by_dst[dst].drain(..) {
            shard.deliver(arrive, &m, drained);
        }
        refresh_cache(&cache[dst], &fronts[dst], &shard);
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
/// on at most `workers` threads, the calling one included (clamped to
/// the shard count), going parallel only while a [`Rule`] with `grain`
/// says so. Every epoch has the same schedule whatever the count or the
/// rule. At one worker the driver runs every epoch itself; at more it
/// spawns no thread before its first parallel epoch.
pub(crate) fn drive(
    cells: &[Mutex<Shard>],
    switch: &mut SwitchFabric,
    horizon: Nanos,
    workers: usize,
    grain: u64,
) -> RunStats {
    let lookahead = switch.lookahead().as_nanos().max(1);
    let (mut epochs, mut parallel_epochs, mut spare_sum) = (0u64, 0u64, 0u64);
    let workers = workers.clamp(1, cells.len().max(1));

    let cache: Vec<AtomicU64> = cells.iter().map(|_| AtomicU64::new(IDLE)).collect();
    let fronts: Vec<AtomicU64> = cells.iter().map(|_| AtomicU64::new(IDLE)).collect();
    for (i, cell) in cells.iter().enumerate() {
        refresh_cache(&cache[i], &fronts[i], &cell.lock().expect(UNPOISONED));
    }
    // Events each shard handled in its last run, stored `Relaxed` and
    // read by the driver after the gate's `remaining` count, like the
    // cache.
    let ran: Vec<AtomicU64> = cells.iter().map(|_| AtomicU64::new(0)).collect();
    let mut active: Vec<usize> = Vec::with_capacity(cells.len());
    let mut due: Vec<NetMsg> = Vec::new();
    let mut arrivals = Arrivals::new(cells.len());

    // Runs shard `i` to the end of the epoch ending at `end` (exclusive)
    // and records the events it handled.
    let run = |i: usize, end: u64| {
        let mut shard = cells[i].lock().expect(UNPOISONED);
        let before = shard.events_delivered();
        shard.run_until(Nanos::new(end - 1));
        refresh_cache(&cache[i], &fronts[i], &shard);
        ran[i].store(shard.events_delivered() - before, Ordering::Relaxed);
    };
    let mut rule = Rule::new(grain);
    let gate = OnceCell::new();
    thread::scope(|scope| {
        let mut crew = None;
        while let Some(t) = next_time(&cache, &fronts) {
            if t > horizon {
                break;
            }
            let start = t.as_nanos() / lookahead * lookahead;
            let end = start + lookahead;
            // The active set: shards whose next event lies inside the
            // epoch. Depends only on shard state, never on which thread
            // runs a shard.
            active.clear();
            active.extend((0..cells.len()).filter(|&i| cache[i].load(Ordering::Relaxed) < end));
            let multi = active.len() > 1;
            if multi && workers > 1 && rule.parallel {
                let gate = gate.get_or_init(|| Gate::new(cells.len(), workers));
                crew.get_or_insert_with(|| Crew::spawn(scope, gate, workers - 1, &run))
                    .run_epoch(&active, end, &run);
                parallel_epochs += 1;
            } else {
                for &i in &active {
                    run(i, end);
                }
            }
            if multi {
                let spare = spare(&active, &ran);
                spare_sum += spare;
                rule.record(spare);
            }
            merge(
                cells,
                &cache,
                &fronts,
                switch,
                &mut due,
                &mut arrivals,
                start..end,
            );
            epochs += 1;
        }
    });
    RunStats {
        epochs,
        parallel_epochs,
        spare: spare_sum,
        workers,
    }
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
    use crate::scenario::{run_with_grain, ClusterScenario, ClusterStream};
    use crate::shard::Outbox;

    /// Feeds `spares` to `rule` and returns its decision after each.
    fn decide(rule: &mut Rule, spares: impl IntoIterator<Item = u64>) -> Vec<bool> {
        spares
            .into_iter()
            .map(|s| {
                rule.record(s);
                rule.parallel
            })
            .collect()
    }

    #[test]
    fn a_start_up_burst_does_not_switch_the_window() {
        // A rack's first epochs carry every slot posted at t = 0: huge,
        // then back to the steady state below the grain.
        let mut rule = Rule::new(PARALLEL_GRAIN);
        assert!(!rule.parallel);
        let burst = [7380, 5328, 3446, 2160, 1080, 123];
        let steady = (0..200).map(|i| PARALLEL_GRAIN / 4 + i % 8);
        let decisions = decide(&mut rule, burst.into_iter().chain(steady));
        assert!(decisions.iter().all(|&p| !p), "{decisions:?}");
    }

    #[test]
    fn sustained_spare_work_switches_the_window() {
        let mut rule = Rule::new(PARALLEL_GRAIN);
        let on = decide(&mut rule, (0..32).map(|i| PARALLEL_GRAIN + i % 3));
        assert_eq!(on.iter().position(|&p| p), Some(VOTES_ON as usize - 1));
        let off = decide(&mut rule, (0..32).map(|i| PARALLEL_GRAIN / 2 + i % 3));
        assert_eq!(
            off.iter().position(|&p| !p),
            Some((32 - VOTES_OFF) as usize)
        );
        // The grain forced to zero is parallel from the first epoch on.
        let mut forced = Rule::new(0);
        assert!(forced.parallel);
        assert!(decide(&mut forced, [0, 1, 0]).into_iter().all(|p| p));
    }

    #[test]
    fn hysteresis_holds_near_the_grain() {
        // Spare work alternating just below and at the grain keeps
        // whichever executor the rule had: inline from a fresh start,
        // parallel after a sustained stretch above the grain.
        let near = || (0..400).map(|i| PARALLEL_GRAIN + i % 2 - 1);
        let mut rule = Rule::new(PARALLEL_GRAIN);
        assert!(decide(&mut rule, near()).iter().all(|&p| !p));
        decide(&mut rule, [2 * PARALLEL_GRAIN; 32]);
        assert!(rule.parallel);
        assert!(decide(&mut rule, near()).iter().all(|&p| p));
        // Nor do stretches of 16 above and 16 below flip it.
        let waves = (0..400).map(|i| if i / 16 % 2 == 0 { 0 } else { u64::MAX });
        assert!(decide(&mut rule, waves).iter().all(|&p| p));
    }

    fn response() -> MsgKind {
        MsgKind::Response {
            stream: 0,
            thread: 0,
            posted: Nanos::ZERO,
            xid: 0,
        }
    }

    #[test]
    fn outboxes_release_messages_in_ordered_map_order() {
        // Oracle: an ordered map keyed by `(depart, src, seq)`, the
        // routing order. Each of 8 sources pushes non-decreasing
        // departures on a 150 ns grid, most within three epochs and some
        // up to 200 ahead, so equal departures from different sources
        // are common.
        const L: u64 = 450;
        let mut rng = SimRng::seed(11);
        let mut outboxes: Vec<Outbox> = (0..8).map(Outbox::new).collect();
        let (mut last, mut seq) = ([0u64; 8], [0u64; 8]);
        let mut oracle: BTreeMap<(u64, usize, u64), NetMsg> = BTreeMap::new();
        let mut due = Vec::new();
        let (mut skips, mut ties, mut far) = (0, 0, 0);
        let mut epoch = 0u64;
        for _ in 0..4000 {
            for _ in 0..rng.uniform_u64(6) {
                let src = rng.index(outboxes.len());
                let ahead = if rng.chance(0.05) { 200 * L } else { 3 * L };
                let depart = (epoch * L + rng.uniform_u64(ahead) / 150 * 150).max(last[src]);
                last[src] = depart;
                far += usize::from(depart >= (epoch + 150) * L);
                outboxes[src].push(0, Nanos::new(depart), 0, response());
                let m = NetMsg {
                    src,
                    dst: 0,
                    seq: seq[src],
                    depart: Nanos::new(depart),
                    bytes: 0,
                    kind: response(),
                };
                seq[src] += 1;
                oracle.insert(m.key(), m);
            }
            let end = (epoch + 1) * L;
            let rest = oracle.split_off(&(end, 0, 0));
            let want: Vec<NetMsg> = std::mem::replace(&mut oracle, rest).into_values().collect();
            for out in &mut outboxes {
                out.take_due(Nanos::new(end), &mut due);
            }
            due.sort_unstable_by_key(NetMsg::key);
            let keys = |v: &[NetMsg]| v.iter().map(NetMsg::key).collect::<Vec<_>>();
            assert_eq!(keys(&due), keys(&want), "epoch {epoch}");
            due.clear();
            ties += want
                .windows(2)
                .filter(|w| w[0].depart == w[1].depart && w[0].src != w[1].src)
                .count();
            let first = outboxes.iter().filter_map(Outbox::front).min();
            let first = first.map(|t| t.as_nanos());
            assert_eq!(
                first,
                oracle.keys().next().map(|k| k.0),
                "after epoch {epoch}"
            );
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
        assert!(ties > 100, "only {ties} equal departures from two sources");
        assert!(far > 100, "only {far} departures 150+ epochs ahead");
    }

    #[test]
    #[should_panic(expected = "departure 899ns precedes 900ns")]
    fn an_outbox_rejects_a_departure_before_its_last() {
        let mut out = Outbox::new(0);
        out.push(1, Nanos::new(900), 0, response());
        out.push(1, Nanos::new(899), 0, response());
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
                // With the grain forced to zero, a 3-client rack runs its
                // multi-shard epochs on the workers too.
                let payload =
                    panic::catch_unwind(AssertUnwindSafe(|| run_with_grain(&sc, &[st], 0)))
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
