//! Conservative-lookahead epoch-barrier executor.
//!
//! Time is diced into epochs of length `L = SwitchFabric::lookahead()`
//! (the wire's one-way latency). Within epoch `k` — the half-open
//! interval `[kL, (k+1)L)` — shards cannot interact: any message emitted
//! by an event at time `t` departs at `depart >= t` and arrives no
//! earlier than `depart + L >= (k+1)L`, i.e. in a later epoch. So all
//! shards run one epoch in parallel, then the main thread merges their
//! outboxes in global `(depart, src, seq)` order, arbitrates switch
//! ports single-threaded, and schedules the arrivals. Because both the
//! per-epoch work and the merge order are independent of how shards are
//! assigned to worker threads, the simulation is byte-identical for any
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
//!   thread without the two-barrier worker round-trip (the common case
//!   when traffic is in flight and only the switch has work).
//!
//! The merge batches deliveries per destination — messages are
//! arbitrated in global key order, then grouped so each destination
//! shard is locked once per epoch — and recycles the outbox and routing
//! buffers across epochs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

use simnet::time::Nanos;

use crate::msg::NetMsg;
use crate::shard::Shard;
use crate::switch::SwitchFabric;

/// What the driver observed while running.
pub(crate) struct RunStats {
    /// Non-empty epochs executed.
    pub epochs: u64,
    /// Worker threads the driver ran with.
    pub workers: usize,
}

type Pending = BTreeMap<(u64, usize, u64), NetMsg>;

/// Cache value for a shard with no pending events. A real event at
/// `u64::MAX` ns would alias, but horizons are bounded far below that.
const IDLE: u64 = u64::MAX;

/// Re-publishes a shard's next event time. Callers hold the shard lock;
/// the `Relaxed` store is ordered against readers by the lock release
/// (and the epoch barrier on the parallel path).
fn refresh_cache(slot: &AtomicU64, shard: &Shard) {
    let t = shard.peek_time().map_or(IDLE, |t| t.as_nanos());
    slot.store(t, Ordering::Relaxed);
}

/// The earliest instant anything can still happen: the minimum over
/// every shard's cached next event and every undelivered message's
/// departure. Departures must participate, otherwise the driver could
/// skip past the epoch in which a message was due to arrive.
fn next_time(cache: &[AtomicU64], pending: &Pending) -> Option<Nanos> {
    let mut t = pending.keys().next().map_or(IDLE, |k| k.0);
    for slot in cache {
        t = t.min(slot.load(Ordering::Relaxed));
    }
    (t != IDLE).then(|| Nanos::new(t))
}

/// Barrier step: collect the outboxes of the shards that ran this epoch
/// (in shard-index order), then arbitrate every message departing
/// strictly before `epoch_end` in global `(depart, src, seq)` order.
/// Messages departing later stay pending — their switch-port
/// reservations must wait until all earlier traffic is known.
///
/// Routing order is the global key order (port arbitration is
/// stateful), but deliveries are then grouped by destination so each
/// target shard is locked exactly once; the grouping is stable, so each
/// shard still observes its arrivals in the global order restricted to
/// it — the exact sequence the unbatched loop produced.
#[allow(clippy::too_many_arguments)]
fn merge(
    cells: &[Mutex<Shard>],
    cache: &[AtomicU64],
    active: &[usize],
    switch: &mut SwitchFabric,
    pending: &mut Pending,
    outbox: &mut Vec<NetMsg>,
    routed: &mut Vec<(usize, Nanos, Nanos, NetMsg)>,
    epoch_end: Nanos,
) {
    for &i in active {
        cells[i].lock().unwrap().drain_outbox(outbox);
    }
    for m in outbox.drain(..) {
        pending.insert(m.key(), m);
    }
    let cut = (epoch_end.as_nanos(), 0usize, 0u64);
    let rest = pending.split_off(&cut);
    let ready = std::mem::replace(pending, rest);
    for (_, m) in ready {
        // `None` means the fault plane lost the frame on the wire: the
        // uplink reservation is burned but nothing arrives — recovery is
        // the requester's timeout, never the switch's.
        if let Some(d) = switch.route(&m) {
            routed.push((m.dst, d.arrive, d.drained, m));
        }
    }
    routed.sort_by_key(|r| r.0); // stable: per-destination order survives
    let mut i = 0;
    while i < routed.len() {
        let dst = routed[i].0;
        let mut shard = cells[dst].lock().unwrap();
        while i < routed.len() && routed[i].0 == dst {
            let (_, arrive, drained, m) = &routed[i];
            shard.deliver(*arrive, m, *drained);
            i += 1;
        }
        refresh_cache(&cache[dst], &shard);
    }
    routed.clear();
}

/// Runs the cluster until no shard has an event at or before `horizon`
/// on at most `workers` threads (clamped to the shard count). Every
/// epoch has the same schedule whatever the count; at one worker the
/// driver runs every epoch inline and spawns no thread.
pub(crate) fn drive(
    cells: &[Mutex<Shard>],
    switch: &mut SwitchFabric,
    horizon: Nanos,
    workers: usize,
) -> RunStats {
    let lookahead = switch.lookahead().as_nanos().max(1);
    let epoch_end_of = |t: Nanos| Nanos::new((t.as_nanos() / lookahead + 1) * lookahead);
    let mut pending = Pending::new();
    let mut epochs = 0u64;
    let workers = workers.clamp(1, cells.len().max(1));

    let cache: Vec<AtomicU64> = cells
        .iter()
        .map(|cell| {
            let shard = cell.lock().unwrap();
            AtomicU64::new(shard.peek_time().map_or(IDLE, |t| t.as_nanos()))
        })
        .collect();
    let mut active: Vec<usize> = Vec::with_capacity(cells.len());
    let mut outbox: Vec<NetMsg> = Vec::new();
    let mut routed: Vec<(usize, Nanos, Nanos, NetMsg)> = Vec::new();

    // Persistent workers; two barrier waits per epoch (start + done).
    // `end_ns` broadcasts the epoch boundary; `u64::MAX` means shut down.
    // Epochs with at most one active shard never reach the barrier: the
    // driver runs them inline while the workers stay parked. At one
    // worker nothing is spawned and every epoch runs inline.
    let spawned = if workers > 1 { workers } else { 0 };
    let barrier = Barrier::new(spawned + 1);
    let end_ns = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for w in 0..spawned {
            let barrier = &barrier;
            let end_ns = &end_ns;
            let cache = &cache;
            scope.spawn(move || loop {
                barrier.wait();
                let end = end_ns.load(Ordering::SeqCst);
                if end == u64::MAX {
                    break;
                }
                // Worker `w` owns shards w, w + workers, w + 2*workers…
                // The assignment only affects which thread runs a shard,
                // never what the shard computes. Idle shards (cached
                // next event past the epoch) are skipped without
                // locking: running them would deliver nothing.
                let mut i = w;
                while i < cells.len() {
                    if cache[i].load(Ordering::Relaxed) < end {
                        let mut shard = cells[i].lock().unwrap();
                        shard.run_until(Nanos::new(end - 1));
                        refresh_cache(&cache[i], &shard);
                    }
                    i += workers;
                }
                barrier.wait();
            });
        }
        while let Some(t) = next_time(&cache, &pending) {
            if t > horizon {
                break;
            }
            let end = epoch_end_of(t);
            let deadline = Nanos::new(end.as_nanos() - 1);
            // The active set: shards whose next event lies inside the
            // epoch. Depends only on shard state, never on the worker
            // assignment.
            active.clear();
            active.extend(
                (0..cells.len())
                    .filter(|&i| cache[i].load(Ordering::Relaxed) <= deadline.as_nanos()),
            );
            if spawned > 0 && active.len() > 1 {
                end_ns.store(end.as_nanos(), Ordering::SeqCst);
                barrier.wait(); // release workers into the epoch
                barrier.wait(); // wait for all shards to reach the boundary
            } else {
                for &i in &active {
                    let mut shard = cells[i].lock().unwrap();
                    shard.run_until(deadline);
                    refresh_cache(&cache[i], &shard);
                }
            }
            merge(
                cells,
                &cache,
                &active,
                switch,
                &mut pending,
                &mut outbox,
                &mut routed,
                end,
            );
            epochs += 1;
        }
        if spawned > 0 {
            end_ns.store(u64::MAX, Ordering::SeqCst);
            barrier.wait();
        }
    });
    RunStats { epochs, workers }
}
