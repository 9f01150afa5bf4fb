//! A minimal, deterministic discrete-event engine.
//!
//! The engine is generic over the event payload type `E`. Events scheduled
//! for the same instant are delivered in FIFO order of scheduling (a
//! monotonically increasing sequence number breaks ties), which makes every
//! simulation run reproducible regardless of scheduler internals.
//!
//! # Scheduler data structure
//!
//! [`Engine`] stores pending events in a *hierarchical timing wheel*
//! (DESIGN.md "The scheduler"): eight levels of 64 slots, where a level-`k`
//! slot covers a `64^k` ns window, indexed by the event's absolute delivery
//! time. Scheduling is O(1) (compute the level from the delay's magnitude,
//! push into a slot vector), and popping finds the earliest occupied slot
//! with one 64-bit occupancy-bitmap scan per level instead of a
//! `BinaryHeap`'s O(log n) sift — the win that matters at cluster scale,
//! where every epoch pops and reschedules thousands of events. Deliveries
//! beyond the wheel's ~3.2-day horizon park in an overflow heap and migrate
//! into the wheel as the clock approaches them. The previous heap-based
//! scheduler survives as [`BaselineEngine`], kept only as the lockstep
//! oracle for the wheel (see `tests/props.rs`).

use core::cmp::Ordering;
use std::cell::Cell;
use std::collections::BinaryHeap;

use crate::time::Nanos;

/// Error returned when an event cannot be scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleError {
    /// The requested delivery time is before the engine clock; delivering
    /// it would violate causality.
    Past {
        /// The engine clock at the time of the attempt.
        now: Nanos,
        /// The (earlier) requested delivery time.
        at: Nanos,
    },
    /// `now + delay` does not fit in the simulated-time domain
    /// ([`Nanos::MAX`]); there is no representable delivery instant.
    Overflow {
        /// The engine clock at the time of the attempt.
        now: Nanos,
        /// The requested relative delay.
        delay: Nanos,
    },
}

impl core::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ScheduleError::Past { now, at } => {
                write!(f, "event scheduled at {at} which is before now ({now})")
            }
            ScheduleError::Overflow { now, delay } => write!(
                f,
                "event delay {delay} from now ({now}) overflows simulated time"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

struct Scheduled<E> {
    at: Nanos,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    // Reverse ordering: BinaryHeap is a max-heap, we want earliest-first.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// log2 of the slots per wheel level.
const SLOT_BITS: usize = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels; level `k` slots are `64^k` ns wide.
const LEVELS: usize = 8;
/// Horizon of the whole wheel: `64^LEVELS` ns (~3.26 simulated days).
/// Deliveries whose time differs from the clock above bit 47 (i.e.
/// outside the clock's current top-level rotation) go to the overflow
/// heap until the clock approaches them.
const TOP_SPAN: u64 = 1 << (SLOT_BITS * LEVELS);

/// Level housing a delivery time `at` relative to the clock: the level
/// containing the highest bit where `at` and the clock differ. Chosen by
/// XOR rather than by the magnitude of `at - clock` so the target slot
/// is always in the clock's *current* rotation of that level — a
/// magnitude-based rule would let a delay in `[span - width, span)`
/// alias into the clock's own slot one rotation early, corrupting both
/// the earliest-slot search and the window-start arithmetic. Caller
/// guarantees `xor < TOP_SPAN`.
#[inline]
fn level_for(xor: u64) -> usize {
    if xor == 0 {
        0
    } else {
        (63 - xor.leading_zeros() as usize) / SLOT_BITS
    }
}

/// A deterministic discrete-event scheduler.
///
/// # Examples
///
/// ```
/// use simnet::engine::Engine;
/// use simnet::time::Nanos;
///
/// let mut eng: Engine<&'static str> = Engine::new();
/// eng.schedule_in(Nanos::new(10), "b").unwrap();
/// eng.schedule_in(Nanos::new(5), "a").unwrap();
/// assert_eq!(eng.pop(), Some((Nanos::new(5), "a")));
/// assert_eq!(eng.pop(), Some((Nanos::new(10), "b")));
/// assert_eq!(eng.pop(), None);
/// ```
pub struct Engine<E> {
    /// `LEVELS * SLOTS` slot vectors, flat-indexed `level * SLOTS + slot`.
    /// Slots are indexed by *absolute* delivery time (`(at >> 6k) & 63`),
    /// so entries never relocate while the clock sweeps their window.
    wheel: Vec<Vec<Scheduled<E>>>,
    /// Per-level occupancy bitmap; bit `s` set iff slot `s` is non-empty.
    occ: [u64; LEVELS],
    /// Deliveries at or beyond `now + TOP_SPAN`.
    overflow: BinaryHeap<Scheduled<E>>,
    /// The instant currently being drained, sorted by *descending* seq so
    /// `pop()` takes FIFO order off the tail. Handlers scheduling at the
    /// same instant mid-drain append to the wheel with larger seqs and are
    /// collected on the next refill, preserving global FIFO.
    cur: Vec<Scheduled<E>>,
    /// Scratch for cascading a slot without aliasing `self.wheel`.
    scratch: Vec<Scheduled<E>>,
    /// Cached exact next delivery time (`None` = recompute on demand).
    cached_next: Cell<Option<Nanos>>,
    now: Nanos,
    seq: u64,
    delivered: u64,
    pending: usize,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an empty engine with the clock at zero.
    pub fn new() -> Self {
        Engine {
            wheel: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occ: [0; LEVELS],
            overflow: BinaryHeap::new(),
            cur: Vec::new(),
            scratch: Vec::new(),
            cached_next: Cell::new(None),
            now: Nanos::ZERO,
            seq: 0,
            delivered: 0,
            pending: 0,
        }
    }

    /// The current simulated time (the delivery time of the last popped
    /// event, or zero before any event fires).
    #[inline]
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Number of events delivered so far.
    #[inline]
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of events still pending.
    #[inline]
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Schedules `event` for delivery at absolute time `at`.
    ///
    /// Scheduling *at* the current instant is allowed (the event runs after
    /// already-queued events for that instant); scheduling before it is an
    /// error, since causality would be violated.
    pub fn schedule(&mut self, at: Nanos, event: E) -> Result<(), ScheduleError> {
        if at < self.now {
            return Err(ScheduleError::Past { now: self.now, at });
        }
        let s = Scheduled {
            at,
            seq: self.seq,
            event,
        };
        self.seq += 1;
        self.pending += 1;
        if let Some(next) = self.cached_next.get() {
            self.cached_next.set(Some(next.min(at)));
        }
        let cursor = self.now.as_nanos();
        self.place(s, cursor);
        Ok(())
    }

    /// Schedules `event` for delivery `delay` after the current time.
    pub fn schedule_in(&mut self, delay: Nanos, event: E) -> Result<(), ScheduleError> {
        let at = self.now.checked_add(delay).ok_or(ScheduleError::Overflow {
            now: self.now,
            delay,
        })?;
        self.schedule(at, event)
    }

    /// Inserts into the wheel (or overflow heap) relative to `cursor`.
    /// Caller guarantees `s.at >= cursor`.
    fn place(&mut self, s: Scheduled<E>, cursor: u64) {
        let at = s.at.as_nanos();
        debug_assert!(at >= cursor);
        let xor = at ^ cursor;
        if xor >= TOP_SPAN {
            self.overflow.push(s);
            return;
        }
        let level = level_for(xor);
        let shift = SLOT_BITS * level;
        let slot = ((at >> shift) as usize) & (SLOTS - 1);
        self.wheel[level * SLOTS + slot].push(s);
        self.occ[level] |= 1u64 << slot;
    }

    /// First occupied slot of `level` at or after `cursor`, cyclically,
    /// with its absolute window start. O(1) via the occupancy bitmap.
    fn first_slot(&self, level: usize, cursor: u64) -> Option<(usize, u64)> {
        let occ = self.occ[level];
        if occ == 0 {
            return None;
        }
        let shift = SLOT_BITS * level;
        let idx = ((cursor >> shift) as usize) & (SLOTS - 1);
        let tz = occ.rotate_right(idx as u32).trailing_zeros() as usize;
        let slot = (idx + tz) & (SLOTS - 1);
        // XOR placement keeps every occupied slot in the cursor's current
        // rotation (see `level_for`), so `slot >= idx` always holds and
        // the window start needs no wrap correction.
        debug_assert!(slot >= idx);
        let span_shift = shift + SLOT_BITS;
        let base = (cursor >> span_shift) << span_shift;
        Some((slot, base + ((slot as u64) << shift)))
    }

    /// Refills `cur` with all wheel entries at the globally earliest
    /// pending instant, sorted for FIFO drain. Returns `false` when no
    /// event is pending.
    ///
    /// Walks the wheel cascading higher-level slots: among the first
    /// occupied slot of every level, the one with the minimal window start
    /// is either a level-0 slot — whose entries all share one exact instant
    /// (no aliasing: the sweep fully drains every slot it passes) — or a
    /// coarser slot whose entries re-place at strictly lower levels once
    /// the sweep cursor reaches its window. Higher level wins window-start
    /// ties so same-instant entries split across levels are reunited in the
    /// level-0 slot before it is collected. The sweep cursor never exceeds
    /// the minimal pending delivery time, so `now` (committed by `pop`)
    /// remains a lower bound for every pending event.
    fn refill(&mut self) -> bool {
        debug_assert!(self.cur.is_empty());
        let mut cursor = self.now.as_nanos();
        loop {
            // Overflow entries the wheel horizon now covers migrate in.
            while let Some(top) = self.overflow.peek() {
                if (top.at.as_nanos() ^ cursor) < TOP_SPAN {
                    let s = self.overflow.pop().expect("peeked entry exists");
                    self.place(s, cursor);
                } else {
                    break;
                }
            }
            let mut best: Option<(usize, usize, u64)> = None;
            for level in 0..LEVELS {
                if let Some((slot, ws)) = self.first_slot(level, cursor) {
                    // `>` keeps ties: the coarsest tied level cascades
                    // first.
                    best = Some(match best {
                        Some(b) if ws > b.2 => b,
                        _ => (level, slot, ws),
                    });
                }
            }
            let Some((level, slot, ws)) = best else {
                match self.overflow.peek() {
                    // Beyond-horizon events only: jump the sweep to the
                    // earliest and let the migration loop capture it.
                    Some(top) => {
                        cursor = top.at.as_nanos();
                        continue;
                    }
                    None => return false,
                }
            };
            let idx = level * SLOTS + slot;
            self.occ[level] &= !(1u64 << slot);
            if level == 0 {
                // One exact instant; collect and drain newest-seq-last.
                std::mem::swap(&mut self.cur, &mut self.wheel[idx]);
                self.cur.sort_unstable_by_key(|s| std::cmp::Reverse(s.seq));
                debug_assert!(self.cur.iter().all(|s| s.at.as_nanos() == ws));
                return true;
            }
            // Cascade: every entry lands at a strictly lower level once the
            // sweep stands at the window start.
            cursor = cursor.max(ws);
            std::mem::swap(&mut self.scratch, &mut self.wheel[idx]);
            while let Some(s) = self.scratch.pop() {
                self.place(s, cursor);
            }
            // Hand the (now empty) allocation back to the drained slot.
            std::mem::swap(&mut self.scratch, &mut self.wheel[idx]);
        }
    }

    /// Removes and returns the next event, advancing the clock to its
    /// delivery time. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        if self.cur.is_empty() && !self.refill() {
            return None;
        }
        let s = self.cur.pop().expect("refill produced an instant");
        debug_assert!(s.at >= self.now, "wheel produced an out-of-order event");
        self.now = s.at;
        self.delivered += 1;
        self.pending -= 1;
        if self.cur.is_empty() {
            self.cached_next.set(None);
        }
        Some((s.at, s.event))
    }

    /// The delivery time of the next event, if any, without popping it.
    ///
    /// Read-only and exact: the wheel is scanned (first occupied slot per
    /// level plus the overflow minimum) without cascading, so a caller that
    /// peeks past a deadline and walks away leaves the engine untouched.
    /// The result is cached until the next structural change.
    pub fn peek_time(&self) -> Option<Nanos> {
        if let Some(s) = self.cur.last() {
            return Some(s.at);
        }
        if self.pending == 0 {
            return None;
        }
        if let Some(t) = self.cached_next.get() {
            return Some(t);
        }
        let cursor = self.now.as_nanos();
        let mut min: Option<Nanos> = self.overflow.peek().map(|s| s.at);
        for level in 0..LEVELS {
            if let Some((slot, ws)) = self.first_slot(level, cursor) {
                // A slot's window start lower-bounds everything in it, so
                // a slot that can't beat the best candidate is skipped
                // without touching its entries — crucial for coarse slots
                // parking hundreds of far-out timeouts. A level-0 window
                // IS its single instant, so it needs no scan either.
                if min.is_some_and(|m| Nanos::new(ws) >= m) {
                    continue;
                }
                if level == 0 {
                    min = Some(Nanos::new(ws));
                    continue;
                }
                for s in &self.wheel[level * SLOTS + slot] {
                    min = Some(min.map_or(s.at, |m| m.min(s.at)));
                }
            }
        }
        debug_assert!(min.is_some(), "pending > 0 but no event found");
        self.cached_next.set(min);
        min
    }

    /// Drains all events, calling `handler` on each, until the queue is
    /// empty or `handler` returns [`Step::Halt`].
    ///
    /// The handler receives the engine itself so it can schedule follow-up
    /// events; this is the main driving loop of every simulation in this
    /// workspace.
    pub fn run<F>(&mut self, mut handler: F)
    where
        F: FnMut(&mut Engine<E>, Nanos, E) -> Step,
    {
        while let Some((t, ev)) = self.pop() {
            if handler(self, t, ev) == Step::Halt {
                break;
            }
        }
    }

    /// Like [`Engine::run`] but stops (without delivering) once the next
    /// event would fire after `deadline`.
    pub fn run_until<F>(&mut self, deadline: Nanos, mut handler: F)
    where
        F: FnMut(&mut Engine<E>, Nanos, E) -> Step,
    {
        while let Some(t) = self.peek_time() {
            if t > deadline {
                break;
            }
            let (t, ev) = self.pop().expect("peeked event vanished");
            if handler(self, t, ev) == Step::Halt {
                break;
            }
        }
    }
}

/// The original `BinaryHeap` scheduler behind the same API as [`Engine`].
///
/// Kept only as the lockstep oracle for the timing wheel: the equivalence
/// property test (`tests/props.rs`) replays randomized schedules through
/// both and demands identical `(at, seq, event)` streams. Simulations use
/// [`Engine`].
pub struct BaselineEngine<E> {
    heap: BinaryHeap<Scheduled<E>>,
    now: Nanos,
    seq: u64,
    delivered: u64,
}

impl<E> Default for BaselineEngine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> BaselineEngine<E> {
    /// Creates an empty engine with the clock at zero.
    pub fn new() -> Self {
        BaselineEngine {
            heap: BinaryHeap::new(),
            now: Nanos::ZERO,
            seq: 0,
            delivered: 0,
        }
    }

    /// The current simulated time.
    #[inline]
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Number of events delivered so far.
    #[inline]
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of events still pending.
    #[inline]
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Schedules `event` for delivery at absolute time `at`.
    pub fn schedule(&mut self, at: Nanos, event: E) -> Result<(), ScheduleError> {
        if at < self.now {
            return Err(ScheduleError::Past { now: self.now, at });
        }
        self.heap.push(Scheduled {
            at,
            seq: self.seq,
            event,
        });
        self.seq += 1;
        Ok(())
    }

    /// Schedules `event` for delivery `delay` after the current time.
    pub fn schedule_in(&mut self, delay: Nanos, event: E) -> Result<(), ScheduleError> {
        let at = self.now.checked_add(delay).ok_or(ScheduleError::Overflow {
            now: self.now,
            delay,
        })?;
        self.schedule(at, event)
    }

    /// Removes and returns the next event, advancing the clock.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        let s = self.heap.pop()?;
        debug_assert!(s.at >= self.now, "heap produced an out-of-order event");
        self.now = s.at;
        self.delivered += 1;
        Some((s.at, s.event))
    }

    /// The delivery time of the next event, if any, without popping it.
    pub fn peek_time(&self) -> Option<Nanos> {
        self.heap.peek().map(|s| s.at)
    }

    /// Drains all events through `handler` until empty or [`Step::Halt`].
    pub fn run<F>(&mut self, mut handler: F)
    where
        F: FnMut(&mut BaselineEngine<E>, Nanos, E) -> Step,
    {
        while let Some((t, ev)) = self.pop() {
            if handler(self, t, ev) == Step::Halt {
                break;
            }
        }
    }

    /// Like [`BaselineEngine::run`] but stops once the next event would
    /// fire after `deadline`.
    pub fn run_until<F>(&mut self, deadline: Nanos, mut handler: F)
    where
        F: FnMut(&mut BaselineEngine<E>, Nanos, E) -> Step,
    {
        while let Some(t) = self.peek_time() {
            if t > deadline {
                break;
            }
            let (t, ev) = self.pop().expect("peeked event vanished");
            if handler(self, t, ev) == Step::Halt {
                break;
            }
        }
    }
}

/// Control-flow result of an event handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Keep delivering events.
    Continue,
    /// Stop the run loop immediately.
    Halt,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_within_same_instant() {
        let mut eng: Engine<u32> = Engine::new();
        for i in 0..100 {
            eng.schedule(Nanos::new(7), i).unwrap();
        }
        for i in 0..100 {
            assert_eq!(eng.pop(), Some((Nanos::new(7), i)));
        }
    }

    #[test]
    fn time_order_across_instants() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(Nanos::new(30), 3).unwrap();
        eng.schedule(Nanos::new(10), 1).unwrap();
        eng.schedule(Nanos::new(20), 2).unwrap();
        let order: Vec<u32> = std::iter::from_fn(|| eng.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn rejects_past_events() {
        let mut eng: Engine<()> = Engine::new();
        eng.schedule(Nanos::new(10), ()).unwrap();
        eng.pop();
        assert_eq!(eng.now(), Nanos::new(10));
        let err = eng.schedule(Nanos::new(9), ()).unwrap_err();
        assert_eq!(
            err,
            ScheduleError::Past {
                now: Nanos::new(10),
                at: Nanos::new(9)
            }
        );
    }

    #[test]
    fn schedule_in_overflow_is_an_error_not_a_wrap() {
        // Regression: `now + delay` past `Nanos::MAX` used to wrap around
        // and deliver the event in the distant past (or panic in debug).
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(Nanos::new(100), 0).unwrap();
        eng.pop();
        let err = eng.schedule_in(Nanos::MAX, 1).unwrap_err();
        assert_eq!(
            err,
            ScheduleError::Overflow {
                now: Nanos::new(100),
                delay: Nanos::MAX
            }
        );
        // The exact boundary still schedules.
        eng.schedule_in(Nanos::new(Nanos::MAX.as_nanos() - 100), 2)
            .unwrap();
        assert_eq!(eng.pop(), Some((Nanos::MAX, 2)));
        // And the baseline engine agrees on both sides of the boundary.
        let mut base: BaselineEngine<u32> = BaselineEngine::new();
        base.schedule(Nanos::new(100), 0).unwrap();
        base.pop();
        assert_eq!(
            base.schedule_in(Nanos::MAX, 1).unwrap_err(),
            ScheduleError::Overflow {
                now: Nanos::new(100),
                delay: Nanos::MAX
            }
        );
        base.schedule_in(Nanos::new(Nanos::MAX.as_nanos() - 100), 2)
            .unwrap();
        assert_eq!(base.pop(), Some((Nanos::MAX, 2)));
    }

    #[test]
    fn far_future_events_park_in_overflow_and_return() {
        // Deliveries beyond the wheel horizon (and near Nanos::MAX) park
        // in the overflow heap and still come back in order.
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(Nanos::new(u64::MAX), 4).unwrap();
        eng.schedule(Nanos::new(TOP_SPAN * 3 + 17), 3).unwrap();
        eng.schedule(Nanos::new(TOP_SPAN - 1), 2).unwrap();
        eng.schedule(Nanos::new(5), 1).unwrap();
        assert_eq!(eng.pending(), 4);
        let order: Vec<(u64, u32)> =
            std::iter::from_fn(|| eng.pop().map(|(t, e)| (t.as_nanos(), e))).collect();
        assert_eq!(
            order,
            vec![
                (5, 1),
                (TOP_SPAN - 1, 2),
                (TOP_SPAN * 3 + 17, 3),
                (u64::MAX, 4)
            ]
        );
    }

    #[test]
    fn same_instant_split_across_levels_keeps_fifo() {
        // Two events at the same instant, one scheduled from afar (coarse
        // level) and one scheduled close by (level 0), must still come out
        // in seq order — the cascade reunites them before collection.
        let mut eng: Engine<u32> = Engine::new();
        let t = Nanos::new(100_000);
        eng.schedule(t, 1).unwrap(); // delta 100000 -> coarse level
        eng.schedule(Nanos::new(99_990), 0).unwrap();
        assert_eq!(eng.pop(), Some((Nanos::new(99_990), 0)));
        // Now close to t: lands directly in level 0.
        eng.schedule(t, 2).unwrap();
        assert_eq!(eng.pop(), Some((t, 1)));
        assert_eq!(eng.pop(), Some((t, 2)));
    }

    #[test]
    fn run_drains_and_reschedules() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(Nanos::new(1), 0).unwrap();
        let mut seen = Vec::new();
        eng.run(|eng, t, ev| {
            seen.push(ev);
            if ev < 4 {
                eng.schedule(t + Nanos::new(1), ev + 1).unwrap();
            }
            Step::Continue
        });
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(eng.now(), Nanos::new(5));
        assert_eq!(eng.delivered(), 5);
    }

    #[test]
    fn run_halt_stops_early() {
        let mut eng: Engine<u32> = Engine::new();
        for i in 0..10 {
            eng.schedule(Nanos::new(i as u64), i).unwrap();
        }
        let mut count = 0;
        eng.run(|_, _, _| {
            count += 1;
            if count == 3 {
                Step::Halt
            } else {
                Step::Continue
            }
        });
        assert_eq!(count, 3);
        assert_eq!(eng.pending(), 7);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut eng: Engine<u32> = Engine::new();
        for i in 1..=10u64 {
            eng.schedule(Nanos::new(i * 10), i as u32).unwrap();
        }
        let mut seen = Vec::new();
        eng.run_until(Nanos::new(35), |_, _, ev| {
            seen.push(ev);
            Step::Continue
        });
        assert_eq!(seen, vec![1, 2, 3]);
        // The 40 ns event remains queued.
        assert_eq!(eng.peek_time(), Some(Nanos::new(40)));
    }

    #[test]
    fn peek_past_deadline_leaves_engine_schedulable_before_peeked_time() {
        // The cluster runtime peeks across epochs and then delivers switch
        // traffic at times *before* the peeked event; a peek must never
        // advance internal state in a way that rejects those schedules.
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(Nanos::new(10_000), 1).unwrap();
        eng.run_until(Nanos::new(500), |_, _, _| Step::Continue);
        assert_eq!(eng.peek_time(), Some(Nanos::new(10_000)));
        // Arrives between the deadline and the pending event.
        eng.schedule(Nanos::new(600), 0).unwrap();
        assert_eq!(eng.pop(), Some((Nanos::new(600), 0)));
        assert_eq!(eng.pop(), Some((Nanos::new(10_000), 1)));
    }

    #[test]
    fn schedule_at_now_is_allowed() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(Nanos::new(5), 1).unwrap();
        eng.pop();
        eng.schedule(Nanos::new(5), 2).unwrap();
        assert_eq!(eng.pop(), Some((Nanos::new(5), 2)));
    }

    #[test]
    fn same_instant_fifo_spans_schedule_at_now() {
        // FIFO order among same-instant events must hold even when a
        // handler schedules *at* the current instant: everything already
        // queued for `now` runs first (it was scheduled earlier), then
        // the newly added events, in their own scheduling order. The
        // cluster runtime's barrier delivery leans on this.
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule(Nanos::new(10), 1).unwrap();
        eng.schedule(Nanos::new(10), 2).unwrap();
        let mut seen = Vec::new();
        eng.run_until(Nanos::new(10), |eng, now, ev| {
            seen.push(ev);
            if ev == 1 {
                // Scheduled mid-delivery at exactly `now`.
                eng.schedule(now, 3).unwrap();
                eng.schedule(now, 4).unwrap();
            }
            Step::Continue
        });
        assert_eq!(seen, vec![1, 2, 3, 4]);
    }

    #[test]
    fn wheel_matches_baseline_on_a_dense_burst() {
        // Unit-level differential smoke; the full randomized equivalence
        // property lives in tests/props.rs.
        let mut wheel: Engine<u32> = Engine::new();
        let mut base: BaselineEngine<u32> = BaselineEngine::new();
        let times = [0u64, 1, 1, 63, 64, 65, 4095, 4096, 4097, 4096, 100_000, 63];
        for (i, &t) in times.iter().enumerate() {
            wheel.schedule(Nanos::new(t), i as u32).unwrap();
            base.schedule(Nanos::new(t), i as u32).unwrap();
        }
        loop {
            let (a, b) = (wheel.pop(), base.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(wheel.delivered(), base.delivered());
    }
}
