//! Last-level cache model with DDIO semantics.
//!
//! Intel's Data Direct I/O steers inbound PCIe writes straight into the
//! LLC (write-allocate) and serves reads from it on a hit. Because the
//! cache absorbs accesses regardless of how narrow the address range is,
//! a DDIO-equipped host is immune to the skew anomaly that collapses the
//! SoC's DRAM throughput (paper §3.2, Figure 7).
//!
//! The model is a real set-associative tag array with per-set LRU, plus a
//! sliced bandwidth model (one server per LLC slice, addresses hashed
//! across slices as on Xeon).
//!
//! Its host cost follows what an access touches, not the cache's size
//! (DESIGN.md §4.3):
//!
//! * the tags live in one flat arena, `ways` per set with the
//!   most-recently-used tag last, allocated on first touch in chunks of
//!   64 sets behind a `u32`-per-chunk directory, so a machine that only
//!   touches a few sets never pays for the rest;
//! * a way stores its line's tag relative to the set, `line / sets`, in
//!   a 16-bit word while every stored tag fits; the first access to a
//!   tag of `u16::MAX` or more (an address above about 112 GB on the
//!   Xeon spec) widens the arena to 64-bit words once, keeping every way;
//! * an access of fewer than two lines per set walks its lines once and
//!   moves tags in place (a hit on the MRU tag moves nothing); a longer
//!   one gives each set a run of consecutive tags and rewrites each set
//!   once, from its ways and its run, as LRU's stack order dictates, so a
//!   16 MiB DDIO write costs what the cache holds, not what it moves;
//!   either way it then reserves each slice once for all of its lines
//!   with [`Server::reserve_run`], which leaves the slice exactly as one
//!   reservation per line would;
//! * an access to the same lines as the previous one, the requester's
//!   reused receive buffer, skips the walk when no set took more than
//!   `ways` of those lines: each is a hit, and touching them again leaves
//!   every set as it was.
//!
//! A per-line model, one `Vec` per set and one slice reservation per
//! line, is kept in the tests as the lockstep oracle of this one.

use simnet::resource::Server;
use simnet::time::Nanos;

/// Sets per lazily allocated chunk of the tag arena.
const CHUNK_SETS: usize = 64;

/// A word of the tag arena: a way's set-relative tag, `line / sets`, or
/// [`Word::EMPTY`].
trait Word: Copy + Eq {
    /// An empty way. Never a stored tag.
    const EMPTY: Self;

    /// Whether `tag` can be stored at this width.
    fn fits(tag: u64) -> bool;

    /// `tag` at this width; only meaningful when it [`fits`](Word::fits).
    fn of(tag: u64) -> Self;

    /// The stored tag; [`Word::EMPTY`] reads as the width's largest
    /// value, above every tag that fits.
    fn tag(self) -> u64;
}

impl Word for u16 {
    const EMPTY: u16 = u16::MAX;

    fn fits(tag: u64) -> bool {
        tag < u64::from(u16::MAX)
    }

    fn of(tag: u64) -> u16 {
        tag as u16
    }

    fn tag(self) -> u64 {
        u64::from(self)
    }
}

impl Word for u64 {
    /// Tags are at most `u64::MAX >> 1`: a line is at least 2 bytes.
    const EMPTY: u64 = u64::MAX;

    fn fits(_: u64) -> bool {
        true
    }

    fn of(tag: u64) -> u64 {
        tag
    }

    fn tag(self) -> u64 {
        self
    }
}

/// The touched chunks back to back, each set `ways` words, least
/// recently used first, with its empty ways in front.
#[derive(Debug, Clone)]
enum Tags {
    /// Every stored tag is below `u16::MAX`, the empty way.
    Narrow(Vec<u16>),
    /// After the first access to a tag of `u16::MAX` or more.
    Wide(Vec<u64>),
}

/// Static description of an LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcSpec {
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Cache-line size in bytes.
    pub line: u64,
    /// Number of slices (one bank/server per slice).
    pub slices: u32,
    /// Fixed hit latency component.
    pub t_hit: Nanos,
    /// Slice occupancy per line moved.
    pub t_line: Nanos,
}

impl LlcSpec {
    /// An LLC like the SRV machines' Xeon Gold: ~18 MB, 11-way, 12 slices.
    pub fn xeon_like() -> Self {
        LlcSpec {
            capacity: 18 << 20,
            ways: 11,
            line: 64,
            slices: 12,
            t_hit: Nanos::new(14),
            t_line: Nanos::new(2),
        }
    }

    /// Number of sets implied by capacity/ways/line.
    pub fn sets(&self) -> u64 {
        self.capacity / (self.ways as u64 * self.line)
    }
}

/// A stateful LLC simulator.
///
/// # Examples
///
/// ```
/// use memsys::llc::{LlcSim, LlcSpec};
/// use simnet::time::Nanos;
///
/// let mut llc = LlcSim::new(LlcSpec::xeon_like());
/// assert!(!llc.probe(0x1000, 64));
/// llc.access(Nanos::ZERO, 0x1000, 64); // allocates
/// assert!(llc.probe(0x1000, 64));
/// ```
#[derive(Debug, Clone)]
pub struct LlcSim {
    spec: LlcSpec,
    /// `log2(spec.line)`: an address's line is `addr >> line_shift`.
    line_shift: u32,
    sets: usize,
    /// Per chunk of [`CHUNK_SETS`] sets: 0 while no access has touched
    /// it, else 1 + the chunk's position in `tags`.
    chunks: Vec<u32>,
    tags: Tags,
    slices: Vec<Server>,
    hits: u64,
    misses: u64,
    /// `(first, lines)` of the previous access if every set still holds
    /// all of its lines, i.e. `lines <= ways * sets`.
    last: Option<(u64, u64)>,
}

impl LlcSim {
    /// Creates an empty cache. It holds no tag storage until an access
    /// touches a set.
    ///
    /// # Panics
    ///
    /// Panics if the spec implies zero sets, has zero ways/slices, or
    /// has a line that is not a power of two of at least 2 bytes.
    pub fn new(spec: LlcSpec) -> Self {
        assert!(
            spec.ways > 0 && spec.slices > 0 && spec.line >= 2 && spec.line.is_power_of_two(),
            "degenerate LLC"
        );
        let sets = spec.sets();
        assert!(sets > 0, "LLC smaller than one set");
        let chunks = sets.div_ceil(CHUNK_SETS as u64);
        assert!(
            chunks <= u64::from(u32::MAX),
            "LLC set count exceeds the chunk directory"
        );
        LlcSim {
            spec,
            line_shift: spec.line.trailing_zeros(),
            sets: sets as usize,
            chunks: vec![0; chunks as usize],
            tags: Tags::Narrow(Vec::new()),
            slices: vec![Server::new(); spec.slices as usize],
            hits: 0,
            misses: 0,
            last: None,
        }
    }

    /// The spec this cache was built from.
    pub fn spec(&self) -> &LlcSpec {
        &self.spec
    }

    /// Whether the first line of `[addr, addr+bytes)` is resident, without
    /// touching LRU state.
    pub fn probe(&self, addr: u64, _bytes: u64) -> bool {
        let line = addr >> self.line_shift;
        let sets = self.sets as u64;
        let (tag, set) = (line / sets, (line % sets) as usize);
        match self.chunks[set / CHUNK_SETS] {
            0 => false,
            id => {
                let ways = self.spec.ways as usize;
                let start = set_start(id, set, ways);
                match &self.tags {
                    Tags::Narrow(tags) => holds(&tags[start..start + ways], tag),
                    Tags::Wide(tags) => holds(&tags[start..start + ways], tag),
                }
            }
        }
    }

    /// Accesses (and allocates) `[addr, addr+bytes)`, reserving slice
    /// bandwidth; returns the completion time.
    ///
    /// # Panics
    ///
    /// Panics if `bytes == 0` or the access runs past `u64::MAX`.
    pub fn access(&mut self, now: Nanos, addr: u64, bytes: u64) -> Nanos {
        assert!(bytes > 0, "zero-byte LLC access");
        let end = addr
            .checked_add(bytes - 1)
            .expect("LLC access past the end of the address space");
        let first = addr >> self.line_shift;
        let lines = (end >> self.line_shift) - first + 1;
        if self.last == Some((first, lines)) {
            // Each set's lines sit in its top ways in address order, and
            // touching them again in that order rebuilds the same order.
            self.hits += lines;
        } else {
            self.touch(first, lines);
            let resident = lines <= u64::from(self.spec.ways) * self.sets as u64;
            self.last = resident.then_some((first, lines));
        }
        self.reserve_slices(now, first, lines)
    }

    /// Looks up and LRU-updates `lines` consecutive lines from `first`,
    /// first widening the arena if the last line's tag needs it.
    fn touch(&mut self, first: u64, lines: u64) {
        let sets = self.sets as u64;
        let (tag, set) = (first / sets, (first % sets) as usize);
        if let Tags::Narrow(narrow) = &self.tags {
            // The last line has the largest tag, and a tag reaches
            // `u16::MAX` from line `u16::MAX * sets` on.
            if first + lines > u64::from(u16::MAX) * sets {
                let wide = narrow
                    .iter()
                    .map(|&t| {
                        if t == u16::EMPTY {
                            u64::EMPTY
                        } else {
                            u64::from(t)
                        }
                    })
                    .collect();
                self.tags = Tags::Wide(wide);
            }
        }
        let (ways, chunks) = (self.spec.ways as usize, &mut self.chunks[..]);
        let hits = match &mut self.tags {
            Tags::Narrow(tags) => walk(tags, chunks, ways, self.sets, set, tag, lines),
            Tags::Wide(tags) => walk(tags, chunks, ways, self.sets, set, tag, lines),
        };
        self.hits += hits;
        self.misses += lines - hits;
    }

    /// Reserves every slice once for its share of `lines` consecutive
    /// lines from `first`. Line `l` lives on slice `l % slices`: Xeon
    /// hashes physical addresses across slices, and consecutive lines
    /// landing on consecutive slices captures that. All lines are issued
    /// at `now`, so a slice serves its share back to back, exactly as one
    /// reservation per line would. Returns when the last line is served
    /// plus the hit latency.
    fn reserve_slices(&mut self, now: Nanos, first: u64, lines: u64) -> Nanos {
        let n_slices = self.slices.len() as u64;
        let (per, extra) = (lines / n_slices, lines % n_slices);
        let mut slice = (first % n_slices) as usize;
        let mut done = now;
        for i in 0..lines.min(n_slices) {
            let n = per + u64::from(i < extra);
            let run = self.slices[slice].reserve_run(now, self.spec.t_line, n);
            done = done.max(run.finish + self.spec.t_hit);
            slice += 1;
            if slice == self.slices.len() {
                slice = 0;
            }
        }
        done
    }

    /// Hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses (allocations) observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// Index in the arena of `set`'s first way, in the chunk with directory
/// entry `id`.
fn set_start(id: u32, set: usize, ways: usize) -> usize {
    ((id as usize - 1) * CHUNK_SETS + set % CHUNK_SETS) * ways
}

/// Whether `set`, one set's ways, holds `tag`. A tag that does not fit
/// the width was never stored.
fn holds<T: Word>(set: &[T], tag: u64) -> bool {
    T::fits(tag) && set.contains(&T::of(tag))
}

/// Index in the arena of `set`'s first way, allocating its chunk on first
/// touch.
fn touch_set<T: Word>(tags: &mut Vec<T>, chunks: &mut [u32], ways: usize, set: usize) -> usize {
    let chunk = set / CHUNK_SETS;
    if chunks[chunk] == 0 {
        tags.resize(tags.len() + CHUNK_SETS * ways, T::EMPTY);
        chunks[chunk] = (tags.len() / (CHUNK_SETS * ways)) as u32;
    }
    set_start(chunks[chunk], set, ways)
}

/// Looks up and LRU-updates `lines` consecutive lines, the first in set
/// `set` of `sets` with tag `tag`, allocating chunks on first touch;
/// returns the hits. Every tag walked must fit the width. An access of at
/// least two lines per set goes set by set ([`walk_runs`]), a shorter one
/// line by line.
fn walk<T: Word>(
    tags: &mut Vec<T>,
    chunks: &mut [u32],
    ways: usize,
    sets: usize,
    mut set: usize,
    mut tag: u64,
    lines: u64,
) -> u64 {
    if lines >= 2 * sets as u64 {
        return walk_runs(tags, chunks, ways, sets, set, tag, lines);
    }
    let mut hits = 0;
    for _ in 0..lines {
        let start = touch_set(tags, chunks, ways, set);
        // Put the line in the MRU way and push the tags below it down
        // one way, down to the way that held the line (a hit) or past
        // way 0, evicting its LRU tag or empty way (a miss). A hit on
        // the MRU tag moves nothing.
        let line = T::of(tag);
        let mut carry = line;
        for way in tags[start..start + ways].iter_mut().rev() {
            carry = std::mem::replace(way, carry);
            if carry == line {
                break;
            }
        }
        hits += u64::from(carry == line);
        set += 1;
        if set == sets {
            set = 0;
            tag += 1;
        }
    }
    hits
}

/// [`walk`] for an access of at least `sets` lines, applied set by set:
/// the `i`-th set from `set` (with the line walk's wrap, so chunks are
/// allocated in the same order) takes the `lines / sets` tags from its
/// first line's tag on, one more in the first `lines % sets` sets.
fn walk_runs<T: Word>(
    tags: &mut Vec<T>,
    chunks: &mut [u32],
    ways: usize,
    sets: usize,
    mut set: usize,
    mut tag: u64,
    lines: u64,
) -> u64 {
    let (per, extra) = (lines / sets as u64, (lines % sets as u64) as usize);
    let mut hits = 0;
    for i in 0..sets {
        let start = touch_set(tags, chunks, ways, set);
        let run = per + u64::from(i < extra);
        hits += apply_run(&mut tags[start..start + ways], tag, run);
        set += 1;
        if set == sets {
            set = 0;
            tag += 1;
        }
    }
    hits
}

/// Touches the tags `t..t + k` of one set's ways in ascending order, as
/// `k` steps of [`walk`]'s carry loop would; returns the hits. The last
/// tag must fit the width, so no tag of the run is the empty word.
///
/// LRU keeps the most recently used tags of any sequence, so the set ends
/// as the last `ways` of its ways outside the run, in order, followed by
/// the run. A way holding `v` of the run is a hit when `v` is reached iff
/// the `v - t` run tags touched before it, plus the ways above it that
/// they did not lift, are fewer than `ways`.
fn apply_run<T: Word>(set: &mut [T], t: u64, k: u64) -> u64 {
    let ways = set.len();
    // A way's offset in the run, below `k` for a run tag; an empty way,
    // the width's largest word, is above the run's last tag.
    let offset = |w: T| w.tag().wrapping_sub(t);
    let resident = set.iter().filter(|&&w| offset(w) < k).count();
    let mut hits = 0;
    if resident > 0 {
        // A run tag at offset `ways` or more is evicted before it is
        // reached.
        let reach = k.min(ways as u64);
        for (i, &w) in set.iter().enumerate() {
            let v = offset(w);
            if v < reach {
                let v = v as usize;
                // At most `ways - 1 - i` ways are above, so `v <= i` hits.
                let lifted = || {
                    set[i + 1..]
                        .iter()
                        .filter(|&&u| offset(u) < v as u64)
                        .count()
                };
                hits += u64::from(v <= i || v - lifted() <= i);
            }
        }
    }
    if k >= ways as u64 {
        for (w, tag) in set.iter_mut().zip(t + k - ways as u64..) {
            *w = T::of(tag);
        }
        return hits;
    }
    let kept = ways - k as usize;
    if resident == 0 {
        set.copy_within(k as usize.., 0);
    } else {
        // The outside way at `i`, with `below` run tags under it, is
        // outside way `i - below` from the bottom, of `ways - resident`;
        // the top `kept` of them move down to end at way `kept - 1`.
        let mut below = 0;
        for i in 0..ways {
            if offset(set[i]) < k {
                below += 1;
            } else if let Some(at) = (i + resident + kept).checked_sub(ways + below) {
                set[at] = set[i];
            }
        }
    }
    for (w, tag) in set[kept..].iter_mut().zip(t..) {
        *w = T::of(tag);
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::prop::{check, Gen};
    use simnet::prop_assert_eq;

    /// The per-line model `LlcSim` replaced, kept as its lockstep
    /// oracle: one `Vec` of tags per set (MRU last), a linear search and
    /// a `remove`/`push` per line, and one slice reservation per line.
    struct PerLineLlc {
        spec: LlcSpec,
        sets: Vec<Vec<u64>>,
        slices: Vec<Server>,
        hits: u64,
        misses: u64,
    }

    impl PerLineLlc {
        fn new(spec: LlcSpec) -> Self {
            PerLineLlc {
                spec,
                sets: vec![Vec::new(); spec.sets() as usize],
                slices: vec![Server::new(); spec.slices as usize],
                hits: 0,
                misses: 0,
            }
        }

        fn set_of(&self, line: u64) -> usize {
            (line % self.sets.len() as u64) as usize
        }

        fn probe(&self, addr: u64, _bytes: u64) -> bool {
            let line = addr / self.spec.line;
            self.sets[self.set_of(line)].contains(&line)
        }

        fn access(&mut self, now: Nanos, addr: u64, bytes: u64) -> Nanos {
            let first = addr / self.spec.line;
            let last = (addr + bytes - 1) / self.spec.line;
            let mut done = now;
            for line in first..=last {
                let set_idx = self.set_of(line);
                let set = &mut self.sets[set_idx];
                if let Some(pos) = set.iter().position(|&t| t == line) {
                    let t = set.remove(pos);
                    set.push(t);
                    self.hits += 1;
                } else {
                    if set.len() == self.spec.ways as usize {
                        set.remove(0);
                    }
                    set.push(line);
                    self.misses += 1;
                }
                let slice = (line % self.slices.len() as u64) as usize;
                let res = self.slices[slice].reserve(now, self.spec.t_line);
                done = done.max(res.finish + self.spec.t_hit);
            }
            done
        }
    }

    fn tiny_spec() -> LlcSpec {
        LlcSpec {
            capacity: 4096, // 4 sets of 16 ways... see below
            ways: 4,
            line: 64,
            slices: 2,
            t_hit: Nanos::new(10),
            t_line: Nanos::new(2),
        }
    }

    /// A small random spec: at most 200 sets (up to four chunks, the
    /// last one often partial, and half the time a set count at a chunk
    /// edge), so long accesses wrap the set array many times, with fewer
    /// than `max_ways` ways and a slice count that need not divide the
    /// set count.
    fn random_tiny_spec(g: &mut Gen, max_ways: u32) -> LlcSpec {
        let ways = g.u32(1..max_ways);
        let line = [32, 64, 128][g.usize(0..3)];
        let sets = if g.bool() {
            [1, 63, 64, 65, 128, 129][g.usize(0..6)]
        } else {
            g.u64(1..201)
        };
        LlcSpec {
            capacity: sets * u64::from(ways) * line + g.u64(0..line),
            ways,
            line,
            slices: g.u32(1..8),
            t_hit: Nanos::new(g.u64(0..20)),
            t_line: Nanos::new(g.u64(0..4)),
        }
    }

    /// A size from 1 to `max` bytes whose binary order of magnitude is
    /// uniform.
    fn size_up_to(g: &mut Gen, max: u64) -> u64 {
        let log = g.u64(0..64 - u64::from(max.leading_zeros()));
        1 + g.u64(0..1 << log)
    }

    /// Chunks of the tag arena allocated so far.
    fn chunks_allocated(llc: &LlcSim) -> usize {
        llc.chunks.iter().filter(|&&id| id != 0).count()
    }

    /// The tag arena's words in use, words allocated and bytes in use, at
    /// whichever width it has.
    fn arena(llc: &LlcSim) -> (usize, usize, usize) {
        match &llc.tags {
            Tags::Narrow(t) => (t.len(), t.capacity(), std::mem::size_of_val(&t[..])),
            Tags::Wide(t) => (t.len(), t.capacity(), std::mem::size_of_val(&t[..])),
        }
    }

    fn is_wide(llc: &LlcSim) -> bool {
        matches!(llc.tags, Tags::Wide(_))
    }

    /// The lines `set` holds, least recently used first, as the per-line
    /// oracle lists them, read at whichever width the arena has.
    fn set_lines(llc: &LlcSim, set: usize) -> Vec<u64> {
        fn stored<T: Word>(ways: &[T]) -> Vec<u64> {
            ways.iter()
                .filter(|&&w| w != T::EMPTY)
                .map(|&w| w.tag())
                .collect()
        }
        let ways = llc.spec.ways as usize;
        let start = match llc.chunks[set / CHUNK_SETS] {
            0 => return Vec::new(),
            id => set_start(id, set, ways),
        };
        let tags = match &llc.tags {
            Tags::Narrow(t) => stored(&t[start..start + ways]),
            Tags::Wide(t) => stored(&t[start..start + ways]),
        };
        let sets = llc.sets as u64;
        tags.into_iter()
            .map(|tag| tag * sets + set as u64)
            .collect()
    }

    #[test]
    fn sets_arithmetic() {
        let s = tiny_spec();
        assert_eq!(s.sets(), 4096 / (4 * 64));
    }

    #[test]
    fn allocate_then_hit() {
        let mut llc = LlcSim::new(tiny_spec());
        assert!(!llc.probe(0, 64));
        llc.access(Nanos::ZERO, 0, 64);
        assert!(llc.probe(0, 64));
        assert_eq!(llc.misses(), 1);
        llc.access(Nanos::ZERO, 0, 64);
        assert_eq!(llc.hits(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let spec = tiny_spec();
        let sets = spec.sets();
        let mut llc = LlcSim::new(spec);
        // Fill one set: lines that share `line % sets`.
        let lines: Vec<u64> = (0..4u64).map(|i| i * sets).collect();
        for &l in &lines {
            llc.access(Nanos::ZERO, l * 64, 64);
        }
        // Touch line 0 to make it MRU, then insert a 5th line.
        llc.access(Nanos::ZERO, 0, 64);
        llc.access(Nanos::ZERO, 4 * sets * 64, 64);
        // Line 1*sets was LRU and must be gone; line 0 must survive.
        assert!(!llc.probe(sets * 64, 64));
        assert!(llc.probe(0, 64));
    }

    #[test]
    fn multi_line_access_spans_lines() {
        let mut llc = LlcSim::new(tiny_spec());
        llc.access(Nanos::ZERO, 0, 256); // 4 lines
        assert_eq!(llc.misses(), 4);
        assert!(llc.probe(192, 64));
    }

    #[test]
    fn slices_parallelize() {
        let mut llc = LlcSim::new(LlcSpec::xeon_like());
        // Many single-line accesses at t=0: with 12 slices x 2 ns, the
        // makespan for 120 accesses is ~10 serialized per slice.
        let mut done = Nanos::ZERO;
        for i in 0..120u64 {
            done = done.max(llc.access(Nanos::ZERO, i * 64, 64));
        }
        // Sequential would be 240 ns + hit; sliced should be well under.
        assert!(done < Nanos::new(100), "{done}");
    }

    #[test]
    #[should_panic(expected = "zero-byte")]
    fn zero_bytes_rejected() {
        LlcSim::new(tiny_spec()).access(Nanos::ZERO, 0, 0);
    }

    #[test]
    #[should_panic(expected = "LLC access past the end of the address space")]
    fn access_past_the_address_space_rejected() {
        LlcSim::new(LlcSpec::xeon_like()).access(Nanos::from_micros(1), u64::MAX - 10, 64);
    }

    #[test]
    fn access_ending_at_the_top_of_the_address_space() {
        let mut llc = LlcSim::new(LlcSpec::xeon_like());
        llc.access(Nanos::ZERO, u64::MAX - 63, 64);
        assert_eq!(llc.misses(), 1);
        assert!(llc.probe(u64::MAX, 1));
    }

    #[test]
    fn xeon_spec_sane() {
        let s = LlcSpec::xeon_like();
        assert!(s.sets() > 10_000);
        let llc = LlcSim::new(s);
        assert!(!llc.probe(12345 * 64, 64));
    }

    #[test]
    fn tag_storage_is_allocated_per_touched_chunk() {
        let line = LlcSpec::xeon_like().line;
        let llc = LlcSim::new(LlcSpec::xeon_like());
        assert_eq!(arena(&llc).1, 0, "a new cache holds no tags");
        assert!(std::mem::size_of_val(&llc.chunks[..]) < 2 << 10);

        let mut one = llc.clone();
        one.access(Nanos::ZERO, 0, 64);
        assert_eq!(chunks_allocated(&one), 1);

        // Sets 32..96: the second half of chunk 0, the first of chunk 1.
        let mut two = llc;
        two.access(Nanos::ZERO, 32 * line, 4096);
        assert_eq!(chunks_allocated(&two), 2);
        let ways = LlcSpec::xeon_like().ways as usize;
        assert_eq!(arena(&two).0, 2 * CHUNK_SETS * ways);

        // The requester's 16 MiB receive buffer touches every set, and
        // its tags (at most 9) fit 16-bit words: 419 chunks of 64 sets
        // x 11 ways x 2 B.
        let mut full = LlcSim::new(LlcSpec::xeon_like());
        full.access(Nanos::ZERO, 0, 16 << 20);
        assert!(!is_wide(&full));
        assert_eq!(chunks_allocated(&full), 419);
        assert_eq!(arena(&full).2, 589_952);
    }

    /// The narrow bound on a tiny spec and on the Xeon spec, against the
    /// per-line oracle after every access. While the arena is narrow it
    /// stores tag 65,534, the largest that fits, in the last set and tag
    /// 0 in set 1, and probes of tags 65,535 (the empty way's word) and
    /// 65,536 (tag 0 truncated) in set 1 answer false without widening.
    /// A two-line access from the last set's line wraps to set 0's line
    /// with tag 65,535: its first tag fits and its last does not, so it
    /// widens before its walk, keeping every resident tag in its way and
    /// every empty way empty. After it, tags 0, 65,535 and 65,536 share
    /// set 1.
    #[test]
    fn narrow_tags_widen_in_place() {
        for spec in [tiny_spec(), LlcSpec::xeon_like()] {
            let sets = spec.sets();
            let at = |tag: u64, set: u64| (tag * sets + set) * spec.line;
            let probes: Vec<u64> = [0, 1, 65_534, 65_535, 65_536, 65_537, 131_071]
                .into_iter()
                .flat_map(|tag| [0, 1, sets - 1].map(|set| at(tag, set)))
                .collect();
            let mut fast = LlcSim::new(spec);
            let mut slow = PerLineLlc::new(spec);
            let mut step = |fast: &mut LlcSim, addr: u64, bytes: u64, wide: bool| {
                let done = fast.access(Nanos::ZERO, addr, bytes);
                assert_eq!(done, slow.access(Nanos::ZERO, addr, bytes), "{addr:#x}");
                assert_eq!((fast.hits(), fast.misses()), (slow.hits, slow.misses));
                assert_eq!(is_wide(fast), wide, "width after {addr:#x}");
                for &p in &probes {
                    assert_eq!(fast.probe(p, 1), slow.probe(p, 1), "probe {p:#x}");
                }
                arena(fast)
            };
            step(&mut fast, at(65_534, sets - 1), 1, false);
            let narrow = step(&mut fast, at(0, 1), 1, false);
            assert!(fast.probe(at(65_534, sets - 1), 1) && fast.probe(at(0, 1), 1));
            assert!(!fast.probe(at(65_535, 1), 1) && !fast.probe(at(65_536, 1), 1));
            assert!(!is_wide(&fast), "a probe widened the arena");
            // A hit on the last set's line, then set 0's line with tag
            // 65,535, in chunks already allocated.
            let wide = step(&mut fast, at(65_534, sets - 1), 2 * spec.line, true);
            assert_eq!(wide.0, narrow.0, "widening moved the chunks");
            assert_eq!(wide.2, 4 * narrow.2);
            // Set 1 still holds tag 0 and `ways - 1` empty ways.
            assert!(!fast.probe(at(65_535, 1), 1), "an empty way became a tag");
            step(&mut fast, at(65_535, 1), 1, true);
            step(&mut fast, at(65_536, 1), 1, true);
            let resident = [at(0, 1), at(65_535, 1), at(65_536, 1), at(65_535, 0)];
            assert!(resident.iter().all(|&a| fast.probe(a, 1)));
            assert_eq!((fast.hits(), fast.misses()), (1, 5));
        }
    }

    /// The requester's pattern on the Xeon spec: every READ response is
    /// a DDIO write to the same receive buffer at address 0. A repeated
    /// 16 MiB write (262,144 lines, at most 10 per set) hits every line.
    /// A repeated 20 MiB write (327,680 lines, more than 11 x 26,810)
    /// overflows its sets, so LRU evicts each line before its repeat.
    /// Either way the repeat leaves every probe verdict as it was, and
    /// finish times, counters and verdicts match the per-line oracle.
    #[test]
    fn repeated_receive_buffer_write_on_xeon() {
        let spec = LlcSpec::xeon_like();
        for (bytes, repeat_hits) in [(16 << 20, 262_144), (20 << 20, 0)] {
            let mut fast = LlcSim::new(spec);
            let mut slow = PerLineLlc::new(spec);
            let mut verdicts = Vec::new();
            for now in [Nanos::ZERO, Nanos::from_micros(1_000)] {
                let done = fast.access(now, 0, bytes);
                assert_eq!(done, slow.access(now, 0, bytes), "{bytes} B");
                assert_eq!((fast.hits(), fast.misses()), (slow.hits, slow.misses));
                // The buffer's lines and 1 MiB past it.
                let probed: Vec<bool> = (0..(bytes + (1 << 20)) / spec.line)
                    .map(|l| fast.probe(l * spec.line, 1))
                    .collect();
                for (l, &resident) in probed.iter().enumerate() {
                    assert_eq!(resident, slow.probe(l as u64 * spec.line, 1), "line {l}");
                }
                verdicts.push(probed);
            }
            assert_eq!(fast.hits(), repeat_hits, "{bytes} B");
            assert_eq!(verdicts[0], verdicts[1], "{bytes} B");
        }
    }

    /// Drives `LlcSim` and the per-line oracle with the same random
    /// accesses, 1 B to 4 MiB at a rising `now` (to 24 MiB in half of
    /// the Xeon-spec cases, past the 3.27 MiB from which an access on
    /// that spec goes set by set): raw accesses (DDIO writes) and reads
    /// that access only when `probe` hits (the `MemSystem::dma_access`
    /// rule), then probes across each touched span and at the lines
    /// 65,536 tags on in the same sets. Some accesses repeat the previous
    /// access's lines, from the same bytes or another offset and length,
    /// and on tiny specs many of those overflow their sets; others sit
    /// next to the 16-bit tag bound. Finish times, counters, probe
    /// verdicts and slice state must agree, and narrow-only cases,
    /// widenings of an arena that holds tags and Xeon-spec cases that go
    /// set by set must all occur.
    #[test]
    fn lockstep_matches_per_line_oracle() {
        // Cases that ended narrow after probing a tag past the narrow
        // bound, cases that widened a narrow arena holding tags, and
        // Xeon-spec cases with an access that went set by set.
        let seen = std::cell::Cell::new([0u32; 3]);
        let note = |i: usize| {
            let mut s = seen.get();
            s[i] += 1;
            seen.set(s);
        };
        check("llc_lockstep_matches_per_line_oracle", |g| {
            let (spec, max_bytes) = if g.bool() {
                (
                    LlcSpec::xeon_like(),
                    if g.bool() { 24 << 20 } else { 4 << 20 },
                )
            } else {
                (random_tiny_spec(g, 9), 4 << 20)
            };
            let mut fast = LlcSim::new(spec);
            let mut slow = PerLineLlc::new(spec);
            let mut now = Nanos::ZERO;
            let mut spans: Vec<(u64, u64)> = Vec::new();
            let past_bound = |a: u64| !u16::fits((a / spec.line) / spec.sets());
            // 65,536 tags on in the same set: a 16-bit word cannot tell
            // the two lines apart.
            let alias = (1 << 16) * spec.sets() * spec.line;
            let (mut probed_past_bound, mut widened, mut by_sets) = (false, false, false);
            for step in 0..g.usize(1..160) {
                now += Nanos::new(g.u64(0..300));
                let (addr, bytes) = match g.u64(0..10) {
                    // Anywhere, 1 B to `max_bytes`.
                    0 => {
                        let bytes = size_up_to(g, max_bytes);
                        let addr = if g.bool() {
                            g.u64(0..2 * spec.capacity)
                        } else {
                            g.any_u64()
                        };
                        (addr.min(u64::MAX - (bytes - 1)), bytes)
                    }
                    // Part of a recent span, near its end where its
                    // lines are most likely still resident.
                    1 | 2 if !spans.is_empty() => {
                        let (a, b) = spans[spans.len() - 1 - g.usize(0..spans.len().min(4))];
                        let len = size_up_to(g, b);
                        let back = g.u64(0..(b - len).min(len) + 1);
                        (a + b - len - back, len)
                    }
                    // The previous access's first to last line, from its
                    // own bytes or from any offset in the first line to
                    // any offset in the last.
                    3 | 4 if !spans.is_empty() => {
                        let (a, b) = spans[spans.len() - 1];
                        if g.bool() {
                            (a, b)
                        } else {
                            let first = a / spec.line * spec.line;
                            let last = (a + b - 1) / spec.line * spec.line;
                            let mut offsets = [g.u64(0..spec.line), g.u64(0..spec.line)];
                            if first == last {
                                offsets.sort_unstable();
                            }
                            let at = first + offsets[0];
                            (at, last + offsets[1] - at + 1)
                        }
                    }
                    // Up to two lines from a tag next to the narrow
                    // bound, or from 0 or 1, which a 16-bit word cannot
                    // tell from 65,536 or 65,537, in set 0, set 1 or the
                    // last set: widenings, and probes of tags a narrow
                    // arena cannot hold.
                    5 => {
                        let tag = [0, 1, 65_533, 65_534, 65_535, 65_536, 65_537][g.usize(0..7)];
                        let line = tag * spec.sets() + [0, 1, spec.sets() - 1][g.usize(0..3)];
                        let at = line * spec.line + g.u64(0..spec.line);
                        (at, size_up_to(g, 2 * spec.line))
                    }
                    // Up to a line among 1.5 x ways tags that compete for
                    // two sets: hits at every LRU position, and evictions.
                    _ => {
                        let tag = g.u64(0..u64::from(spec.ways) * 3 / 2 + 1);
                        let at = tag * spec.sets() * spec.line + g.u64(0..2 * spec.line);
                        (at, size_up_to(g, spec.line))
                    }
                };
                if g.bool() {
                    let resident = fast.probe(addr, bytes);
                    prop_assert_eq!(resident, slow.probe(addr, bytes), "read probe, step {step}");
                    probed_past_bound |= !is_wide(&fast) && past_bound(addr);
                    if !resident {
                        continue;
                    }
                }
                spans.push((addr, bytes));
                let narrow_with_tags = !is_wide(&fast) && fast.misses() > 0;
                let lines = (addr + (bytes - 1)) / spec.line - addr / spec.line + 1;
                by_sets |= spec == LlcSpec::xeon_like() && lines >= 2 * spec.sets();
                let done = fast.access(now, addr, bytes);
                widened |= narrow_with_tags && is_wide(&fast);
                prop_assert_eq!(done, slow.access(now, addr, bytes), "finish, step {step}");
                prop_assert_eq!(
                    (fast.hits(), fast.misses()),
                    (slow.hits, slow.misses),
                    "hits and misses, step {step}"
                );
                for k in 0..=16 {
                    let a = addr + (bytes - 1) * k / 16;
                    for a in std::iter::once(a).chain(a.checked_add(alias)) {
                        prop_assert_eq!(fast.probe(a, 1), slow.probe(a, 1), "probe {a:#x}");
                        probed_past_bound |= !is_wide(&fast) && past_bound(a);
                    }
                }
            }
            if probed_past_bound && !is_wide(&fast) {
                note(0);
            }
            if widened {
                note(1);
            }
            if by_sets {
                note(2);
            }
            for (f, s) in fast.slices.iter().zip(&slow.slices) {
                prop_assert_eq!(
                    (f.next_free(), f.busy_time(), f.served()),
                    (s.next_free(), s.busy_time(), s.served())
                );
            }
            Ok(())
        });
        let [narrow, widened, by_sets] = seen.get();
        assert!(
            narrow > 0 && widened > 0 && by_sets > 0,
            "{narrow} cases ended narrow after probing past the bound, {widened} widened with \
             tags, {by_sets} Xeon-spec cases went set by set"
        );
    }

    /// One access of 2 x sets to 3 x ways x sets lines, which goes set by
    /// set, against the per-line oracle, on the Xeon spec and on tiny
    /// specs of 1 to 16 ways. Before it, ranges that overlap its lines
    /// leave its tags resident in address order, single lines from a few
    /// sets leave its tags and others at every LRU position, and some
    /// sets stay empty; the arena may be widened first. The access ends
    /// at a low tag, at tag 65,534 or past it. It must match the oracle's
    /// finish time, hit and miss counts and every set's LRU contents, and
    /// each kind of case below must occur.
    #[test]
    fn runs_match_per_line_oracle() {
        const KINDS: [&str; 6] = [
            "resident run tags that hit",
            "resident run tags evicted before they are reached",
            "sets that take at least `ways` tags",
            "empty sets",
            "a narrow run ending at tag 65,534",
            "a run that widens the arena",
        ];
        let seen = std::cell::Cell::new([0u32; KINDS.len()]);
        check("llc_runs_match_per_line_oracle", |g| {
            let spec = if g.u64(0..4) == 0 {
                LlcSpec::xeon_like()
            } else {
                random_tiny_spec(g, 17)
            };
            let (sets, ways) = (spec.sets(), u64::from(spec.ways));
            let lines = g.u64(2 * sets..3 * ways * sets + 1);
            let last = match g.u64(0..4) {
                0 => 65_534 * sets + g.u64(0..sets),
                1 => 65_535 * sets + g.u64(0..2 * sets),
                _ => lines - 1 + g.u64(0..4 * sets),
            };
            let first = last + 1 - lines;
            let mut fast = LlcSim::new(spec);
            let mut slow = PerLineLlc::new(spec);
            let mut now = Nanos::ZERO;
            let mut step = |g: &mut Gen, fast: &mut LlcSim, slow: &mut PerLineLlc, line, n| {
                now += Nanos::new(g.u64(0..300));
                let (addr, bytes) = (line * spec.line, n * spec.line);
                let done = fast.access(now, addr, bytes);
                prop_assert_eq!(done, slow.access(now, addr, bytes), "finish, {n} lines");
                prop_assert_eq!((fast.hits(), fast.misses()), (slow.hits, slow.misses));
                Ok(())
            };
            // Ranges that end inside the access.
            for _ in 0..g.usize(0..3) {
                let from = (first + g.u64(0..lines)).saturating_sub(g.u64(0..ways * sets + 1));
                let n = g.u64(1..2 * ways * sets + 1).min(last + 1 - from);
                step(g, &mut fast, &mut slow, from, n)?;
            }
            // Single lines in a few sets, from two tags below the access's
            // first to two above its last, all narrow.
            let pool: Vec<u64> = (0..g.usize(1..9))
                .map(|_| match g.u64(0..3) {
                    0 => first % sets,
                    1 => last % sets,
                    _ => g.u64(0..sets),
                })
                .collect();
            let tags = (first / sets).saturating_sub(2)..(last / sets + 3).min(65_535);
            for _ in 0..g.usize(0..4 * ways as usize * pool.len() + 1) {
                let line = g.u64(tags.clone()) * sets + pool[g.usize(0..pool.len())];
                step(g, &mut fast, &mut slow, line, 1)?;
            }
            if g.u64(0..4) == 0 {
                let line = (65_535 + g.u64(0..3)) * sets + pool[g.usize(0..pool.len())];
                step(g, &mut fast, &mut slow, line, 1)?;
            }

            let resident: u64 = slow
                .sets
                .iter()
                .map(|set| set.iter().filter(|&l| (first..=last).contains(l)).count() as u64)
                .sum();
            let empty = slow.sets.iter().any(Vec::is_empty);
            let (hits, narrow) = (fast.hits(), !is_wide(&fast));
            step(g, &mut fast, &mut slow, first, lines)?;
            for (set, lines) in slow.sets.iter().enumerate() {
                prop_assert_eq!(&set_lines(&fast, set), lines, "set {set}");
            }

            let hits = fast.hits() - hits;
            let kinds = [
                hits > 0,
                hits < resident,
                lines.div_ceil(sets) >= ways,
                empty,
                narrow && last / sets == 65_534,
                narrow && is_wide(&fast),
            ];
            let mut s = seen.get();
            for (count, kind) in s.iter_mut().zip(kinds) {
                *count += u32::from(kind);
            }
            seen.set(s);
            Ok(())
        });
        let counts = seen.get();
        for (kind, count) in KINDS.iter().zip(counts) {
            assert!(count > 0, "no case with {kind}: {counts:?}");
        }
    }
}
