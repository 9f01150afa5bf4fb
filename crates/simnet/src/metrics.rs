//! Metrics registry and per-request latency attribution.
//!
//! Two complementary instruments, both deterministic and allocation-light:
//!
//! * [`Registry`] — named counters and histograms with index handles
//!   ([`CounterId`], [`HistogramId`]): register once at setup, then O(1)
//!   integer updates on the hot path. The harness threads one registry
//!   through a scenario and snapshots it into the result.
//! * [`SpanSet`] / [`HopBreakdown`] — per-request *span accounting*. As a
//!   request crosses hardware blocks, each block records a `(hop, start,
//!   end)` residency interval; [`SpanSet::attribute`] then charges the
//!   request's wall time `[posted, completed]` across the hops with a
//!   sweep that resolves overlaps first-come and books uncovered time to
//!   [`Hop::Other`]. By construction the per-hop residencies sum to
//!   *exactly* the end-to-end latency, so the measured Figure 3 breakdown
//!   reconciles with the simulator instead of being a parallel model.
//!
//! Both are opt-in: a disabled [`SpanSet`] makes `record` a no-op, so the
//! instrumented hot paths cost one branch when metrics are off.

use crate::stats::Histogram;
use crate::time::Nanos;

/// A latency-attribution category: one hop of a request's journey.
///
/// Hops mirror the components of the paper's Figure 3 flow diagram:
/// requester-side posting, the NIC processing units, each PCIe channel
/// of the SmartNIC (PCIe1, the switch, PCIe0, the SoC attach), the DMA
/// engines, memory, responder CPU handling and completion delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Hop {
    /// Requester MMIO/doorbell until the (client or server) NIC sees the
    /// request.
    Post,
    /// Requester-side NIC pipeline and payload fetch.
    ClientNic,
    /// Network wire, both directions.
    Wire,
    /// Responder NIC processing units.
    NicPu,
    /// NIC-cores-to-switch PCIe channel ("PCIe1").
    Pcie1,
    /// PCIe switch crossing.
    Switch,
    /// Switch-to-host PCIe channel ("PCIe0"), incl. the root complex.
    Pcie0,
    /// Switch-to-SoC-memory attach.
    SocAttach,
    /// DMA-engine context waits and store-and-forward drains.
    DmaEngine,
    /// Memory-system (LLC/DRAM) service time.
    Memory,
    /// Responder CPU message handling.
    Cpu,
    /// Completion delivery back to the requester.
    Completion,
    /// Time not covered by any recorded span (queueing gaps, propagation
    /// not owned by a block).
    Other,
}

/// Number of [`Hop`] variants (the arity of a [`HopBreakdown`]).
pub const HOP_COUNT: usize = 13;

impl Hop {
    /// All hops, in pipeline order.
    pub const ALL: [Hop; HOP_COUNT] = [
        Hop::Post,
        Hop::ClientNic,
        Hop::Wire,
        Hop::NicPu,
        Hop::Pcie1,
        Hop::Switch,
        Hop::Pcie0,
        Hop::SocAttach,
        Hop::DmaEngine,
        Hop::Memory,
        Hop::Cpu,
        Hop::Completion,
        Hop::Other,
    ];

    /// Stable index into [`Hop::ALL`] / a [`HopBreakdown`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short human-readable label (CSV column header).
    pub fn label(self) -> &'static str {
        match self {
            Hop::Post => "post",
            Hop::ClientNic => "client_nic",
            Hop::Wire => "wire",
            Hop::NicPu => "nic_pu",
            Hop::Pcie1 => "pcie1",
            Hop::Switch => "switch",
            Hop::Pcie0 => "pcie0",
            Hop::SocAttach => "soc_attach",
            Hop::DmaEngine => "dma_engine",
            Hop::Memory => "memory",
            Hop::Cpu => "cpu",
            Hop::Completion => "completion",
            Hop::Other => "other",
        }
    }
}

/// Per-hop residency totals of one or many requests, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HopBreakdown {
    nanos: [u64; HOP_COUNT],
}

impl HopBreakdown {
    /// An all-zero breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `dt` to a hop's residency.
    pub fn add(&mut self, hop: Hop, dt: Nanos) {
        self.nanos[hop.index()] += dt.as_nanos();
    }

    /// One hop's accumulated residency.
    pub fn get(&self, hop: Hop) -> Nanos {
        Nanos::new(self.nanos[hop.index()])
    }

    /// Sum over all hops (for a single attributed request this equals the
    /// end-to-end latency exactly).
    pub fn total(&self) -> Nanos {
        Nanos::new(self.nanos.iter().sum())
    }

    /// Accumulates another breakdown into this one.
    pub fn merge(&mut self, other: &HopBreakdown) {
        for (a, b) in self.nanos.iter_mut().zip(other.nanos.iter()) {
            *a += *b;
        }
    }

    /// `(hop, residency)` pairs in pipeline order.
    pub fn iter(&self) -> impl Iterator<Item = (Hop, Nanos)> + '_ {
        Hop::ALL.iter().map(|&h| (h, self.get(h)))
    }
}

/// Collector of raw `(hop, start, end)` residency intervals for the
/// request currently in flight.
///
/// Intervals may overlap (pipelined stages) and arrive in any order;
/// [`SpanSet::attribute`] resolves them into a [`HopBreakdown`]. Disabled
/// sets make [`SpanSet::record`] a no-op so instrumentation can stay in
/// hot paths unconditionally.
#[derive(Debug, Clone)]
pub struct SpanSet {
    spans: Vec<(Hop, Nanos, Nanos)>,
    enabled: bool,
}

impl Default for SpanSet {
    fn default() -> Self {
        Self::disabled()
    }
}

impl SpanSet {
    /// An active span collector.
    pub fn enabled() -> Self {
        SpanSet {
            spans: Vec::with_capacity(16),
            enabled: true,
        }
    }

    /// A disabled collector: records are no-ops.
    pub fn disabled() -> Self {
        SpanSet {
            spans: Vec::new(),
            enabled: false,
        }
    }

    /// Turns recording on or off.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
        if on && self.spans.capacity() == 0 {
            self.spans.reserve(16);
        }
    }

    /// Whether recording is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one residency interval (no-op when disabled or empty).
    pub fn record(&mut self, hop: Hop, start: Nanos, end: Nanos) {
        if !self.enabled || end <= start {
            return;
        }
        self.spans.push((hop, start, end));
    }

    /// Drops all recorded intervals, keeping the allocation.
    pub fn clear(&mut self) {
        self.spans.clear();
    }

    /// Number of recorded intervals.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no intervals are recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Attributes the window `[from, to]` across the recorded spans.
    ///
    /// Spans are sorted by `(start, end, hop)` and swept with a cursor:
    /// each span is charged the part of `[from, to]` it covers beyond
    /// what earlier spans already claimed; time covered by no span
    /// (gaps between spans and the head/tail of the window) is charged
    /// to [`Hop::Other`]. The resulting [`HopBreakdown::total`] equals
    /// `to - from` exactly — attribution never invents or loses time.
    pub fn attribute(&self, from: Nanos, to: Nanos) -> HopBreakdown {
        let mut bd = HopBreakdown::new();
        if to <= from {
            return bd;
        }
        let mut sorted = self.spans.clone();
        sorted.sort_by_key(|&(hop, start, end)| (start, end, hop.index()));
        let mut cursor = from;
        for (hop, start, end) in sorted {
            let start = start.max(from);
            let end = end.min(to);
            if end <= cursor {
                continue;
            }
            let begin = start.max(cursor);
            if begin > cursor {
                bd.add(Hop::Other, begin - cursor);
            }
            bd.add(hop, end - begin);
            cursor = end;
        }
        if to > cursor {
            bd.add(Hop::Other, to - cursor);
        }
        bd
    }
}

/// Handle of a registered counter (index into its [`Registry`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle of a registered histogram (index into its [`Registry`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// A registry of named counters and histograms.
///
/// Registration (name lookup) happens once at setup; updates go through
/// the returned index handles and are O(1). [`Registry::reset_values`]
/// zeroes the values but keeps the registrations — the harness calls it
/// after warmup, mirroring the hardware-counter snapshot/delta protocol.
///
/// # Examples
///
/// ```
/// use simnet::metrics::Registry;
/// use simnet::time::Nanos;
///
/// let mut reg = Registry::new();
/// let posted = reg.counter("requests_posted");
/// let lat = reg.histogram("latency_ns");
/// reg.add(posted, 3);
/// reg.observe(lat, Nanos::new(950));
/// assert_eq!(reg.counter_value("requests_posted"), Some(3));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: Vec<(String, u64)>,
    histograms: Vec<(String, Histogram)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or finds) a counter by name.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|(n, _)| n == name) {
            return CounterId(i);
        }
        self.counters.push((name.to_string(), 0));
        CounterId(self.counters.len() - 1)
    }

    /// Registers (or finds) a histogram by name.
    pub fn histogram(&mut self, name: &str) -> HistogramId {
        if let Some(i) = self.histograms.iter().position(|(n, _)| n == name) {
            return HistogramId(i);
        }
        self.histograms.push((name.to_string(), Histogram::new()));
        HistogramId(self.histograms.len() - 1)
    }

    /// Adds `n` to a counter.
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id.0].1 += n;
    }

    /// Increments a counter by one.
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Records one sample into a histogram.
    pub fn observe(&mut self, id: HistogramId, v: Nanos) {
        self.histograms[id.0].1.record(v);
    }

    /// A counter's current value by handle.
    pub fn value(&self, id: CounterId) -> u64 {
        self.counters[id.0].1
    }

    /// A counter's current value by name, if registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// A histogram by name, if registered.
    pub fn histogram_by_name(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// All counters as `(name, value)`, in registration order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// All histograms as `(name, histogram)`, in registration order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(n, h)| (n.as_str(), h))
    }

    /// Zeroes every value, keeping registrations and handles valid
    /// (called after warmup).
    pub fn reset_values(&mut self) {
        for (_, v) in &mut self.counters {
            *v = 0;
        }
        for (_, h) in &mut self.histograms {
            *h = Histogram::new();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_sums_exactly_to_window() {
        let mut s = SpanSet::enabled();
        // Overlapping, out of order, partially outside the window.
        s.record(Hop::Memory, Nanos::new(50), Nanos::new(90));
        s.record(Hop::Post, Nanos::new(0), Nanos::new(20));
        s.record(Hop::Pcie1, Nanos::new(15), Nanos::new(60));
        s.record(Hop::Completion, Nanos::new(95), Nanos::new(200));
        let bd = s.attribute(Nanos::new(10), Nanos::new(120));
        assert_eq!(bd.total(), Nanos::new(110), "sweep must conserve time");
        // First-come: Post owns [10,20), Pcie1 the uncovered [20,60).
        assert_eq!(bd.get(Hop::Post), Nanos::new(10));
        assert_eq!(bd.get(Hop::Pcie1), Nanos::new(40));
        assert_eq!(bd.get(Hop::Memory), Nanos::new(30));
        // Gap [90,95) plus nothing-at-tail: Completion is clipped at 120.
        assert_eq!(bd.get(Hop::Other), Nanos::new(5));
        assert_eq!(bd.get(Hop::Completion), Nanos::new(25));
    }

    #[test]
    fn attribution_of_empty_set_is_all_other() {
        let s = SpanSet::enabled();
        let bd = s.attribute(Nanos::new(5), Nanos::new(105));
        assert_eq!(bd.get(Hop::Other), Nanos::new(100));
        assert_eq!(bd.total(), Nanos::new(100));
    }

    #[test]
    fn disabled_spanset_records_nothing() {
        let mut s = SpanSet::disabled();
        s.record(Hop::Wire, Nanos::ZERO, Nanos::new(10));
        assert!(s.is_empty());
        assert!(!s.is_enabled());
        s.set_enabled(true);
        s.record(Hop::Wire, Nanos::ZERO, Nanos::new(10));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn empty_and_inverted_spans_ignored() {
        let mut s = SpanSet::enabled();
        s.record(Hop::Wire, Nanos::new(10), Nanos::new(10));
        s.record(Hop::Wire, Nanos::new(10), Nanos::new(5));
        assert!(s.is_empty());
        let bd = s.attribute(Nanos::new(10), Nanos::new(5));
        assert_eq!(bd.total(), Nanos::ZERO, "inverted window yields nothing");
    }

    #[test]
    fn breakdown_merge_accumulates() {
        let mut a = HopBreakdown::new();
        let mut b = HopBreakdown::new();
        a.add(Hop::Wire, Nanos::new(100));
        b.add(Hop::Wire, Nanos::new(50));
        b.add(Hop::Memory, Nanos::new(25));
        a.merge(&b);
        assert_eq!(a.get(Hop::Wire), Nanos::new(150));
        assert_eq!(a.get(Hop::Memory), Nanos::new(25));
        assert_eq!(a.total(), Nanos::new(175));
        assert_eq!(a.iter().count(), HOP_COUNT);
    }

    #[test]
    fn hop_indices_match_all_order() {
        for (i, h) in Hop::ALL.iter().enumerate() {
            assert_eq!(h.index(), i, "{h:?}");
        }
    }

    #[test]
    fn registry_find_or_register() {
        let mut r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        assert_eq!(a, b);
        r.inc(a);
        r.add(b, 4);
        assert_eq!(r.value(a), 5);
        assert_eq!(r.counter_value("x"), Some(5));
        assert_eq!(r.counter_value("y"), None);
    }

    #[test]
    fn registry_histograms_and_reset() {
        let mut r = Registry::new();
        let h = r.histogram("lat");
        let c = r.counter("n");
        r.observe(h, Nanos::new(100));
        r.inc(c);
        r.reset_values();
        assert_eq!(r.value(c), 0);
        assert_eq!(r.histogram_by_name("lat").unwrap().count(), 0);
        // Handles stay valid after reset.
        r.observe(h, Nanos::new(7));
        assert_eq!(r.histogram_by_name("lat").unwrap().count(), 1);
        assert_eq!(r.counters().count(), 1);
        assert_eq!(r.histograms().count(), 1);
    }
}
