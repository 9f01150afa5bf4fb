//! The metric catalog and the one-line JSON result.

/// End-to-end metrics, printed with `--trace 0`: (name, unit).
pub const END_TO_END: &[(&str, &str)] =
    &[("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB")];

/// Per-layer metrics, printed with `--trace 1`: (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("runtime.epochs", "count"),
    ("runtime.events_per_epoch", "count"),
    ("runtime.msgs_per_epoch", "count"),
    ("runtime.wall_1w_s", "s"),
    ("runtime.wall_2w_s", "s"),
    ("runtime.speedup_2w", "ratio"),
    ("runtime.par_overhead_ns_per_epoch", "ns"),
    ("runtime.driver_vol_ctx_per_epoch", "count"),
    ("runtime.residual_ns_per_event", "ns"),
    ("switch.msgs", "count"),
    ("switch.dropped", "count"),
    ("switch.route_ns_per_msg", "ns"),
    ("switch.share", "ratio"),
    ("engine.events", "count"),
    ("engine.events_per_s", "1/s"),
    ("engine.ns_per_event", "ns"),
    ("engine.share", "ratio"),
    ("machine.requests", "count"),
    ("machine.ns_per_request", "ns"),
    ("machine.share", "ratio"),
    ("pcie.tlps", "count"),
    ("pcie.ns_per_tlp", "ns"),
    ("memsys.ns_per_access", "ns"),
    ("kv.ops", "count"),
    ("kv.probe_trips", "count"),
    ("kv.decisions", "count"),
    ("kv.design_changes", "count"),
    ("kvstore.lookup_ns", "ns"),
    ("fm.accesses", "count"),
    ("fm.promotes", "count"),
    ("fm.host_hit_ratio", "ratio"),
    ("fm.cache_hit_ratio", "ratio"),
    ("farmem.cache_ns_per_op", "ns"),
    ("dpa.served", "count"),
    ("dpa.spill_ratio", "ratio"),
    ("arrivals.generated", "count"),
    ("arrivals.drop_ratio", "ratio"),
    ("arrivals.excess_ns", "sim_ns"),
    ("arrivals.ns_per_arrival", "ns"),
    ("rc.retransmits", "count"),
    ("rc.retx_per_op", "ratio"),
    ("harness.points", "count"),
    ("harness.attribution_overhead", "ratio"),
    ("process.cpu_s", "s"),
    ("process.cpu_util", "ratio"),
    ("host.parallelism", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
];

/// The benchmark's result for one run.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// (name, value); units come from the catalog.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// The final stdout line. Metric values keep every digit; a value
    /// that is not finite (an empty ratio) is written as 0.
    pub fn to_json(&self) -> String {
        let unit = |name: &str| {
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .find(|(n, _)| *n == name)
                .map_or("", |&(_, u)| u)
        };
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|&(name, v)| {
                let v = if v.is_finite() { v } else { 0.0 };
                format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    unit(name)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of a sample (the mean of the middle pair for an even count);
/// 0 for an empty one.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Sample count, quartiles and extremes of a timing sample.
pub fn summary(xs: &[f64]) -> String {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |p: f64| {
        v.get(((v.len() as f64 - 1.0) * p).round() as usize)
            .copied()
            .unwrap_or(0.0)
    };
    format!(
        "n={} min {:.6} p25 {:.6} median {:.6} p75 {:.6} max {:.6}",
        v.len(),
        q(0.0),
        q(0.25),
        median(xs),
        q(0.75),
        q(1.0)
    )
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for n in &all {
            assert!(valid_name(n), "{n}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".lead"));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let names: Vec<&str> = text
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .collect();
        for (n, u) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(names.contains(n), "{n} missing from BENCHMARK.json");
            assert!(
                text.contains(&format!("\"name\": \"{n}\", \"unit\": \"{u}\"")),
                "{n}: unit {u} differs in BENCHMARK.json"
            );
        }
        let workloads = crate::workload::Workload::ALL.len();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len() + workloads);
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let r = Report {
            attempted: 3,
            failed: 0,
            metrics: vec![("wall_s", 1.25), ("setup_s", f64::NAN)],
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
