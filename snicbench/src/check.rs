//! Output checks. Every simulation call is one operation; it fails if it
//! panics, breaks a conservation law its public result exposes, or its
//! digest differs from the reference: the recorded digest for the default
//! seed at the full horizon, else the digest the same call produced first
//! in this process (so 1- and 2-worker runs of a call must agree).

use std::collections::HashMap;

use crate::workload::{Horizon, Output, Workload, DEFAULT_SEED};

/// Digests of every full-horizon call at [`DEFAULT_SEED`], as printed by
/// `--print-digests`.
const RECORDED: &[(&str, u64)] = &[
    ("rack_verbs/rack_verbs", 0x2eb19b7ab718a9ad),
    ("rack_services/rack_services", 0x3251933c8d7c142f),
    ("harness_sweep/fig4 RNIC(1) READ 64B", 0x55736808b7a41236),
    ("harness_sweep/fig4 SNIC(1) READ 64B", 0xaa5c9f1156c045cc),
    ("harness_sweep/fig4 SNIC(2) READ 64B", 0xf0648e13d71e117d),
    ("harness_sweep/fig4 SNIC(3)S2H READ 64B", 0x0c570b3487c22627),
    ("harness_sweep/fig4 SNIC(3)H2S READ 64B", 0xa22b1d9680483abb),
    ("harness_sweep/fig4 RNIC(1) READ 4096B", 0xf328f149dc3434a1),
    ("harness_sweep/fig4 SNIC(1) READ 4096B", 0x9a809cc14f8de9e7),
    ("harness_sweep/fig4 SNIC(2) READ 4096B", 0xd1f23649a45801d0),
    (
        "harness_sweep/fig4 SNIC(3)S2H READ 4096B",
        0xa643faf0f08e6b2b,
    ),
    (
        "harness_sweep/fig4 SNIC(3)H2S READ 4096B",
        0x54a7db6f52a98df4,
    ),
    ("harness_sweep/fig4 RNIC(1) WRITE 64B", 0x8a0151868c71b65c),
    ("harness_sweep/fig4 SNIC(1) WRITE 64B", 0xe9166cb64a3e68f0),
    ("harness_sweep/fig4 SNIC(2) WRITE 64B", 0x277bac0ad15053ab),
    (
        "harness_sweep/fig4 SNIC(3)S2H WRITE 64B",
        0x1ae30b816d010703,
    ),
    (
        "harness_sweep/fig4 SNIC(3)H2S WRITE 64B",
        0xae4e970c25252d2e,
    ),
    ("harness_sweep/fig4 RNIC(1) WRITE 4096B", 0xe733de9c36e70119),
    ("harness_sweep/fig4 SNIC(1) WRITE 4096B", 0x2acfa72f2b52a0d7),
    ("harness_sweep/fig4 SNIC(2) WRITE 4096B", 0x20779064c9df62c7),
    (
        "harness_sweep/fig4 SNIC(3)S2H WRITE 4096B",
        0x9ddf975b4d81377c,
    ),
    (
        "harness_sweep/fig4 SNIC(3)H2S WRITE 4096B",
        0x0288baec210e6bc9,
    ),
    (
        "harness_sweep/fig7 SNIC(2) WRITE 64B@1.5KiB",
        0xf6d02cc9f17ca4f2,
    ),
    (
        "harness_sweep/fig7 SNIC(1) READ 64B@1.5KiB",
        0xf6e197172eeda386,
    ),
    ("harness_sweep/fig8 SNIC(2) READ 16MiB", 0x167827380ed2369d),
    ("harness_sweep/fig8 SNIC(1) READ 1MiB", 0x0e491bcc658a2d32),
    ("harness_sweep/bf3-dpa SEND 64B", 0x05d18a1efa51fdd7),
    (
        "harness_sweep/pcie-corrupt-2% SNIC(1) WRITE 512B",
        0x16c06c321374d6f2,
    ),
];

/// 64-bit FNV-1a.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Runtime bookkeeping counters a faster runtime may legitimately change
/// without changing what was simulated.
pub fn is_bookkeeping(counter: &str) -> bool {
    counter == "epochs" || (counter.starts_with("shard") && counter.ends_with("_events"))
}

/// Digest of a rack run: its CSV plus every registry counter except the
/// runtime bookkeeping ones.
pub fn cluster_digest<'a>(csv: &str, counters: impl Iterator<Item = (&'a str, u64)>) -> u64 {
    let mut h = Fnv::new();
    h.write(csv.as_bytes());
    for (name, v) in counters.filter(|(name, _)| !is_bookkeeping(name)) {
        h.write(name.as_bytes());
        h.write(&v.to_le_bytes());
    }
    h.finish()
}

/// Digest of any call's simulated outputs. Harness runs hash their stream
/// results, PCIe counters and DPA counters, leaving out the event count.
pub fn digest(out: &Output) -> u64 {
    match out {
        Output::Cluster(r) => cluster_digest(&r.to_csv(), r.metrics.counters()),
        Output::Harness(r, dpa) => {
            let mut h = Fnv::new();
            h.write(format!("{:?}{:?}{:?}", r.streams, r.counters, dpa).as_bytes());
            h.finish()
        }
    }
}

/// The conservation laws the public result exposes.
pub fn conservation(out: &Output) -> Result<(), String> {
    match out {
        Output::Cluster(r) => {
            // Every open-loop op generated completed, was dropped or is
            // still in flight (closed-loop streams report all four as 0).
            for s in &r.streams {
                if s.generated != s.completed_total + s.dropped + s.inflight {
                    return Err(format!(
                        "stream {}: generated {} != completed {} + dropped {} + inflight {}",
                        s.label, s.generated, s.completed_total, s.dropped, s.inflight
                    ));
                }
            }
            let c = |name| r.metrics.counter_value(name);
            if let (Some(served), Some(hits), Some(spills)) =
                (c("dpa_served"), c("dpa_scratch_hits"), c("dpa_spills"))
            {
                if served != hits + spills {
                    return Err(format!(
                        "dpa_served {served} != scratch hits {hits} + spills {spills}"
                    ));
                }
            }
            Ok(())
        }
        Output::Harness(r, dpa) => {
            // Each completion inside the window is both metered and
            // recorded in the latency histogram.
            let wsecs = r.window.as_secs_f64();
            for s in &r.streams {
                let metered = if wsecs > 0.0 {
                    (s.ops.as_per_sec() * wsecs).round() as u64
                } else {
                    0
                };
                if metered != s.latency.count {
                    return Err(format!(
                        "stream {}: {metered} metered completions, {} latency samples",
                        s.label, s.latency.count
                    ));
                }
            }
            if let Some(d) = dpa {
                if d.served != d.scratch_hits + d.spills {
                    return Err(format!(
                        "dpa served {} != scratch hits {} + spills {}",
                        d.served, d.scratch_hits, d.spills
                    ));
                }
            }
            Ok(())
        }
    }
}

/// Tallies operations and failures for one run of the benchmark.
pub struct Checker {
    workload: Workload,
    seed: u64,
    first: HashMap<(String, Horizon), u64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    pub fn new(workload: Workload, seed: u64) -> Self {
        Checker {
            workload,
            seed,
            first: HashMap::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Checks one call's result, returning its output if it passed.
    pub fn check(
        &mut self,
        label: &str,
        horizon: Horizon,
        result: Result<Output, String>,
    ) -> Option<Output> {
        self.attempted += 1;
        match result.and_then(|out| self.verify(label, horizon, &out).map(|()| out)) {
            Ok(out) => Some(out),
            Err(e) => {
                self.failed += 1;
                eprintln!(
                    "{}: {label} ({horizon:?}) failed: {e}",
                    self.workload.name()
                );
                None
            }
        }
    }

    fn verify(&mut self, label: &str, horizon: Horizon, out: &Output) -> Result<(), String> {
        conservation(out)?;
        let d = digest(out);
        let want = if self.seed == DEFAULT_SEED && horizon == Horizon::Full {
            recorded(self.workload, label).ok_or("no digest recorded for this call")?
        } else {
            *self.first.entry((label.to_string(), horizon)).or_insert(d)
        };
        if d != want {
            return Err(format!("digest {d:016x} != reference {want:016x}"));
        }
        Ok(())
    }
}

/// The recorded digest of a full-horizon call at the default seed.
pub fn recorded(workload: Workload, label: &str) -> Option<u64> {
    let key = format!("{}/{label}", workload.name());
    RECORDED.iter().find(|(k, _)| *k == key).map(|&(_, d)| d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nicsim::{PathKind, Verb};
    use simnet::arrivals::OpenLoopSpec;
    use snic_cluster::{run_cluster, ClusterScenario, ClusterStream};

    fn counters(extra: &[(&'static str, u64)]) -> Vec<(&'static str, u64)> {
        let mut v = vec![
            ("requests_completed", 1000),
            ("msgs_routed", 2000),
            ("epochs", 77),
            ("shard00_events", 500),
            ("shard01_events", 600),
        ];
        v.extend_from_slice(extra);
        v
    }

    fn with(base: &[(&'static str, u64)], name: &str, value: u64) -> Vec<(&'static str, u64)> {
        base.iter()
            .map(|&(n, v)| (n, if n == name { value } else { v }))
            .collect()
    }

    #[test]
    fn digest_ignores_runtime_bookkeeping_but_not_simulated_counters() {
        let csv = "stream,completions\nSNIC(1) READ,1000\n";
        let base = counters(&[]);
        let d = cluster_digest(csv, base.iter().copied());
        for name in ["epochs", "shard00_events", "shard01_events"] {
            let changed = with(&base, name, 1);
            assert_eq!(d, cluster_digest(csv, changed.iter().copied()), "{name}");
        }
        for name in ["requests_completed", "msgs_routed"] {
            let changed = with(&base, name, 1);
            assert_ne!(d, cluster_digest(csv, changed.iter().copied()), "{name}");
        }
        assert_ne!(
            d,
            cluster_digest(
                "stream,completions\nSNIC(1) READ,1001\n",
                base.iter().copied()
            )
        );
        assert!(is_bookkeeping("shard22_events"));
        assert!(!is_bookkeeping("shard_count"));
    }

    fn tiny_open_loop() -> Output {
        let mut sc = ClusterScenario::quick().with_workers(1);
        sc.cluster.clients.truncate(3);
        sc.duration = simnet::time::Nanos::from_micros(200);
        sc.warmup = simnet::time::Nanos::from_micros(50);
        let st = ClusterStream::new(PathKind::Snic1, Verb::Write, 256, vec![0, 1, 2])
            .open_loop(OpenLoopSpec::poisson(3.0e6));
        Output::Cluster(run_cluster(&sc, &[st]))
    }

    #[test]
    fn conservation_rejects_a_doctored_result() {
        let mut out = tiny_open_loop();
        assert_eq!(conservation(&out), Ok(()));
        let Output::Cluster(r) = &mut out else {
            unreachable!()
        };
        assert!(r.streams[0].generated > 0);
        r.streams[0].generated += 1;
        assert!(conservation(&out).unwrap_err().contains("generated"));
    }

    #[test]
    fn checker_counts_a_digest_mismatch_as_a_failure() {
        let mut c = Checker::new(Workload::RackServices, 7);
        assert!(c.check("x", Horizon::Full, Ok(tiny_open_loop())).is_some());
        let mut doctored = tiny_open_loop();
        if let Output::Cluster(r) = &mut doctored {
            r.streams[0].completions += 1;
        }
        assert!(c.check("x", Horizon::Full, Ok(doctored)).is_none());
        assert!(c.check("x", Horizon::Full, Err("boom".into())).is_none());
        assert_eq!((c.attempted, c.failed), (3, 2));
    }

    #[test]
    fn every_full_call_has_a_recorded_digest() {
        for w in Workload::ALL {
            for call in w.calls(DEFAULT_SEED, Horizon::Full) {
                assert!(recorded(w, &call.label).is_some(), "{}", call.label);
            }
        }
    }
}
