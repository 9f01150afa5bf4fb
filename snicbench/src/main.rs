//! `snicbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path snicbench/Cargo.toml -- \
//!     --workload rack_verbs --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path snicbench/Cargo.toml -- --print-digests
//! ```
//!
//! Runs one workload (see `workload.rs`) for `--seconds` seconds of host
//! time and prints, as the last stdout line, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`.
//!
//! * `--trace 0` reports the end-to-end metrics: `wall_s`, the host time
//!   of the fastest of the run's passes over the workload's simulations
//!   (the pass distribution is printed beside it); `setup_s`, the median
//!   time of the same calls at a zero-length horizon; and `peak_rss_mib`,
//!   the process's peak resident set.
//! * `--trace 1` is a separate run that records spans around every call
//!   it makes and reports the per-layer metrics: 1- vs 2-worker rack
//!   passes, `/proc` samples, and layer replays sized by the run's own
//!   counts, reconciled into a ladder whose residual is what no replay
//!   explains. Spans are written to `snicbench/out/` when the run ends.
//!
//! Every simulation call is one attempted operation and is checked (see
//! `check.rs`). Host facts go to stdout before the result line.

mod check;
mod host;
mod layers;
mod paper;
mod replay;
mod report;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use check::Checker;
use host::Facts;
use report::{median, ratio, Report, END_TO_END, PER_LAYER};
use trace::Tracer;
use workload::{Call, Horizon, Output, Workload, DEFAULT_SEED};

/// Zero-horizon set-up passes timed per full pass.
const SETUPS_PER_PASS: usize = 3;
/// Full passes measured however short `--seconds` is.
const MIN_PASSES: usize = 3;

const USAGE: &str = "usage: snicbench --workload <rack_verbs|rack_services|harness_sweep> \
                     --seed <n> --seconds <s> --trace <0|1>\n       snicbench --print-digests";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(Args),
    PrintDigests,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Command, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        if flag == "--print-digests" {
            return Ok(Command::PrintDigests);
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or(bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad("must be a finite number >= 0"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    }))
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(Command::Run(a)) => a,
        Ok(Command::PrintDigests) => return print_digests(),
        Err(e) => {
            eprintln!("snicbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let facts = Facts::collect();
    println!("{}", facts.line());
    let report = if args.trace {
        traced(&args, &facts)
    } else {
        measure(&args, Horizon::Full)
    };
    println!("{}", report.to_json());
}

/// Host time of one pass and the outputs of the calls that passed.
struct Pass {
    secs: f64,
    outputs: Vec<(usize, Output)>,
}

/// Runs every call once, timing each call alone (checks are not timed).
fn run_pass(
    calls: &[Call],
    horizon: Horizon,
    workers: usize,
    metrics: bool,
    checker: &mut Checker,
    mut tracer: Option<&mut Tracer>,
) -> Pass {
    let mut secs = 0.0;
    let mut outputs = Vec::new();
    for (i, call) in calls.iter().enumerate() {
        let t0 = Instant::now();
        let result = match tracer.as_deref_mut() {
            Some(t) => t.span(&call.label, |_| call.run(workers, metrics)),
            None => call.run(workers, metrics),
        };
        secs += t0.elapsed().as_secs_f64();
        if let Some(out) = checker.check(&call.label, horizon, result) {
            outputs.push((i, out));
        }
    }
    Pass { secs, outputs }
}

/// The calls split over two threads, each taking every other call; each
/// call is checked once both threads are done. Returns the pass's host
/// time.
fn run_split(calls: &[Call], checker: &mut Checker) -> f64 {
    let t0 = Instant::now();
    let results: Vec<(usize, Result<Output, String>)> = std::thread::scope(|scope| {
        let halves: Vec<_> = (0..2)
            .map(|k| {
                scope.spawn(move || {
                    let mine = calls.iter().enumerate().skip(k).step_by(2);
                    mine.map(|(i, c)| (i, c.run(1, false))).collect::<Vec<_>>()
                })
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|h| h.join().expect("Call::run catches simulation panics"))
            .collect()
    });
    let secs = t0.elapsed().as_secs_f64();
    for (i, result) in results {
        checker.check(&calls[i].label, Horizon::Full, result);
    }
    secs
}

fn print_paper(w: Workload, calls: &[Call], outputs: &[(usize, Output)]) {
    if w != Workload::HarnessSweep {
        return;
    }
    let find = |label: &str| {
        outputs.iter().find_map(|(i, o)| match o {
            Output::Harness(r, _) if calls[*i].label == label => Some(r),
            _ => None,
        })
    };
    for row in paper::rows(find) {
        println!("{}", row.line());
    }
}

/// The end-to-end measurement, with the timed passes at `horizon` (the
/// tests shorten it to zero).
fn measure(args: &Args, horizon: Horizon) -> Report {
    let w = args.workload;
    let full = w.calls(args.seed, horizon);
    let zero = w.calls(args.seed, Horizon::Zero);
    let mut checker = Checker::new(w, args.seed);
    // One untimed pass of each kind first: lazy set-up and first-touch
    // page faults are not what a repeated run pays.
    run_pass(&zero, Horizon::Zero, w.workers(), false, &mut checker, None);
    let first = run_pass(&full, horizon, w.workers(), false, &mut checker, None);
    print_paper(w, &full, &first.outputs);
    drop(first);

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut walls, mut setups) = (Vec::new(), Vec::new());
    while walls.len() < MIN_PASSES || Instant::now() < deadline {
        for _ in 0..SETUPS_PER_PASS {
            let p = run_pass(&zero, Horizon::Zero, w.workers(), false, &mut checker, None);
            setups.push(p.secs);
        }
        let p = run_pass(&full, horizon, w.workers(), false, &mut checker, None);
        walls.push(p.secs);
    }
    println!("{}: {} workers", w.name(), w.workers());
    println!("wall_s: {}", report::summary(&walls));
    println!("setup_s: {}", report::summary(&setups));
    // The fastest pass: on a shared host, co-tenants only ever add time,
    // and they do so in phases lasting seconds to minutes, which moves a
    // run's median by up to 2x while its fastest pass stays put.
    let values = [
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        median(&setups),
        host::peak_rss_kib().unwrap_or(0) as f64 / 1024.0,
    ];
    Report {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics: END_TO_END.iter().map(|m| m.0).zip(values).collect(),
    }
}

/// Per-pass samples of the traced run.
#[derive(Default)]
struct Samples {
    setup: Vec<f64>,
    /// Full passes at 1 worker (the harness's only configuration).
    w1: Vec<f64>,
    /// Rack passes at 2 workers; harness passes split over 2 threads.
    w2: Vec<f64>,
    /// Harness passes with per-hop attribution on.
    metrics_on: Vec<f64>,
    /// The timed configuration without spans, and its CPU seconds.
    untraced: Vec<f64>,
    cpu: Vec<f64>,
    /// Main-thread voluntary context switches per 2-worker pass.
    ctx: Vec<f64>,
}

fn traced(args: &Args, facts: &Facts) -> Report {
    let w = args.workload;
    let full = w.calls(args.seed, Horizon::Full);
    let zero = w.calls(args.seed, Horizon::Zero);
    let mut checker = Checker::new(w, args.seed);
    let mut t = Tracer::new(w.name());
    let first = t.span("first", |t| {
        run_pass(
            &full,
            Horizon::Full,
            w.workers(),
            false,
            &mut checker,
            Some(t),
        )
    });
    print_paper(w, &full, &first.outputs);

    let mut s = Samples::default();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while s.untraced.len() < MIN_PASSES || Instant::now() < deadline {
        let p = t.span("setup", |t| {
            run_pass(
                &zero,
                Horizon::Zero,
                w.workers(),
                false,
                &mut checker,
                Some(t),
            )
        });
        s.setup.push(p.secs);
        let p = t.span("pass.w1", |t| {
            run_pass(&full, Horizon::Full, 1, false, &mut checker, Some(t))
        });
        s.w1.push(p.secs);
        let ctx0 = host::thread_voluntary_switches();
        let secs = t.span("pass.w2", |t| {
            if w.is_rack() {
                run_pass(&full, Horizon::Full, 2, false, &mut checker, Some(t)).secs
            } else {
                run_split(&full, &mut checker)
            }
        });
        s.w2.push(secs);
        if let (Some(a), Some(b)) = (ctx0, host::thread_voluntary_switches()) {
            s.ctx.push((b - a) as f64);
        }
        if !w.is_rack() {
            let p = t.span("pass.metrics", |t| {
                run_pass(&full, Horizon::Full, 1, true, &mut checker, Some(t))
            });
            s.metrics_on.push(p.secs);
        }
        let cpu0 = host::cpu_seconds();
        let p = run_pass(&full, Horizon::Full, w.workers(), false, &mut checker, None);
        s.untraced.push(p.secs);
        if let (Some(a), Some(b)) = (cpu0, host::cpu_seconds()) {
            s.cpu.push(b - a);
        }
    }

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let ladder = if w.is_rack() {
        match first.outputs.first() {
            Some((i, Output::Cluster(r))) => layers::rack(&full[*i], r, &s, &mut t, &mut m),
            _ => None,
        }
    } else {
        Some(layers::harness(&full, &first.outputs, &s, &mut t, &mut m))
    };
    if let Some(l) = &ladder {
        println!("{}", l.line());
        let events = m.get("engine.events").copied().unwrap_or(0.0);
        m.insert("runtime.wall_1w_s", l.wall_1w_s);
        m.insert(
            "runtime.residual_ns_per_event",
            ratio(l.residual_s() * 1e9, events),
        );
        m.insert("engine.events_per_s", ratio(events, l.wall_1w_s));
        for (layer, key) in [
            ("switch", "switch.share"),
            ("engine", "engine.share"),
            ("machine", "machine.share"),
        ] {
            m.insert(key, l.share(layer));
        }
    }
    let traced_main = if w.workers() == 2 { &s.w2 } else { &s.w1 };
    m.insert("harness.points", full.len() as f64);
    // Totals, not medians: CPU time comes in 10 ms ticks.
    let cpu: f64 = s.cpu.iter().sum();
    m.insert("process.cpu_s", cpu / s.cpu.len().max(1) as f64);
    m.insert("process.cpu_util", ratio(cpu, s.untraced.iter().sum()));
    m.insert("host.parallelism", facts.parallelism as f64);
    m.insert("trace.spans", t.spans.len() as f64);
    m.insert(
        "trace.overhead_s",
        median(traced_main) - median(&s.untraced),
    );

    write_trace(args, facts, &t);
    Report {
        attempted: checker.attempted,
        failed: checker.failed,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, _)| (name, m.get(name).copied().unwrap_or(0.0)))
            .collect(),
    }
}

fn write_trace(args: &Args, facts: &Facts, t: &Tracer) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!(
        "{dir}/trace-{}-seed{}.json",
        args.workload.name(),
        args.seed
    );
    let meta = [
        ("available_parallelism", facts.parallelism.to_string()),
        ("cpu_model", facts.cpu_model.clone()),
        ("git_rev", facts.git_rev.clone()),
        ("seed", args.seed.to_string()),
    ];
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, t.to_chrome_json(&meta)));
    match written {
        Ok(()) => println!("trace: {} spans written to {path}", t.spans.len()),
        Err(e) => eprintln!("trace: cannot write {path}: {e}"),
    }
}

/// Prints the recorded-digest table of `check.rs` for the current code.
fn print_digests() {
    for w in Workload::ALL {
        for call in w.calls(DEFAULT_SEED, Horizon::Full) {
            let out = call
                .run(w.workers(), false)
                .and_then(|out| check::conservation(&out).map(|()| out));
            match out {
                Ok(out) => println!(
                    "    (\"{}/{}\", 0x{:016x}),",
                    w.name(),
                    call.label,
                    check::digest(&out)
                ),
                Err(e) => eprintln!("{}/{}: {e}", w.name(), call.label),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Command, String> {
        parse(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let Ok(Command::Run(a)) = args(&[
            "--workload",
            "rack_services",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]) else {
            panic!("valid command line rejected")
        };
        assert_eq!(a.workload, Workload::RackServices);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args(&["--workload", "nope", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "rack_verbs"]).is_err());
        assert!(args(&["--workload", "rack_verbs", "--seconds", "1", "--trace", "2"]).is_err());
        assert!(args(&["--seconds", "-1", "--workload", "rack_verbs"]).is_err());
    }

    /// Every workload, measured end to end at a zero horizon (fast even
    /// in a debug build), passes its checks and emits every end-to-end
    /// metric, non-zero and with its unit.
    #[test]
    fn every_workload_emits_every_end_to_end_metric() {
        for w in Workload::ALL {
            let a = Args {
                workload: w,
                seed: DEFAULT_SEED + 1,
                seconds: 0.0,
                trace: false,
            };
            let report = measure(&a, Horizon::Zero);
            assert_eq!(report.failed, 0, "{}", w.name());
            let expect = 2 + (MIN_PASSES * (1 + SETUPS_PER_PASS)) as u64;
            assert_eq!(
                report.attempted,
                expect * w.calls(a.seed, Horizon::Zero).len() as u64
            );
            let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
            assert_eq!(names, END_TO_END.iter().map(|m| m.0).collect::<Vec<_>>());
            assert!(
                report.metrics.iter().all(|m| m.1 > 0.0),
                "{:?}",
                report.metrics
            );
            let json = report.to_json();
            for (name, unit) in END_TO_END {
                assert!(
                    json.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{name}"
                );
                assert!(json.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
            }
        }
    }
}
