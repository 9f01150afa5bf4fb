//! `snic-bench` — the figure runner regenerating every table and figure.
//!
//! The `run_all` binary prints every regenerated series as an aligned
//! table and optionally as CSV; `--only <name>` selects one artifact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fs;
use std::path::Path;
use std::sync::Mutex;

use snic_core::report::Table;

/// Output directory for CSV files.
pub const RESULTS_DIR: &str = "results";

/// CLI options of the `run_all` figure runner.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// Shrink sweeps and horizons (`--quick`).
    pub quick: bool,
    /// Write CSV files under [`RESULTS_DIR`] (`--csv`).
    pub csv: bool,
    /// Only run jobs whose name starts with this prefix
    /// (`--only <prefix>`).
    pub only: Option<String>,
    /// Cap concurrent experiment jobs (`--jobs N`).
    pub jobs: Option<usize>,
}

impl Options {
    /// Parses the binary's arguments.
    pub fn from_args() -> Options {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|bad| {
            eprintln!("{bad}; try --help");
            std::process::exit(2);
        })
    }

    /// Parses an argument list; `Err` carries the offending token.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Options, String> {
        let mut o = Options::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--quick" => o.quick = true,
                "--csv" => o.csv = true,
                "--only" => match it.next() {
                    Some(p) => o.only = Some(p),
                    None => return Err("--only needs a job-name prefix".to_string()),
                },
                "--jobs" => match it.next().map(|n| n.parse::<usize>()) {
                    Some(Ok(n)) if n > 0 => o.jobs = Some(n),
                    _ => return Err("--jobs needs a positive integer".to_string()),
                },
                other => {
                    if let Some(p) = other.strip_prefix("--only=") {
                        o.only = Some(p.to_string());
                    } else if let Some(n) = other.strip_prefix("--jobs=") {
                        match n.parse::<usize>() {
                            Ok(n) if n > 0 => o.jobs = Some(n),
                            _ => return Err("--jobs needs a positive integer".to_string()),
                        }
                    } else if matches!(other, "--help" | "-h") {
                        eprintln!(
                            "options: --quick (small sweep)  --csv (write results/*.csv)  \
                             --only <prefix> (filter jobs)  --jobs <n> (concurrency cap)"
                        );
                        std::process::exit(0);
                    } else {
                        return Err(format!("unknown option {other}"));
                    }
                }
            }
        }
        Ok(o)
    }
}

/// Prints tables and optionally writes them as CSV under `results/`.
pub fn emit(prefix: &str, tables: &[Table], opts: &Options) {
    for (i, t) in tables.iter().enumerate() {
        println!("{}", t.to_text());
        if opts.csv {
            let dir = Path::new(RESULTS_DIR);
            fs::create_dir_all(dir).expect("create results dir");
            let path = dir.join(format!("{prefix}_{i}.csv"));
            fs::write(&path, t.to_csv()).expect("write csv");
            eprintln!("wrote {}", path.display());
        }
    }
}

/// A thread-safe collector for tables produced by parallel experiment
/// workers (scoped threads in `run_all`), preserving a
/// deterministic (name, index) order on drain.
#[derive(Default)]
pub struct TableSink {
    inner: Mutex<Vec<(String, Table)>>,
}

impl TableSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a table under an artifact name (callable from any thread).
    pub fn push(&self, name: &str, table: Table) {
        self.inner
            .lock()
            .expect("no worker panics while holding the sink")
            .push((name.to_string(), table));
    }

    /// Drains all tables sorted by (name, insertion order within name).
    pub fn drain_sorted(&self) -> Vec<(String, Table)> {
        let mut v = std::mem::take(
            &mut *self
                .inner
                .lock()
                .expect("no worker panics while holding the sink"),
        );
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options() {
        let o = Options::default();
        assert!(!o.quick);
        assert!(!o.csv);
        assert!(o.only.is_none());
        assert!(o.jobs.is_none());
    }

    #[test]
    fn parse_only_and_jobs() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let o = Options::parse(args(&["--quick", "--only", "14", "--jobs", "2"])).unwrap();
        assert!(o.quick);
        assert_eq!(o.only.as_deref(), Some("14"));
        assert_eq!(o.jobs, Some(2));
        // `=` forms.
        let o = Options::parse(args(&["--only=04_fig5", "--jobs=8"])).unwrap();
        assert_eq!(o.only.as_deref(), Some("04_fig5"));
        assert_eq!(o.jobs, Some(8));
        // Rejections.
        assert!(Options::parse(args(&["--only"])).is_err());
        assert!(Options::parse(args(&["--jobs", "0"])).is_err());
        assert!(Options::parse(args(&["--jobs", "many"])).is_err());
        assert!(Options::parse(args(&["--bogus"])).is_err());
    }

    #[test]
    fn emit_prints_without_csv() {
        let t = Table::new("T", &["a"]);
        emit("test", &[t], &Options::default());
    }

    #[test]
    fn table_sink_collects_across_threads() {
        let sink = TableSink::new();
        std::thread::scope(|s| {
            for name in ["b", "a", "c"] {
                let sink = &sink;
                s.spawn(move || sink.push(name, Table::new(name, &["x"])));
            }
        });
        let drained = sink.drain_sorted();
        let names: Vec<&str> = drained.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }
}
