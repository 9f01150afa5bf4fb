//! Host facts and `/proc` samples, with no dependencies. Every reader
//! returns `None` (or "unknown") where the file is missing, so the
//! benchmark still runs off Linux.

use std::fs;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// fixed at 100 in the Linux user ABI).
const USER_HZ: f64 = 100.0;

/// The host facts recorded with every run.
pub struct Facts {
    pub parallelism: usize,
    pub cpu_model: String,
    pub git_rev: String,
}

impl Facts {
    pub fn collect() -> Self {
        Facts {
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model(),
            git_rev: git_rev(),
        }
    }

    pub fn line(&self) -> String {
        format!(
            "host: available_parallelism={} cpu=\"{}\" git={}",
            self.parallelism, self.cpu_model, self.git_rev
        )
    }
}

/// The value of `key:` in a `/proc` status-style text.
fn status_field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// Peak resident set of this process [KiB] (`VmHWM`).
pub fn peak_rss_kib() -> Option<u64> {
    status_field(&fs::read_to_string("/proc/self/status").ok()?, "VmHWM")
}

/// Voluntary context switches of the calling thread.
pub fn thread_voluntary_switches() -> Option<u64> {
    status_field(
        &fs::read_to_string("/proc/thread-self/status").ok()?,
        "voluntary_ctxt_switches",
    )
}

/// User plus system CPU seconds of this process, including threads that
/// have already exited.
pub fn cpu_seconds() -> Option<f64> {
    parse_stat_cpu(&fs::read_to_string("/proc/self/stat").ok()?)
}

/// utime + stime from a `/proc/<pid>/stat` line. The command name may
/// hold spaces, so fields are counted after its closing parenthesis.
fn parse_stat_cpu(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` without running git; "unknown"
/// outside a git checkout.
fn git_rev() -> String {
    let read = |p: &str| fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{r}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_stat() {
        let status = "Name:\tx\nVmHWM:\t   37120 kB\nvoluntary_ctxt_switches:\t12\n";
        assert_eq!(status_field(status, "VmHWM"), Some(37120));
        assert_eq!(status_field(status, "voluntary_ctxt_switches"), Some(12));
        assert_eq!(status_field(status, "VmRSS"), None);
        let stat = "4242 (snic bench) R 1 2 3 4 5 6 7 8 9 10 150 50 0 0 20";
        assert_eq!(parse_stat_cpu(stat), Some(2.0));
    }

    #[test]
    fn samples_this_process() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_kib().unwrap() > 0);
            assert!(cpu_seconds().is_some());
            assert!(thread_voluntary_switches().is_some());
        }
    }
}
