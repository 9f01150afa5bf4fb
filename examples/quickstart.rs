//! Quickstart: measure unloaded READ latency over two SmartNIC
//! communication paths, and ask the advisor about a workload.
//!
//! Run with `cargo run --release --example quickstart`.

use offpath_smartnic::nicsim::{PathKind, Verb};
use offpath_smartnic::study::advisor::{OffloadAdvisor, WorkloadDesc};
use offpath_smartnic::study::harness::measure_latency;

fn main() {
    println!("== one-sided READ latency, path 1 (host) vs path 2 (SoC) ==");
    // Unloaded latency methodology (paper §2.4): one requester thread
    // with one outstanding 64 B READ against a Bluefield-2 server.
    for (name, path) in [
        ("client -> host (SNIC 1)", PathKind::Snic1),
        ("client -> SoC  (SNIC 2)", PathKind::Snic2),
    ] {
        let r = measure_latency(path, Verb::Read, 64);
        println!("  {name}: {}", r.latency.p50);
    }

    println!("\n== advisor check: 16 MB READs against the SoC ==");
    let advisor = OffloadAdvisor::bluefield2();
    let findings = advisor.analyse(&WorkloadDesc {
        path: PathKind::Snic2,
        verb: Verb::Read,
        payload: 16 << 20,
        addr_range: 1 << 30,
        batch: 1,
        nic_saturated: false,
    });
    for f in findings {
        println!("  [advice #{} {:?}] {}", f.advice, f.severity, f.message);
    }

    println!("\n== safe host<->SoC budget when the NIC is saturated ==");
    println!("  P - N = {}", advisor.path3_budget());
}
