//! The Figure 1 scenario as an application: a KV store served four
//! ways under a collision-heavy index, each design on its own
//! one-client, one-server rack.
//!
//! Run with `cargo run --release --example kv_offload`.

use offpath_smartnic::kvstore::{Design, KeyDist, Mix};
use offpath_smartnic::study::experiments::kv_tables::kv_point;

fn main() {
    // A deliberately loaded index (3,500 keys in 1,024 four-slot
    // buckets, 85% full) so one-sided lookups need multiple probe round
    // trips — the "network amplification" of §2.1.
    println!("KV get comparison (3500 keys, 256 B values, loaded index)\n");
    println!(
        "{:<22} {:>10} {:>10} {:>8} {:>12}",
        "design", "mean [us]", "p99 [us]", "trips", "gets/s"
    );
    for d in Design::ALL {
        let p = kv_point(d, Mix::C, KeyDist::Uniform, true, 42);
        println!(
            "{:<22} {:>10.2} {:>10.2} {:>8.2} {:>12.0}",
            d.label(),
            p.mean_latency.as_micros_f64(),
            p.p99_latency.as_micros_f64(),
            p.mean_trips,
            p.ops_per_sec,
        );
    }

    println!("\nSkewed (zipf 0.99) workload, SoC-offloaded design:");
    let p = kv_point(Design::SocIndex, Mix::C, KeyDist::Zipf(0.99), true, 42);
    println!(
        "  mean {:.2} us, p99 {:.2} us, {:.0} gets/s",
        p.mean_latency.as_micros_f64(),
        p.p99_latency.as_micros_f64(),
        p.ops_per_sec
    );
    println!(
        "\nNote: the offloaded design trades host-CPU work for path-3\n\
         transfers — size values and rates against the P-N budget (see\n\
         `run_all --only fig_concurrent_budget`)."
    );
}
