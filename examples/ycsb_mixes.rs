//! YCSB-style mixed workloads across the four KV-store designs — where
//! does SmartNIC offloading pay under realistic read/update mixes? Each
//! point is a one-client, one-server rack run of the KV service.
//!
//! Run with `cargo run --release --example ycsb_mixes`.

use offpath_smartnic::kvstore::KeyDist;
use offpath_smartnic::study::experiments::kv_tables::ycsb_table;

fn main() {
    println!("{}", ycsb_table(true, KeyDist::Uniform).to_text());
    println!("{}", ycsb_table(true, KeyDist::Zipf(0.99)).to_text());
    println!(
        "Reading the tables: the SoC-offloaded design holds a flat p99\n\
         across mixes and key distributions (one round trip regardless of\n\
         index load), while the one-sided designs' tails follow their\n\
         probe chains: updates (one host round trip) shorten them, and so\n\
         does Zipf skew, because the hottest keys were loaded first and\n\
         sit in their home buckets — the Figure 1 story under\n\
         production-like mixes."
    );
}
