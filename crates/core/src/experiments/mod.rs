//! Figure/table regeneration experiments.
//!
//! One module per paper artifact (see DESIGN.md §3 for the index). Each
//! module exposes `run(quick) -> Vec<Table>`: `quick = true` shrinks the
//! sweep and simulated duration for tests and `run_all --quick`;
//! `quick = false` runs the full paper sweep (`run_all`).

pub mod bf3_dpa;
pub mod budget;
pub mod discussion;
pub mod farmem;
pub mod faults;
pub mod fig10_doorbell;
pub mod fig11_concurrency;
pub mod fig3_breakdown;
pub mod fig4_lat_tput;
pub mod fig5_cluster;
pub mod fig5_flows;
pub mod fig7_skew;
pub mod fig8_large_read;
pub mod fig9_path3;
pub mod incast;
pub mod kv_cluster;
pub mod kv_tables;
pub mod motivation;
pub mod openloop;
pub mod table3_packets;

use simnet::time::Nanos;
use snic_cluster::ClusterScenario;

use crate::harness::Scenario;

/// Scenario durations for quick vs full runs.
pub fn scenario(quick: bool) -> Scenario {
    if quick {
        Scenario {
            warmup: Nanos::from_micros(100),
            duration: Nanos::from_micros(700),
            ..Scenario::default()
        }
    } else {
        Scenario::default()
    }
}

/// Rack scenario durations for quick vs full runs.
pub fn cluster_scenario(quick: bool) -> ClusterScenario {
    if quick {
        ClusterScenario::quick()
    } else {
        ClusterScenario::paper_testbed()
    }
}

/// Payload sweep for the small-request experiments (Figure 4).
pub fn small_payloads(quick: bool) -> Vec<u64> {
    if quick {
        vec![64, 512]
    } else {
        vec![8, 64, 128, 256, 512, 1024, 2048, 4096]
    }
}

/// Payload sweep for the large-request experiments (Figures 8/9).
pub fn large_payloads(quick: bool) -> Vec<u64> {
    if quick {
        vec![1 << 20, 12 << 20]
    } else {
        vec![
            64 << 10,
            256 << 10,
            1 << 20,
            2 << 20,
            4 << 20,
            8 << 20,
            9 << 20,
            10 << 20,
            12 << 20,
            16 << 20,
        ]
    }
}
