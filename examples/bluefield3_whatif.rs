//! What changes on Bluefield-3? The §5 Discussion what-ifs: rescaled
//! budgets and knees (the anomalies persist), plus the CXL suggestion —
//! and a *measured* Gen5 what-if: the same remote sweep executed against
//! a BF-2 server (Gen4 ×16 PCIe) and a BF-3-class server whose
//! `PcieLinkSpec` is Gen5 ×16, written to `results/bluefield3_whatif.csv`,
//! plus the far-memory viability frontier re-run on Gen5 servers
//! (`results/bluefield3_whatif_farmem.csv`).
//!
//! Run with `cargo run --release --example bluefield3_whatif`.

use offpath_smartnic::cluster::ClusterScenario;
use offpath_smartnic::nicsim::{PathKind, Verb};
use offpath_smartnic::study::experiments::{discussion, farmem};
use offpath_smartnic::study::harness::{run_scenario, Scenario, ServerKind, StreamSpec};
use offpath_smartnic::study::report::{fmt_bytes, Table};
use offpath_smartnic::study::BottleneckModel;
use offpath_smartnic::topology::{MachineSpec, NicDevice, SmartNicSpec};

fn main() {
    for t in discussion::run(true) {
        println!("{}", t.to_text());
    }

    let bf3 = MachineSpec::srv_with_bluefield3();
    let NicDevice::SmartNic(snic) = &bf3.nic else {
        unreachable!("srv_with_bluefield3 embeds a SmartNIC");
    };
    let bf2_spec = SmartNicSpec::bluefield2();
    let mut table = Table::new(
        format!(
            "§5: Gen5 PCIe what-if, measured (PCIe1 raw {:.0} Gbps vs BF-2's {:.0})",
            snic.pcie1.raw_bandwidth().as_gbps(),
            bf2_spec.pcie1.raw_bandwidth().as_gbps()
        ),
        &[
            "path",
            "verb",
            "payload [B]",
            "BF-2 [M/s]",
            "BF-3 [M/s]",
            "speedup",
        ],
    );
    let measure = |server: ServerKind, path: PathKind, payload: u64| {
        let s = Scenario {
            server,
            seed: 11,
            ..Scenario::default()
        };
        run_scenario(&s, &[StreamSpec::new(path, Verb::Read, payload, 8)])
            .total_ops()
            .as_mops()
    };
    for path in [PathKind::Snic1, PathKind::Snic2] {
        for payload in [64u64, 4096] {
            let bf2 = measure(ServerKind::Bluefield, path, payload);
            let gen5 = measure(ServerKind::Custom(bf3), path, payload);
            table.push(vec![
                path.label().to_string(),
                Verb::Read.label().to_string(),
                payload.to_string(),
                format!("{bf2:.1}"),
                format!("{gen5:.1}"),
                format!("{:.2}x", gen5 / bf2),
            ]);
        }
    }
    println!("{}", table.to_text());
    std::fs::create_dir_all("results").expect("create results dir");
    let path = "results/bluefield3_whatif.csv";
    std::fs::write(path, table.to_csv()).expect("write csv");
    println!("wrote {path}");

    // The far-memory frontier on Gen5: path ③ promotions cross PCIe1
    // twice, so doubling the link moves the local placement's knee —
    // while path ② (wire-terminated at the SoC) barely shifts.
    let mut gen5_sc = ClusterScenario::quick();
    gen5_sc.cluster.servers = vec![MachineSpec::srv_with_bluefield3(); 3];
    let bf2_sc = ClusterScenario::quick();
    let mut fm_table = Table::new(
        "§5: far-memory frontier on Gen5 PCIe (mean access latency vs the fixed-penalty baseline; viable < 1.0)",
        &[
            "regime",
            "placement",
            "BF-2 mean [us]",
            "BF-3 mean [us]",
            "BF-2 vs_base",
            "BF-3 vs_base",
        ],
    );
    for case in farmem::cases() {
        for (name, p) in farmem::placements() {
            let bf2 = farmem::point_on(&bf2_sc, &case, case.stream_spec(p));
            let bf3 = farmem::point_on(&gen5_sc, &case, case.stream_spec(p));
            fm_table.push(vec![
                case.name.to_string(),
                name.to_string(),
                format!("{:.2}", farmem::mean_us(&bf2)),
                format!("{:.2}", farmem::mean_us(&bf3)),
                format!("{:.2}", farmem::mean_us(&bf2) / farmem::baseline_us(&bf2)),
                format!("{:.2}", farmem::mean_us(&bf3) / farmem::baseline_us(&bf3)),
            ]);
        }
    }
    println!("{}", fm_table.to_text());
    let fm_path = "results/bluefield3_whatif_farmem.csv";
    std::fs::write(fm_path, fm_table.to_csv()).expect("write csv");
    println!("wrote {fm_path}");

    // The takeaway's constants are *derived from the live spec*, so a
    // recalibration of the BF-3 topology can never desync the prose.
    let path3_budget = BottleneckModel::from_spec(snic).path3_budget().as_gbps();
    let read_knee = snic.read_collapse_threshold();
    println!(
        "Takeaway: Bluefield-3 keeps the off-path architecture, so every\n\
         guideline survives with new constants — budget path 3 to ~{:.0}\n\
         Gbps, segment READs at {} — and CXL would remove the path-3\n\
         packet tax entirely.",
        path3_budget,
        fmt_bytes(read_knee)
    );
}
