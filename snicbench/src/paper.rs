//! The model's error against the paper values EXPERIMENTS.md records for
//! the Fig-4/7/8 points `harness_sweep` shares with it. Reported beside
//! the timings, never gated on.

use nicsim::{PathKind, Verb};
use pcie_model::counters::{CountDir, LinkId};
use snic_core::harness::ScenarioResult;

use crate::workload::{fig4_label, fig7_label, fig8_label};

/// A paper value: a point, or a band `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Paper {
    Point(f64),
    Band(f64, f64),
}

impl Paper {
    /// Relative error of `model`: against a point, `model / point - 1`;
    /// against a band, 0 inside it, else the distance to the nearer edge
    /// relative to that edge (or absolute when the edge is 0).
    pub fn error(self, model: f64) -> f64 {
        let rel = |edge: f64| {
            if edge == 0.0 {
                model - edge
            } else {
                model / edge - 1.0
            }
        };
        match self {
            Paper::Point(p) => rel(p),
            Paper::Band(lo, _) if model < lo => rel(lo),
            Paper::Band(_, hi) if model > hi => rel(hi),
            Paper::Band(..) => 0.0,
        }
    }

    fn show(self) -> String {
        match self {
            Paper::Point(p) => format!("{p}"),
            Paper::Band(lo, hi) => format!("[{lo}, {hi}]"),
        }
    }
}

/// One reference line: quantity, model value, paper value, error.
pub struct Row {
    pub quantity: &'static str,
    pub model: f64,
    pub paper: Paper,
}

impl Row {
    pub fn line(&self) -> String {
        format!(
            "paper: {:<44} model {:>9.3}  paper {:<14} error {:+.1}%",
            self.quantity,
            self.model,
            self.paper.show(),
            100.0 * self.paper.error(self.model)
        )
    }
}

/// The reference rows for a sweep's labelled results.
pub fn rows<'a>(find: impl Fn(&str) -> Option<&'a ScenarioResult>) -> Vec<Row> {
    let mops = |label: String| find(&label).map(|r| r.streams[0].ops.as_mops());
    let fig4 = |path, verb| mops(fig4_label(path, verb, 64));
    let mut rows = Vec::new();
    let mut push = |quantity, model: Option<f64>, paper| {
        if let Some(model) = model {
            rows.push(Row {
                quantity,
                model,
                paper,
            });
        }
    };
    let snic1_read = fig4(PathKind::Snic1, Verb::Read);
    let ratio = |a: Option<f64>, b: Option<f64>| Some(a? / b?);
    push(
        "fig4 SNIC(1)/RNIC(1) READ 64B peak",
        ratio(snic1_read, fig4(PathKind::Rnic1, Verb::Read)),
        Paper::Band(0.74, 0.81),
    );
    push(
        "fig4 SNIC(2)/SNIC(1) READ 64B peak",
        ratio(fig4(PathKind::Snic2, Verb::Read), snic1_read),
        Paper::Band(1.08, 1.48),
    );
    push(
        "fig4 SNIC(3)S2H READ 64B [Mops]",
        fig4(PathKind::Snic3S2H, Verb::Read),
        Paper::Point(29.0),
    );
    push(
        "fig4 SNIC(3)H2S READ 64B [Mops]",
        fig4(PathKind::Snic3H2S, Verb::Read),
        Paper::Point(51.2),
    );
    push(
        "fig7 SoC WRITE 64B@1.5KiB [Mops]",
        mops(fig7_label(PathKind::Snic2, Verb::Write)),
        Paper::Point(22.7),
    );
    push(
        "fig7 host READ 64B 1.5KiB/1GiB range",
        ratio(mops(fig7_label(PathKind::Snic1, Verb::Read)), snic1_read),
        Paper::Point(1.0),
    );
    let fig8 = |path, payload, link| {
        find(&fig8_label(path, payload)).map(|r| {
            (
                r.dir_data_tlp_rate(link, CountDir::Up).as_mops(),
                r.streams[0].goodput.as_gbps(),
            )
        })
    };
    let soc = fig8(PathKind::Snic2, 16 << 20, LinkId::Pcie1);
    let host = fig8(PathKind::Snic1, 1 << 20, LinkId::Pcie0);
    push(
        "fig8 SNIC(2) READ 16MiB [Mpps]",
        soc.map(|s| s.0),
        Paper::Band(0.0, 120.0),
    );
    push(
        "fig8 SNIC(1) READ 1MiB [Mpps]",
        host.map(|h| h.0),
        Paper::Point(46.7),
    );
    push(
        "fig8 SNIC(1) READ 1MiB [Gbps]",
        host.map(|h| h.1),
        Paper::Point(191.0),
    );
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_against_points_and_bands() {
        assert!((Paper::Point(50.0).error(55.0) - 0.1).abs() < 1e-12);
        assert_eq!(Paper::Band(1.0, 2.0).error(1.5), 0.0);
        assert!((Paper::Band(1.0, 2.0).error(2.2) - 0.1).abs() < 1e-12);
        assert!((Paper::Band(1.0, 2.0).error(0.9) + 0.1).abs() < 1e-12);
        assert_eq!(Paper::Band(0.0, 120.0).error(0.0), 0.0);
    }
}
