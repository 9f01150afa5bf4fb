//! Plain-text table and CSV rendering for figure data.
//!
//! Every experiment produces a [`Table`]: a header row plus data rows of
//! strings. The figure runner prints both a human-readable aligned table
//! and CSV (for plotting), so `cargo run --bin run_all -- --only fig4`
//! regenerates the paper's series directly.

/// A rendered result table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Table title (figure/table id + caption).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(row);
    }

    /// Renders as CSV (title as a `#` comment line). Cells containing
    /// separators, quotes or newlines are RFC-4180 quoted so table
    /// prose (units like "1,024" or quoted advice strings) cannot
    /// shift the column structure of the emitted file.
    pub fn to_csv(&self) -> String {
        let join = |cells: &[String]| -> String {
            cells
                .iter()
                .map(|c| csv_cell(c))
                .collect::<Vec<_>>()
                .join(",")
        };
        let mut out = format!("# {}\n", self.title);
        out.push_str(&join(&self.headers));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&join(r));
            out.push('\n');
        }
        out
    }

    /// Renders as an aligned text table.
    pub fn to_text(&self) -> String {
        let ncol = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| -> String {
            let mut s = String::new();
            for i in 0..ncol {
                if i > 0 {
                    s.push_str("  ");
                }
                let cell = &cells[i];
                // Right-align numbers, left-align labels.
                if cell.parse::<f64>().is_ok() {
                    s.push_str(&format!("{cell:>w$}", w = widths[i]));
                } else {
                    s.push_str(&format!("{cell:<w$}", w = widths[i]));
                }
            }
            s.push('\n');
            s
        };
        let mut out = format!("== {} ==\n", self.title);
        out.push_str(&line(&self.headers));
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncol - 1)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&line(r));
        }
        out
    }
}

/// RFC-4180 encoding of one CSV cell: quoted (with embedded quotes
/// doubled) when the raw text would be ambiguous, verbatim otherwise.
fn csv_cell(cell: &str) -> String {
    if cell.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// Parses one CSV line produced by [`Table::to_csv`] back into cells.
/// Test/tooling helper — the inverse of the RFC-4180 quoting above.
pub fn parse_csv_line(line: &str) -> Vec<String> {
    let mut cells = Vec::new();
    let mut cur = String::new();
    let mut quoted = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    quoted = false;
                }
            }
            '"' if cur.is_empty() => quoted = true,
            ',' if !quoted => cells.push(std::mem::take(&mut cur)),
            c => cur.push(c),
        }
    }
    cells.push(cur);
    cells
}

/// Formats a float with sensible precision for tables.
pub fn fmt_f(v: f64) -> String {
    if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Formats a byte count compactly (64, 4K, 9M...).
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 20 && b.is_multiple_of(1 << 20) {
        format!("{}M", b >> 20)
    } else if b >= 1 << 10 && b.is_multiple_of(1 << 10) {
        format!("{}K", b >> 10)
    } else {
        format!("{b}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_round_trip_shape() {
        let mut t = Table::new("Fig X", &["payload", "gbps"]);
        t.push(vec!["64".into(), "12.5".into()]);
        t.push(vec!["4K".into(), "191".into()]);
        let csv = t.to_csv();
        assert!(csv.starts_with("# Fig X\n"));
        assert_eq!(csv.lines().count(), 4);
        assert!(csv.contains("payload,gbps"));
    }

    #[test]
    fn csv_quotes_separators_and_round_trips() {
        // Regression: cells with commas/quotes used to be joined raw,
        // silently widening the row in the emitted CSV.
        let mut t = Table::new("Advice, quoted", &["case", "advice"]);
        t.push(vec!["skew, hot".into(), "keep \"index\" on host".into()]);
        t.push(vec!["plain".into(), "multi\nline".into()]);
        let csv = t.to_csv();
        // The comma/quote-bearing cells are quoted on the wire...
        assert!(csv.contains("\"skew, hot\""));
        assert!(csv.contains("\"keep \"\"index\"\" on host\""));
        // ...and every record parses back to exactly its source cells.
        let mut lines = csv.split('\n').skip(1); // drop the # title
        let header = parse_csv_line(lines.next().expect("header"));
        assert_eq!(header, t.headers);
        let row0 = parse_csv_line(lines.next().expect("row 0"));
        assert_eq!(row0, t.rows[0]);
        // The embedded newline stays inside its quotes: rejoin the two
        // physical lines it spans before parsing.
        let rest: Vec<&str> = lines.collect();
        let row1 = parse_csv_line(&rest[..2].join("\n"));
        assert_eq!(row1, t.rows[1]);
    }

    #[test]
    fn text_alignment_contains_all_cells() {
        let mut t = Table::new("T", &["a", "b"]);
        t.push(vec!["xx".into(), "1".into()]);
        let text = t.to_text();
        assert!(text.contains("xx"));
        assert!(text.contains('1'));
        assert!(text.contains("== T =="));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = Table::new("T", &["a", "b"]);
        t.push(vec!["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_f(191.2), "191");
        assert_eq!(fmt_f(4.25), "4.2");
        assert_eq!(fmt_f(0.5), "0.500");
        assert_eq!(fmt_bytes(64), "64");
        assert_eq!(fmt_bytes(4096), "4K");
        assert_eq!(fmt_bytes(9 << 20), "9M");
    }
}
