//! Result tables: aligned console printing and CSV export.

use std::fmt::Write as _;
use std::path::Path;

/// A result table for one experiment.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id, e.g. `fig13a`.
    pub id: String,
    /// Human title, e.g. the paper's caption.
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
    /// Free-form notes appended under the table (paper-vs-measured
    /// commentary, scale disclosures).
    pub notes: Vec<String>,
    /// Per-experiment telemetry rows (`name`, `value`), taken as a
    /// [`bora_obs`] registry delta around the experiment run. Appended to
    /// the CSV after a blank line so the main table stays parseable.
    pub metrics: Vec<(String, String)>,
}

impl Table {
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Table {
            id: id.to_owned(),
            title: title.to_owned(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
            metrics: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch in {}", self.id);
        self.rows.push(cells);
    }

    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        let line = |cells: &[String], widths: &[usize]| -> String {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(s, "{:<width$}  ", c, width = widths[i]);
            }
            s.trim_end().to_owned()
        };
        let _ = writeln!(out, "{}", line(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + widths.len() * 2;
        let _ = writeln!(out, "{}", "-".repeat(total.min(120)));
        for row in &self.rows {
            let _ = writeln!(out, "{}", line(row, &widths));
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        if !self.metrics.is_empty() {
            let _ = writeln!(out, "  telemetry:");
            for (k, v) in &self.metrics {
                let _ = writeln!(out, "    {k} = {v}");
            }
        }
        out
    }

    /// CSV serialization (RFC-4180-ish quoting).
    pub fn to_csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_owned()
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers.iter().map(|h| field(h)).collect::<Vec<_>>().join(",")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.iter().map(|c| field(c)).collect::<Vec<_>>().join(","));
        }
        if !self.metrics.is_empty() {
            // Blank line separates the metrics section from the table body so
            // naive `split('\n')` consumers of the main table are unaffected.
            let _ = writeln!(out);
            let _ = writeln!(out, "metric,value");
            for (k, v) in &self.metrics {
                let _ = writeln!(out, "{},{}", field(k), field(v));
            }
        }
        out
    }

    /// Write `<dir>/<id>.csv`.
    pub fn save_csv(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{}.csv", self.id)), self.to_csv())
    }
}

/// Format virtual nanoseconds as engineering-friendly milliseconds.
pub fn ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

/// Format a speedup ratio.
pub fn speedup(base_ns: u64, ours_ns: u64) -> String {
    if ours_ns == 0 {
        return "inf".into();
    }
    format!("{:.2}x", base_ns as f64 / ours_ns as f64)
}

/// Format a byte count in GiB/MiB.
pub fn size(bytes: u64) -> String {
    const MIB: f64 = 1024.0 * 1024.0;
    let b = bytes as f64;
    if b >= 1024.0 * MIB {
        format!("{:.2} GiB", b / (1024.0 * MIB))
    } else {
        format!("{:.1} MiB", b / MIB)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("fig0", "demo", &["name", "value"]);
        t.row(vec!["alpha".into(), "1".into()]);
        t.row(vec!["beta, the second".into(), "2".into()]);
        t.note("scaled run");
        t
    }

    #[test]
    fn render_contains_everything() {
        let r = sample().render();
        assert!(r.contains("fig0"));
        assert!(r.contains("alpha"));
        assert!(r.contains("note: scaled run"));
    }

    #[test]
    fn csv_quotes_commas() {
        let csv = sample().to_csv();
        assert!(csv.contains("\"beta, the second\""));
        assert!(csv.starts_with("name,value\n"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("x", "x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_metrics_section_appended_after_blank_line() {
        let mut t = sample();
        t.metrics.push(("bora.open.count".into(), "3".into()));
        t.metrics.push(("fs.read_at.p99".into(), "8191".into()));
        let csv = t.to_csv();
        // The table body is byte-identical to the metrics-free rendering, so
        // existing column parsers that stop at the first blank line still work.
        let plain = sample().to_csv();
        assert!(csv.starts_with(&plain));
        let tail = &csv[plain.len()..];
        assert_eq!(tail, "\nmetric,value\nbora.open.count,3\nfs.read_at.p99,8191\n");
        // Console rendering carries the same telemetry.
        let r = t.render();
        assert!(r.contains("telemetry:"));
        assert!(r.contains("bora.open.count = 3"));
    }

    #[test]
    fn csv_without_metrics_has_no_trailing_section() {
        let csv = sample().to_csv();
        assert!(!csv.contains("metric,value"));
        assert!(!csv.contains("\n\n"));
    }

    #[test]
    fn formatters() {
        assert_eq!(ms(1_500_000), "1.500");
        assert_eq!(speedup(200, 100), "2.00x");
        assert_eq!(size(3 * 1024 * 1024 * 1024), "3.00 GiB");
    }
}
