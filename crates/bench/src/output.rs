//! Experiment result rendering and persistence.

use serde::Serialize;
use serde_json::Value;
use std::fmt::Write as _;
use std::path::Path;

/// One regenerated table or figure: a column header plus data rows, with
/// free-form notes (observations mirrored against the paper's).
#[derive(Debug, Clone, Serialize)]
pub struct Experiment {
    /// Stable identifier, e.g. `"fig3"`.
    pub id: String,
    /// Human title, e.g. `"Fig. 3: query throughput, unpartitioned INLJ"`.
    pub title: String,
    /// Column names; the first column is the x axis.
    pub columns: Vec<String>,
    /// Data rows; `Value::Null` marks a missing / DNF point.
    pub rows: Vec<Vec<Value>>,
    /// Observations and caveats recorded alongside the data.
    pub notes: Vec<String>,
}

fn fmt_cell(v: &Value) -> String {
    match v {
        Value::Null => "—".to_string(),
        Value::Number(n) => {
            if let Some(f) = n.as_f64() {
                if n.is_i64() || n.is_u64() {
                    n.to_string()
                } else if f != 0.0 && f.abs() < 0.01 {
                    format!("{f:.2e}")
                } else {
                    format!("{f:.3}")
                }
            } else {
                n.to_string()
            }
        }
        Value::String(s) => s.clone(),
        other => other.to_string(),
    }
}

impl Experiment {
    /// Render as an aligned text table with the title and notes.
    pub fn render_text(&self) -> String {
        let mut grid: Vec<Vec<String>> = vec![self.columns.clone()];
        for row in &self.rows {
            grid.push(row.iter().map(fmt_cell).collect());
        }
        let cols = self.columns.len();
        let mut widths = vec![0usize; cols];
        for row in &grid {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        for (ri, row) in grid.iter().enumerate() {
            let mut line = String::new();
            for (i, cell) in row.iter().enumerate() {
                let pad = widths[i].saturating_sub(cell.chars().count());
                if i > 0 {
                    line.push_str("  ");
                }
                // Right-align data, left-align the first (x) column.
                if i == 0 {
                    line.push_str(cell);
                    line.push_str(&" ".repeat(pad));
                } else {
                    line.push_str(&" ".repeat(pad));
                    line.push_str(cell);
                }
            }
            out.push_str(line.trim_end());
            out.push('\n');
            if ri == 0 {
                let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
                out.push_str(&"-".repeat(total));
                out.push('\n');
            }
        }
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        out
    }

    /// Render as CSV (notes become trailing `# comment` lines).
    pub fn render_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.columns
                .iter()
                .map(|c| esc(c))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .map(|v| match v {
                    Value::Null => String::new(),
                    Value::String(s) => esc(s),
                    other => other.to_string(),
                })
                .collect();
            let _ = writeln!(out, "{}", cells.join(","));
        }
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        out
    }

    /// Write `<id>.csv` and `<id>.json` into `dir` (created if needed).
    pub fn write(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(format!("{}.csv", self.id)), self.render_csv())?;
        std::fs::write(
            dir.join(format!("{}.json", self.id)),
            serde_json::to_string_pretty(self).expect("experiment serializes"),
        )?;
        Ok(())
    }
}

/// Round to 3 decimals for stable, readable output files.
pub fn num(v: f64) -> Value {
    if !v.is_finite() {
        return Value::Null;
    }
    let r = (v * 1000.0).round() / 1000.0;
    serde_json::json!(r)
}

/// Round to 6 decimals: the canonical float form of the committed
/// `BENCH_*.json` goldens, stable against last-bit jitter from benign
/// refactors.
pub(crate) fn r6(v: f64) -> f64 {
    (v * 1e6).round() / 1e6
}

/// A number with scientific formatting preserved (per-lookup counters).
pub fn num6(v: f64) -> Value {
    if !v.is_finite() {
        return Value::Null;
    }
    let r = (v * 1e6).round() / 1e6;
    serde_json::json!(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn sample() -> Experiment {
        Experiment {
            id: "figX".into(),
            title: "sample".into(),
            columns: vec!["x".into(), "a".into()],
            rows: vec![vec![json!(1), num(0.5)], vec![json!(2), Value::Null]],
            notes: vec!["a note".into()],
        }
    }

    #[test]
    fn text_render_contains_all_cells() {
        let t = sample().render_text();
        assert!(t.contains("figX"));
        assert!(t.contains("0.5"));
        assert!(t.contains("—"));
        assert!(t.contains("note: a note"));
    }

    #[test]
    fn csv_render() {
        let c = sample().render_csv();
        let mut lines = c.lines();
        assert_eq!(lines.next(), Some("x,a"));
        assert_eq!(lines.next(), Some("1,0.5"));
        assert_eq!(lines.next(), Some("2,"));
        assert_eq!(lines.next(), Some("# a note"));
    }

    #[test]
    fn write_creates_files() {
        let dir = std::env::temp_dir().join("windex-output-test");
        let _ = std::fs::remove_dir_all(&dir);
        sample().write(&dir).unwrap();
        assert!(dir.join("figX.csv").exists());
        assert!(dir.join("figX.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn num_rounds_and_handles_nan() {
        assert_eq!(num(1.23456), json!(1.235));
        assert_eq!(num(f64::NAN), Value::Null);
        assert_eq!(num(f64::INFINITY), Value::Null);
    }
}
