//! Plain-text table rendering for figure output (markdown-ish and CSV).

use std::fmt::Write as _;

/// A simple column-aligned table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Table with the given whitespace-separated column headers.
    pub fn new(header: &str) -> Self {
        Self {
            header: header.split_whitespace().map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// The column headers.
    pub fn columns(&self) -> &[String] {
        &self.header
    }

    /// The data rows (for machine-readable serialization).
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:<w$}", c, w = width[i] + 2);
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        let total: usize = width.iter().map(|w| w + 2).sum();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &String| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        out.push_str(&self.header.iter().map(esc).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(esc).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Format a normalized value like `0.83`.
pub fn norm(v: f64) -> String {
    format!("{v:.3}")
}

/// Format a normalized value with min/max error bars.
pub fn norm_err(mean: f64, min: f64, max: f64) -> String {
    format!("{mean:.3} [{min:.3},{max:.3}]")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("name value");
        t.row(vec!["a", "1"]);
        t.row(vec!["longer", "2.5"]);
        let s = t.render();
        assert!(s.contains("name"));
        assert!(s.contains("longer"));
        assert_eq!(s.lines().count(), 4);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new("a b");
        t.row(vec!["x,y", "plain"]);
        let csv = t.to_csv();
        assert!(csv.contains("\"x,y\",plain"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_mismatch_panics() {
        let mut t = Table::new("a b");
        t.row(vec!["only-one"]);
    }

    #[test]
    fn norm_formats() {
        assert_eq!(norm(0.25), "0.250");
        assert_eq!(norm_err(1.0, 0.9, 1.1), "1.000 [0.900,1.100]");
    }
}
