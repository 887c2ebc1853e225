//! Plain-text table formatting used by the benchmark harnesses.
//!
//! Every experiment bench prints its result as a small aligned table so that the
//! `bench_output.txt` transcript can be compared side by side with the paper's figures.

use std::fmt::Write as _;

/// Horizontal alignment of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Alignment {
    /// Pad on the right.
    #[default]
    Left,
    /// Pad on the left.
    Right,
}

/// A single column description: header text plus alignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Header text printed on the first row.
    pub header: String,
    /// Cell alignment for the column.
    pub align: Alignment,
}

impl Column {
    /// Left-aligned column.
    pub fn left(header: impl Into<String>) -> Self {
        Self {
            header: header.into(),
            align: Alignment::Left,
        }
    }

    /// Right-aligned column (numbers).
    pub fn right(header: impl Into<String>) -> Self {
        Self {
            header: header.into(),
            align: Alignment::Right,
        }
    }
}

/// An in-memory text table.
///
/// ```
/// use dg_stats::{Table, Column};
/// let mut t = Table::new(vec![Column::left("tuner"), Column::right("time (s)")]);
/// t.push_row(vec!["DarwinGame".into(), "241.3".into()]);
/// let rendered = t.render();
/// assert!(rendered.contains("DarwinGame"));
/// assert!(rendered.contains("time (s)"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    columns: Vec<Column>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given columns.
    ///
    /// # Panics
    ///
    /// Panics if `columns` is empty.
    pub fn new(columns: Vec<Column>) -> Self {
        assert!(!columns.is_empty(), "a table needs at least one column");
        Self {
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the number of columns.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row length must match column count"
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no data rows have been added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with a header row, a separator, and aligned cells.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.header.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| pad(&c.header, widths[i], c.align))
            .collect();
        let _ = writeln!(out, "{}", header.join("  "));
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let _ = writeln!(out, "{}", rule.join("  "));
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, cell)| pad(cell, widths[i], self.columns[i].align))
                .collect();
            let _ = writeln!(out, "{}", cells.join("  "));
        }
        out
    }
}

fn pad(text: &str, width: usize, align: Alignment) -> String {
    match align {
        Alignment::Left => format!("{text:<width$}"),
        Alignment::Right => format!("{text:>width$}"),
    }
}

/// Formats a sequence of `(label, value)` pairs on a single line, the compact style used
/// for one-row figure outputs (e.g. `DarwinGame=241.3s BLISS=352.0s`).
pub fn format_row(pairs: &[(&str, f64)], unit: &str) -> String {
    pairs
        .iter()
        .map(|(label, value)| format!("{label}={value:.2}{unit}"))
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_contains_headers_and_cells() {
        let mut t = Table::new(vec![Column::left("app"), Column::right("time")]);
        t.push_row(vec!["Redis".into(), "241.0".into()]);
        t.push_row(vec!["LAMMPS".into(), "1530.5".into()]);
        let s = t.render();
        assert!(s.contains("app"));
        assert!(s.contains("Redis"));
        assert!(s.contains("1530.5"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    fn right_alignment_pads_left() {
        let mut t = Table::new(vec![Column::right("n")]);
        t.push_row(vec!["7".into()]);
        t.push_row(vec!["1234".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[2].starts_with("   7"));
    }

    #[test]
    #[should_panic(expected = "row length must match")]
    fn mismatched_row_rejected() {
        let mut t = Table::new(vec![Column::left("a"), Column::left("b")]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_columns_rejected() {
        Table::new(Vec::new());
    }

    #[test]
    fn format_row_is_compact() {
        let s = format_row(&[("Oracle", 230.0), ("DarwinGame", 241.5)], "s");
        assert_eq!(s, "Oracle=230.00s DarwinGame=241.50s");
    }

    #[test]
    fn len_tracks_rows() {
        let mut t = Table::new(vec![Column::left("x")]);
        assert!(t.is_empty());
        t.push_row(vec!["1".into()]);
        assert_eq!(t.len(), 1);
    }
}
