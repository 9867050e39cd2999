//! Aligned plain-text tables for terminal reports.

use std::fmt;

/// An aligned text table with a header row.
///
/// ```
/// use wsn_stats::table::TextTable;
///
/// let mut t = TextTable::new(vec!["N", "SR moves", "AR moves"]);
/// t.add_row(vec!["10".into(), "23.2".into(), "8.1".into()]);
/// t.add_row(vec!["1000".into(), "1.1".into(), "2.4".into()]);
/// let s = t.to_string();
/// assert!(s.contains("SR moves"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> TextTable {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics when the row's arity differs from the header's — a silent
    /// ragged table would misalign every column after it.
    pub fn add_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.header.len(),
            "row arity {} != header arity {}",
            row.len(),
            self.header.len()
        );
        self.rows.push(row);
    }

    /// Convenience: formats an iterator of `f64` cells after a label.
    pub fn add_numeric_row(&mut self, label: impl Into<String>, values: &[f64], precision: usize) {
        let mut row = vec![label.into()];
        row.extend(values.iter().map(|v| format!("{v:.precision$}")));
        self.add_row(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as a Markdown table (pipes and a separator row).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("| {} |\n", self.header.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.header.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

impl fmt::Display for TextTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>width$}", width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", fmt_row(&self.header))?;
        writeln!(
            f,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        )?;
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_pads_to_widest() {
        let mut t = TextTable::new(vec!["a", "bbbb"]);
        t.add_row(vec!["xxxxxx".into(), "1".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0].len(), lines[2].len());
        assert!(lines[1].chars().all(|c| c == '-' || c == ' '));
    }

    #[test]
    fn numeric_rows_format_precision() {
        let mut t = TextTable::new(vec!["label", "v1", "v2"]);
        t.add_numeric_row("row", &[1.23456, 2.0], 2);
        assert!(t.to_string().contains("1.23"));
        assert!(t.to_string().contains("2.00"));
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn ragged_row_panics() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.add_row(vec!["only-one".into()]);
    }

    #[test]
    fn markdown_shape() {
        let mut t = TextTable::new(vec!["x", "y"]);
        t.add_row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.starts_with("| x | y |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| 1 | 2 |"));
    }
}
