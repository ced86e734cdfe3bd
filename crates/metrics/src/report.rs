//! Table / CSV / markdown emission for the figure binaries.
//!
//! Every `figN` binary prints the same rows/series the paper plots; this
//! module holds the small table formatter they share so the output is
//! consistent and machine-readable (CSV) as well as human-readable.

/// A named column of floating-point values.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Column header.
    pub name: String,
    /// Values, one per row.
    pub values: Vec<f64>,
}

impl Column {
    /// Create a column.
    pub fn new(name: impl Into<String>, values: Vec<f64>) -> Self {
        Column {
            name: name.into(),
            values,
        }
    }
}

/// A simple rectangular table: one x-axis column plus one column per series.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table title (figure name).
    pub title: String,
    /// Columns, first column is the x axis.
    pub columns: Vec<Column>,
}

impl Table {
    /// Create a table from columns.  All columns must have equal length.
    pub fn new(title: impl Into<String>, columns: Vec<Column>) -> Self {
        assert!(!columns.is_empty(), "a table needs at least one column");
        let rows = columns[0].values.len();
        assert!(
            columns.iter().all(|c| c.values.len() == rows),
            "all columns must have the same number of rows"
        );
        Table {
            title: title.into(),
            columns,
        }
    }

    /// Number of data rows.
    pub fn rows(&self) -> usize {
        self.columns[0].values.len()
    }

    /// Render as CSV (header row + data rows).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let headers: Vec<&str> = self.columns.iter().map(|c| c.name.as_str()).collect();
        out.push_str(&headers.join(","));
        out.push('\n');
        for row in 0..self.rows() {
            let cells: Vec<String> = self
                .columns
                .iter()
                .map(|c| format!("{:.6}", c.values[row]))
                .collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }

    /// Render as a GitHub-flavoured markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {}\n\n", self.title);
        let headers: Vec<&str> = self.columns.iter().map(|c| c.name.as_str()).collect();
        out.push_str(&format!("| {} |\n", headers.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.columns.len())));
        for row in 0..self.rows() {
            let cells: Vec<String> = self
                .columns
                .iter()
                .map(|c| format!("{:.3}", c.values[row]))
                .collect();
            out.push_str(&format!("| {} |\n", cells.join(" | ")));
        }
        out
    }

    /// Render as an aligned plain-text table for terminal output.
    pub fn to_text(&self) -> String {
        let mut out = format!("== {} ==\n", self.title);
        let widths: Vec<usize> = self.columns.iter().map(|c| c.name.len().max(12)).collect();
        for (c, w) in self.columns.iter().zip(&widths) {
            out.push_str(&format!("{:>width$}  ", c.name, width = w));
        }
        out.push('\n');
        for row in 0..self.rows() {
            for (c, w) in self.columns.iter().zip(&widths) {
                out.push_str(&format!("{:>width$.3}  ", c.values[row], width = w));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        Table::new(
            "Fig. X",
            vec![
                Column::new("load_pps", vec![5.0, 10.0, 15.0]),
                Column::new("lifetime_s", vec![900.0, 600.0, 420.0]),
            ],
        )
    }

    #[test]
    fn dimensions() {
        let t = sample();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.columns.len(), 2);
    }

    #[test]
    fn csv_output_has_header_and_rows() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "load_pps,lifetime_s");
        assert!(lines[1].starts_with("5.000000,900.000000"));
    }

    #[test]
    fn markdown_output_is_a_table() {
        let md = sample().to_markdown();
        assert!(md.contains("### Fig. X"));
        assert!(md.contains("| load_pps | lifetime_s |"));
        assert!(md.contains("| 5.000 | 900.000 |"));
    }

    #[test]
    fn text_output_contains_all_values() {
        let txt = sample().to_text();
        assert!(txt.contains("Fig. X"));
        assert!(txt.contains("900.000"));
        assert!(txt.contains("lifetime_s"));
    }

    #[test]
    #[should_panic]
    fn mismatched_column_lengths_rejected() {
        Table::new(
            "bad",
            vec![
                Column::new("a", vec![1.0]),
                Column::new("b", vec![1.0, 2.0]),
            ],
        );
    }

    #[test]
    #[should_panic]
    fn empty_table_rejected() {
        Table::new("bad", vec![]);
    }
}
