//! A minimal fixed-width text table renderer.
//!
//! Every experiment binary in `omg-bench` prints its results through this
//! type so that regenerated tables have a consistent, diffable layout.

use std::fmt;

/// Horizontal alignment of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Left-aligned (default for text).
    Left,
    /// Right-aligned (default for numbers).
    Right,
}

/// A simple fixed-width table.
///
/// # Example
///
/// ```
/// use omg_eval::table::Table;
///
/// let mut t = Table::new(vec!["assertion", "precision"]);
/// t.row(vec!["flicker".to_string(), "96%".to_string()]);
/// let s = t.to_string();
/// assert!(s.contains("flicker"));
/// assert!(s.contains("precision"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
    title: Option<String>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        assert!(!headers.is_empty(), "a table needs at least one column");
        let headers: Vec<String> = headers.into_iter().map(Into::into).collect();
        let aligns = vec![Align::Left; headers.len()];
        Self {
            headers,
            aligns,
            rows: Vec::new(),
            title: None,
        }
    }

    /// Sets a title line printed above the table.
    pub fn with_title<S: Into<String>>(mut self, title: S) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Sets per-column alignment.
    ///
    /// # Panics
    ///
    /// Panics if the number of alignments differs from the number of
    /// columns.
    pub fn with_aligns(mut self, aligns: Vec<Align>) -> Self {
        assert_eq!(aligns.len(), self.headers.len());
        self.aligns = aligns;
        self
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                w[i] = w[i].max(cell.chars().count());
            }
        }
        w
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        let pad = |s: &str, w: usize, a: Align| -> String {
            let len = s.chars().count();
            let space = " ".repeat(w.saturating_sub(len));
            match a {
                Align::Left => format!("{s}{space}"),
                Align::Right => format!("{space}{s}"),
            }
        };
        if let Some(t) = &self.title {
            writeln!(f, "{t}")?;
        }
        let header: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| pad(h, widths[i], Align::Left))
            .collect();
        writeln!(f, "| {} |", header.join(" | "))?;
        let sep: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
        writeln!(f, "|-{}-|", sep.join("-|-"))?;
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| pad(c, widths[i], self.aligns[i]))
                .collect();
            writeln!(f, "| {} |", cells.join(" | "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_title_headers_rows() {
        let mut t = Table::new(vec!["a", "b"]).with_title("Table X");
        t.row(vec!["foo".into(), "1".into()]);
        t.row(vec!["barbaz".into(), "22".into()]);
        let s = t.to_string();
        assert!(s.starts_with("Table X\n"));
        assert!(s.contains("| a      | b  |"));
        assert!(s.contains("| foo    | 1  |"));
        assert!(s.contains("| barbaz | 22 |"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn right_alignment() {
        let mut t = Table::new(vec!["n"]).with_aligns(vec![Align::Right]);
        t.row(vec!["7".into()]);
        t.row(vec!["123".into()]);
        let s = t.to_string();
        assert!(s.contains("|   7 |"));
        assert!(s.contains("| 123 |"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        Table::new(vec!["a", "b"]).row(vec!["only-one".into()]);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_headers_panic() {
        Table::new(Vec::<String>::new());
    }

    #[test]
    fn empty_table_renders_header_only() {
        let t = Table::new(vec!["col"]);
        let s = t.to_string();
        assert!(s.contains("| col |"));
        assert!(t.is_empty());
    }
}
