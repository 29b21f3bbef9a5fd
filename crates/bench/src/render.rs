//! Plain-text table rendering for experiment output.

/// One table: the unit both the stdout path and the artifact path
/// consume. `render` produces the classic fixed-width text;
/// `to_json` produces the machine-readable form written to
/// `<name>.rows.json`, with [`FigTable::volatile_cols`] (wall-clock
/// columns: seconds, allocations, RSS) dropped so the artifact bytes are
/// reproducible at any thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct FigTable {
    /// Table title (the `## …` heading).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows, already formatted as the rendered table shows them.
    pub rows: Vec<Vec<String>>,
    /// Indices of wall-clock-derived columns excluded from the JSON
    /// export (empty for most figures; megascale's cost columns).
    pub volatile_cols: Vec<usize>,
}

impl FigTable {
    /// A table with no volatile columns.
    pub(crate) fn new(title: &str, headers: &[&str], rows: Vec<Vec<String>>) -> Self {
        FigTable {
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows,
            volatile_cols: Vec::new(),
        }
    }

    /// Marks columns as wall-clock derived (dropped from
    /// [`FigTable::to_json`], kept in the rendered text).
    #[must_use]
    pub(crate) fn volatile(mut self, cols: &[usize]) -> Self {
        self.volatile_cols = cols.to_vec();
        self
    }

    /// The fixed-width text table: title, header row, rule, data rows (one
    /// trailing newline per line, including the last). The golden-output
    /// regression tests pin this text byte-for-byte.
    pub fn render(&self) -> String {
        let mut out = format!("\n## {}\n", self.title);
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let line = |cells: &[String]| {
            let mut s = String::from("|");
            for (i, c) in cells.iter().enumerate() {
                s.push_str(&format!(" {:>width$} |", c, width = widths[i]));
            }
            s
        };
        out.push_str(&line(&self.headers));
        out.push('\n');
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row));
            out.push('\n');
        }
        out
    }

    /// `{"title": …, "headers": […], "rows": [[…], …]}` with the volatile
    /// columns removed from both headers and rows.
    pub(crate) fn to_json(&self) -> String {
        use epidemic_trace::json::{array_of, JsonObject};
        let keep = |idx: &usize| !self.volatile_cols.contains(idx);
        let string_array = |cells: &[String]| {
            array_of(
                cells
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| keep(i))
                    .map(|(_, cell)| {
                        let mut quoted = String::from("\"");
                        epidemic_trace::json::escape_into(&mut quoted, cell);
                        quoted.push('"');
                        quoted
                    }),
            )
        };
        let mut o = JsonObject::new();
        o.field_str("title", &self.title)
            .field_raw("headers", &string_array(&self.headers))
            .field_raw(
                "rows",
                &array_of(self.rows.iter().map(|row| string_array(row))),
            );
        o.finish()
    }
}

/// A table row: `label`, then each mean as the tables print numbers.
pub(crate) fn labelled<const K: usize>(label: impl Into<String>, means: [f64; K]) -> Vec<String> {
    let mut row = Vec::with_capacity(K + 1);
    row.push(label.into());
    row.extend(means.map(fmt));
    row
}

/// Formats a float with three significant-ish decimals, trimming noise.
pub(crate) fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else if x.abs() >= 0.001 {
        format!("{x:.4}")
    } else {
        format!("{x:.2e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig_table_json_drops_volatile_columns() {
        let t = FigTable::new(
            "Demo",
            &["k", "residue", "seconds"],
            vec![vec!["1".into(), "0.18".into(), "3.20".into()]],
        )
        .volatile(&[2]);
        assert!(t.render().contains("seconds"));
        assert_eq!(
            t.to_json(),
            r#"{"title":"Demo","headers":["k","residue"],"rows":[["1","0.18"]]}"#
        );
    }

    #[test]
    fn fmt_scales_precision() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(123.4), "123");
        assert_eq!(fmt(3.333), "3.33");
        assert_eq!(fmt(0.0367), "0.0367");
        assert_eq!(fmt(0.00012), "1.20e-4");
    }
}
