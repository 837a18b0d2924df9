//! Plain-text table/series rendering for the figure binaries.

/// A rendered experiment: a title and rows of `(label, series)` values.
#[derive(Clone, Debug)]
pub struct Series {
    /// Row label (method name, aspect name, …).
    pub label: String,
    /// One value per x-axis point.
    pub values: Vec<f64>,
}

/// Render a fixed-width table: header of x-labels, one row per series.
pub fn render_table(title: &str, x_labels: &[String], rows: &[Series]) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let label_w = rows
        .iter()
        .map(|r| r.label.len())
        .chain(std::iter::once(8))
        .max()
        .unwrap_or(8);
    out.push_str(&format!("{:label_w$}", ""));
    for x in x_labels {
        out.push_str(&format!(" {x:>9}"));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&format!("{:label_w$}", row.label));
        for v in &row.values {
            out.push_str(&format!(" {v:>9.4}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_all_rows_and_columns() {
        let rows = vec![
            Series {
                label: "L2QP".into(),
                values: vec![0.5, 0.6],
            },
            Series {
                label: "LM".into(),
                values: vec![0.4, 0.45],
            },
        ];
        let t = render_table("Fig X", &["2".into(), "3".into()], &rows);
        assert!(t.contains("Fig X"));
        assert!(t.contains("L2QP"));
        assert!(t.contains("0.6000"));
        assert_eq!(t.lines().count(), 4);
    }
}
