//! Common output container for regenerated figures.

use nanobound_report::{Chart, Table};

/// Everything a regenerated figure produces: one or more tables (the
/// numbers) and optionally charts (the shape).
#[derive(Clone, Debug)]
pub struct FigureOutput {
    /// Identifier matching the paper, e.g. `"fig3"` or `"headline"`.
    pub id: &'static str,
    /// What the paper's figure shows.
    pub caption: &'static str,
    /// The regenerated data.
    pub tables: Vec<Table>,
    /// ASCII renderings of the curve families, where meaningful.
    pub charts: Vec<Chart>,
}

impl FigureOutput {
    /// Renders the whole figure (caption, charts, tables) for terminal
    /// output — what the bench harnesses print.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!("== {} — {}\n\n", self.id, self.caption);
        for chart in &self.charts {
            out.push_str(&chart.render(72, 20));
            out.push('\n');
        }
        for table in &self.tables {
            out.push_str(&table.to_markdown());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanobound_report::{Cell, Series};

    #[test]
    fn render_contains_all_parts() {
        let mut t = Table::new("numbers", ["a"]);
        t.push_row([Cell::from(1.0)]).unwrap();
        let mut c = Chart::new("curve", "x", "y");
        c.add(Series::new("s", vec![(0.0, 0.0), (1.0, 1.0)]));
        let fig = FigureOutput {
            id: "figX",
            caption: "test",
            tables: vec![t],
            charts: vec![c],
        };
        let r = fig.render();
        assert!(r.contains("figX") && r.contains("numbers") && r.contains("curve"));
    }
}
