//! Terminal rendering of the paper's figures.
//!
//! Every figure prints an ASCII rendition next to its CSV output so the
//! reproduction can be eyeballed without plotting tools: a multi-series
//! line chart for the throughput-vs-nodes figures (7–10) and a shaded heat
//! map for the model surfaces (Figures 3–6).

/// One named series of a line chart.
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// (x, y) points; x values should be shared across series.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Convenience constructor.
    pub fn new<S: Into<String>>(name: S, points: Vec<(f64, f64)>) -> Self {
        Series {
            name: name.into(),
            points,
        }
    }
}

/// Renders a multi-series line chart into a `width x height` character
/// grid with axis annotations. Series are drawn with distinct glyphs in
/// order: `*`, `o`, `+`, `x`, `#`, `@`.
pub fn line_chart(title: &str, series: &[Series], width: usize, height: usize) -> String {
    const GLYPHS: [char; 6] = ['*', 'o', '+', 'x', '#', '@'];
    let (width, height) = (width.max(16), height.max(5));
    let all: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .collect();
    if all.is_empty() {
        return format!("{title}\n(no data)\n");
    }
    let x_min = all.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
    let x_max = all.iter().map(|p| p.0).fold(f64::NEG_INFINITY, f64::max);
    let y_min = 0.0f64.min(all.iter().map(|p| p.1).fold(f64::INFINITY, f64::min));
    let y_max = all.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
    let x_span = if x_max > x_min { x_max - x_min } else { 1.0 };
    let y_span = if y_max > y_min { y_max - y_min } else { 1.0 };

    let mut grid = vec![vec![' '; width]; height];
    for (si, s) in series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        for &(x, y) in &s.points {
            let cx = (((x - x_min) / x_span) * (width - 1) as f64).round() as usize;
            let cy = (((y - y_min) / y_span) * (height - 1) as f64).round() as usize;
            let row = height - 1 - cy.min(height - 1);
            grid[row][cx.min(width - 1)] = glyph;
        }
    }

    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    for (i, row) in grid.iter().enumerate() {
        let y_here = y_max - (i as f64 / (height - 1) as f64) * y_span;
        let label = if i == 0 || i == height - 1 || i == height / 2 {
            format!("{y_here:>10.1}")
        } else {
            " ".repeat(10)
        };
        out.push_str(&label);
        out.push('|');
        out.push_str(&row.iter().collect::<String>());
        out.push('\n');
    }
    out.push_str(&" ".repeat(10));
    out.push('+');
    out.push_str(&"-".repeat(width));
    out.push('\n');
    out.push_str(&format!(
        "{:>11}{:<w$.1}{:>8.1}\n",
        "",
        x_min,
        x_max,
        w = width - 7
    ));
    for (si, s) in series.iter().enumerate() {
        out.push_str(&format!("  {} {}\n", GLYPHS[si % GLYPHS.len()], s.name));
    }
    out
}

/// Renders a heat map of `values[row][col]` using a density ramp, with
/// `row_labels` down the side. Rows print top-to-bottom in the order given.
pub fn heat_map(
    title: &str,
    values: &[Vec<f64>],
    row_labels: &[String],
    x_caption: &str,
) -> String {
    const RAMP: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let flat: Vec<f64> = values.iter().flatten().copied().collect();
    if flat.is_empty() {
        out.push_str("(no data)\n");
        return out;
    }
    let lo = flat.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = flat.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = if hi > lo { hi - lo } else { 1.0 };
    for (r, row) in values.iter().enumerate() {
        let label = row_labels.get(r).map(String::as_str).unwrap_or("");
        out.push_str(&format!("{label:>10} |"));
        for &v in row {
            let t = ((v - lo) / span * (RAMP.len() - 1) as f64).round() as usize;
            out.push(RAMP[t.min(RAMP.len() - 1)]);
        }
        out.push('\n');
    }
    out.push_str(&format!("{:>10} +{}\n", "", "-".repeat(values[0].len())));
    out.push_str(&format!("{:>12}{x_caption}\n", ""));
    out.push_str(&format!("  scale: min={lo:.3} max={hi:.3}\n"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_chart_contains_series_glyphs_and_labels() {
        let s = vec![
            Series::new("alpha", vec![(0.0, 0.0), (1.0, 10.0)]),
            Series::new("beta", vec![(0.0, 5.0), (1.0, 2.0)]),
        ];
        let chart = line_chart("demo", &s, 40, 10);
        assert!(chart.contains("demo"));
        assert!(chart.contains('*'));
        assert!(chart.contains('o'));
        assert!(chart.contains("alpha"));
        assert!(chart.contains("beta"));
    }

    #[test]
    fn line_chart_handles_empty() {
        let chart = line_chart("empty", &[], 40, 10);
        assert!(chart.contains("no data"));
    }

    #[test]
    fn line_chart_handles_single_point() {
        let s = vec![Series::new("single", vec![(1.0, 1.0)])];
        let chart = line_chart("one", &s, 40, 10);
        assert!(chart.contains('*'));
    }

    #[test]
    fn heat_map_renders_extremes() {
        let values = vec![vec![0.0, 1.0], vec![0.5, 0.25]];
        let labels = vec!["low".to_string(), "mid".to_string()];
        let map = heat_map("hm", &values, &labels, "x axis");
        assert!(map.contains("hm"));
        assert!(map.contains('@')); // max cell
        assert!(map.contains("min=0.000"));
        assert!(map.contains("max=1.000"));
    }

    #[test]
    fn heat_map_handles_flat_surface() {
        let values = vec![vec![3.0, 3.0]];
        let labels = vec!["r".to_string()];
        let map = heat_map("flat", &values, &labels, "x");
        assert!(map.contains("min=3.000"));
    }
}
