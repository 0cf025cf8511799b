//! Dependency-free SVG line charts for the figure harness.
//!
//! Produces a self-contained SVG mirroring the paper's figures: one line
//! per sweep series over the speed axis, with axes, gridlines, tick
//! labels, and a legend.

use crate::experiment::SweepSeries;
use crate::metrics::Metrics;

const WIDTH: f64 = 640.0;
const HEIGHT: f64 = 420.0;
const MARGIN_L: f64 = 70.0;
const MARGIN_R: f64 = 20.0;
const MARGIN_T: f64 = 50.0;
const MARGIN_B: f64 = 60.0;

/// Line colors cycled across series.
const COLORS: [&str; 6] = [
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
];

fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Renders a set of sweep series as an SVG line chart of
/// `metric` vs. node speed.
///
/// # Examples
///
/// ```
/// use mccls_aodv::experiment::{sweep, AttackKind};
/// use mccls_aodv::{plot, CryptoCost, Metrics, Protocol};
///
/// let free = CryptoCost::FREE;
/// let series = vec![sweep(Protocol::Aodv, AttackKind::None, free, &[0.0, 10.0], 1, 1)];
/// let svg = plot::render_svg("Fig. 1", "PDR", &series, Metrics::packet_delivery_ratio);
/// assert!(svg.starts_with("<svg"));
/// assert!(svg.contains("polyline"));
/// ```
pub fn render_svg(
    title: &str,
    metric_name: &str,
    series: &[SweepSeries],
    metric: impl Fn(&Metrics) -> f64,
) -> String {
    let plot_w = WIDTH - MARGIN_L - MARGIN_R;
    let plot_h = HEIGHT - MARGIN_T - MARGIN_B;

    // Gather data ranges.
    let mut x_max: f64 = 1.0;
    let mut y_max: f64 = 0.0;
    let mut data: Vec<Vec<(f64, f64)>> = Vec::new();
    for s in series {
        let pts: Vec<(f64, f64)> = s
            .points
            .iter()
            .map(|p| {
                let y = metric(&p.metrics);
                x_max = x_max.max(p.speed);
                y_max = y_max.max(y);
                (p.speed, y)
            })
            .collect();
        data.push(pts);
    }
    if y_max <= 0.0 {
        y_max = 1.0;
    }
    y_max *= 1.08; // headroom

    let sx = |x: f64| MARGIN_L + x / x_max * plot_w;
    let sy = |y: f64| MARGIN_T + plot_h - y / y_max * plot_h;

    let mut svg = String::with_capacity(8 * 1024);
    svg.push_str(&format!(
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">"#
    ));
    svg.push_str(&format!(
        r#"<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>"#
    ));
    svg.push_str(&format!(
        r#"<text x="{}" y="24" text-anchor="middle" font-size="15" font-weight="bold">{title}</text>"#,
        WIDTH / 2.0
    ));

    // Gridlines and ticks.
    for i in 0..=5 {
        let y_val = y_max / 1.08 * i as f64 / 5.0;
        let y = sy(y_val);
        svg.push_str(&format!(
            r##"<line x1="{MARGIN_L}" y1="{y:.1}" x2="{:.1}" y2="{y:.1}" stroke="#ddd"/>"##,
            WIDTH - MARGIN_R
        ));
        svg.push_str(&format!(
            r#"<text x="{:.1}" y="{:.1}" text-anchor="end">{}</text>"#,
            MARGIN_L - 6.0,
            y + 4.0,
            fmt(y_val)
        ));
    }
    let x_ticks: Vec<f64> = series
        .first()
        .map(|s| s.points.iter().map(|p| p.speed).collect())
        .unwrap_or_default();
    for &x_val in &x_ticks {
        let x = sx(x_val);
        svg.push_str(&format!(
            r##"<line x1="{x:.1}" y1="{:.1}" x2="{x:.1}" y2="{:.1}" stroke="#eee"/>"##,
            MARGIN_T,
            MARGIN_T + plot_h
        ));
        svg.push_str(&format!(
            r#"<text x="{x:.1}" y="{:.1}" text-anchor="middle">{}</text>"#,
            MARGIN_T + plot_h + 18.0,
            fmt(x_val)
        ));
    }

    // Axes.
    svg.push_str(&format!(
        r#"<line x1="{MARGIN_L}" y1="{:.1}" x2="{:.1}" y2="{:.1}" stroke="black"/>"#,
        MARGIN_T + plot_h,
        WIDTH - MARGIN_R,
        MARGIN_T + plot_h
    ));
    svg.push_str(&format!(
        r#"<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" y2="{:.1}" stroke="black"/>"#,
        MARGIN_T + plot_h
    ));
    svg.push_str(&format!(
        r#"<text x="{:.1}" y="{:.1}" text-anchor="middle">speed (m/s)</text>"#,
        MARGIN_L + plot_w / 2.0,
        HEIGHT - 14.0
    ));
    svg.push_str(&format!(
        r#"<text x="16" y="{:.1}" text-anchor="middle" transform="rotate(-90 16 {:.1})">{metric_name}</text>"#,
        MARGIN_T + plot_h / 2.0,
        MARGIN_T + plot_h / 2.0
    ));

    // Series polylines, markers, legend.
    for (i, (s, pts)) in series.iter().zip(&data).enumerate() {
        let color = COLORS[i % COLORS.len()];
        let path: Vec<String> = pts
            .iter()
            .map(|&(x, y)| format!("{:.1},{:.1}", sx(x), sy(y)))
            .collect();
        svg.push_str(&format!(
            r#"<polyline points="{}" fill="none" stroke="{color}" stroke-width="2"/>"#,
            path.join(" ")
        ));
        for &(x, y) in pts {
            svg.push_str(&format!(
                r#"<circle cx="{:.1}" cy="{:.1}" r="3.2" fill="{color}"/>"#,
                sx(x),
                sy(y)
            ));
        }
        let ly = MARGIN_T + 8.0 + i as f64 * 18.0;
        svg.push_str(&format!(
            r#"<line x1="{:.1}" y1="{ly:.1}" x2="{:.1}" y2="{ly:.1}" stroke="{color}" stroke-width="2"/>"#,
            MARGIN_L + 12.0,
            MARGIN_L + 40.0
        ));
        svg.push_str(&format!(
            r#"<text x="{:.1}" y="{:.1}">{}</text>"#,
            MARGIN_L + 46.0,
            ly + 4.0,
            s.label()
        ));
    }

    svg.push_str("</svg>");
    svg
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic freely
mod tests {
    use super::*;
    use crate::auth::LEGACY_COST;
    use crate::config::Protocol;
    use crate::experiment::{sweep, AttackKind};

    fn tiny_series() -> Vec<SweepSeries> {
        [Protocol::Aodv, Protocol::McClsSecured]
            .into_iter()
            .map(|p| sweep(p, AttackKind::None, LEGACY_COST, &[0.0, 10.0], 1, 3))
            .collect()
    }

    #[test]
    fn svg_is_well_formed_with_one_polyline_per_series() {
        let series = tiny_series();
        let svg = render_svg("Fig. T", "pdr", &series, Metrics::packet_delivery_ratio);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert_eq!(svg.matches("<polyline").count(), series.len());
        assert!(svg.contains("Fig. T"));
        assert!(svg.contains("McCLS"));
        // Markers: one circle per point per series.
        assert_eq!(svg.matches("<circle").count(), 2 * series.len());
    }

    #[test]
    fn svg_handles_all_zero_metric() {
        let series = tiny_series();
        let svg = render_svg("zeros", "drop", &series, |_| 0.0);
        assert!(svg.contains("polyline"));
        assert!(!svg.contains("NaN"));
    }

    #[test]
    fn coordinates_stay_inside_the_viewbox() {
        let series = tiny_series();
        let svg = render_svg("bounds", "pdr", &series, Metrics::packet_delivery_ratio);
        for cap in svg.split("cx=\"").skip(1) {
            let v: f64 = cap.split('"').next().unwrap().parse().unwrap();
            assert!((0.0..=WIDTH).contains(&v), "cx {v} out of bounds");
        }
        for cap in svg.split("cy=\"").skip(1) {
            let v: f64 = cap.split('"').next().unwrap().parse().unwrap();
            assert!((0.0..=HEIGHT).contains(&v), "cy {v} out of bounds");
        }
    }
}
