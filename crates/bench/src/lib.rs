//! # pdac-bench — the bodies of the `pdac` binary's experiment subcommands
//!
//! - [`figures`]: one [`figures::Figure`] per figure of the paper's
//!   evaluation (`fig2`, `fig4`–`fig8`) and per extension that sweeps like
//!   one (`future`, `cluster`). Each sweeps the message sizes through the
//!   timing simulator, prints the table and an ASCII rendition of the plot,
//!   writes machine-readable JSON under `results/`, and states the paper's
//!   claims once as a function of the series it swept.
//! - [`claims`]: the claims as one table, `results/claims.txt`.
//! - [`gate`]: the canonical scenario matrix, its exact table and its
//!   plan-conformance audit.
//! - [`trace`]: one collective on both executors with telemetry.
//! - [`extensions`]: ablations, the construction scaling study and the
//!   component auto-tuner.
//!
//! The construction overhead the paper discusses in §V-B is timed by
//! [`extensions::scaling`] (`pdac scaling`).

#![warn(missing_docs)]

pub mod claims;
pub mod extensions;
pub mod figures;
pub mod gate;
pub mod trace;

use pdac_simnet::Series;

/// Formats a figure as the table the paper plots: one row per size, one
/// column per curve, bandwidth in MBytes/s.
pub fn render_table(title: &str, series: &[Series]) -> String {
    let mut out = format!("# {title}\n");
    out.push_str(&format!("{:>10}", "size"));
    for s in series {
        out.push_str(&format!("  {:>26}", s.label));
    }
    out.push('\n');
    if series.is_empty() {
        return out;
    }
    for (i, p) in series[0].points.iter().enumerate() {
        out.push_str(&format!("{:>10}", human_size(p.msg_bytes)));
        for s in series {
            out.push_str(&format!("  {:>26.1}", s.points[i].bw_mbs));
        }
        out.push('\n');
    }
    out
}

/// Renders an ASCII line chart of the series (bandwidth vs message size,
/// linear y scale), one plot symbol per curve — a terminal-friendly echo of
/// the paper's figures.
pub fn render_chart(series: &[Series], height: usize) -> String {
    const SYMBOLS: [char; 6] = ['o', 'x', '*', '+', '#', '@'];
    let Some(first) = series.first() else {
        return String::new();
    };
    let cols = first.points.len();
    let peak = series.iter().map(Series::peak_bw).fold(0.0, f64::max);
    if peak <= 0.0 || cols == 0 || height < 2 {
        return String::new();
    }
    // grid[row][col]: row 0 is the top.
    let mut grid = vec![vec![' '; cols * 3]; height];
    for (si, s) in series.iter().enumerate() {
        let sym = SYMBOLS[si % SYMBOLS.len()];
        for (ci, p) in s.points.iter().enumerate() {
            let level = ((p.bw_mbs / peak) * (height as f64 - 1.0)).round() as usize;
            let row = height - 1 - level.min(height - 1);
            let col = ci * 3 + 1;
            grid[row][col] = if grid[row][col] == ' ' { sym } else { '&' };
        }
    }
    let mut out = String::new();
    for (r, row) in grid.iter().enumerate() {
        let label = if r == 0 {
            format!("{peak:>9.0} |")
        } else if r == height - 1 {
            format!("{:>9.0} |", 0.0)
        } else {
            format!("{:>9} |", "")
        };
        out.push_str(&label);
        out.push_str(row.iter().collect::<String>().trim_end());
        out.push('\n');
    }
    out.push_str(&format!("{:>9} +{}\n", "MB/s", "-".repeat(cols * 3)));
    out.push_str(&format!("{:>11}", ""));
    for p in &first.points {
        let label: String = human_size(p.msg_bytes).chars().take(2).collect();
        out.push_str(&format!("{label:<3}"));
    }
    out.push('\n');
    for (si, s) in series.iter().enumerate() {
        out.push_str(&format!("  {} {}\n", SYMBOLS[si % SYMBOLS.len()], s.label));
    }
    out.push_str("  & overlapping curves\n");
    out
}

/// `512`, `1K`, ... `8M` labels as in the figures' x axes.
pub fn human_size(bytes: usize) -> String {
    if bytes >= 1 << 20 && bytes.is_multiple_of(1 << 20) {
        format!("{}M", bytes >> 20)
    } else if bytes >= 1 << 10 && bytes.is_multiple_of(1 << 10) {
        format!("{}K", bytes >> 10)
    } else {
        format!("{bytes}")
    }
}

/// Writes `body` to `path`, creating its directory, and says so.
pub fn write_file(path: impl AsRef<std::path::Path>, body: &str) -> Result<(), String> {
    let path = path.as_ref();
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    dir.map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, body))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Relative bandwidth loss of `b` versus `a` at one size, in percent.
pub fn loss_pct(a: &Series, b: &Series, size: usize) -> f64 {
    let (Some(x), Some(y)) = (a.bw_at(size), b.bw_at(size)) else {
        return 0.0;
    };
    (1.0 - y / x) * 100.0
}

/// Worst-case loss of `b` vs `a` over sizes at or above `min_size`.
pub fn max_loss_pct(a: &Series, b: &Series, min_size: usize) -> f64 {
    a.points
        .iter()
        .filter(|p| p.msg_bytes >= min_size)
        .map(|p| loss_pct(a, b, p.msg_bytes))
        .fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdac_simnet::SweepPoint;

    #[test]
    fn human_sizes_match_figure_axes() {
        assert_eq!(human_size(512), "512");
        assert_eq!(human_size(1 << 10), "1K");
        assert_eq!(human_size(256 << 10), "256K");
        assert_eq!(human_size(8 << 20), "8M");
    }

    #[test]
    fn chart_renders_all_series() {
        let mk = |label: &str, bws: &[f64]| Series {
            label: label.into(),
            points: bws
                .iter()
                .enumerate()
                .map(|(i, &bw)| SweepPoint { msg_bytes: 512 << i, bw_mbs: bw, seconds: 1.0 })
                .collect(),
        };
        let series = vec![mk("a", &[10.0, 20.0, 40.0]), mk("b", &[40.0, 20.0, 10.0])];
        let chart = render_chart(&series, 8);
        assert!(chart.contains("o a"));
        assert!(chart.contains("x b"));
        assert!(chart.contains('&'), "equal midpoints overlap");
        assert_eq!(chart.matches('x').count(), 2 + 1, "two plotted points + legend");
        assert!(render_chart(&[], 8).is_empty());
    }

    #[test]
    fn loss_pct_basics() {
        let mk = |bw: f64| {
            let mut s = Series::new("x");
            s.points.push(SweepPoint { msg_bytes: 1024, bw_mbs: bw, seconds: 1.0 });
            s
        };
        let a = mk(100.0);
        let b = mk(55.0);
        assert!((loss_pct(&a, &b, 1024) - 45.0).abs() < 1e-9);
        assert_eq!(loss_pct(&a, &b, 2048), 0.0, "missing size contributes nothing");
        assert!((max_loss_pct(&a, &b, 0) - 45.0).abs() < 1e-9);
    }
}
