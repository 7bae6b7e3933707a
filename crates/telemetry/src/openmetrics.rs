//! OpenMetrics / Prometheus text-format exposition of registry snapshots.
//!
//! The registry's flat dotted namespace (`sim.solver.full`,
//! `exec.op_ns.knem.d4`) maps onto the OpenMetrics data model:
//!
//! * a counter `sim.solver.full` becomes the sample
//!   `pdac_sim_solver_full_total N` with `# TYPE ... counter`;
//! * a [`LogHistogram`] snapshot becomes a cumulative bucket series —
//!   one `..._bucket{le="<hi>"}` sample per non-empty log2 bucket, a
//!   closing `le="+Inf"` bucket equal to the total count, and the
//!   `_sum` / `_count` samples — with `# TYPE ... histogram`;
//! * the original dotted name (which `[a-zA-Z0-9_:]` cannot carry)
//!   survives in the `# HELP` line, escaped per the spec.
//!
//! The output ends with the `# EOF` terminator OpenMetrics requires, so
//! a scraper can tell a complete exposition from a truncated one.
//!
//! [`LogHistogram`]: crate::LogHistogram

use crate::{HistogramSnapshot, RegistrySnapshot};

/// Prefix applied to every exposed metric name, namespacing the process
/// in shared scrape configs.
pub const METRIC_PREFIX: &str = "pdac_";

/// Maps a dotted registry name onto the OpenMetrics name charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`: dots and any other illegal byte become
/// underscores. The [`METRIC_PREFIX`] guarantees a legal first character
/// even for names starting with a digit.
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(METRIC_PREFIX.len() + name.len());
    out.push_str(METRIC_PREFIX);
    for c in name.chars() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        out.push(if ok { c } else { '_' });
    }
    out
}

/// Escapes a `# HELP` text or label value: backslash, double quote and
/// newline are the three characters the exposition format cannot carry
/// raw.
pub fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn write_histogram(out: &mut String, name: &str, h: &HistogramSnapshot) {
    let m = sanitize_name(name);
    out.push_str(&format!("# HELP {m} histogram {}\n", escape_text(name)));
    out.push_str(&format!("# TYPE {m} histogram\n"));
    // Log2 buckets are disjoint [lo, hi] ranges in ascending order;
    // OpenMetrics buckets are cumulative upper bounds.
    let mut cum = 0u64;
    for b in &h.buckets {
        cum += b.count;
        out.push_str(&format!("{m}_bucket{{le=\"{}\"}} {cum}\n", b.hi));
    }
    out.push_str(&format!("{m}_bucket{{le=\"+Inf\"}} {}\n", h.count));
    out.push_str(&format!("{m}_sum {}\n", h.sum));
    out.push_str(&format!("{m}_count {}\n", h.count));
}

/// Renders `snap` as an OpenMetrics text-format document, `# EOF`
/// terminated. Deterministic: snapshots iterate in name order.
pub fn to_openmetrics(snap: &RegistrySnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let m = sanitize_name(name);
        out.push_str(&format!("# HELP {m} counter {}\n", escape_text(name)));
        out.push_str(&format!("# TYPE {m} counter\n"));
        out.push_str(&format!("{m}_total {value}\n"));
    }
    for (name, h) in &snap.histograms {
        write_histogram(&mut out, name, h);
    }
    out.push_str("# EOF\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn names_sanitize_onto_the_legal_charset() {
        assert_eq!(sanitize_name("sim.solver.full"), "pdac_sim_solver_full");
        assert_eq!(sanitize_name("exec.op_ns.knem.d4"), "pdac_exec_op_ns_knem_d4");
        assert_eq!(sanitize_name("weird name-with/junk"), "pdac_weird_name_with_junk");
        assert_eq!(sanitize_name("9lives"), "pdac_9lives", "prefix keeps the first char legal");
    }

    #[test]
    fn help_text_escapes_control_characters() {
        assert_eq!(escape_text("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn zero_sample_histogram_renders_finite_empty_series() {
        // A histogram that was registered but never observed must still
        // expose a well-formed series: every bucket at 0, the mandatory
        // `+Inf` bucket present, `_sum`/`_count` at 0, and no NaN leaking
        // out of an empty-distribution percentile anywhere in the text.
        let reg = Registry::new();
        let _ = reg.histogram("exec.op_ns.knem.d4");
        let snap = reg.snapshot();
        let (name, h) = snap
            .histograms
            .iter()
            .find(|(n, _)| n.as_str() == "exec.op_ns.knem.d4")
            .expect("registered histogram appears in the snapshot");
        assert_eq!(h.count, 0);
        assert!(h.buckets.iter().all(|b| b.count == 0));

        let mut text = String::new();
        write_histogram(&mut text, name, h);
        assert!(text.contains("# TYPE pdac_exec_op_ns_knem_d4 histogram\n"));
        assert!(
            text.contains("pdac_exec_op_ns_knem_d4_bucket{le=\"+Inf\"} 0\n"),
            "+Inf bucket is mandatory even with zero samples:\n{text}"
        );
        assert!(text.contains("pdac_exec_op_ns_knem_d4_sum 0\n"));
        assert!(text.contains("pdac_exec_op_ns_knem_d4_count 0\n"));
        for line in text.lines().filter(|l| l.contains("_bucket")) {
            let value = line.rsplit(' ').next().unwrap();
            assert_eq!(value, "0", "every bucket sample is 0: {line}");
        }
        assert!(!text.contains("NaN"), "no NaN in:\n{text}");

        // The same guarantees hold through the full-document renderer.
        let full = to_openmetrics(&snap);
        assert!(full.contains("pdac_exec_op_ns_knem_d4_bucket{le=\"+Inf\"} 0\n"));
        assert!(!full.contains("NaN"));
        assert!(full.ends_with("# EOF\n"));
    }

    #[test]
    fn counters_render_with_total_suffix_and_eof() {
        let reg = Registry::new();
        reg.add("sim.runs", 3);
        let text = to_openmetrics(&reg.snapshot());
        assert!(text.contains("# TYPE pdac_sim_runs counter\n"));
        assert!(text.contains("pdac_sim_runs_total 3\n"));
        assert!(text.ends_with("# EOF\n"));
    }
}
