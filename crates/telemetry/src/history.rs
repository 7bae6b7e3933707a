//! Cross-run perf history (`BENCH_history.jsonl`).
//!
//! Each line is one [`HistoryEntry`] — a flat `metric name → value` map
//! plus free-form metadata — as a single JSON object. The file holds the
//! `pdac-e2e` rows (`pdac-e2e/<workload>/s<seed>`) recorded before and
//! after each change; JSONL keeps it append-only and greppable.
//! `pdac trend` loads it and renders per-metric deltas between the
//! two newest entries: not "is this number right" — the simulated numbers
//! are pinned exactly elsewhere — but "which way are we moving".

use std::collections::BTreeMap;
use std::path::Path;

use serde::{Deserialize, Serialize};

/// One run's record in the history file.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HistoryEntry {
    /// What produced the entry (`gate`, `pdac-e2e/<workload>/s<seed>`, ...).
    pub label: String,
    /// Unix epoch milliseconds at record time.
    pub timestamp_ms: u64,
    /// Free-form context (host, flags, commit) — not compared.
    #[serde(default)]
    pub meta: BTreeMap<String, String>,
    /// Flat measurements, e.g. `bcast/p64/1MiB/seconds → 0.0123`.
    #[serde(default)]
    pub metrics: BTreeMap<String, f64>,
}

impl HistoryEntry {
    /// A new entry with the given label and timestamp.
    pub fn new(label: impl Into<String>, timestamp_ms: u64) -> Self {
        HistoryEntry {
            label: label.into(),
            timestamp_ms,
            ..Default::default()
        }
    }

    /// Appends one metric, returning `self` for chaining.
    pub fn metric(mut self, name: impl Into<String>, value: f64) -> Self {
        self.metrics.insert(name.into(), value);
        self
    }

    /// Appends one metadata key, returning `self` for chaining.
    pub fn with_meta(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.meta.insert(key.into(), value.into());
        self
    }
}

/// Loads every parseable entry from the JSONL file, oldest first.
/// Unparseable lines are skipped with their count returned, so one
/// corrupt append (a crashed run, a merge artifact) does not wedge
/// every future `trend` invocation.
pub fn load_jsonl(path: &Path) -> std::io::Result<(Vec<HistoryEntry>, usize)> {
    let text = std::fs::read_to_string(path)?;
    let mut entries = Vec::new();
    let mut skipped = 0usize;
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str::<HistoryEntry>(line) {
            Ok(e) => entries.push(e),
            Err(_) => skipped += 1,
        }
    }
    Ok((entries, skipped))
}

/// A metric's movement between two history entries.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendRow {
    /// Metric name.
    pub name: String,
    /// Value in the older entry, if present.
    pub before: Option<f64>,
    /// Value in the newer entry, if present.
    pub after: Option<f64>,
}

impl TrendRow {
    /// Relative change `(after - before) / |before|`, when both sides
    /// exist and `before` is nonzero.
    pub fn rel(&self) -> Option<f64> {
        match (self.before, self.after) {
            (Some(b), Some(a)) if b.abs() > f64::EPSILON => Some((a - b) / b.abs()),
            _ => None,
        }
    }
}

/// Compares the two newest entries (optionally restricted to one
/// `label`) and returns one row per metric present in either.
pub fn diff_latest(entries: &[HistoryEntry], label: Option<&str>) -> Vec<TrendRow> {
    let picked: Vec<&HistoryEntry> = entries
        .iter()
        .filter(|e| label.is_none_or(|l| e.label == l))
        .collect();
    let n = picked.len();
    if n < 2 {
        return Vec::new();
    }
    let (older, newer) = (picked[n - 2], picked[n - 1]);
    let names: std::collections::BTreeSet<&String> =
        older.metrics.keys().chain(newer.metrics.keys()).collect();
    names
        .into_iter()
        .map(|name| TrendRow {
            name: name.clone(),
            before: older.metrics.get(name).copied(),
            after: newer.metrics.get(name).copied(),
        })
        .collect()
}

/// Renders a trend table for the two newest entries. Rows moving more
/// than `highlight_rel` (e.g. `0.05` for ±5%) are marked; rows below
/// `quiet_rel` are summarized in one closing line instead of listed,
/// keeping the table about what moved.
pub fn render_trend(
    entries: &[HistoryEntry],
    label: Option<&str>,
    highlight_rel: f64,
    quiet_rel: f64,
) -> String {
    let picked: Vec<&HistoryEntry> = entries
        .iter()
        .filter(|e| label.is_none_or(|l| e.label == l))
        .collect();
    if picked.len() < 2 {
        return format!(
            "trend: need at least 2 history entries{}, have {}\n",
            label
                .map(|l| format!(" with label `{l}`"))
                .unwrap_or_default(),
            picked.len()
        );
    }
    let (older, newer) = (picked[picked.len() - 2], picked[picked.len() - 1]);
    let rows = diff_latest(entries, label);
    let mut out = String::new();
    out.push_str(&format!(
        "trend `{}`: {} -> {} ({} metrics)\n",
        newer.label,
        older.timestamp_ms,
        newer.timestamp_ms,
        rows.len()
    ));
    let mut quiet = 0usize;
    for row in &rows {
        match (row.before, row.after) {
            (Some(b), Some(a)) => {
                let rel = row.rel();
                if rel.map(|r| r.abs() < quiet_rel).unwrap_or(false) {
                    quiet += 1;
                    continue;
                }
                let pct = rel
                    .map(|r| format!("{:+.1}%", r * 100.0))
                    .unwrap_or_else(|| "n/a".into());
                let mark = if rel.map(|r| r.abs() > highlight_rel).unwrap_or(false) {
                    " <<"
                } else {
                    ""
                };
                out.push_str(&format!(
                    "  {:<44} {b:>12.6} -> {a:>12.6}  {pct}{mark}\n",
                    row.name
                ));
            }
            (None, Some(a)) => out.push_str(&format!(
                "  {:<44} {:>12} -> {a:>12.6}  new\n",
                row.name, "-"
            )),
            (Some(b), None) => out.push_str(&format!(
                "  {:<44} {b:>12.6} -> {:>12}  gone\n",
                row.name, "-"
            )),
            (None, None) => {}
        }
    }
    if quiet > 0 {
        out.push_str(&format!(
            "  ({quiet} metrics moved < {:.1}% — not shown)\n",
            quiet_rel * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(ts: u64, metrics: &[(&str, f64)]) -> HistoryEntry {
        let mut e = HistoryEntry::new("gate", ts);
        for (k, v) in metrics {
            e.metrics.insert(k.to_string(), *v);
        }
        e
    }

    /// Writes `lines` (one JSON object or junk each) to a fresh file named
    /// `name` and loads it back.
    fn load_lines(name: &str, lines: &[String]) -> (Vec<HistoryEntry>, usize) {
        let path = std::env::temp_dir().join(format!("pdac_{name}_{}.jsonl", std::process::id()));
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        let loaded = load_jsonl(&path).unwrap();
        std::fs::remove_file(&path).ok();
        loaded
    }

    fn line(e: &HistoryEntry) -> String {
        serde_json::to_string(e).unwrap()
    }

    #[test]
    fn load_round_trips_serialized_entries() {
        let a = entry(1, &[("x/seconds", 1.0)]).with_meta("host", "ci");
        let b = entry(2, &[("x/seconds", 1.1)]);
        let (loaded, skipped) = load_lines("hist", &[line(&a), line(&b)]);
        assert_eq!(skipped, 0);
        assert_eq!(loaded, vec![a, b]);
    }

    #[test]
    fn corrupt_lines_are_skipped_not_fatal() {
        let lines = [
            line(&entry(1, &[("a", 1.0)])),
            "{not json".to_string(),
            String::new(),
            line(&entry(2, &[("a", 2.0)])),
        ];
        let (loaded, skipped) = load_lines("hist_bad", &lines);
        assert_eq!(loaded.len(), 2);
        assert_eq!(skipped, 1);
    }

    #[test]
    fn diff_pairs_the_two_newest_entries() {
        let entries = vec![
            entry(1, &[("a", 1.0), ("gone", 5.0)]),
            entry(2, &[("a", 2.0), ("fresh", 7.0)]),
        ];
        let rows = diff_latest(&entries, Some("gate"));
        let a = rows.iter().find(|r| r.name == "a").unwrap();
        assert_eq!((a.before, a.after), (Some(1.0), Some(2.0)));
        assert!((a.rel().unwrap() - 1.0).abs() < 1e-12);
        assert!(rows.iter().any(|r| r.name == "gone" && r.after.is_none()));
        assert!(rows.iter().any(|r| r.name == "fresh" && r.before.is_none()));
    }

    #[test]
    fn trend_rendering_marks_movers_and_folds_noise() {
        let entries = vec![
            entry(1, &[("big/seconds", 1.0), ("flat/seconds", 1.0)]),
            entry(2, &[("big/seconds", 1.5), ("flat/seconds", 1.0001)]),
        ];
        let text = render_trend(&entries, None, 0.05, 0.01);
        assert!(text.contains("big/seconds"));
        assert!(text.contains("+50.0% <<"));
        assert!(!text.contains("flat/seconds"), "quiet rows folded:\n{text}");
        assert!(text.contains("1 metrics moved < 1.0%"));
    }

    #[test]
    fn trend_needs_two_entries() {
        let one = vec![entry(1, &[("a", 1.0)])];
        assert!(render_trend(&one, None, 0.05, 0.01).contains("need at least 2"));
    }
}
