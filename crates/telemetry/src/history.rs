//! Cross-run perf history (`BENCH_history.jsonl`).
//!
//! Each line is one [`HistoryEntry`] — a flat `metric name → value` map
//! plus free-form metadata — as a single JSON object. The file holds the
//! `pdac-e2e` rows (`pdac-e2e/<workload>/s<seed>`) recorded before and
//! after each change; JSONL keeps it append-only and greppable.
//! `pdac trend` loads it and passes the `metrics` maps of the two newest
//! entries, already flat, to the one differ ([`crate::diff`]): not "is this
//! number right" — the simulated numbers are pinned exactly elsewhere — but
//! "which way are we moving".

use std::collections::BTreeMap;
use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::diff::{diff, Flat};

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
        HistoryEntry { label: label.into(), timestamp_ms, ..Default::default() }
    }

    /// Appends one metric, returning `self` for chaining.
    pub fn metric(mut self, name: impl Into<String>, value: f64) -> Self {
        self.metrics.insert(name.into(), value);
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

/// The trend between the two newest entries (optionally restricted to one
/// `label`): a one-line header, then their `metrics` maps through
/// [`crate::diff::diff`]. Fewer than two entries give a one-line message.
pub fn render_trend(entries: &[HistoryEntry], label: Option<&str>) -> String {
    let picked: Vec<&HistoryEntry> =
        entries.iter().filter(|e| label.is_none_or(|l| e.label == l)).collect();
    let [.., older, newer] = picked[..] else {
        return format!(
            "trend: need at least 2 history entries{}, have {}\n",
            label.map(|l| format!(" with label `{l}`")).unwrap_or_default(),
            picked.len()
        );
    };
    let flat = |e: &HistoryEntry| -> Flat {
        e.metrics.iter().map(|(k, v)| (k.clone(), v.to_string())).collect()
    };
    format!(
        "trend `{}`: {} -> {}\n{}",
        newer.label,
        older.timestamp_ms,
        newer.timestamp_ms,
        diff(&flat(older), &flat(newer))
    )
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
        let mut a = entry(1, &[("x/seconds", 1.0)]);
        a.meta.insert("host".into(), "ci".into());
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
}
