//! Serializable metric snapshots and snapshot-to-snapshot diffs.
//!
//! A [`RegistrySnapshot`] is the JSON artifact one run leaves behind
//! (`pdac trace run` writes it next to the trace); [`RegistrySnapshot::diff`]
//! compares two of them — counter deltas plus per-histogram count/mean
//! movement — which is how a perf PR proves its per-distance-class latency
//! numbers against a baseline run.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// One non-empty histogram bucket: `count` values in `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketCount {
    /// Inclusive lower bound of the bucket.
    pub lo: u64,
    /// Inclusive upper bound of the bucket.
    pub hi: u64,
    /// Values recorded into the bucket.
    pub count: u64,
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Non-empty buckets, ascending.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile (see [`crate::histogram::estimate_percentile`]).
    pub fn percentile(&self, q: f64) -> f64 {
        crate::histogram::estimate_percentile(self.count, &self.buckets, q)
    }

    /// Estimated median.
    pub fn p50(&self) -> f64 {
        self.percentile(0.50)
    }

    /// Estimated 90th percentile.
    pub fn p90(&self) -> f64 {
        self.percentile(0.90)
    }

    /// Estimated 99th percentile.
    pub fn p99(&self) -> f64 {
        self.percentile(0.99)
    }
}

/// Point-in-time copy of a whole registry.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// One counter's movement between two snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterDelta {
    /// Metric name.
    pub name: String,
    /// Value in the baseline snapshot (0 if absent).
    pub base: u64,
    /// Value in the compared snapshot (0 if absent).
    pub new: u64,
    /// The series exists in the baseline but not in the compared snapshot —
    /// it was unregistered or renamed, not merely zeroed.
    pub removed: bool,
}

/// One histogram's movement between two snapshots. Carries both full
/// snapshots so derived statistics (mean, percentiles) stay available to
/// renderers without re-loading the source documents.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramDelta {
    /// Metric name.
    pub name: String,
    /// The baseline-side snapshot (empty if absent there).
    pub base: HistogramSnapshot,
    /// The compared-side snapshot (empty if absent there).
    pub new: HistogramSnapshot,
    /// The series exists in the baseline but not in the compared snapshot.
    pub removed: bool,
}

impl HistogramDelta {
    /// Recorded-value count in the baseline snapshot.
    pub fn base_count(&self) -> u64 {
        self.base.count
    }

    /// Recorded-value count in the compared snapshot.
    pub fn new_count(&self) -> u64 {
        self.new.count
    }

    /// Mean in the baseline snapshot.
    pub fn base_mean(&self) -> f64 {
        self.base.mean()
    }

    /// Mean in the compared snapshot.
    pub fn new_mean(&self) -> f64 {
        self.new.mean()
    }

    /// `new_mean / base_mean` (1.0 when the baseline is empty).
    pub fn mean_ratio(&self) -> f64 {
        if self.base_mean() == 0.0 {
            1.0
        } else {
            self.new_mean() / self.base_mean()
        }
    }
}

/// The result of comparing two snapshots. Only changed metrics appear.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SnapshotDiff {
    /// Counters whose value moved, sorted by name.
    pub counters: Vec<CounterDelta>,
    /// Histograms whose count or mean moved, sorted by name.
    pub histograms: Vec<HistogramDelta>,
}

impl SnapshotDiff {
    /// True when the two snapshots agree on every metric.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Human-readable multi-line rendering (`pdac trace diff` output).
    pub fn render(&self) -> String {
        if self.is_empty() {
            return "no differences\n".to_string();
        }
        let mut out = String::new();
        for c in &self.counters {
            let delta = c.new as i128 - c.base as i128;
            let removed = if c.removed { " [removed]" } else { "" };
            out.push_str(&format!(
                "counter {:<40} {:>12} -> {:<12} ({:+}){removed}\n",
                c.name, c.base, c.new, delta
            ));
        }
        for h in &self.histograms {
            let removed = if h.removed { " [removed]" } else { "" };
            out.push_str(&format!(
                "hist    {:<40} count {} -> {}, mean {:.1} -> {:.1} ({:.2}x), \
                 p50 {:.0} -> {:.0}, p90 {:.0} -> {:.0}, p99 {:.0} -> {:.0}{removed}\n",
                h.name,
                h.base_count(),
                h.new_count(),
                h.base_mean(),
                h.new_mean(),
                h.mean_ratio(),
                h.base.p50(),
                h.new.p50(),
                h.base.p90(),
                h.new.p90(),
                h.base.p99(),
                h.new.p99(),
            ));
        }
        out
    }
}

impl RegistrySnapshot {
    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serializes")
    }

    /// Parses a snapshot previously written by [`RegistrySnapshot::to_json`].
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Changes from `baseline` to `self`: counters and histograms present
    /// in either snapshot whose values moved, plus every series present in
    /// the baseline but missing from `self` — a removed series is reported
    /// (flagged [`CounterDelta::removed`] / [`HistogramDelta::removed`])
    /// even when its last value was zero, so renames and dropped
    /// instrumentation never disappear silently from a diff.
    pub fn diff(&self, baseline: &RegistrySnapshot) -> SnapshotDiff {
        let mut counters = Vec::new();
        let names: std::collections::BTreeSet<&String> = self
            .counters
            .keys()
            .chain(baseline.counters.keys())
            .collect();
        for name in names {
            let base = baseline.counters.get(name).copied().unwrap_or(0);
            let new = self.counters.get(name).copied().unwrap_or(0);
            let removed = baseline.counters.contains_key(name) && !self.counters.contains_key(name);
            if base != new || removed {
                counters.push(CounterDelta {
                    name: name.clone(),
                    base,
                    new,
                    removed,
                });
            }
        }
        let mut histograms = Vec::new();
        let names: std::collections::BTreeSet<&String> = self
            .histograms
            .keys()
            .chain(baseline.histograms.keys())
            .collect();
        let empty = HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: Vec::new(),
        };
        for name in names {
            let base = baseline.histograms.get(name).unwrap_or(&empty);
            let new = self.histograms.get(name).unwrap_or(&empty);
            let removed =
                baseline.histograms.contains_key(name) && !self.histograms.contains_key(name);
            if base.count != new.count || base.sum != new.sum || removed {
                histograms.push(HistogramDelta {
                    name: name.clone(),
                    base: base.clone(),
                    new: new.clone(),
                    removed,
                });
            }
        }
        SnapshotDiff {
            counters,
            histograms,
        }
    }

    /// Human-readable multi-line rendering of one snapshot: every counter,
    /// then every histogram with count, mean and estimated p50/p90/p99.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!("counter {name:<40} {value:>12}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "hist    {name:<40} count {:>8}  mean {:>12.1}  p50 {:>12.0}  \
                 p90 {:>12.0}  p99 {:>12.0}\n",
                h.count,
                h.mean(),
                h.p50(),
                h.p90(),
                h.p99(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn json_round_trip() {
        let reg = Registry::new();
        reg.add("knem.copies", 42);
        reg.histogram("exec.op_ns.dist5").record(1500);
        reg.histogram("exec.op_ns.dist5").record(3000);
        let snap = reg.snapshot();
        let json = snap.to_json();
        let back = RegistrySnapshot::from_json(&json).expect("parses");
        assert_eq!(back, snap);
        assert_eq!(back.counters["knem.copies"], 42);
        assert_eq!(back.histograms["exec.op_ns.dist5"].count, 2);
    }

    #[test]
    fn diff_reports_only_changes() {
        let reg = Registry::new();
        reg.add("a", 1);
        reg.add("same", 5);
        reg.histogram("h").record(100);
        let base = reg.snapshot();
        reg.add("a", 2);
        reg.histogram("h").record(300);
        let new = reg.snapshot();
        let diff = new.diff(&base);
        assert_eq!(diff.counters.len(), 1);
        assert_eq!(
            diff.counters[0],
            CounterDelta {
                name: "a".into(),
                base: 1,
                new: 3,
                removed: false
            }
        );
        assert_eq!(diff.histograms.len(), 1);
        assert_eq!(diff.histograms[0].base_count(), 1);
        assert_eq!(diff.histograms[0].new_count(), 2);
        assert_eq!(diff.histograms[0].new_mean(), 200.0);
        assert!(diff.render().contains("counter a"));
        assert!(
            diff.render().contains("p99"),
            "percentiles rendered in diff"
        );
        assert!(new.diff(&new).is_empty());
    }

    #[test]
    fn diff_handles_missing_metrics() {
        let mut a = RegistrySnapshot::default();
        a.counters.insert("only_in_a".into(), 3);
        let b = RegistrySnapshot::default();
        let d = b.diff(&a);
        assert_eq!(d.counters[0].base, 3);
        assert_eq!(d.counters[0].new, 0);
        assert!(d.counters[0].removed, "old-only series is flagged removed");
    }

    #[test]
    fn diff_reports_removed_series_even_at_zero() {
        // A zero counter and an empty histogram exist only in the old
        // snapshot: value comparison alone would skip both, but the diff
        // must still surface the removal.
        let mut old = RegistrySnapshot::default();
        old.counters.insert("gone.counter".into(), 0);
        old.histograms.insert(
            "gone.hist".into(),
            HistogramSnapshot {
                count: 0,
                sum: 0,
                buckets: Vec::new(),
            },
        );
        let new = RegistrySnapshot::default();
        let d = new.diff(&old);
        assert_eq!(d.counters.len(), 1);
        assert!(d.counters[0].removed);
        assert_eq!(d.histograms.len(), 1);
        assert!(d.histograms[0].removed);
        let rendered = d.render();
        assert!(rendered.contains("gone.counter"));
        assert!(rendered.contains("[removed]"));
        // The reverse direction (series added) is not a removal.
        let added = old.diff(&new);
        assert!(added.counters.iter().all(|c| !c.removed));
    }

    #[test]
    fn snapshot_render_includes_percentiles() {
        let reg = Registry::new();
        reg.add("runs", 2);
        let h = reg.histogram("lat");
        for v in [100, 100, 100, 8000] {
            h.record(v);
        }
        let out = reg.snapshot().render();
        assert!(out.contains("counter runs"));
        assert!(out.contains("hist    lat"));
        assert!(out.contains("p50") && out.contains("p90") && out.contains("p99"));
    }
}
