//! Serializable metric snapshots.
//!
//! A [`RegistrySnapshot`] is the JSON artifact one run leaves behind
//! (`pdac trace run` writes it next to the trace). [`RegistrySnapshot::flat`]
//! turns it into the one differ's form ([`crate::diff`]), so `pdac trace
//! diff` compares two of them — counters plus per-histogram count, mean and
//! percentiles — which is how a perf PR proves its per-distance-class
//! latency numbers against a baseline run.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::diff::Flat;

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

impl RegistrySnapshot {
    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serializes")
    }

    /// Parses a snapshot previously written by [`RegistrySnapshot::to_json`].
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// The snapshot as the one differ's [`Flat`] form: one key per
    /// counter, and `<name>.count`, `.mean`, `.p50`, `.p90` and `.p99` per
    /// histogram (mean to 0.1, percentiles to 1, as [`Self::render`] shows
    /// them).
    pub fn flat(&self) -> Flat {
        let mut flat: Flat =
            self.counters.iter().map(|(name, v)| (name.clone(), v.to_string())).collect();
        for (name, h) in &self.histograms {
            flat.insert(format!("{name}.count"), h.count.to_string());
            flat.insert(format!("{name}.mean"), format!("{:.1}", h.mean()));
            for (q, v) in [("p50", h.p50()), ("p90", h.p90()), ("p99", h.p99())] {
                flat.insert(format!("{name}.{q}"), format!("{v:.0}"));
            }
        }
        flat
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
