//! Sim-vs-real divergence: is the network model still honest?
//!
//! The simulator predicts a duration for every scheduled operation; the
//! thread executor measures one. Joining the two legs op-by-op and
//! grouping by (mechanism, distance class) yields a per-class real/sim
//! ratio. Absolute calibration differs between machines — a laptop's
//! memcpy is not the model's memcpy — so each class ratio is normalized
//! by the run's *global scale* (total real time / total predicted time).
//! A class is flagged only when its normalized drift leaves the tolerance
//! band, i.e. when the model mispredicts that class *relative to the rest
//! of the run*, which is exactly the signal that would make the adaptive
//! algorithm pick the wrong mechanism or segment size.

use std::collections::BTreeMap;

use serde::Serialize;

use crate::opgraph::{OpGraph, SpanRef};

/// Relative drift band: a class is flagged when `|drift - 1| > TOLERANCE`.
const TOLERANCE: f64 = 0.25;

/// Classes with fewer joined ops than this are reported but never flagged
/// (one noisy span is not model drift).
const MIN_OPS: usize = 4;

/// Per-(mechanism, distance-class) drift row.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClassDrift {
    /// Mechanism label (`knem`, `memcpy`, `notify`).
    pub mech: String,
    /// Process-distance class.
    pub dist: u8,
    /// Joined op count in this class.
    pub ops: usize,
    /// Summed measured duration, microseconds.
    pub real_us: f64,
    /// Summed predicted duration, microseconds.
    pub sim_us: f64,
    /// Raw `real_us / sim_us` ratio.
    pub ratio: f64,
    /// Ratio normalized by the run's global scale; 1.0 means the class
    /// behaves exactly like the run average.
    pub drift: f64,
    /// True when `|drift - 1| > TOLERANCE` and `ops >= MIN_OPS`.
    pub flagged: bool,
}

/// The joined sim-vs-real comparison of one run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DivergenceReport {
    /// Ops present in both legs (the join population).
    pub joined_ops: usize,
    /// Ops only the real leg recorded.
    pub real_only: usize,
    /// Ops only the sim leg predicted.
    pub sim_only: usize,
    /// Global calibration scale: total real / total predicted time over
    /// the joined ops.
    pub global_scale: f64,
    /// Tolerance the rows were flagged against.
    pub tolerance: f64,
    /// Per-class rows, worst |drift - 1| first.
    pub classes: Vec<ClassDrift>,
    /// Set when the comparison could not run meaningfully (a leg without
    /// op spans, or legs whose op ids do not match).
    pub note: Option<String>,
}

impl DivergenceReport {
    /// Joins the real (measured) leg against the sim (predicted) leg.
    pub fn compare(real: &OpGraph, sim: &OpGraph) -> Self {
        let mut joined: Vec<(SpanRef, SpanRef)> = Vec::new();
        let mut real_only = 0usize;
        for r in real.spans() {
            match sim.get(r.op) {
                Some(s) => joined.push((r, s)),
                None => real_only += 1,
            }
        }
        let sim_only = sim.spans().filter(|s| real.get(s.op).is_none()).count();

        let total_real: f64 = joined.iter().map(|(r, _)| r.dur_us).sum();
        let total_sim: f64 = joined.iter().map(|(_, s)| s.dur_us).sum();
        let global_scale = if total_sim > 0.0 { total_real / total_sim } else { 0.0 };

        // Class key = (mech label, dist) from the sim leg — the model's own
        // view of what it predicted.
        let mut sums: BTreeMap<(String, u8), (usize, f64, f64)> = BTreeMap::new();
        for (r, s) in &joined {
            let e = sums.entry((s.mech.label().to_string(), s.dist)).or_insert((0, 0.0, 0.0));
            e.0 += 1;
            e.1 += r.dur_us;
            e.2 += s.dur_us;
        }
        let mut classes: Vec<ClassDrift> = sums
            .into_iter()
            .map(|((mech, dist), (ops, real_us, sim_us))| {
                let ratio = if sim_us > 0.0 { real_us / sim_us } else { 0.0 };
                let drift = if global_scale > 0.0 { ratio / global_scale } else { 0.0 };
                ClassDrift {
                    mech,
                    dist,
                    ops,
                    real_us,
                    sim_us,
                    ratio,
                    drift,
                    flagged: ops >= MIN_OPS && (drift - 1.0).abs() > TOLERANCE,
                }
            })
            .collect();
        classes.sort_by(|a, b| (b.drift - 1.0).abs().total_cmp(&(a.drift - 1.0).abs()));

        let note = if joined.is_empty() {
            Some(if real.is_empty() {
                "real leg holds no op spans".to_string()
            } else {
                "no ops joined between legs (op ids do not match)".to_string()
            })
        } else {
            None
        };

        DivergenceReport {
            joined_ops: joined.len(),
            real_only,
            sim_only,
            global_scale,
            tolerance: TOLERANCE,
            classes,
            note,
        }
    }

    /// The flagged rows, worst first.
    pub fn flagged(&self) -> impl Iterator<Item = &ClassDrift> {
        self.classes.iter().filter(|c| c.flagged)
    }

    /// Serializes to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Human-readable multi-line rendering.
    pub fn render(&self) -> String {
        let mut out = format!(
            "divergence: {} joined ops ({} real-only, {} sim-only), \
             global scale {:.3}, tolerance +/-{:.0}%\n",
            self.joined_ops,
            self.real_only,
            self.sim_only,
            self.global_scale,
            self.tolerance * 100.0,
        );
        if let Some(note) = &self.note {
            out.push_str(&format!("  note: {note}\n"));
            return out;
        }
        for c in &self.classes {
            let mark = if c.flagged { "DRIFT" } else { "  ok " };
            out.push_str(&format!(
                "  [{mark}] {:<7} d{}  ops {:>4}  real {:>10.1}us  sim {:>10.1}us  \
                 ratio {:>7.3}  drift {:>6.3}\n",
                c.mech, c.dist, c.ops, c.real_us, c.sim_us, c.ratio, c.drift,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opgraph::{MechKind, OpSpan};

    fn span(op: usize, mech: MechKind, dist: u8, dur: f64) -> OpSpan {
        OpSpan {
            op,
            tid: (op % 4) as u64,
            name: format!("op{op}"),
            mech,
            dist,
            bytes: 256,
            start_us: op as f64,
            dur_us: dur,
            deps: Vec::new(),
            plan: None,
        }
    }

    fn legs(scale_class: Option<(MechKind, u8, f64)>) -> (OpGraph, OpGraph) {
        // Two classes, 6 ops each; the real leg runs uniformly 2x the
        // model, optionally with one class scaled extra.
        let mut sim = Vec::new();
        let mut real = Vec::new();
        for i in 0..12 {
            let (mech, dist) = if i % 2 == 0 { (MechKind::Memcpy, 1) } else { (MechKind::Knem, 4) };
            sim.push(span(i, mech, dist, 10.0));
            let extra = match scale_class {
                Some((m, d, f)) if m == mech && d == dist => f,
                _ => 1.0,
            };
            real.push(span(i, mech, dist, 10.0 * 2.0 * extra));
        }
        (OpGraph::new(real), OpGraph::new(sim))
    }

    #[test]
    fn uniform_scale_is_not_drift() {
        let (real, sim) = legs(None);
        let rep = DivergenceReport::compare(&real, &sim);
        assert_eq!(rep.joined_ops, 12);
        assert!((rep.global_scale - 2.0).abs() < 1e-9);
        assert!(rep.flagged().next().is_none(), "uniform calibration offset must not flag");
        for c in &rep.classes {
            assert!((c.drift - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn one_slow_class_is_flagged() {
        let (real, sim) = legs(Some((MechKind::Knem, 4, 6.0)));
        let rep = DivergenceReport::compare(&real, &sim);
        assert!(rep.flagged().next().is_some());
        let knem = rep
            .classes
            .iter()
            .find(|c| c.mech == "knem" && c.dist == 4)
            .expect("knem class present");
        assert!(knem.flagged);
        assert!(knem.drift > 1.25, "slow class drifts above the scale: {}", knem.drift);
        // The slow class inflates the global scale, so the well-modelled
        // class lands *below* 1.0 — drift is relative by design.
        let memcpy = rep.classes.iter().find(|c| c.mech == "memcpy").unwrap();
        assert!(memcpy.drift < 1.0);
        let rendered = rep.render();
        assert!(rendered.contains("DRIFT"));
    }

    #[test]
    fn small_classes_never_flag_and_empty_legs_note() {
        let real = OpGraph::new(vec![span(0, MechKind::Memcpy, 0, 100.0)]);
        let sim = OpGraph::new(vec![span(0, MechKind::Memcpy, 0, 1.0)]);
        let rep = DivergenceReport::compare(&real, &sim);
        assert!(rep.flagged().next().is_none(), "one op is below min_ops");

        let rep = DivergenceReport::compare(&OpGraph::default(), &sim);
        assert_eq!(rep.joined_ops, 0);
        assert!(rep.note.is_some());
        assert!(rep.render().contains("note:"));
    }

    #[test]
    fn unmatched_ops_are_counted_and_json_parses() {
        let real = OpGraph::new(vec![
            span(0, MechKind::Memcpy, 0, 5.0),
            span(9, MechKind::Memcpy, 0, 5.0),
        ]);
        let sim = OpGraph::new(vec![
            span(0, MechKind::Memcpy, 0, 5.0),
            span(7, MechKind::Memcpy, 0, 5.0),
        ]);
        let rep = DivergenceReport::compare(&real, &sim);
        assert_eq!(rep.joined_ops, 1);
        assert_eq!(rep.real_only, 1);
        assert_eq!(rep.sim_only, 1);
        serde_json::from_str::<serde_json::Value>(&rep.to_json()).expect("JSON");
    }
}
