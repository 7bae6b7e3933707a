//! The one differ for every document `pdac` compares.
//!
//! A perf history entry, a registry snapshot and a plan's provenance each
//! flatten to one [`Flat`] form, `key → value` (a history entry's
//! `metrics` map, [`crate::RegistrySnapshot::flat`], `Provenance::flat` in
//! `pdac-core`). [`diff`] pairs two of them by key and renders one row per
//! key whose value differs, under one rule for every document:
//!
//! * equal rows are never listed (two values that parse as the same number
//!   are equal);
//! * a key on one side only is always listed, as `new` or `gone`, even
//!   when its value was 0;
//! * a numeric row that moved by less than 0.5 % folds into one closing
//!   count line, and one that moved by more than 5 % (or away from 0) is
//!   marked `<<`;
//! * a text row is listed with both values.
//!
//! Callers print their own one-line header (which entries, which files)
//! and then the rows.

use std::collections::{BTreeMap, BTreeSet};

/// A document flattened to `key → value`.
pub type Flat = BTreeMap<String, String>;

/// Numeric rows moving less than this relative amount are folded.
const QUIET_REL: f64 = 0.005;

/// Numeric rows moving more than this relative amount are marked `<<`.
const MARK_REL: f64 = 0.05;

/// The rows of every key whose value differs between `before` and
/// `after`, in key order, then the count of folded rows; `no differences`
/// when nothing differs.
pub fn diff(before: &Flat, after: &Flat) -> String {
    let number = |v: &str| v.parse::<f64>().ok().filter(|x| x.is_finite());
    let show = |v: Option<&String>| match v.map(|v| (v, number(v))) {
        None => "-".to_string(),
        Some((v, Some(x))) if v.contains('.') => short(x),
        Some((v, _)) => v.clone(),
    };
    let mut out = String::new();
    let mut quiet = 0usize;
    for key in before.keys().chain(after.keys()).collect::<BTreeSet<_>>() {
        let (b, a) = (before.get(key), after.get(key));
        let note = match (b, a) {
            (None, _) => "new".to_string(),
            (_, None) => "gone".to_string(),
            (Some(b), Some(a)) if b == a => continue,
            (Some(b), Some(a)) => match (number(b), number(a)) {
                (Some(x), Some(y)) if x == y => continue,
                (Some(0.0), Some(_)) => "<<".to_string(),
                (Some(x), Some(y)) => {
                    let rel = (y - x) / x.abs();
                    if rel.abs() < QUIET_REL {
                        quiet += 1;
                        continue;
                    }
                    let mark = if rel.abs() > MARK_REL { " <<" } else { "" };
                    format!("{:+.1}%{mark}", rel * 100.0)
                }
                _ => String::new(),
            },
        };
        let row = format!("  {key:<44} {:>14} -> {:<14} {note}", show(b), show(a));
        out.push_str(row.trim_end());
        out.push('\n');
    }
    if quiet > 0 {
        out.push_str(&format!("  ({quiet} rows moved < {:.1}%, not shown)\n", QUIET_REL * 100.0));
    }
    if out.is_empty() {
        out.push_str("  no differences\n");
    }
    out
}

/// `x` to six significant digits (every integer digit kept), without
/// trailing zeros: what a row shows of a fractional value.
fn short(x: f64) -> String {
    let decimals = (5.0 - x.abs().log10().floor()).clamp(0.0, 12.0) as usize;
    let s = format!("{x:.decimals$}");
    if s.contains('.') {
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        s
    }
}
