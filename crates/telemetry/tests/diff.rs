//! The one differ, by behaviour: every document `pdac` compares (perf
//! history entries, registry snapshots, plan provenance) goes through
//! `diff::diff`, so each rule is checked once here, on the document kind
//! where it matters.

use pdac_telemetry::diff::{diff, Flat};
use pdac_telemetry::history::render_trend;
use pdac_telemetry::{HistogramSnapshot, HistoryEntry, Registry, RegistrySnapshot};

fn entry(label: &str, ts: u64, metrics: &[(&str, f64)]) -> HistoryEntry {
    metrics.iter().fold(HistoryEntry::new(label, ts), |e, (k, v)| e.metric(*k, *v))
}

fn flat(pairs: &[(&str, &str)]) -> Flat {
    pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
}

/// A removed counter and an empty removed histogram: both read 0, and the
/// diff must still report them.
fn removed_at_zero() -> String {
    let mut old = RegistrySnapshot::default();
    old.counters.insert("gone.counter".into(), 0);
    let empty = HistogramSnapshot { count: 0, sum: 0, buckets: Vec::new() };
    old.histograms.insert("gone.hist".into(), empty);
    diff(&old.flat(), &RegistrySnapshot::default().flat())
}

/// A counter and a histogram move, another counter does not.
fn snapshot_changes() -> String {
    let reg = Registry::new();
    reg.add("moved", 1);
    reg.add("steady", 5);
    reg.histogram("lat").record(100);
    let base = reg.snapshot();
    reg.add("moved", 2);
    reg.histogram("lat").record(300);
    diff(&base.flat(), &reg.snapshot().flat())
}

#[test]
fn every_document_diffs_by_one_rule() {
    let plan_before = flat(&[
        ("[topology] bcast topology", "Collapsed"),
        ("[topology] bcast topology: bytes", "1048576"),
        ("[topology] bcast topology: collapse_threshold", "16384"),
        ("[chunk] chunk d1", "65536 B chunks"),
        ("planned ops", "288"),
    ]);
    let plan_after = flat(&[
        ("[topology] bcast topology", "Hierarchical"),
        ("[topology] bcast topology: bytes", "1024"),
        ("[topology] bcast topology: collapse_threshold", "16384"),
        ("[chunk] chunk d5", "131072 B chunks"),
        ("planned ops", "288"),
    ]);
    // (behaviour, rendered output, must show, must not show)
    let cases: Vec<(&str, String, Vec<&str>, Vec<&str>)> = vec![
        (
            "the two newest entries are paired",
            render_trend(
                &[
                    entry("gate", 1, &[("x", 1.0)]),
                    entry("gate", 2, &[("x", 2.0)]),
                    entry("other", 3, &[("x", 9.0)]),
                    entry("gate", 4, &[("x", 4.0)]),
                ],
                Some("gate"),
            ),
            vec!["trend `gate`: 2 -> 4\n", "2 -> 4", "+100.0% <<"],
            vec!["9", "1 ->"],
        ),
        (
            "movers are marked and noise is folded",
            render_trend(
                &[
                    entry("gate", 1, &[("big", 1.0), ("flat", 1.0), ("small", 1.0)]),
                    entry("gate", 2, &[("big", 1.5), ("flat", 1.0001), ("small", 1.02)]),
                ],
                None,
            ),
            vec!["+50.0% <<", "+2.0%\n", "(1 rows moved < 0.5%, not shown)"],
            vec!["flat", "+2.0% <<"],
        ),
        (
            "fewer than two entries give a message",
            render_trend(&[entry("gate", 1, &[("x", 1.0)])], None),
            vec!["need at least 2 history entries, have 1"],
            vec![],
        ),
        (
            "a label no entry carries gives a message",
            render_trend(&[], Some("nosuch")),
            vec!["need at least 2 history entries with label `nosuch`, have 0"],
            vec![],
        ),
        (
            "a metric that reads 0 in both entries is not listed",
            render_trend(
                &[
                    entry("gate", 1, &[("idle", 0.0), ("busy", 1.0)]),
                    entry("gate", 2, &[("idle", 0.0), ("busy", 3.0)]),
                ],
                None,
            ),
            vec!["busy"],
            vec!["idle"],
        ),
        (
            "only changes are listed",
            snapshot_changes(),
            vec!["moved", "1 -> 3", "lat.count", "lat.mean", "lat.p99"],
            vec!["steady", "no differences"],
        ),
        (
            "a metric on one side only is new or gone",
            diff(&flat(&[("old", "5")]), &flat(&[("fresh", "7")])),
            vec!["5 -> -", " gone\n", "- -> 7", " new\n"],
            vec![],
        ),
        (
            "a removed series is reported at zero",
            removed_at_zero(),
            vec!["gone.counter", "gone.hist.count", "gone.hist.p99", "0 -> -", " gone\n"],
            vec!["no differences"],
        ),
        (
            "a moved decision input is named",
            diff(&plan_before, &plan_after),
            vec![
                "Collapsed -> Hierarchical",
                "[topology] bcast topology: bytes",
                "1048576 -> 1024",
                "[chunk] chunk d1",
                "[chunk] chunk d5",
            ],
            vec!["collapse_threshold", "planned ops"],
        ),
        (
            "identical documents print no differences",
            diff(&plan_before, &plan_before),
            vec!["  no differences\n"],
            vec!["[topology]"],
        ),
    ];
    for (behaviour, text, shows, hides) in cases {
        for s in shows {
            assert!(text.contains(s), "{behaviour}: `{s}` missing from\n{text}");
        }
        for s in hides {
            assert!(!text.contains(s), "{behaviour}: `{s}` listed in\n{text}");
        }
    }
}
