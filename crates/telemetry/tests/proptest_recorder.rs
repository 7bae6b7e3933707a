//! Concurrency invariants of the event recorder: under concurrent
//! recording from 8 threads, sequence numbers are unique and strictly
//! ordered after a drain, and the per-thread event order is consistent
//! with span nesting — two spans of one logical thread are either
//! disjoint in time or properly nested, never partially overlapping, and
//! a span's end order matches its sequence order.

use std::sync::Arc;

use pdac_telemetry::{EventKind, Recorder};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn concurrent_recording_preserves_span_nesting(
        scripts in prop::collection::vec(prop::collection::vec(any::<bool>(), 1..40), 8..=8)
    ) {
        let rec = Arc::new(Recorder::new(1 << 20));
        let reader = rec.reader();
        std::thread::scope(|scope| {
            for (t, script) in scripts.iter().enumerate() {
                let rec = Arc::clone(&rec);
                scope.spawn(move || {
                    // `true` opens a nested span, `false` closes the
                    // innermost one (or records an instant at depth 0).
                    let mut stack = Vec::new();
                    for (i, &open) in script.iter().enumerate() {
                        if open {
                            stack.push(rec.span(
                                t as u64,
                                "prop",
                                || format!("s{t}.{i}"),
                                Vec::new,
                            ));
                        } else if stack.pop().is_none() {
                            rec.instant(t as u64, "prop", || format!("i{t}.{i}"), Vec::new);
                        }
                    }
                    // Close whatever is still open, innermost first.
                    while stack.pop().is_some() {}
                });
            }
        });

        let events = reader.drain();
        prop_assert!(rec.is_empty());
        prop_assert_eq!(rec.dropped(), 0);

        // Drained order is the global record order: strictly increasing,
        // unique sequence numbers.
        for w in events.windows(2) {
            prop_assert!(w[0].seq < w[1].seq, "seq {} then {}", w[0].seq, w[1].seq);
        }

        // Per logical thread: spans are sequenced at their end, so seq
        // order implies end order, and any two spans are either disjoint
        // or nested (the later-ending one contains the earlier).
        for tid in 0..8u64 {
            let spans: Vec<_> = events
                .iter()
                .filter(|e| e.tid == tid && e.kind == EventKind::Complete)
                .collect();
            for (i, a) in spans.iter().enumerate() {
                for b in &spans[i + 1..] {
                    prop_assert!(
                        a.end_us() <= b.end_us(),
                        "tid {}: seq order disagrees with end order", tid
                    );
                    let disjoint = a.end_us() <= b.ts_us;
                    let nested = b.ts_us <= a.ts_us;
                    prop_assert!(
                        disjoint || nested,
                        "tid {}: spans {} and {} partially overlap", tid, a.name, b.name
                    );
                }
            }
        }
    }
}
