//! OpenMetrics exposition format contract tests: escaping, histogram
//! bucket rendering, and counter monotonicity across live snapshots.

use pdac_telemetry::{bucket_bounds, bucket_index, to_openmetrics, Registry};

#[test]
fn help_lines_escape_backslash_quote_and_newline() {
    let reg = Registry::new();
    // Registry names are free-form strings; hostile bytes must not be
    // able to break out of the HELP line or forge extra samples.
    reg.add("weird \"name\"\nwith\\junk", 1);
    let text = to_openmetrics(&reg.snapshot());
    assert!(
        text.contains(
            "# HELP pdac_weird__name__with_junk counter weird \\\"name\\\"\\nwith\\\\junk\n"
        ),
        "escaped HELP line present:\n{text}"
    );
    // The raw newline never appears inside a HELP line: every line in the
    // document is a well-formed sample or comment.
    for line in text.lines() {
        assert!(
            line.starts_with('#') || line.split_whitespace().count() == 2,
            "malformed exposition line: {line:?}"
        );
    }
}

#[test]
fn histograms_render_cumulative_buckets_with_inf_sum_and_count() {
    let reg = Registry::new();
    let h = reg.histogram("op.latency_ns");
    // Three values across two log2 buckets: 5 and 6 share a bucket,
    // 1000 lands in a higher one.
    h.record(5);
    h.record(6);
    h.record(1000);
    let text = to_openmetrics(&reg.snapshot());

    assert!(text.contains("# TYPE pdac_op_latency_ns histogram\n"));
    let (_, hi_small) = bucket_bounds(bucket_index(5));
    let (_, hi_large) = bucket_bounds(bucket_index(1000));
    assert!(
        text.contains(&format!(
            "pdac_op_latency_ns_bucket{{le=\"{hi_small}\"}} 2\n"
        )),
        "small bucket cumulative count is 2:\n{text}"
    );
    assert!(
        text.contains(&format!(
            "pdac_op_latency_ns_bucket{{le=\"{hi_large}\"}} 3\n"
        )),
        "large bucket accumulates the small one:\n{text}"
    );
    assert!(text.contains("pdac_op_latency_ns_bucket{le=\"+Inf\"} 3\n"));
    assert!(text.contains("pdac_op_latency_ns_sum 1011\n"));
    assert!(text.contains("pdac_op_latency_ns_count 3\n"));

    // Bucket series is cumulative: counts never decrease down the page,
    // and +Inf equals _count.
    let mut prev = 0u64;
    for line in text
        .lines()
        .filter(|l| l.starts_with("pdac_op_latency_ns_bucket"))
    {
        let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(v >= prev, "bucket counts must be cumulative: {line}");
        prev = v;
    }
    assert_eq!(prev, 3);
}

#[test]
fn counters_are_monotone_across_successive_snapshots() {
    let reg = Registry::new();
    reg.add("mono.counter", 2);
    let first = to_openmetrics(&reg.snapshot());
    reg.add("mono.counter", 3);
    reg.add("mono.other", 1);
    let second = to_openmetrics(&reg.snapshot());

    let read = |text: &str, name: &str| -> u64 {
        text.lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("{name} missing"))
    };
    let a = read(&first, "pdac_mono_counter_total");
    let b = read(&second, "pdac_mono_counter_total");
    assert_eq!(
        (a, b),
        (2, 5),
        "counter accumulates, never resets between scrapes"
    );
    assert!(b >= a, "counters are monotone");
    assert!(!first.contains("pdac_mono_other_total"));
    assert!(second.contains("pdac_mono_other_total 1\n"));
    // Both documents are complete expositions.
    assert!(first.ends_with("# EOF\n") && second.ends_with("# EOF\n"));
}

#[test]
fn exposition_is_deterministic_for_a_given_snapshot() {
    let reg = Registry::new();
    reg.add("z.last", 1);
    reg.add("a.first", 1);
    reg.histogram("m.mid").record(42);
    let snap = reg.snapshot();
    assert_eq!(to_openmetrics(&snap), to_openmetrics(&snap));
    let text = to_openmetrics(&snap);
    let a = text.find("pdac_a_first_total").unwrap();
    let z = text.find("pdac_z_last_total").unwrap();
    assert!(a < z, "counters render in name order");
}
