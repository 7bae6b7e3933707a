//! Chrome Trace exporter edge cases: empty recorders, hostile thread
//! names, and exports far past the recorder's default ring capacity.

use pdac_telemetry::export::{chrome_trace, TraceMeta};
use pdac_telemetry::{ArgValue, Event, EventKind, Recorder};

fn span_event(seq: u64, tid: u64, name: &str) -> Event {
    Event {
        seq,
        ts_us: seq as f64,
        dur_us: 1.0,
        tid,
        name: name.to_string(),
        cat: "test",
        kind: EventKind::Complete,
        args: vec![("op", ArgValue::U64(seq))],
    }
}

#[test]
fn empty_recorder_exports_valid_metadata_only_trace() {
    let rec = Recorder::new(64);
    let events = rec.reader().drain();
    assert!(events.is_empty());
    let json = chrome_trace(&events, &TraceMeta::real().with_ranks(4));
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    let rows = parsed["traceEvents"].as_array().unwrap();
    // process_name + 4 thread_name rows, nothing else.
    assert_eq!(rows.len(), 5);
    assert!(rows.iter().all(|r| r["ph"] == "M"), "metadata rows only");
    assert_eq!(rows[0]["args"]["name"], "real");
}

#[test]
fn control_characters_in_thread_names_stay_valid_json() {
    let meta = TraceMeta::new(7, "run\n\"with\"\tcontrol\u{1}chars")
        .with_thread(0, "rank\u{0} zero")
        .with_thread(1, "tab\there\nnewline\\backslash");
    let events = vec![span_event(0, 0, "copy\u{2} 0->1")];
    let json = chrome_trace(&events, &meta);
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("escaped JSON parses");
    let rows = parsed["traceEvents"].as_array().unwrap();
    assert_eq!(rows[0]["args"]["name"].as_str(), Some("run\n\"with\"\tcontrol\u{1}chars"));
    let thread_rows: Vec<_> = rows.iter().filter(|r| r["name"] == "thread_name").collect();
    assert_eq!(thread_rows.len(), 2);
    assert_eq!(thread_rows[0]["args"]["name"].as_str(), Some("rank\u{0} zero"));
    assert_eq!(thread_rows[1]["args"]["name"].as_str(), Some("tab\there\nnewline\\backslash"));
    let x = rows.iter().find(|r| r["ph"] == "X").expect("the span row");
    assert_eq!(x["name"].as_str(), Some("copy\u{2} 0->1"), "control char round-trips");
}

#[test]
fn export_of_more_than_64k_events_round_trips() {
    // One export larger than the recorder's default total capacity
    // (1 << 16): the exporter must neither truncate nor corrupt.
    const N: usize = (1 << 16) + 1000;
    let events: Vec<Event> = (0..N).map(|i| span_event(i as u64, (i % 32) as u64, "op")).collect();
    let json = chrome_trace(&events, &TraceMeta::sim().with_ranks(32));
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("large trace parses");
    let rows = parsed["traceEvents"].as_array().unwrap();
    let x_rows = rows.iter().filter(|r| r["ph"] == "X").count();
    assert_eq!(x_rows, N, "every event exported");
    // Spot-check the far end survived with its args intact.
    let last = rows.last().unwrap();
    assert_eq!(last["args"]["op"].as_u64(), Some(N as u64 - 1));
}

#[test]
fn recorder_overflow_drops_oldest_but_export_stays_consistent() {
    // Push past capacity from one thread: the ring keeps the newest
    // window, and what is drained still exports as valid JSON with
    // monotone sequence numbers.
    let rec = Recorder::new(128);
    let reader = rec.reader();
    for i in 0..100_000u64 {
        rec.instant(0, "test", || format!("e{i}"), Vec::new);
    }
    assert!(rec.dropped() > 0, "overflow recorded");
    let events = reader.drain();
    assert!(!events.is_empty());
    assert!(events.windows(2).all(|w| w[0].seq < w[1].seq), "drain is seq-ordered");
    let json = chrome_trace(&events, &TraceMeta::real());
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    assert!(parsed["traceEvents"].as_array().unwrap().len() > events.len());
}
