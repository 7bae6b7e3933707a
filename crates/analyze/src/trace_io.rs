//! Re-parsing exported Chrome Trace JSON back into [`Event`]s.
//!
//! The exporter's output is the long-lived artifact — `pdac trace run`
//! writes `trace_real.json` / `trace_sim.json` to disk and a later
//! `pdac trace analyze` (as CI's explain-audit job runs it) must reconstruct the op graph
//! from nothing else. The parser is deliberately lenient: metadata rows
//! and unknown phases are skipped, unknown argument keys are dropped, and
//! unknown categories map to a generic `"trace"` — the analyzer only
//! needs the span vocabulary [`crate::OpGraph::from_events`] understands.

use pdac_telemetry::{ArgValue, Event, EventKind};
use serde_json::Value;

/// Argument keys the analyzer understands. [`Event`] args use `&'static
/// str` keys, so parsing has to intern: keys outside this list are
/// dropped (the analyzer would ignore them anyway).
const KNOWN_KEYS: [&str; 15] = [
    "op",
    "src",
    "dst",
    "bytes",
    "mech",
    "dist",
    "deps",
    "plan",
    "to",
    "from",
    "seg",
    "attempt",
    "backoff_ns",
    "ranks",
    "ops",
];

/// Categories seen in exported traces, interned back to `&'static str`.
const KNOWN_CATS: [&str; 8] =
    ["copy", "notify", "exec", "retry", "topocache", "recovery", "fault", "test"];

fn intern(table: &'static [&'static str], s: &str) -> Option<&'static str> {
    table.iter().find(|k| **k == s).copied()
}

fn parse_args(args: &Value) -> Vec<(&'static str, ArgValue)> {
    let Value::Map(pairs) = args else {
        return Vec::new();
    };
    pairs
        .iter()
        .filter_map(|(k, v)| {
            let key = intern(&KNOWN_KEYS, k)?;
            let val = match v {
                Value::U64(n) => ArgValue::U64(*n),
                Value::I64(n) if *n >= 0 => ArgValue::U64(*n as u64),
                Value::F64(f) => ArgValue::F64(*f),
                Value::Str(s) => ArgValue::Str(s.clone()),
                _ => return None,
            };
            Some((key, val))
        })
        .collect()
}

/// Parses a Chrome Trace JSON document (as written by
/// [`pdac_telemetry::chrome_trace`]) back into events. Metadata (`M`)
/// rows and unknown phases are skipped; row order assigns `seq`.
pub fn events_from_chrome_trace(json: &str) -> Result<Vec<Event>, String> {
    let doc: Value =
        serde_json::from_str(json).map_err(|e| format!("trace is not valid JSON: {e:?}"))?;
    let rows = doc
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or_else(|| "trace has no traceEvents array".to_string())?;

    let mut events = Vec::new();
    for row in rows {
        let kind = match row["ph"].as_str() {
            Some("X") => EventKind::Complete,
            Some("i") => EventKind::Instant,
            _ => continue, // metadata, counters, anything the analyzer ignores
        };
        let name = row["name"].as_str().unwrap_or("").to_string();
        let cat = row["cat"].as_str().and_then(|c| intern(&KNOWN_CATS, c)).unwrap_or("trace");
        events.push(Event {
            seq: events.len() as u64,
            ts_us: row["ts"].as_f64().unwrap_or(0.0),
            dur_us: row["dur"].as_f64().unwrap_or(0.0),
            tid: row["tid"].as_u64().unwrap_or(0),
            name,
            cat,
            kind,
            args: parse_args(&row["args"]),
        });
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdac_telemetry::{chrome_trace, TraceMeta};

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                seq: 0,
                ts_us: 0.0,
                dur_us: 5.5,
                tid: 1,
                name: "memcpy 0->1 (1024B)".into(),
                cat: "copy",
                kind: EventKind::Complete,
                args: vec![
                    ("op", ArgValue::U64(0)),
                    ("src", ArgValue::U64(0)),
                    ("dst", ArgValue::U64(1)),
                    ("bytes", ArgValue::U64(1024)),
                    ("mech", ArgValue::Str("Memcpy".into())),
                    ("dist", ArgValue::U64(3)),
                ],
            },
            Event {
                seq: 1,
                ts_us: 5.5,
                dur_us: 0.4,
                tid: 2,
                name: "notify 1->2".into(),
                cat: "notify",
                kind: EventKind::Complete,
                args: vec![
                    ("op", ArgValue::U64(1)),
                    ("deps", ArgValue::Str("0".into())),
                    ("dist", ArgValue::U64(1)),
                ],
            },
            Event {
                seq: 2,
                ts_us: 6.0,
                dur_us: 0.0,
                tid: 0,
                name: "marker".into(),
                cat: "retry",
                kind: EventKind::Instant,
                args: vec![("attempt", ArgValue::U64(2))],
            },
        ]
    }

    #[test]
    fn exported_trace_round_trips_through_the_parser() {
        let events = sample_events();
        let json = chrome_trace(&events, &TraceMeta::real().with_ranks(3));
        let back = events_from_chrome_trace(&json).expect("parses");
        assert_eq!(back.len(), events.len(), "metadata rows are skipped");
        assert_eq!(back[0].kind, EventKind::Complete);
        assert_eq!(back[0].cat, "copy");
        assert_eq!(back[0].arg_u64("op"), Some(0));
        assert_eq!(back[0].arg_str("mech"), Some("Memcpy"));
        assert_eq!(back[0].dur_us, 5.5);
        assert_eq!(back[1].arg_str("deps"), Some("0"));
        assert_eq!(back[2].kind, EventKind::Instant);
        assert_eq!(back[2].arg_u64("attempt"), Some(2));
    }

    #[test]
    fn unknown_keys_and_cats_degrade_gracefully() {
        let json = r#"{"traceEvents":[
            {"name":"x","cat":"mystery","ph":"X","pid":1,"tid":0,"ts":1.0,"dur":2.0,
             "args":{"op":7,"wild_key":9,"dist":2}},
            {"name":"meta","ph":"M","pid":1,"args":{"name":"sim"}}
        ]}"#;
        let events = events_from_chrome_trace(json).expect("parses");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].cat, "trace");
        assert_eq!(events[0].arg_u64("op"), Some(7));
        assert!(events[0].arg("wild_key").is_none(), "unknown keys dropped");
    }

    #[test]
    fn malformed_documents_error_instead_of_panicking() {
        assert!(events_from_chrome_trace("not json").is_err());
        assert!(events_from_chrome_trace(r#"{"other":1}"#).is_err());
        // An empty traceEvents array is a valid (empty) trace.
        assert_eq!(events_from_chrome_trace(r#"{"traceEvents":[]}"#).unwrap().len(), 0);
    }
}
