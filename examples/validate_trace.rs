//! CI validator for `pii-study --trace` output.
//!
//! ```text
//! validate_trace <trace-a.json> [trace-b.json]
//! ```
//!
//! Checks that each file parses as Chrome trace-event JSON with
//! well-formed events, that the seed-deterministic counters are present
//! and non-zero, and — when two files are given — that those counters are
//! identical between them (the files are expected to come from runs with
//! *different* worker counts, so equality demonstrates determinism).

use serde::Value;
use std::collections::BTreeMap;
use std::process::exit;

fn field<'v>(value: &'v Value, key: &str) -> Option<&'v Value> {
    match value {
        Value::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn as_u64(value: &Value) -> Option<u64> {
    match value {
        Value::U64(n) => Some(*n),
        Value::I64(n) => u64::try_from(*n).ok(),
        _ => None,
    }
}

fn as_str(value: &Value) -> Option<&str> {
    match value {
        Value::Str(s) => Some(s.as_str()),
        _ => None,
    }
}

/// Parse one trace file, validate its structure, and return its
/// seed-deterministic counter map (ph "C" events with a `value` arg).
fn load(path: &str) -> BTreeMap<String, u64> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let doc: Value = serde_json::from_str(&text)
        .unwrap_or_else(|e| fail(&format!("{path} is not valid JSON: {e}")));
    if field(&doc, "displayTimeUnit").and_then(as_str) != Some("ms") {
        fail(&format!("{path}: displayTimeUnit missing or not \"ms\""));
    }
    let events = match field(&doc, "traceEvents") {
        Some(Value::Arr(events)) => events,
        _ => fail(&format!("{path}: traceEvents missing or not an array")),
    };
    if events.is_empty() {
        fail(&format!("{path}: traceEvents is empty"));
    }
    let mut counters = BTreeMap::new();
    let mut spans = 0usize;
    for (i, event) in events.iter().enumerate() {
        let ph = field(event, "ph")
            .and_then(as_str)
            .unwrap_or_else(|| fail(&format!("{path}: event {i} has no ph")));
        let name = field(event, "name")
            .and_then(as_str)
            .unwrap_or_else(|| fail(&format!("{path}: event {i} has no name")));
        for key in ["ts", "pid"] {
            if field(event, key).and_then(as_u64).is_none() {
                fail(&format!("{path}: event {i} ({name}) has no numeric {key}"));
            }
        }
        match ph {
            "M" => {}
            "X" => {
                spans += 1;
                for key in ["dur", "tid"] {
                    if field(event, key).and_then(as_u64).is_none() {
                        fail(&format!("{path}: span {name} has no numeric {key}"));
                    }
                }
            }
            "C" => {
                // Counter events carry {"value": n}; histogram counters
                // carry count/sum/min/max instead and are skipped here.
                if let Some(value) = field(event, "args").and_then(|a| field(a, "value")) {
                    let value = as_u64(value)
                        .unwrap_or_else(|| fail(&format!("{path}: counter {name} not numeric")));
                    if !pii_suite::telemetry::is_scheduling_dependent(name) {
                        counters.insert(name.to_string(), value);
                    }
                }
            }
            other => fail(&format!("{path}: event {i} has unknown phase {other:?}")),
        }
    }
    if spans == 0 {
        fail(&format!("{path}: no span (ph=X) events"));
    }
    println!(
        "{path}: ok ({} events, {spans} spans, {} deterministic counters)",
        events.len(),
        counters.len()
    );
    counters
}

fn fail(message: &str) -> ! {
    eprintln!("validate_trace: {message}");
    exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [first, rest @ ..] = args.as_slice() else {
        fail("usage: validate_trace <trace-a.json> [trace-b.json]");
    };
    let counters = load(first);
    for key in [
        "browser.pages",
        "browser.records",
        "browser.requests",
        "detect.requests",
        "dns.queries",
    ] {
        if counters.get(key).copied().unwrap_or(0) == 0 {
            fail(&format!("{first}: counter {key} missing or zero"));
        }
    }
    for other in rest {
        let other_counters = load(other);
        if counters != other_counters {
            let diff: Vec<&String> = counters
                .keys()
                .chain(other_counters.keys())
                .filter(|k| counters.get(*k) != other_counters.get(*k))
                .collect();
            fail(&format!(
                "deterministic counters differ between {first} and {other}: {diff:?}"
            ));
        }
        println!("{first} and {other} agree on all deterministic counters");
    }
}
