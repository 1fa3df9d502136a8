//! Self-tests of the harness. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use super::*;
use std::collections::BTreeSet;

fn well_formed_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_emitted_name_is_well_formed() {
    let workloads = Workload::ALL.map(Workload::name);
    let metrics = END_TO_END.iter().chain(PER_LAYER).map(|&(name, _)| name);
    for name in workloads.into_iter().chain(metrics) {
        assert!(well_formed_name(name), "{name} is not [A-Za-z0-9_.-]+");
    }
    for &(_, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(unit.len() <= 16, "unit {unit} is too long");
        assert!(
            unit.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "unit {unit} has a character outside [A-Za-z0-9_/%.-]"
        );
    }
    let names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
    let distinct: BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(distinct.len(), names.len(), "a metric name is used twice");
}

/// The `"name"` values listed in one top-level array of `BENCHMARK.json`.
fn listed_names(json: &str, key: &str) -> BTreeSet<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("unterminated array")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("name value").to_string())
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_emitted_names() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let set = |names: &[(&str, &str)]| -> BTreeSet<String> {
        names.iter().map(|&(n, _)| n.to_string()).collect()
    };
    assert_eq!(listed_names(&json, "end_to_end"), set(END_TO_END));
    assert_eq!(listed_names(&json, "per_layer"), set(PER_LAYER));
    let workloads: BTreeSet<String> = Workload::ALL.iter().map(|w| w.name().into()).collect();
    assert_eq!(listed_names(&json, "workloads"), workloads);
}

#[test]
fn arguments_parse_and_reject() {
    let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
    assert_eq!(
        parse("--workload replay-10x --seed 7 --seconds 3 --trace 1"),
        Ok(Args {
            workload: Workload::Replay10x,
            seed: 7,
            seconds: 3,
            trace: true,
            probe: false,
        })
    );
    for bad in [
        "--workload nope --seed 1",
        "--workload paper-1x",
        "--workload paper-1x --seed 1 --trace 2",
        "--workload paper-1x --seed 1 --seconds 0",
        "--workload paper-1x --seed 1 --extra 1",
    ] {
        assert!(parse(bad).is_err(), "{bad} should be refused");
    }
}

/// A workload at 1x in its own scratch directory.
fn small(workload: Workload, label: &str) -> (Scratch, Bench) {
    let scratch = Scratch::create(&format!("selftest-{label}")).expect("scratch dir");
    let bench = Bench::new(workload, 11, 1, &scratch.0);
    (scratch, bench)
}

#[test]
fn traced_rebuild_reproduces_the_untimed_output() {
    // One test for all three: the program's telemetry switch is global.
    for workload in Workload::ALL {
        let (_scratch, bench) = small(workload, &format!("traced-{}", workload.name()));
        let (mut h, _) = Harness::start(bench);
        assert_eq!(
            h.tally.failed,
            0,
            "{}: cold iteration failed",
            workload.name()
        );
        pii_suite::telemetry::enable();
        let mut trace = Trace::default();
        let run = guarded(|| h.bench.run_traced(&mut trace));
        pii_suite::telemetry::disable();
        h.settle("traced iteration", run);
        assert_eq!(
            h.tally.failed,
            0,
            "{}: traced output differs from the untimed output",
            workload.name()
        );
        let emitted: BTreeSet<&str> = trace.metrics(Duration::from_secs(1)).into_keys().collect();
        let catalogue: BTreeSet<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(
            emitted,
            catalogue,
            "{}: off-catalogue metric",
            workload.name()
        );
    }
}

#[test]
fn a_corrupted_archive_counts_as_a_failure_not_a_panic() {
    let (_scratch, bench) = small(Workload::Replay10x, "corrupt");
    let (mut h, _) = Harness::start(bench);
    assert_eq!(h.tally.failed, 0, "the clean fixture must replay");
    let path = h.bench.archive();
    let clean = std::fs::read(&path).expect("read fixture");

    // Damage inside the archive: segments are skipped and reported.
    let mut damaged = clean.clone();
    let mid = damaged.len() / 2;
    for b in &mut damaged[mid..mid + 64] {
        *b ^= 0xA5;
    }
    std::fs::write(&path, &damaged).expect("write damaged archive");
    let run = guarded(|| h.bench.run());
    h.settle("damaged archive", run);
    assert_eq!((h.tally.attempted, h.tally.failed), (2, 1));

    // Foreign bytes: the study cannot open the archive at all and panics;
    // the harness must count that as a failure and carry on.
    std::fs::write(&path, b"not an archive").expect("write foreign bytes");
    let run = guarded(|| h.bench.run());
    h.settle("foreign bytes", run);
    assert_eq!((h.tally.attempted, h.tally.failed), (3, 2));

    let report = Report {
        tally: h.tally,
        metrics: Vec::new(),
    };
    assert!(report.to_json().starts_with("{\"correct\": false"));
}
