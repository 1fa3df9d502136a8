//! `perfbench` — end-to-end and per-layer benchmark of the study pipeline.
//!
//! ```text
//! perfbench --workload <paper-1x|capture-10x|replay-10x> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the workload runs one untimed cold iteration (after its
//! one-off fixture), then timed iterations for `--seconds`, checking every
//! iteration's output, and prints the end-to-end metrics, with times scaled
//! to a quiet host by a reference job timed around each iteration (see
//! `pace.rs`). With `--trace 1` it prints the per-layer metrics of a traced
//! rebuild instead. Either way the last line of standard output is one JSON
//! object; per-iteration host diagnostics go to standard error. The whole
//! run is pinned to one CPU. See `perfbench/README.md`.

mod host;
mod pace;
mod trace;
mod workloads;

#[cfg(test)]
mod selftest;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Trace, PER_LAYER};
use workloads::{Bench, Run, Workload};

const USAGE: &str = "usage: perfbench --workload <paper-1x|capture-10x|replay-10x> --seed <n> \
                     --seconds <s> --trace <0|1>";

/// Fewest timed iterations a run reports a median over, however long they
/// take.
const MIN_SAMPLES: usize = 5;

/// The end-to-end metrics, with their units, in the order they print.
const END_TO_END: &[(&str, &str)] = &[
    ("study_s_norm", "s"),
    ("cpu_s_norm", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("archive_mb", "MB"),
];

/// Set-ups measured in fresh processes, next to the run's own, for the
/// `setup_s` median. A set-up repeated inside the run's process would find
/// lazy statics and the allocator already warm; a fresh process is cold,
/// like the run's own set-up.
const SETUP_PROBES: usize = 4;

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: measure one fresh set-up and exit (see [`SETUP_PROBES`]).
    probe: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut probe) =
        (None, None, 10, false, false);
    while let Some(flag) = args.next() {
        if flag == "--probe" {
            probe = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = value.parse().ok().filter(|&s| s > 0).ok_or_else(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        probe,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // One CPU for the whole run, set-up probes included: the program sizes
    // some thread pools from `available_parallelism`, and a pass spread
    // over two vCPUs of a shared host times the other tenants more than
    // the program.
    match host::pin_to_one_cpu() {
        Some(cpu) => eprintln!("perfbench: pinned to CPU {cpu}"),
        None => eprintln!(
            "perfbench: cannot pin to one CPU: the run uses every CPU it may, and \
             multi-threaded passes are timed across all of them"
        ),
    }
    let scratch = match Scratch::create(args.workload.name()) {
        Ok(scratch) => scratch,
        Err(e) => {
            eprintln!("perfbench: cannot create a scratch directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bench = Bench::new(args.workload, args.seed, args.workload.scale(), &scratch.0);
    if args.probe {
        let (harness, setup) = Harness::start(bench);
        let ok = harness.tally.failed == 0;
        println!("setup_s {setup} {}", if ok { "ok" } else { "failed" });
        return ExitCode::SUCCESS;
    }
    let seconds = Duration::from_secs(args.seconds);
    let report = if args.trace {
        traced(bench, seconds)
    } else {
        measure(bench, seconds, &args)
    };
    match report {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The run's own scratch directory inside the working directory; removed
/// when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    const ROOT: &'static str = ".perfbench-tmp";

    fn create(label: &str) -> std::io::Result<Scratch> {
        let dir = PathBuf::from(Scratch::ROOT).join(format!("{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Best effort: a leftover directory costs disk, not correctness.
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(Scratch::ROOT);
    }
}

/// Every checked run of the program, and how many failed a check.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, what: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                eprintln!("perfbench: {what}: {p}");
            }
        }
    }
}

/// Run `f`, turning a panic into a problem report instead of an abort.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic payload");
        format!("panicked: {msg}")
    })
}

/// A workload with its reference output and failure accounting.
struct Harness {
    bench: Bench,
    /// Digest of the cold iteration's output; every later iteration must
    /// repeat it.
    reference: u64,
    tally: Tally,
}

impl Harness {
    /// Set up and run the cold iteration. Returns the harness and the
    /// set-up time (fixture plus cold iteration, checks excluded) in
    /// seconds, scaled to a quiet host.
    fn start(bench: Bench) -> (Harness, f64) {
        let before = pace::reference_s();
        let start = Instant::now();
        let run = guarded(|| bench.setup().map(|()| bench.run()));
        let setup = start.elapsed().as_secs_f64();
        let setup = setup * pace::factor(before, pace::reference_s());
        let mut tally = Tally::default();
        let checked = match run {
            Ok(Ok(run)) => bench.check_cold(run),
            Ok(Err(e)) => workloads::Checked {
                digest: workloads::digest(&[]),
                problems: vec![format!("set-up failed: {e}")],
            },
            Err(panic) => workloads::Checked {
                digest: workloads::digest(&[]),
                problems: vec![panic],
            },
        };
        tally.record("cold iteration", &checked.problems);
        let harness = Harness {
            bench,
            reference: checked.digest,
            tally,
        };
        (harness, setup)
    }

    /// Check a later iteration, including that it repeats the cold output.
    fn settle(&mut self, what: &str, run: Result<Run, String>) {
        let problems = match run {
            Ok(run) => {
                let checked = self.bench.check(run);
                let mut problems = checked.problems;
                if checked.digest != self.reference {
                    problems.push("output differs from the cold iteration".into());
                }
                problems
            }
            Err(panic) => vec![panic],
        };
        self.tally.record(what, &problems);
    }

    /// One timed iteration of the untimed path, with its host diagnostics.
    fn timed_iteration(&mut self, index: usize) -> Result<Sample, String> {
        let before = pace::reference_s();
        let scope = host::reset_peak_rss();
        let steal = host::host_steal_s().ok_or("cannot read /proc/stat")?;
        let cpu = host::process_cpu_s().ok_or("cannot read the process CPU clock")?;
        let start = Instant::now();
        let run = guarded(|| self.bench.run());
        let wall = start.elapsed().as_secs_f64();
        let cpu = host::process_cpu_s().ok_or("cannot read the process CPU clock")? - cpu;
        let peak_rss_mb = host::peak_rss_mb().ok_or("cannot read /proc/self/status")?;
        let steal = host::host_steal_s().ok_or("cannot read /proc/stat")? - steal;
        let pace = pace::factor(before, pace::reference_s());
        let sample = Sample {
            wall_s: wall * pace,
            cpu_s: cpu * pace,
            peak_rss_mb,
            scope,
        };
        self.settle(&format!("iteration {index}"), run);
        eprintln!(
            "{{\"iteration\": {index}, \"wall_s\": {wall}, \"cpu_s\": {cpu}, \"pace\": {pace}, \
             \"host_steal_s\": {steal}, \"peak_rss_mb\": {}, \"rss_scope\": \"{}\", \
             \"parallelism\": {}}}",
            sample.peak_rss_mb,
            scope.as_str(),
            host::parallelism()
        );
        Ok(sample)
    }
}

/// One timed iteration; its times are scaled to a quiet host.
struct Sample {
    wall_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    scope: host::RssScope,
}

/// The printed result.
struct Report {
    tally: Tally,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0 && self.tally.attempted > 0,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `--trace 0`: the end-to-end metrics.
fn measure(bench: Bench, seconds: Duration, args: &Args) -> Result<Report, String> {
    let (mut h, setup) = Harness::start(bench);
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < MIN_SAMPLES || start.elapsed() < seconds {
        samples.push(h.timed_iteration(samples.len())?);
    }
    if samples.iter().any(|s| s.scope == host::RssScope::Process) {
        eprintln!(
            "perfbench: /proc/self/clear_refs is not writable here: peak_rss_mb is the \
             process-lifetime peak, not a per-iteration one"
        );
    }
    let (problems, archive_mb) = h.bench.check_once(h.reference);
    h.tally.record("once-per-run check", &problems);
    let mut setups = vec![setup];
    for _ in 0..SETUP_PROBES {
        match probe_setup(args) {
            Ok(s) => setups.push(s),
            Err(p) => h.tally.record("set-up probe", &[p]),
        }
    }
    let all = |f: fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<_>>();
    eprintln!(
        "perfbench: {} timed iterations, set-up samples {setups:?}",
        samples.len()
    );
    let metrics = END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "study_s_norm" => median(&all(|s| s.wall_s)),
                "cpu_s_norm" => median(&all(|s| s.cpu_s)),
                "setup_s" => median(&setups),
                "peak_rss_mb" => median(&all(|s| s.peak_rss_mb)),
                _ => archive_mb,
            };
            (name, value, unit)
        })
        .collect();
    Ok(Report {
        tally: h.tally,
        metrics,
    })
}

/// One set-up in a fresh process of this same program.
fn probe_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--probe", "--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run the set-up probe: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    match line.split_whitespace().collect::<Vec<_>>()[..] {
        ["setup_s", secs, "ok"] if out.status.success() => secs
            .parse()
            .map_err(|_| format!("bad probe output: {line}")),
        _ => Err(format!("set-up probe failed ({}): {line}", out.status)),
    }
}

/// `--trace 1`: the per-layer metrics. Untimed iterations (for
/// `trace.overhead_s`) alternate with traced rebuilds, which run with the
/// program's telemetry on, so both see the same host conditions. Every
/// iteration's output is checked against the cold one.
fn traced(bench: Bench, seconds: Duration) -> Result<Report, String> {
    const MIN_PAIRS: usize = 3;
    let (mut h, _) = Harness::start(bench);
    let (mut untimed, mut walls, mut layers) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while walls.len() < MIN_PAIRS || start.elapsed() < seconds {
        let t = Instant::now();
        let run = guarded(|| h.bench.run());
        untimed.push(t.elapsed().as_secs_f64());
        h.settle(&format!("untimed iteration {}", untimed.len()), run);

        pii_suite::telemetry::enable();
        let mut trace = Trace::default();
        let t = Instant::now();
        let run = guarded(|| h.bench.run_traced(&mut trace));
        let wall = t.elapsed();
        pii_suite::telemetry::disable();
        pii_suite::telemetry::reset();
        walls.push(wall.as_secs_f64());
        h.settle(&format!("traced iteration {}", walls.len()), run);
        layers.push(trace.metrics(wall));
    }
    let overhead = median(&walls) - median(&untimed);
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "trace.overhead_s" => overhead,
                _ => median(&layers.iter().map(|m| m[name]).collect::<Vec<_>>()),
            };
            (name, value, unit)
        })
        .collect();
    Ok(Report {
        tally: h.tally,
        metrics,
    })
}
