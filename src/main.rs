//! `pii-study` — command-line driver for the reproduction.
//!
//! ```text
//! pii-study full                       run everything, print all tables
//! pii-study tables                     tables 1–3 + figure 2 (no re-crawls)
//! pii-study stats                      simulated-universe statistics
//! pii-study browsers                   §7.1 six-browser comparison
//! pii-study blocklists                 Table 4 + §7.2 misses
//! pii-study ablations                  chain-depth + scanning ablations
//! pii-study counterfactual             strict-referrer + host-only-blocking what-ifs
//! pii-study crowdsource [K]            future-work extension with K personas
//! pii-study sweep [N]                  headline metrics across N seeds
//! pii-study crawl --out <store>        crawl once, persist the capture archive
//! pii-study crawl --out <store> --resume
//!                                      reopen a partial archive (e.g. after a crash),
//!                                      truncate its torn tail, keep every committed site,
//!                                      and recrawl only the missing/quarantined ones —
//!                                      the finished archive replays byte-identically to
//!                                      an uninterrupted crawl
//! pii-study crawl … --kill <point>     chaos testing: deterministically kill the archive
//!                                      writer at a fail point (after-header | mid-header:N |
//!                                      mid-payload:N | after-segment:N | before-finalize |
//!                                      mid-footer | mid-trailer | at-byte:N), leaving the
//!                                      torn file on disk and exiting non-zero
//! pii-study store verify <store>       check every segment CRC + decode; exit non-zero
//!                                      unless the archive is finalized and fully intact
//! pii-study store repair <store> [--out <fixed>]
//!                                      rewrite the recoverable content into a fresh
//!                                      finalized archive (in place via rename by default);
//!                                      damaged sites become explicit quarantined rows
//! pii-study lint [--json]              run the workspace invariant analyzer (pii-lint,
//!                                      DESIGN §12); exit non-zero on any unsuppressed
//!                                      diagnostic, --json for the machine-readable array
//! pii-study export <dir>               write dataset artifacts + HAR + capture archive
//! pii-study seed <u64> <subcommand>    run any of the above on another seed
//! pii-study --from <store> <cmd>       replay a capture archive instead of crawling
//! pii-study --workers <n> <subcommand> size of the crawl/detect worker pool, for the study
//!                                      and for every pass that re-crawls (browsers,
//!                                      counterfactual, crowdsource)
//! pii-study --faults <profile> <cmd>   inject transport faults (none|paper-may-2021|hostile)
//! pii-study --retries <n> <cmd>        max page-load attempts for the fault-injected crawl
//! pii-study --watchdog-ms <n> <cmd>    per-site virtual-time deadline: a site whose retry
//!                                      backoff exceeds n simulated ms is quarantined
//!                                      instead of stalling the crawl (deterministic)
//! pii-study --cache <strategy> <cmd>   HTTP cache for the crawl's browsers:
//!                                      cache-first | network-first | stale-while-revalidate
//!                                      (default: no cache, the paper's cold-visit capture)
//! pii-study --repeat <n> <cmd>         visits per site: values above 1 replay the revisit
//!                                      pages against warm caches, and the degradation
//!                                      report shows suppressed-vs-fired request deltas
//! pii-study --metrics <cmd>            print the telemetry run report after the command
//! pii-study --trace <out.json> <cmd>   write a Chrome trace-event file (Perfetto-loadable)
//! ```
//!
//! Every study crawls (or replays) and detects through one canonical-order
//! fold. `full`, `blocklists`, `ablations` and `export` read raw crawl
//! records, so they keep the capture; every other subcommand drops each site
//! once it is folded and runs in memory bounded by the sites in flight. The
//! output is the same either way.

#![forbid(unsafe_code)]

use pii_suite::analysis::{
    ablations, aggregates, browsers, counterfactual, crowdsource, dataset, degradation, figure2,
    table1, table2, table3, table4, Study, StudyResults,
};
use pii_suite::crawler::RetryPolicy;
use pii_suite::net::cache::CacheStrategy;
use pii_suite::net::fault::FaultProfile;
use pii_suite::web::UniverseSpec;

fn usage() -> ! {
    eprintln!(
        "usage: pii-study [seed|--seed <u64>] [--from <store>] [--workers <n>] [--faults <none|paper-may-2021|hostile>] [--retries <n>] [--watchdog-ms <n>] [--cache <cache-first|network-first|stale-while-revalidate>] [--repeat <n>] [--metrics] [--trace <out.json>] <full|tables|stats|sweep [N]|browsers|blocklists|ablations|counterfactual|crowdsource [K]|crawl --out <store> [--resume] [--kill <point>]|store <verify|repair> <store> [--out <fixed>]|lint [--json]|export <dir>>"
    );
    std::process::exit(2);
}

struct StudyArgs {
    seed: Option<u64>,
    workers: Option<usize>,
    faults: FaultProfile,
    retries: Option<u32>,
    /// Print the telemetry run report after the command.
    metrics: bool,
    /// Write a Chrome trace-event JSON file after the command.
    trace: Option<String>,
    /// Replay this capture archive instead of crawling.
    from: Option<String>,
    /// Per-site virtual-time deadline for live crawls.
    watchdog_ms: Option<u64>,
    /// HTTP cache strategy for the crawl's browsers (`--cache`).
    cache: Option<CacheStrategy>,
    /// Visits per site (`--repeat`).
    repeat: Option<u32>,
}

fn configure_study(args: &StudyArgs) -> Study {
    let mut study = Study::paper();
    if let Some(seed) = args.seed {
        study.spec = UniverseSpec {
            seed,
            ..UniverseSpec::default()
        };
    }
    if let Some(workers) = args.workers {
        study.workers = workers.max(1);
    }
    study.faults = args.faults;
    if let Some(retries) = args.retries {
        study.retry = RetryPolicy::with_max_attempts(retries);
    }
    study.watchdog_ms = args.watchdog_ms;
    study.cache = args.cache;
    if let Some(repeat) = args.repeat {
        study.repeat = repeat.max(1);
    }
    study
}

/// The study the subcommand runs, announced on stderr. Each subcommand then
/// picks the pipeline: `Study::run` keeps the crawls for the passes that read
/// raw records (Table 4, the ablations, `export`), `Study::run_streaming`
/// drops each site once it is folded. Both print the same bytes.
fn study(args: &StudyArgs) -> Study {
    let mut study = configure_study(args);
    if let Some(path) = &args.from {
        // The archive carries its own seed/browser/fault meta; only the
        // worker count still applies (it sizes the detection shards).
        study.source = pii_suite::analysis::CaptureSource::Archive(path.into());
        eprintln!(
            "replaying capture archive {path} ({} workers)…",
            study.workers
        );
    } else {
        eprintln!(
            "running the measurement study (seed {:#x}, {} workers, fault profile {})…",
            study.spec.seed, study.workers, study.faults
        );
    }
    study
}

fn print_tables(r: &StudyResults) {
    println!("{}", aggregates::render(r));
    for t in table1::tables(r) {
        println!("{}", t.render());
    }
    println!("{}", figure2::table(r).render());
    println!("{}", table2::table(r).render());
    println!("{}", table3::table(r).render());
    if r.degradation.should_render() {
        println!("{}", degradation::table(&r.degradation).render());
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut args = args.as_slice();
    let mut study_args = StudyArgs {
        seed: None,
        workers: None,
        faults: FaultProfile::None,
        retries: None,
        metrics: false,
        trace: None,
        from: None,
        watchdog_ms: None,
        cache: None,
        repeat: None,
    };
    loop {
        match args.first().map(String::as_str) {
            Some("seed" | "--seed") => {
                let Some(value) = args.get(1).and_then(|s| {
                    s.strip_prefix("0x")
                        .map(|h| u64::from_str_radix(h, 16).ok())
                        .unwrap_or_else(|| s.parse().ok())
                }) else {
                    usage();
                };
                study_args.seed = Some(value);
                args = &args[2..];
            }
            Some("--workers") => {
                let Some(value) = args.get(1).and_then(|s| s.parse::<usize>().ok()) else {
                    usage();
                };
                study_args.workers = Some(value);
                args = &args[2..];
            }
            Some("--faults") => {
                let Some(value) = args.get(1).and_then(|s| s.parse::<FaultProfile>().ok()) else {
                    usage();
                };
                study_args.faults = value;
                args = &args[2..];
            }
            Some("--retries") => {
                let Some(value) = args.get(1).and_then(|s| s.parse::<u32>().ok()) else {
                    usage();
                };
                study_args.retries = Some(value);
                args = &args[2..];
            }
            Some("--metrics") => {
                study_args.metrics = true;
                args = &args[1..];
            }
            Some("--trace") => {
                let Some(path) = args.get(1) else { usage() };
                study_args.trace = Some(path.clone());
                args = &args[2..];
            }
            Some("--from") => {
                let Some(path) = args.get(1) else { usage() };
                study_args.from = Some(path.clone());
                args = &args[2..];
            }
            Some("--watchdog-ms") => {
                let Some(value) = args.get(1).and_then(|s| s.parse::<u64>().ok()) else {
                    usage();
                };
                study_args.watchdog_ms = Some(value);
                args = &args[2..];
            }
            Some("--cache") => {
                let Some(value) = args.get(1).and_then(|s| s.parse::<CacheStrategy>().ok()) else {
                    usage();
                };
                study_args.cache = Some(value);
                args = &args[2..];
            }
            Some("--repeat") => {
                let Some(value) = args.get(1).and_then(|s| s.parse::<u32>().ok()) else {
                    usage();
                };
                study_args.repeat = Some(value);
                args = &args[2..];
            }
            _ => break,
        }
    }
    // Telemetry stays strictly pass-through unless asked for: the global
    // collector is never even initialised without one of these flags.
    if study_args.metrics || study_args.trace.is_some() {
        pii_suite::telemetry::enable();
    }
    let Some(command) = args.first() else { usage() };
    match command.as_str() {
        "full" => {
            let r = study(&study_args).run();
            print_tables(&r);
            println!("{}", table4::table(&r).render());
            println!(
                "providers missed by the combined lists: {:?}\n",
                table4::missed_tracking_providers(&r)
            );
            let results = browsers::evaluate_all(&r);
            println!("{}", browsers::table(&r, &results).render());
            let mut comparisons = r.comparisons();
            comparisons.extend(table4::comparisons(&r));
            comparisons.extend(browsers::comparisons(&r, &results));
            let matches = comparisons.iter().filter(|c| c.matches).count();
            println!(
                "{matches}/{} comparisons match the paper",
                comparisons.len()
            );
        }
        "tables" => {
            let r = study(&study_args).run_streaming();
            print_tables(&r);
            if let Some(s) = r.stream {
                eprintln!(
                    "streamed {} sites in {} batches; peak resident segment bytes: {}",
                    s.sites, s.batches, s.peak_resident_bytes
                );
            }
        }
        "browsers" => {
            let r = study(&study_args).run_streaming();
            let results = browsers::evaluate_all(&r);
            println!("{}", browsers::table(&r, &results).render());
        }
        "blocklists" => {
            let r = study(&study_args).run();
            println!("{}", table4::table(&r).render());
            println!(
                "providers missed by the combined lists: {:?}",
                table4::missed_tracking_providers(&r)
            );
        }
        "ablations" => {
            let r = study(&study_args).run();
            println!("chain-depth recall:");
            for d in ablations::chain_depth_recall(&r, 2) {
                println!(
                    "  depth {}: {:>7} tokens, {:>3} senders, {:>5} events, recall {:.3}",
                    d.depth, d.candidate_tokens, d.senders_detected, d.events, d.recall
                );
            }
            let cmp = ablations::scanning_equivalence(&r);
            println!(
                "scanning: structured {} vs exhaustive {} senders; disagreements: {:?}",
                cmp.structured_senders, cmp.exhaustive_senders, cmp.disagreements
            );
        }
        "crowdsource" => {
            let k: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(3);
            let r = study(&study_args).run_streaming();
            eprintln!("running {k} contributor crawls…");
            let personas = crowdsource::contributor_personas(k);
            let reports = crowdsource::run_contributors(
                &r.universe,
                &personas,
                r.degradation.capture.workers,
            );
            let confirmed = crowdsource::confirm(&reports, 2);
            let crowd_only = confirmed
                .iter()
                .filter(|c| !c.single_persona_sufficient)
                .count();
            println!(
                "{} (receiver, param) identifiers confirmed by ≥2 of {k} contributors;",
                confirmed.len()
            );
            println!(
                "{crowd_only} of them were single-appearance for one persona — the gap §5.2 \
                 says crowdsourcing closes."
            );
            for c in confirmed
                .iter()
                .filter(|c| !c.single_persona_sufficient)
                .take(10)
            {
                println!(
                    "  {} via '{}' ({} contributors)",
                    c.receiver_domain, c.param, c.contributors
                );
            }
        }
        "stats" => {
            let r = study(&study_args).run_streaming();
            println!("{}", pii_suite::web::stats::compute(&r.universe).render());
        }
        "sweep" => {
            let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(5);
            eprintln!("running {n} seeded studies…");
            let seeds: Vec<u64> = (1..=n as u64).collect();
            let runs = pii_suite::analysis::robustness::sweep(&seeds);
            for run in &runs {
                println!(
                    "seed {:>3}: senders {} receivers {} trackers {} requests {}",
                    run.seed,
                    run.senders,
                    run.receivers,
                    run.confirmed_trackers,
                    run.leaking_requests
                );
            }
            println!("\nspread:");
            for s in pii_suite::analysis::robustness::spreads(&runs) {
                println!(
                    "  {:<26} min {:>8.2}  mean {:>8.2}  max {:>8.2}",
                    s.metric, s.min, s.mean, s.max
                );
            }
        }
        "counterfactual" => {
            let r = study(&study_args).run_streaming();
            let strict = counterfactual::strict_referrer(&r);
            println!(
                "strict-referrer enforcement: referer senders {} -> {}, total senders {} -> {}, receivers {} -> {}",
                strict.referer_senders.0,
                strict.referer_senders.1,
                strict.total_senders.0,
                strict.total_senders.1,
                strict.total_receivers.0,
                strict.total_receivers.1,
            );
            let cloak = counterfactual::no_cname_uncloaking(&r);
            println!(
                "host-only blocking: {} cloaked leak events from {} senders survive",
                cloak.surviving_cloaked_events, cloak.surviving_senders
            );
        }
        "crawl" => {
            let mut rest = &args[1..];
            let mut out: Option<std::path::PathBuf> = None;
            let mut resume = false;
            let mut kill: Option<pii_suite::store::FailPoint> = None;
            loop {
                match rest.first().map(String::as_str) {
                    Some("--out") => {
                        let Some(path) = rest.get(1) else { usage() };
                        out = Some(std::path::PathBuf::from(path));
                        rest = &rest[2..];
                    }
                    Some("--resume") => {
                        resume = true;
                        rest = &rest[1..];
                    }
                    Some("--kill") => {
                        let Some(point) = rest.get(1).and_then(|s| s.parse().ok()) else {
                            eprintln!(
                                "--kill takes after-header | mid-header:N | mid-payload:N | \
                                 after-segment:N | before-finalize | mid-footer | mid-trailer | at-byte:N"
                            );
                            usage();
                        };
                        kill = Some(point);
                        rest = &rest[2..];
                    }
                    None => break,
                    _ => usage(),
                }
            }
            let Some(out) = out else { usage() };
            if study_args.from.is_some() {
                eprintln!("crawl writes a new archive; --from does not apply");
                usage();
            }
            let study = configure_study(&study_args);
            eprintln!(
                "{} (seed {:#x}, {} workers, fault profile {}) into {}…",
                if resume { "resuming crawl" } else { "crawling" },
                study.spec.seed,
                study.workers,
                study.faults,
                out.display()
            );
            match study.crawl_to_archive_with(&out, resume, kill) {
                Ok((summary, crawl)) => {
                    let funnel = crawl.funnel;
                    println!(
                        "crawled {} sites ({} completed auth flows); archived {} segments, {} bytes ({:.2}x compression)",
                        funnel.total,
                        funnel.completed,
                        summary.segments,
                        summary.bytes_written,
                        summary.compression_ratio()
                    );
                    println!("replay with: pii-study --from {} tables", out.display());
                }
                Err(e) => {
                    eprintln!("crawl aborted: {e}");
                    eprintln!(
                        "the partial archive is resumable with: pii-study crawl --out {} --resume",
                        out.display()
                    );
                    std::process::exit(1);
                }
            }
        }
        "store" => {
            match (args.get(1).map(String::as_str), args.get(2)) {
                (Some("verify"), Some(path)) => {
                    let path = std::path::Path::new(path);
                    match pii_suite::store::verify(path) {
                        Ok(report) => {
                            print!("{}", report.render());
                            if !report.is_clean() {
                                std::process::exit(1);
                            }
                        }
                        Err(e) => {
                            eprintln!("cannot verify {}: {e}", path.display());
                            std::process::exit(1);
                        }
                    }
                }
                (Some("repair"), Some(path)) => {
                    let path = std::path::Path::new(path);
                    // Without `--out` the repair is in place; `repair` writes
                    // it beside the archive and renames it over once finalized.
                    let out = match (args.get(3).map(String::as_str), args.get(4)) {
                        (Some("--out"), Some(fixed)) => std::path::Path::new(fixed),
                        (None, _) => path,
                        _ => usage(),
                    };
                    match pii_suite::store::repair(path, out) {
                        Ok(s) => println!(
                            "repaired {}: {} segments recovered, {} sites quarantined, {} anonymous damaged regions dropped",
                            out.display(),
                            s.segments_recovered,
                            s.segments_quarantined,
                            s.regions_dropped
                        ),
                        Err(e) => {
                            eprintln!("cannot repair {}: {e}", path.display());
                            std::process::exit(1);
                        }
                    }
                }
                _ => usage(),
            }
        }
        "lint" => {
            // Invariant analyzer over the workspace sources (DESIGN §12).
            // `--json` emits the machine-readable diagnostic array; either
            // way the exit code is non-zero on any unsuppressed finding,
            // which is what `make lint-invariants` gates CI on.
            let json = match args.get(1).map(String::as_str) {
                Some("--json") => true,
                None => false,
                _ => usage(),
            };
            let root = std::env::current_dir().unwrap_or_else(|e| {
                eprintln!("cannot resolve working directory: {e}");
                std::process::exit(2);
            });
            let diags = pii_suite::lint::run_workspace(&root);
            if json {
                print!("{}", pii_suite::lint::render_json(&diags));
            } else {
                print!("{}", pii_suite::lint::render_human(&diags));
            }
            if !diags.is_empty() {
                std::process::exit(1);
            }
        }
        "export" => {
            let Some(dir) = args.get(1) else { usage() };
            let r = study(&study_args).run();
            let dir = std::path::Path::new(dir);
            dataset::build(&r).write_to(dir).expect("write dataset");
            std::fs::write(
                dir.join("capture.har"),
                pii_suite::crawler::har::export_json(&r.dataset),
            )
            .expect("write HAR");
            // Paper-vs-measured matrix as markdown.
            let mut md = String::from(
                "# Paper vs measured

| Metric | Paper | Measured | Match |
|---|---|---|---|
",
            );
            for c in r.comparisons() {
                md.push_str(&format!(
                    "| {} | {} | {} | {} |
",
                    c.metric,
                    c.paper,
                    c.measured,
                    if c.matches { "yes" } else { "**no**" }
                ));
            }
            std::fs::write(dir.join("comparisons.md"), md).expect("write comparisons");
            // Universe snapshot: the simulated internet as data.
            std::fs::write(
                dir.join("zones.zone"),
                pii_suite::dns::zonefile::serialize(&r.universe.zones),
            )
            .expect("write zones");
            std::fs::write(
                dir.join("sites.json"),
                serde_json::to_string_pretty(&r.universe.sites).expect("serializable"),
            )
            .expect("write sites");
            std::fs::write(
                dir.join("universe_stats.txt"),
                pii_suite::web::stats::compute(&r.universe).render(),
            )
            .expect("write stats");
            // The capture itself, replayable with `--from <dir>/study.store`.
            let meta = pii_suite::store::ArchiveMeta {
                spec: r.universe.spec.clone(),
                browser: r.dataset.browser,
                faults: r.degradation.profile,
            };
            pii_suite::store::write_archive(&dir.join("study.store"), &meta, &r.dataset)
                .expect("write capture archive");
            println!(
                "wrote dataset + HAR + comparisons + universe + capture archive to {}",
                dir.display()
            );
        }
        _ => usage(),
    }
    if study_args.metrics || study_args.trace.is_some() {
        let snapshot = pii_suite::telemetry::snapshot();
        if study_args.metrics {
            println!("{}", pii_suite::telemetry::report::render(&snapshot));
        }
        if let Some(path) = &study_args.trace {
            let json = pii_suite::telemetry::trace::chrome_trace_json(&snapshot);
            std::fs::write(path, json).expect("write trace");
            eprintln!("wrote Chrome trace to {path} (load in Perfetto or chrome://tracing)");
        }
    }
}
