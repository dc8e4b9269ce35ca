//! `psim-fuzz` — the shared fuzzing driver for local runs, corpus
//! regeneration, and the CI `fuzz-smoke` gate.
//!
//! Each seed deterministically generates one SPMD program and runs it
//! through the four-way differential oracle (SPMD reference, vectorized
//! pipeline under both interpreter engines, forced scalar fallback) across
//! a gang-size and thread-count sweep. On failure the integrated shrinker
//! minimizes the program and a self-contained repro file is written under
//! `--out` (default `fuzz-artifacts/`). Run `psim-fuzz --help` for every
//! flag.
//!
//! `PSIM_INJECT_FAULT=<pass>:<site>` is honored: the vectorizing
//! configurations then run the fault-degraded pipeline, differentially
//! checking scalar fallback regions against the SPMD reference.
//!
//! Exit status: 0 all seeds passed, 1 failures found, 2 usage error.

use psim_fuzz::oracle::{run_case, run_program, OracleOptions, Verdict};
use psim_fuzz::shrink::{shrink, size};
use psim_fuzz::{generate, write_repro};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use telemetry::cli::{non_negative, positive, Args, Flag, Help, Meta};
use telemetry::Json;

const HELP: Help = Help {
    bin: "psim-fuzz",
    about: "Differentially fuzzes the vectorization pipeline: each seed generates a \
            deterministic SPMD program and checks the SPMD reference, both vectorized \
            engines, and the scalar fallback for byte-identical results. Honors \
            PSIM_INJECT_FAULT; failures are minimized and written as repro files.",
    flags: &[
        Flag::value(&["--seeds"], "N", "number of seeds to run (default: 100)"),
        Flag::value(&["--seed-start"], "K", "first seed (default: 0)"),
        Flag::value(
            &["-j", "--jobs"],
            "J",
            "worker threads (default: available parallelism)",
        ),
        Flag::optional(
            &["--json"],
            Meta::Name("PATH"),
            "write a JSON report to stdout or PATH",
        ),
        Flag::value(
            &["--out"],
            "DIR",
            "repro output directory (default: fuzz-artifacts)",
        ),
        Flag::value(
            &["--max-shrink-evals"],
            "M",
            "shrinker evaluation budget (default: 300)",
        ),
        Flag::switch(&["-q", "--quiet"], "suppress progress output"),
    ],
};

struct Config {
    seeds: u64,
    seed_start: u64,
    jobs: usize,
    out_dir: String,
    max_shrink_evals: u64,
    quiet: bool,
}

impl Config {
    fn from_args(args: &Args) -> Config {
        Config {
            seeds: args.value("--seeds", non_negative).unwrap_or(100),
            seed_start: args.value("--seed-start", non_negative).unwrap_or(0),
            jobs: args.value("--jobs", positive).unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            }),
            out_dir: args.str("--out").unwrap_or("fuzz-artifacts").to_string(),
            max_shrink_evals: args
                .value("--max-shrink-evals", non_negative)
                .unwrap_or(300),
            quiet: args.has("--quiet"),
        }
    }
}

struct SeedOutcome {
    seed: u64,
    failure: Option<FailureReport>,
}

struct FailureReport {
    kind: &'static str,
    detail: String,
    repro_path: Option<String>,
    shrink_evals: u64,
    shrunk_size: u64,
}

fn run_seed(seed: u64, args: &Config, opts: &OracleOptions) -> SeedOutcome {
    let program = generate(seed);
    let verdict = run_program(&program, opts);
    let Some(orig) = verdict.failure().cloned() else {
        return SeedOutcome {
            seed,
            failure: None,
        };
    };

    // Minimize, preserving the failure classification.
    let kind = orig.kind;
    let (shrunk, stats) = shrink(
        &program,
        |cand| match run_program(cand, opts) {
            Verdict::Fail(f) => f.kind == kind,
            Verdict::Pass => false,
        },
        args.max_shrink_evals,
    );

    // Locate the failing case of the minimized program (fall back to the
    // original first case if minimization somehow lost the failure).
    let mut repro_case = None;
    let mut final_detail = orig.detail.clone();
    for case in shrunk.cases() {
        if let Verdict::Fail(f) = run_case(&case, opts) {
            final_detail = f.detail.clone();
            repro_case = Some((case, f));
            break;
        }
    }
    let repro_path = repro_case.map(|(case, f)| {
        let _ = std::fs::create_dir_all(&args.out_dir);
        let path = format!("{}/repro-seed{seed}.psim", args.out_dir);
        let text = write_repro(&case, Some(seed), Some(&f));
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("psim-fuzz: cannot write {path}: {e}");
        }
        path
    });
    SeedOutcome {
        seed,
        failure: Some(FailureReport {
            kind: kind.name(),
            detail: final_detail,
            repro_path,
            shrink_evals: stats.evals,
            shrunk_size: size(&shrunk),
        }),
    }
}

fn main() {
    let cli = HELP.parse(env!("CARGO_PKG_VERSION"));
    let args = Config::from_args(&cli);
    let opts = OracleOptions::default();
    if !args.quiet {
        if let Some(inj) = &opts.inject {
            eprintln!("psim-fuzz: fault injection armed ({inj:?}); checking degraded pipeline");
        }
    }

    let next = AtomicU64::new(0);
    let results: Mutex<Vec<Option<SeedOutcome>>> =
        Mutex::new((0..args.seeds).map(|_| None).collect());
    let workers = args.jobs.min(args.seeds.max(1) as usize);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= args.seeds {
                    return;
                }
                let outcome = run_seed(args.seed_start + k, &args, &opts);
                if !args.quiet {
                    if let Some(f) = &outcome.failure {
                        eprintln!(
                            "psim-fuzz: seed {}: FAIL [{}] {}",
                            outcome.seed, f.kind, f.detail
                        );
                    }
                }
                results.lock().unwrap()[k as usize] = Some(outcome);
            });
        }
    });

    let results = results.into_inner().unwrap();
    let outcomes: Vec<SeedOutcome> = results.into_iter().map(|o| o.expect("seed ran")).collect();
    let failed: Vec<&SeedOutcome> = outcomes.iter().filter(|o| o.failure.is_some()).collect();
    let passed = outcomes.len() - failed.len();

    if cli.has("--json") {
        let report = Json::obj(vec![
            ("tool", Json::Str("psim-fuzz".into())),
            ("seed_start", Json::u64(args.seed_start)),
            ("seeds", Json::u64(args.seeds)),
            ("passed", Json::u64(passed as u64)),
            ("failed", Json::u64(failed.len() as u64)),
            (
                "fault_injection",
                match &opts.inject {
                    Some(i) => Json::Str(format!("{i:?}")),
                    None => Json::Null,
                },
            ),
            (
                "failures",
                Json::Arr(
                    failed
                        .iter()
                        .map(|o| {
                            let f = o.failure.as_ref().unwrap();
                            Json::obj(vec![
                                ("seed", Json::u64(o.seed)),
                                ("kind", Json::Str(f.kind.into())),
                                ("detail", Json::Str(f.detail.clone())),
                                (
                                    "repro",
                                    match &f.repro_path {
                                        Some(p) => Json::Str(p.clone()),
                                        None => Json::Null,
                                    },
                                ),
                                ("shrink_evals", Json::u64(f.shrink_evals)),
                                ("shrunk_size", Json::u64(f.shrunk_size)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        cli.write_report(&report, "");
    }

    if !args.quiet {
        eprintln!(
            "psim-fuzz: {} seeds ({}..{}): {passed} passed, {} failed",
            args.seeds,
            args.seed_start,
            args.seed_start + args.seeds,
            failed.len()
        );
        for o in &failed {
            let f = o.failure.as_ref().unwrap();
            if let Some(p) = &f.repro_path {
                eprintln!(
                    "psim-fuzz: seed {}: minimized repro at {p} (size {}, {} shrink evals)",
                    o.seed, f.shrunk_size, f.shrink_evals
                );
            }
        }
    }
    std::process::exit(if failed.is_empty() { 0 } else { 1 });
}
