//! `servebench` — load generator and differential gate for `psim-serve`.
//!
//! ```text
//! servebench [--clients N] [--n N] [--hot-iters K] [--check]
//!            [--engine fast|reference]
//!            [--min-speedup X] [--min-batch-speedup X]
//!            [--json[=FILE]] [--baseline FILE]
//! servebench --chaos [--json[=FILE]]
//! ```
//!
//! Spawns an in-process server, drives the full suite sweep plus the fuzz
//! corpus through `N` concurrent client connections (cold pass, then hot
//! passes against warm caches), and reports p50/p99 latency, throughput,
//! and the hot-over-cold geomean speedup.
//!
//! * `--check` — gate mode: exit 1 unless every served response is
//!   byte-identical to an uncached single-shot run (outputs, cycles,
//!   stats, remarks) with zero drops and zero misordered responses.
//! * `--min-speedup X` — with `--check`, also require the hot-over-cold
//!   geomean speedup to be at least X (the cache-effectiveness gate).
//! * `--min-batch-speedup X` — require the plan-share phase's
//!   client-observed throughput ratio (batches of up to `max_batch` over
//!   batches of one) to be at least X (the batching-effectiveness gate).
//! * `--engine E` — tag every request (and the single-shot references)
//!   with the given execution engine (default: fast).
//! * `--json` — print the JSON report on stdout; `--json=FILE` writes it
//!   to FILE and keeps the text summary on stdout (the CI artifact and
//!   `BENCH_servebench.json` baseline mode).
//! * `--chaos` — instead of the load test, sweep every registered serve
//!   fault site (one fresh server per site, that site armed) and exit 1
//!   unless each yields a byte-identical success, a structured error, or
//!   a clean close — never a hang, an escaped panic, or a byte-different
//!   success.
//!
//! Exit contract (as for every tool in this repo): 0 success, 1 gate or
//! runtime failure, 2 usage error.

use psim_serve::servebench::{run, run_chaos, ServeBenchConfig};
use telemetry::cli::Help;

const HELP: Help = Help {
    bin: "servebench",
    about: "Drives the suite kernels and the fuzz corpus through a psim-serve instance under \
            concurrent load, gating on byte-identity with uncached single-shot runs and on the \
            hot-cache speedup.",
    usage: "[options]",
    flags: &[
        ("--clients N", "concurrent client connections (default: 8)"),
        (
            "--n N",
            "Simd-Library workload size (positive multiple of 256; default: 1024)",
        ),
        (
            "--hot-iters K",
            "hot resubmissions per item, best reported (default: 2)",
        ),
        ("--check", "gate: exit 1 on any identity/drop/order failure"),
        (
            "--chaos",
            "sweep every registered serve fault site; exit 1 on any hang or wrong answer",
        ),
        (
            "--engine E",
            "execution engine for every request: fast or reference (default: fast)",
        ),
        (
            "--target T",
            "costing target for every request: x86-avx512 (default), x86-avx2, or sve-vla[:VL]",
        ),
        (
            "--min-speedup X",
            "with --check, require hot/cold geomean speedup >= X",
        ),
        (
            "--min-batch-speedup X",
            "require plan-share batched/unbatched rps ratio >= X",
        ),
        ("--json[=FILE]", "emit the JSON report to stdout or FILE"),
        (
            "--baseline FILE",
            "validate FILE's bench-schema/meta against this build",
        ),
        ("-h, --help", "print this help"),
        (
            "-V, --version",
            "print version, protocol, and toolchain info",
        ),
    ],
};

fn usage() -> ! {
    eprintln!(
        "usage: servebench [--clients N] [--n N] [--hot-iters K] [--check] \
         [--engine fast|reference] [--target x86-avx512|x86-avx2|sve-vla[:VL]] \
         [--min-speedup X] [--min-batch-speedup X] [--json[=FILE]] [--baseline FILE] \
         | servebench --chaos [--json[=FILE]]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    for a in &args {
        HELP.intercept(a, env!("CARGO_PKG_VERSION"));
    }
    let mut cfg = ServeBenchConfig::default();
    let mut min_speedup: Option<f64> = None;
    let mut min_batch_speedup: Option<f64> = None;
    let mut json_out: Option<Option<String>> = None;
    let mut baseline: Option<String> = None;
    let mut chaos = false;

    let parse_usize = |v: Option<&String>, what: &str| -> usize {
        let Some(v) = v else { usage() };
        match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("servebench: {what} takes a positive integer, got {v:?}");
                usage();
            }
        }
    };

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--clients" => {
                i += 1;
                cfg.clients = parse_usize(args.get(i), "--clients");
            }
            "--n" => {
                i += 1;
                let Some(v) = args.get(i) else { usage() };
                match v.parse::<u64>() {
                    Ok(n) if n >= 1 && n.is_multiple_of(256) => cfg.n = n,
                    _ => {
                        eprintln!("servebench: --n takes a positive multiple of 256, got {v:?}");
                        usage();
                    }
                }
            }
            "--hot-iters" => {
                i += 1;
                cfg.hot_iters = parse_usize(args.get(i), "--hot-iters");
            }
            "--check" => cfg.check = true,
            "--chaos" => chaos = true,
            "--engine" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    eprintln!("servebench: --engine requires a value");
                    usage();
                };
                match psir::Engine::from_flag(v) {
                    Some(e) => cfg.engine = e,
                    None => {
                        eprintln!(
                            "servebench: unknown engine {v:?} — \
                             --engine takes fast or reference"
                        );
                        usage();
                    }
                }
            }
            "--target" => {
                i += 1;
                let Some(v) = args.get(i) else {
                    eprintln!(
                        "servebench: --target requires a value; valid targets: {}",
                        vmach::VALID_TARGETS
                    );
                    usage();
                };
                match vmach::Target::parse(v) {
                    Ok(t) => cfg.target = t,
                    Err(e) => {
                        eprintln!("servebench: {e}");
                        usage();
                    }
                }
            }
            "--min-speedup" => {
                i += 1;
                let Some(v) = args.get(i) else { usage() };
                match v.parse::<f64>() {
                    Ok(x) if x > 0.0 => min_speedup = Some(x),
                    _ => {
                        eprintln!("servebench: --min-speedup takes a positive number, got {v:?}");
                        usage();
                    }
                }
            }
            "--min-batch-speedup" => {
                i += 1;
                let Some(v) = args.get(i) else { usage() };
                match v.parse::<f64>() {
                    Ok(x) if x > 0.0 => min_batch_speedup = Some(x),
                    _ => {
                        eprintln!(
                            "servebench: --min-batch-speedup takes a positive number, got {v:?}"
                        );
                        usage();
                    }
                }
            }
            "--json" => json_out = Some(None),
            flag if flag.starts_with("--json=") => {
                json_out = Some(Some(flag["--json=".len()..].to_string()));
            }
            "--baseline" => {
                i += 1;
                let Some(v) = args.get(i) else { usage() };
                baseline = Some(v.clone());
            }
            other => {
                eprintln!("servebench: unknown flag {other}");
                usage();
            }
        }
        i += 1;
    }

    if chaos {
        let report = match run_chaos() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("servebench: chaos harness error: {e}");
                std::process::exit(1);
            }
        };
        let json = report.to_json().to_string_pretty();
        match &json_out {
            Some(None) => println!("{json}"),
            Some(Some(path)) => {
                if let Err(e) = std::fs::write(path, format!("{json}\n")) {
                    eprintln!("servebench: cannot write {path}: {e}");
                    std::process::exit(1);
                }
                print!("{}", report.render_text());
            }
            None => print!("{}", report.render_text()),
        }
        if !report.failures.is_empty() {
            eprintln!(
                "servebench: CHAOS GATE FAILED: {} violation(s)",
                report.failures.len()
            );
            std::process::exit(1);
        }
        eprintln!(
            "servebench: chaos gate ok ({} site(s): structured error or clean close everywhere)",
            report.outcomes.len()
        );
        return;
    }

    // Baselines must be self-describing: reject version/tool skew loudly
    // before any numbers are compared against them.
    if let Some(path) = &baseline {
        if let Err(e) = psim_bench_check_baseline(path) {
            eprintln!("servebench: GATE FAILED: baseline {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("servebench: baseline {path} schema ok");
    }

    let report = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("servebench: error: {e}");
            std::process::exit(1);
        }
    };

    let json = report.to_json().to_string_pretty();
    match &json_out {
        Some(None) => println!("{json}"),
        Some(Some(path)) => {
            if let Err(e) = std::fs::write(path, format!("{json}\n")) {
                eprintln!("servebench: cannot write {path}: {e}");
                std::process::exit(1);
            }
            print!("{}", report.render_text());
        }
        None => print!("{}", report.render_text()),
    }

    if cfg.check {
        if !report.failures.is_empty() {
            eprintln!(
                "servebench: GATE FAILED: {} response(s) differ, dropped, or misordered",
                report.failures.len()
            );
            for f in report.failures.iter().take(20) {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
        if let Some(min) = min_speedup {
            let s = report.geomean_speedup();
            if s < min {
                eprintln!(
                    "servebench: GATE FAILED: hot/cold geomean speedup {s:.2}x below \
                     required {min:.2}x"
                );
                std::process::exit(1);
            }
        }
        eprintln!(
            "servebench: gate ok ({} requests byte-identical to single-shot, zero drops, \
             {:.2}x hot/cold geomean)",
            report.requests,
            report.geomean_speedup()
        );
    }

    if let Some(min) = min_batch_speedup {
        match &report.plan_share {
            Some(ps) => {
                let s = ps.speedup();
                if s < min {
                    eprintln!(
                        "servebench: GATE FAILED: plan-share batched/unbatched throughput \
                         {s:.2}x below required {min:.2}x ({:.0} vs {:.0} rps)",
                        ps.on_rps, ps.off_rps
                    );
                    std::process::exit(1);
                }
                eprintln!(
                    "servebench: batch gate ok ({s:.2}x client-observed rps, \
                     {} batches, {:.1} mean members)",
                    ps.batches_formed,
                    ps.mean_batch_size()
                );
            }
            None => {
                eprintln!("servebench: GATE FAILED: this run produced no plan-share phase");
                std::process::exit(1);
            }
        }
    }
}

/// Baseline schema validation (same front door as the other bench tools;
/// inlined here because `psim-serve` does not depend on `psim-bench`).
fn psim_bench_check_baseline(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let json = telemetry::Json::parse(&text).map_err(|e| format!("invalid JSON: {e}"))?;
    telemetry::cli::check_bench_meta(&json, "servebench")
}
