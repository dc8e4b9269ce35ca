//! `servebench` — load generator and differential gate for `psim-serve`.
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
//! * `--chaos` — instead of the load test, sweep every registered serve
//!   fault site (one fresh server per site, that site armed) and exit 1
//!   unless each yields a byte-identical success, a structured error, or
//!   a clean close — never a hang, an escaped panic, or a byte-different
//!   success.
//!
//! Run `servebench --help` for every flag.
//!
//! Exit contract (as for every tool in this repo): 0 success, 1 gate or
//! runtime failure, 2 usage error.

use psim_serve::servebench::{run, run_chaos, ServeBenchConfig};
use psir::Engine;
use telemetry::cli::{positive, positive_finite, positive_multiple_of, Flag, Help, Meta};
use vmach::Target;

const HELP: Help = Help {
    bin: "servebench",
    about: "Drives the suite kernels and the fuzz corpus through a psim-serve instance under \
            concurrent load, gating on byte-identity with uncached single-shot runs and on the \
            hot-cache speedup.",
    flags: &[
        Flag::value(
            &["--clients"],
            "N",
            "concurrent client connections (default: 8)",
        ),
        Flag::value(
            &["--n"],
            "N",
            "Simd-Library workload size (positive multiple of 256; default: 1024)",
        ),
        Flag::value(
            &["--hot-iters"],
            "K",
            "hot resubmissions per item, best reported (default: 2)",
        ),
        Flag::switch(
            &["--check"],
            "gate: exit 1 on any identity/drop/order failure",
        ),
        Flag::switch(
            &["--chaos"],
            "sweep every registered serve fault site; exit 1 on any hang or wrong answer",
        ),
        Flag::value(
            &["--engine"],
            "E",
            "execution engine for every request: fast or reference (default: fast)",
        ),
        Flag::value(
            &["--target"],
            "T",
            "costing target for every request: x86-avx512 (default), x86-avx2, or sve-vla[:VL]",
        ),
        Flag::value(
            &["--min-speedup"],
            "X",
            "with --check, require hot/cold geomean speedup >= X",
        ),
        Flag::value(
            &["--min-batch-speedup"],
            "X",
            "require plan-share batched/unbatched rps ratio >= X",
        ),
        Flag::optional(
            &["--json"],
            Meta::Name("FILE"),
            "emit the JSON report to stdout or FILE",
        ),
        Flag::value(
            &["--baseline"],
            "FILE",
            "gate on FILE's bench-schema/meta and report shape matching this build",
        ),
    ],
};

fn main() {
    let args = HELP.parse(env!("CARGO_PKG_VERSION"));
    let mut cfg = ServeBenchConfig::default();
    if let Some(clients) = args.value("--clients", positive) {
        cfg.clients = clients;
    }
    if let Some(n) = args.value("--n", positive_multiple_of(256)) {
        cfg.n = n;
    }
    if let Some(hot_iters) = args.value("--hot-iters", positive) {
        cfg.hot_iters = hot_iters;
    }
    if let Some(engine) = args.value("--engine", Engine::from_flag) {
        cfg.engine = engine;
    }
    if let Some(target) = args.value("--target", Target::parse) {
        cfg.target = target;
    }
    cfg.check = args.has("--check");
    let min_speedup = args.value("--min-speedup", positive_finite);
    let min_batch_speedup = args.value("--min-batch-speedup", positive_finite);

    if args.has("--chaos") {
        let report = match run_chaos() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("servebench: chaos harness error: {e}");
                std::process::exit(1);
            }
        };
        args.write_report(&report.to_json(), &report.render_text());
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

    let baseline = args.baseline();
    let report = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("servebench: error: {e}");
            std::process::exit(1);
        }
    };

    let json = report.to_json();
    args.write_report(&json, &report.render_text());
    if let Some(baseline) = &baseline {
        baseline.check_shape(&json);
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
