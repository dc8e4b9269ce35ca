//! `compbench` — compile-time benchmark and determinism gate for the
//! parallel region driver.
//!
//! Synthesizes a module with `M` independent SPMD regions, compiles it with
//! the pipeline serially and with `N` workers, and reports the wall times,
//! the speedup ratio, and whether the parallel output (printed module +
//! canonical remark stream) is byte-identical to the serial one.
//!
//! `--check` is gate mode: exit 1 unless the outputs are identical (and,
//! when `--min-speedup X` is given, the measured speedup is at least X).
//! Run `compbench --help` for every flag.
//!
//! Exit contract (as for every tool in this repo): 0 success, 1 gate or
//! pipeline failure, 2 usage error.

use psim_bench::compbench::{run, CompBenchConfig};
use telemetry::cli::{positive, positive_finite, Flag, Help, Meta};

const HELP: Help = Help {
    bin: "compbench",
    about: "Times serial vs parallel region compilation over a synthesized module, gating \
            on byte-identical output and the compile-time speedup.",
    flags: &[
        Flag::value(
            &["--regions"],
            "M",
            "synthesized SPMD region count (default: 64)",
        ),
        Flag::value(
            &["-j", "--jobs"],
            "N",
            "parallel worker count (default: available parallelism)",
        ),
        Flag::value(
            &["--iters"],
            "K",
            "best-of-K wall-clock measurement (default: 3)",
        ),
        Flag::switch(
            &["--check"],
            "gate: exit 1 unless parallel output is byte-identical",
        ),
        Flag::value(
            &["--min-speedup"],
            "X",
            "with --check, also require speedup >= X",
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
    let mut cfg = CompBenchConfig::default();
    if let Some(regions) = args.value("--regions", positive) {
        cfg.regions = regions;
    }
    if let Some(jobs) = args.value("--jobs", positive) {
        cfg.jobs = jobs;
    }
    if let Some(iters) = args.value("--iters", positive) {
        cfg.iters = iters;
    }
    let min_speedup = args.value("--min-speedup", positive_finite);
    let baseline = args.baseline();

    let report = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("compbench: error: {e}");
            std::process::exit(1);
        }
    };
    let json = report.to_json();
    args.write_report(&json, &report.render_text());
    if let Some(baseline) = &baseline {
        baseline.check_shape(&json);
    }

    if args.has("--check") {
        if !report.identical {
            eprintln!(
                "compbench: GATE FAILED: parallel (jobs={}) output differs from serial",
                report.config.jobs
            );
            std::process::exit(1);
        }
        if let Some(min) = min_speedup {
            let s = report.speedup();
            if s < min {
                eprintln!("compbench: GATE FAILED: speedup {s:.2}x below required {min:.2}x");
                std::process::exit(1);
            }
        }
        eprintln!(
            "compbench: gate ok (identical output, {:.2}x speedup at jobs={})",
            report.speedup(),
            report.config.jobs
        );
    }
}
