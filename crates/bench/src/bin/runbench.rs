//! `runbench` — wall-clock execution benchmark and identity gate for the
//! interpreter's fast engine.
//!
//! Executes the suite kernels (the Figure 5 Simd-Library set at workload
//! size `N`, plus the Figure 4 ispc set at tiny sizes) through both
//! interpreter engines — the precompiled `FramePlan` fast path and the
//! retained reference step loop — and reports per-kernel best-of-`K` wall
//! times, the geomean speedup, and whether the engines were byte-identical
//! in simulated cycles, checked outputs, execution statistics, and profile
//! JSON.
//!
//! `--check` is gate mode: exit 1 unless every kernel is engine-identical.
//! `--json=FILE` writes the report (the CI artifact and
//! `BENCH_runbench.json` baseline mode); run `runbench --help` for every
//! flag.
//!
//! Exit contract (as for every tool in this repo): 0 success, 1 gate or
//! runtime failure, 2 usage error.

use psim_bench::runbench::{run, RunBenchConfig};
use telemetry::cli::{positive, positive_multiple_of, Flag, Help, Meta};
use vmach::Target;

const HELP: Help = Help {
    bin: "runbench",
    about: "Times the suite kernels under the fast and reference interpreter engines, \
            gating on their byte-identity contract.",
    flags: &[
        Flag::value(
            &["--target"],
            "T",
            "costing machine: x86-avx512 (default), x86-avx2, or sve-vla[:VL]",
        ),
        Flag::value(
            &["--n"],
            "N",
            "Simd-Library workload size (positive multiple of 256)",
        ),
        Flag::value(
            &["--iters"],
            "K",
            "best-of-K wall-clock measurement (default: 3)",
        ),
        Flag::switch(
            &["--check"],
            "gate: exit 1 unless every kernel is engine-identical",
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
    let mut cfg = RunBenchConfig::default();
    if let Some(target) = args.value("--target", Target::parse) {
        cfg.target = target;
    }
    if let Some(n) = args.value("--n", positive_multiple_of(256)) {
        cfg.n = n;
    }
    if let Some(iters) = args.value("--iters", positive) {
        cfg.iters = iters;
    }
    let baseline = args.baseline();

    let report = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("runbench: error: {e}");
            std::process::exit(1);
        }
    };
    let json = report.to_json();
    args.write_report(&json, &report.render_text());
    if let Some(baseline) = &baseline {
        baseline.check_shape(&json);
    }

    if args.has("--check") {
        if !report.all_identical() {
            let bad: Vec<String> = report
                .rows
                .iter()
                .filter(|r| !r.identical)
                .map(|r| format!("{}/{}", r.kernel, r.config))
                .collect();
            eprintln!(
                "runbench: GATE FAILED: fast engine differs from reference on: {}",
                bad.join(", ")
            );
            std::process::exit(1);
        }
        eprintln!(
            "runbench: gate ok (engines identical on {} kernel runs, {:.2}x geomean speedup)",
            report.rows.len(),
            report.geomean_speedup()
        );
    }
}
