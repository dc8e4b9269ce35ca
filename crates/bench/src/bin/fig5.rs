//! Figure 5: speedup over scalar compilation on 72 Simd Library benchmarks.
//!
//! Paper numbers (Xeon Gold 6258R, AVX-512): auto-vectorization geomean
//! 3.46×, Parsimony 7.70×, hand-written intrinsics 7.91×; Parsimony reaches
//! 0.97× of hand-written. This harness prints the same three series from
//! the simulated-cycle cost model, plus the shape-analysis ablation when
//! requested.
//!
//! Run `fig5 --help` for the flags. `-j N` / `--jobs N` sets the
//! region-compilation worker count for every kernel build (default:
//! `PSIM_JOBS` or the available parallelism); results are identical at
//! every level, only compile time changes.

use psim_bench::{
    cell, figure_flags, geomean_speedup, measure_iters, profile_kernels, total_wall_ms, ProfileMode,
};
use suite::runner::{run_kernel_with, Config};
use suite::simdlib::{kernels, DEFAULT_N};
use telemetry::cli::{positive_multiple_of, Flag, Help, Meta};
use vmach::{Target, TargetCost};

const HELP: Help = Help {
    bin: "fig5",
    about: "Reproduces Figure 5: speedup over scalar compilation on the 72 Simd Library \
            kernels (autovec, Parsimony, hand-written intrinsics).",
    flags: &[
        Flag::value(&["--n"], "N", "element count (positive multiple of 256)"),
        Flag::value(
            &["--iters"],
            "N",
            "best-of-N wall-clock measurement (default: 1)",
        ),
        Flag::switch(&["--no-shape"], "add the shape-analysis ablation column"),
        Flag::switch(
            &["--stride-window"],
            "add the strided-shuffle window ablation",
        ),
        Flag::optional(
            &["--profile"],
            Meta::OneOf(&["text", "json"]),
            "print the cycle-attribution profile (default: text)",
        ),
        Flag::value(
            &["--target"],
            "T",
            "costing machine: x86-avx512 (default), x86-avx2, or sve-vla[:VL]",
        ),
        Flag::switch(
            &["--target-matrix"],
            "add the target×config matrix table (all targets, same IR)",
        ),
        Flag::value(&["-j", "--jobs"], "N", "region-compilation worker count"),
    ],
};

fn main() {
    // As in fig4: failures become a one-line formatted error and a nonzero
    // exit, never a Rust panic backtrace.
    if let Err(msg) = parsimony::fault::catch_pass_panic(run) {
        eprintln!("fig5: error: {msg}");
        std::process::exit(1);
    }
}

fn run() {
    let args = HELP.parse(env!("CARGO_PKG_VERSION"));
    let (iters, profile_mode) = figure_flags(&args);
    let n = args
        .value("--n", positive_multiple_of(256))
        .unwrap_or(DEFAULT_N);
    let with_noshape = args.has("--no-shape");

    if profile_mode == ProfileMode::Json {
        let profile = profile_kernels(&kernels(n), &[Config::Parsimony]);
        println!("{}", profile.to_json().to_string_pretty());
        return;
    }

    let mut cfgs = vec![
        Config::Scalar,
        Config::Autovec,
        Config::Parsimony,
        Config::Handwritten,
    ];
    if with_noshape {
        cfgs.push(Config::ParsimonyNoShape);
    }

    eprintln!("figure 5: 72 Simd Library kernels, n = {n} elements");
    let ks = kernels(n);
    let rows = measure_iters(&ks, &cfgs, iters);

    println!(
        "{:<22} {:>8} {:>8} {:>8} {:>9}{}",
        "kernel",
        "autovec",
        "parsim",
        "hand",
        "wall(ms)",
        if with_noshape { "  noshape" } else { "" }
    );
    println!("{}", "-".repeat(if with_noshape { 70 } else { 60 }));
    for r in &rows {
        let a = r.speedup(Config::Autovec, Config::Scalar);
        let p = r.speedup(Config::Parsimony, Config::Scalar);
        let h = r.speedup(Config::Handwritten, Config::Scalar);
        print!(
            "{:<22} {} {} {} {:>9.2}",
            r.name,
            cell(a),
            cell(p),
            cell(h),
            r.wall_ms(Config::Parsimony)
        );
        if with_noshape {
            let ns = r.speedup(Config::ParsimonyNoShape, Config::Scalar);
            print!(" {}", cell(ns));
        }
        println!();
    }
    println!("{}", "-".repeat(if with_noshape { 70 } else { 60 }));
    println!(
        "wall time (parsimony, best of {iters}): {:.1} ms total",
        total_wall_ms(&rows, Config::Parsimony)
    );

    let ga = geomean_speedup(&rows, Config::Autovec, Config::Scalar);
    let gp = geomean_speedup(&rows, Config::Parsimony, Config::Scalar);
    let gh = geomean_speedup(&rows, Config::Handwritten, Config::Scalar);
    println!("geomean speedup over scalar:");
    println!("  LLVM-style auto-vectorization : {ga:5.2}x   (paper: 3.46x)");
    println!("  Parsimony                     : {gp:5.2}x   (paper: 7.70x)");
    println!("  hand-written vector code      : {gh:5.2}x   (paper: 7.91x)");
    if with_noshape {
        let gn = geomean_speedup(&rows, Config::ParsimonyNoShape, Config::Scalar);
        println!("  Parsimony without shape analysis : {gn:5.2}x   (ablation)");
    }
    let ratio = gp / gh;
    println!(
        "Parsimony / hand-written              : {ratio:5.2}   (paper: 0.97; artifact gate: > 0.90)"
    );
    println!(
        "Parsimony / auto-vectorization        : {:5.2}   (paper: 2.23x)",
        gp / ga
    );
    assert!(
        ratio > 0.90,
        "artifact acceptance requires Parsimony ≥ 90% of hand-written"
    );
    assert!(gp > ga, "Parsimony must beat the auto-vectorizer overall");

    if profile_mode == ProfileMode::Text {
        let profile = profile_kernels(&ks, &[Config::Parsimony]);
        println!("\ncycle-attribution profile (per kernel/config/function):");
        print!("{}", profile.render_text());
    }

    if args.has("--stride-window") {
        // §4.2.3 ablation: the strided-shuffle window (default 4× the gang
        // size). Window 0 forces gather/scatter on every non-unit stride;
        // the difference is the packed+shuffle payoff.
        use parsimony::VectorizeOptions;
        use suite::runner::run_kernel_custom;
        println!("\nstride-window ablation (Parsimony cycles):");
        println!(
            "{:<22} {:>12} {:>12} {:>8}",
            "kernel", "window=4", "window=0", "ratio"
        );
        for name in [
            "deinterleave2_u8",
            "interleave2_u8",
            "bgr_to_gray",
            "gray_to_bgr",
            "extract_g_u8",
            "reverse_u8",
        ] {
            let k = ks.iter().find(|k| k.name == name).expect("kernel");
            let w4 = run_kernel_custom(k, &VectorizeOptions::default()).expect("runs");
            let w0 = run_kernel_custom(
                k,
                &VectorizeOptions {
                    stride_window: 0,
                    ..VectorizeOptions::default()
                },
            )
            .expect("runs");
            assert_eq!(
                w4.outputs, w0.outputs,
                "{name}: window must not change results"
            );
            println!(
                "{:<22} {:>12} {:>12} {:>8.2}",
                name,
                w4.cycles,
                w0.cycles,
                w0.cycles as f64 / w4.cycles as f64
            );
        }
    }

    if args.has("--target-matrix") {
        // The target×config matrix: the *same* compiled IR priced on every
        // modeled machine, fixed-width and scalable — §4.3 portability, with
        // no recompilation of the SPMD program, only a different back-end
        // cost. Outputs are identical by construction (targets never change
        // semantics); only cycle attribution moves. A subset of kernels
        // keeps it quick.
        let targets = [
            Target::avx512(),
            Target::avx2(),
            Target::sve(128),
            Target::sve(512),
            Target::sve(2048),
        ];
        let matrix_cfgs = [Config::Autovec, Config::Parsimony, Config::Handwritten];
        println!("\ntarget×config matrix (speedup over scalar, same IR):");
        print!("{:<22} {:<14}", "kernel", "target");
        for c in matrix_cfgs {
            print!(" {:>9}", c.label());
        }
        println!();
        for k in ks.iter().take(8) {
            for t in &targets {
                let cost = TargetCost::for_target(t.clone());
                let scalar = run_kernel_with(k, Config::Scalar, &cost).expect("runs");
                print!("{:<22} {:<14}", k.name, t.flag_name());
                let mut outputs = scalar.outputs.clone();
                for c in matrix_cfgs {
                    let r = run_kernel_with(k, c, &cost).expect("runs");
                    assert_eq!(
                        r.outputs,
                        outputs,
                        "{}: target {} changed results under {}",
                        k.name,
                        t.flag_name(),
                        c.label()
                    );
                    outputs = r.outputs;
                    print!(" {:>9.2}", scalar.cycles as f64 / r.cycles as f64);
                }
                println!();
            }
        }
    }
}
