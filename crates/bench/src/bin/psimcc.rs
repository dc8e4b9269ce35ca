//! `psimcc` — a command-line driver for the PsimC → Parsimony toolchain.
//!
//! Run `psimcc --help` for the flag list. What the flags do:
//!
//! * `--emit scalar` prints the front-end's IR (outlined regions + gang
//!   loops); `--emit vector` (default) prints the module after the
//!   Parsimony pass.
//! * `--run ENTRY` executes the named function on the virtual AVX-512
//!   machine. Integer arguments are passed as `i64`; an argument of the
//!   form `buf:N` allocates a zeroed N-byte buffer and passes its address
//!   (its contents are hex-dumped after the run).
//! * `--cycles` prints the simulated cycle count.
//! * `--remarks text|json` prints the pipeline's structured optimization
//!   remarks (shape summaries, memory-op selection, linearization, math
//!   dispatch, …) in deterministic order instead of the vector IR.
//! * `--verify off|fallback|strict` controls in-pipeline IR verification
//!   (default `fallback`: a variant that fails verification degrades its
//!   region to a scalar gang-serialized loop; `strict` makes any region
//!   failure a hard located error).
//! * `--inject-fault PASS:SITE` deterministically injects a fault at a
//!   registered pipeline site (see `--inject-fault help`), exercising the
//!   degradation machinery end to end.
//! * `-j N` / `--jobs N` sets the region-compilation worker count (default:
//!   `PSIM_JOBS` or the available parallelism). Output is byte-identical at
//!   every level; `-j` only changes compile time.

use parsimony::{
    vectorize_module_with, FaultInjector, PipelineOptions, VectorizeOptions, VerifyMode,
};
use psir::{Engine, Interp, Memory, RtVal};
use telemetry::cli::{positive, Flag, Help};
use vmach::{Target, TargetCost};
use vmath::RuntimeExterns;

const HELP: Help = Help {
    bin: "psimcc",
    about: "Compiles PsimC through the Parsimony SPMD vectorizer; optionally runs the result \
            on the simulated AVX-512 machine.",
    flags: &[
        Flag::positional(&["FILE"], "the PsimC source file"),
        Flag::choice(
            &["--emit"],
            &["scalar", "vector"],
            "print front-end IR or vectorized IR (default: vector)",
        ),
        Flag::switch(&["--gang-sync"], "gang-synchronous (ispc-like) mode"),
        Flag::switch(&["--no-shape"], "disable shape analysis"),
        Flag::switch(&["--boscc"], "insert branch-on-superword-condition guards"),
        Flag::choice(
            &["--remarks"],
            &["text", "json"],
            "print structured optimization remarks",
        ),
        Flag::choice(
            &["--verify"],
            &["off", "fallback", "strict"],
            "in-pipeline IR verification mode (default: fallback)",
        ),
        Flag::value(
            &["--inject-fault"],
            "PASS:SITE",
            "deterministically inject a pipeline fault",
        ),
        Flag::value(&["-j", "--jobs"], "N", "region-compilation worker count"),
        Flag::rest(
            &["--run"],
            "ENTRY [ARG…]",
            "execute ENTRY (ints, floats, or buf:N buffer args)",
        ),
        Flag::value(
            &["--engine"],
            "E",
            "interpreter engine for --run: fast (default) or reference",
        ),
        Flag::value(
            &["--target"],
            "T",
            "machine for --run costing: x86-avx512 (default), x86-avx2, or sve-vla[:VL]",
        ),
        Flag::switch(&["--cycles"], "print the simulated cycle count"),
    ],
};

fn main() {
    let args = HELP.parse(env!("CARGO_PKG_VERSION"));
    let mut opts = if args.has("--gang-sync") {
        VectorizeOptions::gang_synchronous()
    } else {
        VectorizeOptions::default()
    };
    opts.enable_shape &= !args.has("--no-shape");
    opts.boscc |= args.has("--boscc");
    let mut popts = PipelineOptions::default();
    if let Some(mode) = args.str("--verify").and_then(VerifyMode::parse) {
        popts.verify = mode;
    }
    if let Some(inject) = args.value("--inject-fault", FaultInjector::parse) {
        popts.inject = Some(inject);
    }
    if let Some(target) = args.value("--target", Target::parse) {
        popts.target = target;
    }
    if let Some(jobs) = args.value("--jobs", positive) {
        popts.jobs = jobs;
    }
    let engine = args
        .value("--engine", Engine::from_flag)
        .unwrap_or_default();
    let show_cycles = args.has("--cycles");
    let remarks_mode = args.str("--remarks");
    let run = args.str("--run").map(|entry| (entry, args.rest()));

    let file = args.positional("FILE");
    let src = std::fs::read_to_string(file).unwrap_or_else(|e| {
        eprintln!("psimcc: cannot read {file}: {e}");
        std::process::exit(1);
    });
    let scalar = psimc::compile(&src).unwrap_or_else(|e| {
        eprintln!("psimcc: {e}");
        std::process::exit(1);
    });

    if args.str("--emit") == Some("scalar") {
        print!("{}", psir::print_module(&scalar));
        return;
    }

    let out = vectorize_module_with(&scalar, &opts, &popts).unwrap_or_else(|e| {
        // A formatted, located diagnostic ([pass] @func:bN:iN: message) —
        // never a Rust panic backtrace.
        eprintln!("psimcc: error: {e}");
        std::process::exit(1);
    });
    for w in &out.warnings {
        eprintln!("warning: {w}");
    }

    if let Some(mode) = remarks_mode {
        let mut remarks = out.remarks.clone();
        telemetry::sort_remarks(&mut remarks);
        if mode == "json" {
            println!(
                "{}",
                telemetry::remarks_to_json(&remarks).to_string_pretty()
            );
        } else {
            print!("{}", telemetry::remarks_to_text(&remarks));
        }
        if run.is_none() {
            return;
        }
    }

    if let Some((entry, raw_args)) = run {
        static EXT: RuntimeExterns = RuntimeExterns::new();
        let cost = TargetCost::for_target(popts.target.clone());
        let mut mem = Memory::default();
        let mut call_args = Vec::new();
        let mut bufs: Vec<(u64, u64)> = Vec::new();
        for a in raw_args {
            if let Some(n) = a.strip_prefix("buf:") {
                let n: u64 = n
                    .parse()
                    .unwrap_or_else(|_| args.fail(&format!("bad buffer size in {a:?}")));
                let addr = mem.alloc(n, 64).expect("buffer fits");
                bufs.push((addr, n));
                call_args.push(RtVal::S(addr));
            } else if let Ok(v) = a.parse::<i64>() {
                call_args.push(RtVal::S(v as u64));
            } else if let Ok(v) = a.parse::<f32>() {
                call_args.push(RtVal::from_f32(v));
            } else {
                args.fail(&format!(
                    "bad --run argument {a:?} (expected an int, a float, or buf:N)"
                ));
            }
        }
        let mut it = Interp::new(&out.module, mem, &cost, &EXT);
        it.set_engine(engine);
        match it.call(entry, &call_args) {
            Ok(RtVal::Unit) => {}
            Ok(RtVal::S(v)) => println!("=> {v} (as i64: {})", v as i64),
            Ok(RtVal::V(v)) => println!("=> {v:?}"),
            Err(e) => {
                eprintln!("psimcc: runtime error: {e}");
                std::process::exit(1);
            }
        }
        for (k, (addr, n)) in bufs.iter().enumerate() {
            let bytes = it.mem.read_bytes(*addr, (*n).min(64)).expect("readback");
            let hex: Vec<String> = bytes.iter().map(|b| format!("{b:02x}")).collect();
            println!(
                "buf{k} [{} bytes{}]: {}",
                n,
                if *n > 64 { ", first 64 shown" } else { "" },
                hex.join(" ")
            );
        }
        if show_cycles {
            println!("cycles: {}", it.cycles);
        }
    } else {
        print!("{}", psir::print_module(&out.module));
    }
}
