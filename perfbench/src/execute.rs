//! The `execute` workload: the Figure 4 / Figure 5 evaluation. Every
//! (kernel, configuration) module is compiled in set-up; each timed op is a
//! fresh default-engine interpreter: input fill, plan build, and the call.
//! Outputs are byte-compared with the scalar configuration, and simulated
//! cycles are recorded per (kernel, configuration) row.

use crate::layers::{module_insts, Tally};
use crate::trace::{traced_window, OpRecord, Tracer};
use crate::util;
use crate::{Outcome, Params};
use autovec::{autovectorize_module, AutovecOptions};
use parsimony::{vectorize_module_with, PipelineOptions, VectorizeOptions};
use psir::{Interp, Memory, Module, RtVal};
use std::collections::BTreeSet;
use std::time::Instant;
use suite::ispc::IspcSizes;
use suite::runner::{fill_buffer, Config};
use suite::Kernel;
use vmach::{Target, TargetCost};
use vmath::RuntimeExterns;

static EXTERNS: RuntimeExterns = RuntimeExterns::new();

/// Figure 5's configurations (72 Simd-Library kernels).
pub const FIG5_CONFIGS: [Config; 4] = [
    Config::Scalar,
    Config::Autovec,
    Config::Parsimony,
    Config::Handwritten,
];

/// Figure 4's configurations (7 ispc kernels).
pub const FIG4_CONFIGS: [Config; 4] = [
    Config::Scalar,
    Config::Autovec,
    Config::Parsimony,
    Config::GangSync,
];

/// One evaluated kernel and the figure it belongs to.
pub struct Entry {
    /// The kernel and its workload.
    pub kernel: Kernel,
    /// `fig5` or `fig4`.
    pub figure: &'static str,
}

/// The fig5 kernels at `simd_n` elements plus the fig4 kernels at `ispc`.
pub fn entries(simd_n: u64, ispc: IspcSizes) -> Vec<Entry> {
    let mut out: Vec<Entry> = suite::simdlib::kernels(simd_n)
        .into_iter()
        .map(|kernel| Entry {
            kernel,
            figure: "fig5",
        })
        .collect();
    out.extend(suite::ispc::kernels(ispc).into_iter().map(|kernel| Entry {
        kernel,
        figure: "fig4",
    }));
    out
}

/// The configurations evaluated for a figure.
pub fn configs(figure: &str) -> &'static [Config; 4] {
    if figure == "fig5" {
        &FIG5_CONFIGS
    } else {
        &FIG4_CONFIGS
    }
}

/// A compiled (kernel, configuration) pair, ready to run.
pub struct Compiled {
    /// Index into the entries.
    pub entry: usize,
    /// The configuration.
    pub config: Config,
    /// The runnable module.
    pub module: Module,
    /// Functions reachable from `main` (the plans an op builds).
    pub reachable: Vec<String>,
}

/// Compiles one configuration of a kernel with default pipeline options,
/// each layer call under its own span.
///
/// # Errors
/// Front-end, pipeline, and missing-hand-version failures.
pub fn build(k: &Kernel, cfg: Config, t: &mut Tracer, tally: &mut Tally) -> Result<Module, String> {
    let mut front = |src: &str, t: &mut Tracer| {
        tally.add("psimc.bytes", src.len() as f64);
        let r = t.span("psimc.compile", |_| psimc::compile(src));
        if r.is_err() {
            tally.add("psimc.errors", 1.0);
        }
        r.map_err(|e| format!("{}: {e}", k.name))
    };
    let spmd = |m: &Module, opts: &VectorizeOptions, t: &mut Tracer, tally: &mut Tally| {
        let out = t
            .span("core.vectorize", |_| {
                vectorize_module_with(m, opts, &PipelineOptions::default())
            })
            .map_err(|e| format!("{}: {e}", k.name))?;
        record_pipeline(m, &out, tally);
        Ok::<Module, String>(out.module)
    };
    match cfg {
        Config::Scalar => front(&k.serial_src, t),
        Config::Autovec => {
            let m = front(&k.serial_src, t)?;
            let (vm, _) = t.span("autovec.vectorize", |_| {
                autovectorize_module(&m, &AutovecOptions::default())
            });
            Ok(vm)
        }
        Config::Parsimony => {
            let m = front(&k.psim_src, t)?;
            spmd(&m, &VectorizeOptions::default(), t, tally)
        }
        Config::GangSync => {
            let m = front(&k.psim_src, t)?;
            spmd(&m, &VectorizeOptions::gang_synchronous(), t, tally)
        }
        Config::Handwritten => {
            let hand = k
                .hand
                .as_ref()
                .ok_or_else(|| format!("{} has no hand-written version", k.name))?;
            let mut m = Module::new();
            hand(&mut m);
            Ok(m)
        }
        other => Err(format!(
            "{}: configuration {} is not evaluated",
            k.name,
            other.label()
        )),
    }
}

/// Records the pipeline counters of one `vectorize_module_with` call.
pub fn record_pipeline(input: &Module, out: &parsimony::PipelineOutput, tally: &mut Tally) {
    let regions = (out.vectorized.len() + out.degraded.len()) as f64;
    tally.add("core.regions", regions);
    tally.add("core.degraded", out.degraded.len() as f64);
    tally.add("core.ir_insts_in", module_insts(input) as f64);
    tally.add("core.ir_insts_out", module_insts(&out.module) as f64);
    let tm = &out.timings;
    tally.add("core.region_ns", tm.region_nanos_total() as f64);
    tally.add("core.wall_jobs_ns", (tm.wall_nanos * tm.jobs as u64) as f64);
}

/// Functions reachable from `main` through direct calls, in discovery
/// order.
pub fn reachable(m: &Module) -> Vec<String> {
    let mut seen = BTreeSet::new();
    let mut order = Vec::new();
    let mut stack = vec!["main".to_string()];
    while let Some(name) = stack.pop() {
        let Some(f) = m.function(&name) else { continue };
        if !seen.insert(name.clone()) {
            continue;
        }
        for b in f.block_ids() {
            for &id in &f.block(b).insts {
                if let psir::Inst::Call { callee, .. } = f.inst(id) {
                    stack.push(callee.clone());
                }
            }
        }
        order.push(name);
    }
    order
}

/// What one op observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOut {
    /// Simulated cycles at the reference target.
    pub cycles: u64,
    /// Fingerprint of every checked output buffer.
    pub out_hash: u64,
    /// Dynamic instructions.
    pub insts: u64,
}

/// One op: a fresh default-engine interpreter over fresh inputs.
///
/// # Errors
/// Runtime traps and unreadable outputs.
pub fn run_op(
    c: &Compiled,
    k: &Kernel,
    cost: &TargetCost,
    t: &mut Tracer,
    tally: &mut Tally,
) -> Result<RunOut, String> {
    let (mem, addrs) = t.span("suite.fill", |_| {
        let mut mem = Memory::default();
        let addrs: Vec<u64> = k.buffers.iter().map(|s| fill_buffer(&mut mem, s)).collect();
        (mem, addrs)
    });
    let mut args: Vec<RtVal> = addrs.iter().map(|&a| RtVal::S(a)).collect();
    args.extend(k.extra_args.iter().cloned());
    args.push(RtVal::S(k.n));
    let mut it = Interp::new(&c.module, mem, cost, &EXTERNS);
    let built = t.span("psir.plan_build", |_| {
        for f in &c.reachable {
            it.precompile(f);
        }
        it.plan_counters().1
    });
    let t0 = Instant::now();
    t.span("psir.exec", |_| it.call("main", &args))
        .map_err(|e| format!("{} [{}]: runtime error: {e}", k.name, c.config.label()))?;
    tally.add("psir.exec_ns", t0.elapsed().as_nanos() as f64);
    let mut bufs = Vec::new();
    for (spec, &addr) in k.buffers.iter().zip(&addrs) {
        if spec.check {
            let bytes = spec.elem.size_bytes() * spec.len;
            bufs.push(
                it.mem
                    .read_bytes(addr, bytes)
                    .map_err(|e| format!("{}: {e}", k.name))?
                    .to_vec(),
            );
        }
    }
    tally.add("psir.plans_built", built as f64);
    tally.add("psir.insts", it.stats.insts as f64);
    tally.add("psir.sim_cycles", it.cycles as f64);
    Ok(RunOut {
        cycles: it.cycles,
        out_hash: util::fingerprint(bufs.iter().map(Vec::as_slice)),
        insts: it.stats.insts,
    })
}

/// One per-kernel cycle row.
#[derive(Debug, Clone)]
pub struct CycleRow {
    /// Kernel name.
    pub kernel: String,
    /// `fig5` or `fig4`.
    pub figure: &'static str,
    /// Configuration label.
    pub config: &'static str,
    /// Simulated cycles.
    pub cycles: u64,
}

/// Compiles every (kernel, configuration) pair.
///
/// # Errors
/// Any build failure.
pub fn compile_all(
    entries: &[Entry],
    t: &mut Tracer,
    tally: &mut Tally,
) -> Result<Vec<Compiled>, String> {
    let mut out = Vec::new();
    for (i, e) in entries.iter().enumerate() {
        for &config in configs(e.figure) {
            let module = build(&e.kernel, config, t, tally)?;
            let reachable = reachable(&module);
            out.push(Compiled {
                entry: i,
                config,
                module,
                reachable,
            });
        }
    }
    Ok(out)
}

/// Builds and runs every (kernel, configuration) pair once, untraced,
/// returning its cycle row — the source of the cycle metrics for the
/// workloads whose timed loop does not run kernels.
///
/// # Errors
/// Any build or runtime failure.
pub fn cycle_rows(simd_n: u64, ispc: IspcSizes) -> Result<Vec<CycleRow>, String> {
    let entries = entries(simd_n, ispc);
    let mut t = Tracer::new(false, Instant::now(), 0);
    let mut tally = Tally::default();
    let compiled = compile_all(&entries, &mut t, &mut tally)?;
    let cost = TargetCost::for_target(Target::reference_default());
    compiled
        .iter()
        .map(|c| {
            let e = &entries[c.entry];
            let r = run_op(c, &e.kernel, &cost, &mut t, &mut tally)?;
            Ok(CycleRow {
                kernel: e.kernel.name.clone(),
                figure: e.figure,
                config: c.config.label(),
                cycles: r.cycles,
            })
        })
        .collect()
}

/// The cycle metrics: geomean speedups over scalar cycles, plus the
/// hand-written ÷ Parsimony ratio.
pub fn cycle_metrics(rows: &[CycleRow]) -> Vec<(&'static str, f64)> {
    let cycles = |figure: &str, kernel: &str, config: &str| {
        rows.iter()
            .find(|r| r.figure == figure && r.kernel == kernel && r.config == config)
            .map(|r| r.cycles as f64)
    };
    let kernels = |figure: &str| {
        let mut names: Vec<&str> = rows
            .iter()
            .filter(|r| r.figure == figure)
            .map(|r| r.kernel.as_str())
            .collect();
        names.dedup();
        names
    };
    let ratio_geomean = |figure: &str, num: &str, den: &str| {
        let xs: Vec<f64> = kernels(figure)
            .into_iter()
            .filter_map(|k| Some(cycles(figure, k, num)? / cycles(figure, k, den)?))
            .collect();
        suite::runner::geomean(&xs)
    };
    vec![
        (
            "fig5_parsimony_x",
            ratio_geomean("fig5", "scalar", "parsimony"),
        ),
        ("fig5_autovec_x", ratio_geomean("fig5", "scalar", "autovec")),
        (
            "parsimony_over_hand",
            ratio_geomean("fig5", "handwritten", "parsimony"),
        ),
        (
            "fig4_parsimony_x",
            ratio_geomean("fig4", "scalar", "parsimony"),
        ),
        (
            "fig4_gangsync_x",
            ratio_geomean("fig4", "scalar", "gangsync"),
        ),
    ]
}

/// Fig5 element count (the figure's default size).
pub const SIMD_N: u64 = suite::simdlib::DEFAULT_N;

/// Runs the workload.
///
/// # Errors
/// Set-up failures (a kernel that does not build).
pub fn run(p: &Params, out: &mut Outcome) -> Result<(), String> {
    let epoch = Instant::now();
    let mut t = Tracer::new(p.trace, epoch, 0);
    let mut tally = Tally::default();
    let cost = TargetCost::for_target(Target::reference_default());

    let (t0, ticks) = (Instant::now(), util::cpu_ticks());
    let entries = entries(SIMD_N, IspcSizes::default());
    let compiled = t.span("setup", |t| compile_all(&entries, t, &mut tally))?;
    out.record_setup(t0, ticks);

    // The op schedule: whole passes, each a seeded permutation of every
    // (kernel, configuration) pair. A pass starts only if the last pass's
    // duration still fits the budget, so every run measures whole passes.
    let mut rng = util::rng(p.seed, 1);
    let mut results: Vec<Option<RunOut>> = vec![None; compiled.len()];
    let mut mismatched = vec![false; compiled.len()];
    let start = Instant::now();
    let mut last_pass = 0.0;
    let mut off_clock = 0.0;
    let mut op_id = 0u64;
    loop {
        let elapsed = start.elapsed().as_secs_f64() - off_clock;
        if op_id > 0 && elapsed + last_pass > p.seconds {
            break;
        }
        let pass_start = Instant::now();
        let pass_ticks = util::cpu_ticks();
        let mut order: Vec<usize> = (0..compiled.len()).collect();
        util::shuffle(&mut rng, &mut order);
        for ci in order {
            op_id += 1;
            let traced = p.trace && traced_window(start.elapsed().as_secs_f64() - off_clock);
            t.set_on(traced);
            t.set_op(op_id);
            let c = &compiled[ci];
            let k = &entries[c.entry].kernel;
            let t0 = Instant::now();
            let r = t.span("op", |t| run_op(c, k, &cost, t, &mut tally));
            let nanos = t0.elapsed().as_nanos() as u64;
            out.attempted += 1;
            match r {
                Ok(r) => {
                    match results[ci] {
                        Some(prev) if prev != r => mismatched[ci] = true,
                        _ => results[ci] = Some(r),
                    }
                    out.ops.push(OpRecord {
                        kind: ci as u32,
                        nanos,
                        traced,
                        segment: out.segments.len() as u32,
                    });
                }
                Err(e) => out.fail(e),
            }
        }
        last_pass = pass_start.elapsed().as_secs_f64();
        out.segments.push(last_pass);
        out.segment_ticks
            .push(util::ticks_between(pass_ticks, util::cpu_ticks()));
        off_clock += crate::setup_block(out, || {
            let entries = self::entries(SIMD_N, IspcSizes::default());
            let mut off = Tracer::new(false, epoch, 0);
            compile_all(&entries, &mut off, &mut Tally::default()).map(drop)
        })?;
    }
    out.wall_s = start.elapsed().as_secs_f64() - off_clock;
    t.set_on(p.trace);

    // Off the clock: every op's output against its kernel's scalar output,
    // and every repeat of a pair against its first run.
    let mut rows = Vec::new();
    for (ci, c) in compiled.iter().enumerate() {
        let e = &entries[c.entry];
        let scalar = compiled
            .iter()
            .position(|s| s.entry == c.entry && s.config == Config::Scalar)
            .and_then(|s| results[s]);
        let (Some(mine), Some(scalar)) = (results[ci], scalar) else {
            continue;
        };
        let mut want = scalar.out_hash;
        if p.corrupt_reference {
            want ^= 1;
        }
        let runs = out.ops.iter().filter(|o| o.kind == ci as u32).count() as u64;
        if mismatched[ci] {
            out.fail_kind(
                ci as u32,
                runs,
                format!(
                    "{} [{}]: repeat runs disagree",
                    e.kernel.name,
                    c.config.label()
                ),
            );
        } else if mine.out_hash != want {
            out.fail_kind(
                ci as u32,
                runs,
                format!(
                    "{} [{}]: output differs from the scalar configuration",
                    e.kernel.name,
                    c.config.label()
                ),
            );
        }
        rows.push(CycleRow {
            kernel: e.kernel.name.clone(),
            figure: e.figure,
            config: c.config.label(),
            cycles: mine.cycles,
        });
    }
    out.cycle_rows = rows;
    out.peak_rss_mib = out.peak_rss_mib.or_else(|| crate::util::peak_rss_mib(None));
    out.rss_of = "benchmark process";
    if p.trace {
        let sources =
            crate::layers::breakdown_sources(entries.iter().map(|e| e.kernel.psim_src.as_str()));
        crate::layers::pass_breakdown(&mut t, &mut tally, &sources);
    }
    out.tally.merge(&tally);
    out.tracers.push(t);
    Ok(())
}
