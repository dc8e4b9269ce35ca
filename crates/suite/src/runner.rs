//! Executes a kernel under each configuration, measuring simulated cycles.

use crate::{Init, Kernel};
use autovec::{autovectorize_module, AutovecOptions};
use parsimony::{vectorize_module, VectorizeOptions};
use psir::{ExecError, ExecStats, Interp, Memory, Module, Profile, RtVal, ScalarTy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vmach::{Target, TargetCost};
use vmath::RuntimeExterns;

pub use psir::Engine;

/// The evaluated configurations (the paper's Figure 4 / Figure 5 bars).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// Serial code, no vectorization (Figure 5's scalar baseline).
    Scalar,
    /// Serial code through the `autovec` baseline (loop + SLP).
    Autovec,
    /// Parsimony SPMD with SLEEF-like math (the paper's prototype).
    Parsimony,
    /// Parsimony with shape analysis disabled (ablation).
    ParsimonyNoShape,
    /// Parsimony with branch-on-superword-condition guards (§4.2.3).
    ParsimonyBoscc,
    /// Gang-synchronous (ispc-like) mode with the fast built-in math.
    GangSync,
    /// Hand-written vector IR (Figure 5's intrinsics bar).
    Handwritten,
}

impl Config {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Config::Scalar => "scalar",
            Config::Autovec => "autovec",
            Config::Parsimony => "parsimony",
            Config::ParsimonyNoShape => "parsimony-noshape",
            Config::ParsimonyBoscc => "parsimony-boscc",
            Config::GangSync => "gangsync",
            Config::Handwritten => "handwritten",
        }
    }
}

/// Result of running one configuration.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Simulated cycles under the `vmach` cost model.
    pub cycles: u64,
    /// Contents of every `check`-marked buffer, in order.
    pub outputs: Vec<Vec<u8>>,
    /// Execution statistics (packed vs gather counts etc.).
    pub stats: ExecStats,
    /// Cycle-attribution profile; `Some` only under the `_profiled` entry
    /// points.
    pub profile: Option<Profile>,
}

/// Allocates and initializes one workload buffer in `mem` according to its
/// [`BufSpec`](crate::BufSpec), returning the base address. Deterministic
/// for a given spec (seeded fills), which the differential fuzzer relies on
/// to hand every execution configuration bit-identical inputs.
pub fn fill_buffer(mem: &mut Memory, spec: &crate::BufSpec) -> u64 {
    let bytes = spec.elem.size_bytes() * spec.len;
    let mut data = vec![0u8; bytes as usize];
    match spec.init {
        Init::Zero => {}
        Init::Ramp => {
            for i in 0..spec.len {
                let v = i & spec.elem.bit_mask();
                let sz = spec.elem.size_bytes() as usize;
                data[(i as usize) * sz..(i as usize + 1) * sz]
                    .copy_from_slice(&v.to_le_bytes()[..sz]);
            }
        }
        Init::RandomInt { seed } => {
            let mut rng = StdRng::seed_from_u64(seed);
            for i in 0..spec.len {
                let v: u64 = rng.gen::<u64>() & spec.elem.bit_mask();
                let sz = spec.elem.size_bytes() as usize;
                data[(i as usize) * sz..(i as usize + 1) * sz]
                    .copy_from_slice(&v.to_le_bytes()[..sz]);
            }
        }
        Init::RandomF32 { seed, lo, hi } => {
            let mut rng = StdRng::seed_from_u64(seed);
            for i in 0..spec.len {
                let v: f32 = rng.gen_range(lo..hi);
                data[(i as usize) * 4..(i as usize + 1) * 4]
                    .copy_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        Init::RandomF32Int { seed, lo, hi } => {
            let mut rng = StdRng::seed_from_u64(seed);
            for i in 0..spec.len {
                let v: f32 = rng.gen_range(lo..hi) as f32;
                data[(i as usize) * 4..(i as usize + 1) * 4]
                    .copy_from_slice(&v.to_bits().to_le_bytes());
            }
        }
    }
    mem.alloc_bytes(&data, 64).expect("workload fits in memory")
}

/// Builds the module for a configuration.
///
/// # Errors
/// Propagates compile/vectorization failures, and reports kernels without a
/// hand-written implementation.
pub fn build_module(k: &Kernel, cfg: Config) -> Result<Module, String> {
    match cfg {
        Config::Scalar => psimc::compile(&k.serial_src).map_err(|e| e.to_string()),
        Config::Autovec => {
            let m = psimc::compile(&k.serial_src).map_err(|e| e.to_string())?;
            let (vm, _) = autovectorize_module(&m, &AutovecOptions::default());
            Ok(vm)
        }
        Config::Parsimony => {
            let m = psimc::compile(&k.psim_src).map_err(|e| e.to_string())?;
            let out =
                vectorize_module(&m, &VectorizeOptions::default()).map_err(|e| e.to_string())?;
            Ok(out.module)
        }
        Config::ParsimonyNoShape => {
            let m = psimc::compile(&k.psim_src).map_err(|e| e.to_string())?;
            let opts = VectorizeOptions {
                enable_shape: false,
                ..VectorizeOptions::default()
            };
            let out = vectorize_module(&m, &opts).map_err(|e| e.to_string())?;
            Ok(out.module)
        }
        Config::ParsimonyBoscc => {
            let m = psimc::compile(&k.psim_src).map_err(|e| e.to_string())?;
            let opts = VectorizeOptions {
                boscc: true,
                ..VectorizeOptions::default()
            };
            let out = vectorize_module(&m, &opts).map_err(|e| e.to_string())?;
            Ok(out.module)
        }
        Config::GangSync => {
            let m = psimc::compile(&k.psim_src).map_err(|e| e.to_string())?;
            let out = vectorize_module(&m, &VectorizeOptions::gang_synchronous())
                .map_err(|e| e.to_string())?;
            Ok(out.module)
        }
        Config::Handwritten => {
            let hand = k
                .hand
                .as_ref()
                .ok_or_else(|| format!("kernel {} has no hand-written version", k.name))?;
            let mut m = Module::new();
            hand(&mut m);
            Ok(m)
        }
    }
}

static EXTERNS: RuntimeExterns = RuntimeExterns::new();

/// Runs one configuration of a kernel, costing against
/// [`default_target`].
///
/// # Errors
/// Reports build failures and runtime traps with the kernel/config context.
pub fn run_kernel(k: &Kernel, cfg: Config) -> Result<RunResult, String> {
    run_kernel_with(k, cfg, &TargetCost::for_target(default_target()))
}

/// Like [`run_kernel`], additionally collecting a per-function
/// cycle-attribution [`Profile`] (`RunResult::profile` is `Some`).
///
/// # Errors
/// Reports build failures and runtime traps with the kernel/config context.
pub fn run_kernel_profiled(k: &Kernel, cfg: Config) -> Result<RunResult, String> {
    let module = build_module(k, cfg)?;
    run_module_inner(&module, k, &TargetCost::for_target(default_target()), true)
        .map_err(|e| format!("[{}] {e}", cfg.label()))
}

/// Runs the Parsimony configuration with custom vectorizer options (for
/// the stride-window and BOSCC ablations).
///
/// # Errors
/// Reports build failures and runtime traps with the kernel context.
pub fn run_kernel_custom(k: &Kernel, opts: &VectorizeOptions) -> Result<RunResult, String> {
    let m = psimc::compile(&k.psim_src).map_err(|e| e.to_string())?;
    let out = vectorize_module(&m, opts).map_err(|e| e.to_string())?;
    run_module(&out.module, k, &TargetCost::for_target(default_target()))
}

fn run_module(module: &Module, k: &Kernel, cost: &TargetCost) -> Result<RunResult, String> {
    run_module_inner(module, k, cost, false)
}

/// Process-wide target override for the harnesses' `--target` flag:
/// every default-cost entry point
/// ([`run_kernel`], [`run_kernel_profiled`], [`run_kernel_custom`]) prices
/// against this machine instead of [`Target::reference_default`]. First
/// set wins; entry points taking an explicit [`TargetCost`]
/// ([`run_kernel_with`], the `run_module_engine` family) are unaffected,
/// which is what lets one process report a target×config matrix.
static TARGET_OVERRIDE: std::sync::OnceLock<Target> = std::sync::OnceLock::new();

/// Overrides the target used by the default-cost entry points. Returns
/// `false` if an override was already set to a *different* target.
pub fn set_target_override(target: Target) -> bool {
    *TARGET_OVERRIDE.get_or_init(|| target.clone()) == target
}

/// The target the default-cost entry points price against: the override
/// when one is set, otherwise the one documented defaulting site,
/// [`Target::reference_default`].
pub fn default_target() -> Target {
    TARGET_OVERRIDE
        .get()
        .cloned()
        .unwrap_or_else(Target::reference_default)
}

fn run_module_inner(
    module: &Module,
    k: &Kernel,
    cost: &TargetCost,
    profiled: bool,
) -> Result<RunResult, String> {
    run_module_engine(module, k, cost, profiled, Engine::default())
}

/// Runs an already-built module over `k`'s workload with an explicit
/// interpreter [`Engine`] — the entry point `runbench` and the engine
/// differential tests use to compare the fast and reference paths over
/// identical inputs.
///
/// # Errors
/// Reports runtime traps with the kernel context.
pub fn run_module_engine(
    module: &Module,
    k: &Kernel,
    cost: &TargetCost,
    profiled: bool,
    engine: Engine,
) -> Result<RunResult, String> {
    run_module_engine_inner(module, k, cost, profiled, engine, None)
}

/// Like [`run_module_engine`] with a shared [`PlanCache`] attached, so
/// repeated runs of the same module amortize frame-plan construction
/// exactly as the serving path does. `module_id` must identify the module and cost model
/// within the cache.
///
/// # Errors
/// Reports runtime traps with the kernel context.
pub fn run_module_engine_shared(
    module: &Module,
    k: &Kernel,
    cost: &TargetCost,
    profiled: bool,
    engine: Engine,
    plans: &std::sync::Arc<psir::PlanCache>,
    module_id: u64,
) -> Result<RunResult, String> {
    run_module_engine_inner(module, k, cost, profiled, engine, Some((plans, module_id)))
}

fn run_module_engine_inner(
    module: &Module,
    k: &Kernel,
    cost: &TargetCost,
    profiled: bool,
    engine: Engine,
    plans: Option<(&std::sync::Arc<psir::PlanCache>, u64)>,
) -> Result<RunResult, String> {
    let mut mem = Memory::default();
    let mut args: Vec<RtVal> = Vec::new();
    let mut addrs: Vec<u64> = Vec::new();
    for spec in &k.buffers {
        let addr = fill_buffer(&mut mem, spec);
        addrs.push(addr);
        args.push(RtVal::S(addr));
    }
    args.extend(k.extra_args.iter().cloned());
    args.push(RtVal::S(k.n));
    let mut it = Interp::new(module, mem, cost, &EXTERNS);
    it.set_engine(engine);
    if let Some((cache, module_id)) = plans {
        it.set_plan_cache(std::sync::Arc::clone(cache), module_id);
    }
    if profiled {
        it.enable_profiling();
    }
    it.call("main", &args)
        .map_err(|e: ExecError| format!("{}: runtime error: {e}", k.name))?;
    let mut outputs = Vec::new();
    for (spec, &addr) in k.buffers.iter().zip(&addrs) {
        if spec.check {
            let bytes = spec.elem.size_bytes() * spec.len;
            outputs.push(
                it.mem
                    .read_bytes(addr, bytes)
                    .map_err(|e| e.to_string())?
                    .to_vec(),
            );
        }
    }
    Ok(RunResult {
        cycles: it.cycles,
        outputs,
        stats: it.stats,
        profile: it.take_profile(),
    })
}

/// Like [`run_kernel`] with an explicit cost model (for width sweeps).
///
/// # Errors
/// Reports build failures and runtime traps with the kernel/config context.
pub fn run_kernel_with(k: &Kernel, cfg: Config, cost: &TargetCost) -> Result<RunResult, String> {
    let module = build_module(k, cfg)?;
    run_module(&module, k, cost).map_err(|e| format!("[{}] {e}", cfg.label()))
}

/// Geometric mean helper used by the harnesses.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Convenience: all Figure 5 configurations of one kernel must agree
/// byte-for-byte; returns per-config cycles.
///
/// # Errors
/// Reports any config failure or output mismatch.
pub fn run_all_and_check(k: &Kernel, cfgs: &[Config]) -> Result<Vec<(Config, RunResult)>, String> {
    let mut results = Vec::new();
    for &c in cfgs {
        results.push((c, run_kernel(k, c)?));
    }
    let base = &results[0];
    for (c, r) in &results[1..] {
        if r.outputs != base.1.outputs {
            return Err(format!(
                "{}: output mismatch between {} and {}",
                k.name,
                base.0.label(),
                c.label()
            ));
        }
    }
    Ok(results)
}

/// The element-size helper the kernel files use when sizing buffers.
pub fn bytes_of(elem: ScalarTy, n: u64) -> u64 {
    elem.size_bytes() * n
}
