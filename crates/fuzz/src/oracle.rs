//! The differential oracle: one program, four execution configurations,
//! byte-identical results.
//!
//! Every test case is run through:
//!
//! 1. **SPMD reference** — [`parsimony::SpmdRef`] interprets the *scalar*
//!    compiled module thread-by-thread, exactly as the SPMD model defines
//!    the program's meaning. This is the ground truth.
//! 2. **Vectorized, fast engine** — the full pipeline (structurize → shape
//!    → transform → opt → legalize) executed by the precompiled-plan
//!    engine.
//! 3. **Vectorized, reference engine** — the same vectorized module on the
//!    retained pre-plan interpreter. Must match (2) on outputs *and* on
//!    simulated cycles and execution statistics (the engine-identity
//!    contract from the fast-engine PR).
//! 4. **Forced scalar fallback** — the pipeline with an injected
//!    `vectorize:panic` fault, degrading every region to the serialized
//!    scalar gang loop. Outputs must still match (1).
//!
//! When `PSIM_INJECT_FAULT` is armed (or [`OracleOptions::inject`] is set),
//! configurations (2) and (3) run the *degraded* pipeline instead, so
//! fault-degraded regions are differentially checked against the SPMD
//! reference too — and the redundant forced-fallback configuration is
//! skipped.
//!
//! All buffers (inputs included — a stray write to a read-only buffer is a
//! bug) are compared over their full length after every run.

use crate::gen::{Program, TestCase};
use parsimony::{
    vectorize_module_with, FaultInjector, PipelineOptions, SpmdRef, VectorizeOptions, VerifyMode,
};
use psir::{Engine, ExecStats, Interp, Memory, Module, RtVal};
use suite::runner::fill_buffer;
use vmach::{Target, TargetCost};
use vmath::RuntimeExterns;

static EXTERNS: RuntimeExterns = RuntimeExterns::new();

/// Oracle configuration.
#[derive(Debug, Clone)]
pub struct OracleOptions {
    /// Pipeline compilation jobs (`PipelineOptions::jobs`). The verdict
    /// must be identical at every level; keep 1 unless testing that.
    pub jobs: usize,
    /// Fault injection for the vectorizing configurations. Defaults to the
    /// `PSIM_INJECT_FAULT` environment variable, so corpus replay and
    /// `psim-fuzz` runs under an armed fault check the degraded pipeline.
    pub inject: Option<FaultInjector>,
    /// Interpreter step limit per run (a backstop; generated loops are
    /// bounded by construction).
    pub step_limit: u64,
    /// Extra costing targets swept on the fast engine: every target must
    /// produce byte-identical outputs to the SPMD reference, because
    /// targets price uops and never touch semantics. The default sweeps
    /// both fixed-width machines and the scalable target at three vector
    /// lengths; the primary target ([`Target::reference_default`]) is
    /// always checked and need not be listed.
    pub targets: Vec<Target>,
}

impl Default for OracleOptions {
    fn default() -> OracleOptions {
        OracleOptions {
            jobs: 1,
            inject: FaultInjector::from_env(),
            step_limit: 50_000_000,
            targets: vec![
                Target::avx2(),
                Target::sve(128),
                Target::sve(512),
                Target::sve(2048),
            ],
        }
    }
}

/// Failure classification (stable across shrinking — the shrinker only
/// accepts candidates that fail with the same kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailKind {
    /// The source did not compile (a generator bug).
    Compile,
    /// The vectorization pipeline errored out.
    Pipeline,
    /// A runtime trap in some configuration.
    Trap,
    /// Byte-level output divergence between configurations.
    OutputMismatch,
    /// Fast and reference engines disagree on simulated cycles.
    CycleMismatch,
    /// Fast and reference engines disagree on execution statistics.
    StatsMismatch,
}

impl FailKind {
    /// Stable snake_case name (used in JSON reports).
    pub fn name(self) -> &'static str {
        match self {
            FailKind::Compile => "compile",
            FailKind::Pipeline => "pipeline",
            FailKind::Trap => "trap",
            FailKind::OutputMismatch => "output_mismatch",
            FailKind::CycleMismatch => "cycle_mismatch",
            FailKind::StatsMismatch => "stats_mismatch",
        }
    }
}

/// A concrete failure with human-readable context.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Classification.
    pub kind: FailKind,
    /// Where and how (case, n, engine, buffer, first differing byte, …).
    pub detail: String,
}

/// The oracle's verdict for one case or program.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// All configurations agreed everywhere.
    Pass,
    /// First observed disagreement.
    Fail(Failure),
}

impl Verdict {
    /// Whether this is a pass.
    pub fn is_pass(&self) -> bool {
        matches!(self, Verdict::Pass)
    }

    /// The failure, if any.
    pub fn failure(&self) -> Option<&Failure> {
        match self {
            Verdict::Pass => None,
            Verdict::Fail(f) => Some(f),
        }
    }
}

fn fail(kind: FailKind, detail: String) -> Verdict {
    Verdict::Fail(Failure { kind, detail })
}

/// Runs the SPMD reference executor over every region of the scalar module
/// in source order, returning the final bytes of every buffer.
fn run_reference(
    module: &Module,
    case: &TestCase,
    n: u64,
    step_limit: u64,
) -> Result<Vec<Vec<u8>>, Failure> {
    let mut mem = Memory::default();
    let mut addrs = Vec::new();
    for b in &case.bufs {
        addrs.push(fill_buffer(&mut mem, &b.spec()));
    }
    let mut spmd = SpmdRef::new(module, mem);
    spmd.set_step_limit(step_limit);
    for region in module.spmd_functions() {
        let f = module.function(&region).expect("region exists");
        let mut args = Vec::new();
        for p in &f.params[..f.params.len().saturating_sub(2)] {
            if p.name == "n" {
                args.push(RtVal::S(n));
            } else if let Some(bi) = case.bufs.iter().position(|b| b.name == p.name) {
                args.push(RtVal::S(addrs[bi]));
            } else {
                return Err(Failure {
                    kind: FailKind::Compile,
                    detail: format!(
                        "{}: region @{region} captures `{}` which is neither a \
                         declared buffer nor `n` — the oracle cannot supply it",
                        case.name, p.name
                    ),
                });
            }
        }
        spmd.run_region(&region, &args, n).map_err(|e| Failure {
            kind: FailKind::Trap,
            detail: format!("{}: n={n}: SPMD reference: {e}", case.name),
        })?;
    }
    read_buffers(&spmd.mem, case, &addrs, n)
}

/// Runs a (vectorized or degraded) module's `kernel` entry point under one
/// interpreter engine.
fn run_vectorized(
    module: &Module,
    case: &TestCase,
    n: u64,
    engine: Engine,
    cost: &TargetCost,
    step_limit: u64,
    label: &str,
) -> Result<(Vec<Vec<u8>>, u64, ExecStats), Failure> {
    let mut mem = Memory::default();
    let mut addrs = Vec::new();
    let mut args = Vec::new();
    for b in &case.bufs {
        let a = fill_buffer(&mut mem, &b.spec());
        addrs.push(a);
        args.push(RtVal::S(a));
    }
    args.push(RtVal::S(n));
    let mut it = Interp::new(module, mem, cost, &EXTERNS);
    it.set_engine(engine);
    it.set_step_limit(step_limit);
    it.call("kernel", &args).map_err(|e| Failure {
        kind: FailKind::Trap,
        detail: format!("{}: n={n}: {label}: {e}", case.name),
    })?;
    let out = read_buffers(&it.mem, case, &addrs, n)?;
    Ok((out, it.cycles, it.stats))
}

fn read_buffers(
    mem: &Memory,
    case: &TestCase,
    addrs: &[u64],
    n: u64,
) -> Result<Vec<Vec<u8>>, Failure> {
    let mut out = Vec::new();
    for (b, &addr) in case.bufs.iter().zip(addrs) {
        let bytes = b.ty.scalar_ty().size_bytes() * b.len;
        out.push(
            mem.read_bytes(addr, bytes)
                .map_err(|e| Failure {
                    kind: FailKind::Trap,
                    detail: format!("{}: n={n}: reading back {}: {e}", case.name, b.name),
                })?
                .to_vec(),
        );
    }
    Ok(out)
}

fn compare_outputs(
    case: &TestCase,
    n: u64,
    label: &str,
    got: &[Vec<u8>],
    want: &[Vec<u8>],
) -> Option<Verdict> {
    for ((b, g), w) in case.bufs.iter().zip(got).zip(want) {
        if let Some(at) = g.iter().zip(w.iter()).position(|(x, y)| x != y) {
            let elem = b.ty.scalar_ty().size_bytes() as usize;
            return Some(fail(
                FailKind::OutputMismatch,
                format!(
                    "{}: n={n}: {label} diverges from the SPMD reference in \
                     buffer `{}` at element {} (byte {at}): got {:02x?}, want {:02x?}",
                    case.name,
                    b.name,
                    at / elem,
                    &g[at - at % elem..(at - at % elem + elem).min(g.len())],
                    &w[at - at % elem..(at - at % elem + elem).min(w.len())],
                ),
            ));
        }
    }
    None
}

/// Checks one vectorized (or degraded) module against the precomputed SPMD
/// reference outputs, across both interpreter engines and all `n` values;
/// the reference engine must additionally match the fast engine's
/// simulated cycles and execution statistics. Every extra
/// costing target in `opts.targets` is then swept on the fast engine:
/// outputs must stay byte-identical (cycles legitimately move — that is
/// what a target is for).
fn check_module(
    module: &Module,
    case: &TestCase,
    reference: &[(u64, Vec<Vec<u8>>)],
    opts: &OracleOptions,
    label: &str,
) -> Option<Verdict> {
    let step_limit = opts.step_limit;
    let cost = TargetCost::for_target(Target::reference_default());
    for (n, want) in reference {
        let fast = match run_vectorized(module, case, *n, Engine::Fast, &cost, step_limit, label) {
            Ok(r) => r,
            Err(f) => return Some(Verdict::Fail(f)),
        };
        if let Some(v) = compare_outputs(case, *n, label, &fast.0, want) {
            return Some(v);
        }
        let rlabel = format!("{label}(reference engine)");
        let refeng = match run_vectorized(
            module,
            case,
            *n,
            Engine::Reference,
            &cost,
            step_limit,
            &rlabel,
        ) {
            Ok(r) => r,
            Err(f) => return Some(Verdict::Fail(f)),
        };
        if let Some(v) = compare_outputs(case, *n, &rlabel, &refeng.0, want) {
            return Some(v);
        }
        if fast.1 != refeng.1 {
            return Some(fail(
                FailKind::CycleMismatch,
                format!(
                    "{}: n={n}: {label}: fast engine simulated {} cycles, \
                     reference engine {}",
                    case.name, fast.1, refeng.1
                ),
            ));
        }
        if fast.2 != refeng.2 {
            return Some(fail(
                FailKind::StatsMismatch,
                format!(
                    "{}: n={n}: {label}: engine stats differ: fast {:?} vs \
                     reference {:?}",
                    case.name, fast.2, refeng.2
                ),
            ));
        }
        for t in &opts.targets {
            let tcost = TargetCost::for_target(t.clone());
            let tlabel = format!("{label}(target {})", t.flag_name());
            let swept =
                match run_vectorized(module, case, *n, Engine::Fast, &tcost, step_limit, &tlabel) {
                    Ok(r) => r,
                    Err(f) => return Some(Verdict::Fail(f)),
                };
            if let Some(v) = compare_outputs(case, *n, &tlabel, &swept.0, want) {
                return Some(v);
            }
        }
    }
    None
}

/// Whether any SPMD region of the module uses a horizontal operation
/// (shuffle, broadcast, reduction, gang sync). Such regions have no
/// lane-at-a-time schedule, so the scalar-serialization fallback refuses
/// them *by design* — the oracle skips the forced-fallback configuration
/// and accepts a loud "cannot serialize" pipeline refusal under an armed
/// fault instead of silently-wrong serialized code.
fn module_has_horizontal(module: &Module) -> bool {
    module.spmd_functions().iter().any(|r| {
        module
            .function(r)
            .is_some_and(psir::Function::has_horizontal_ops)
    })
}

/// Runs the full differential oracle on one test case.
pub fn run_case(case: &TestCase, opts: &OracleOptions) -> Verdict {
    let module = match psimc::compile(&case.source) {
        Ok(m) => m,
        Err(e) => return fail(FailKind::Compile, format!("{}: {e}", case.name)),
    };
    if module.spmd_functions().is_empty() {
        return fail(
            FailKind::Compile,
            format!("{}: the kernel has no psim region", case.name),
        );
    }
    let horizontal = module_has_horizontal(&module);

    // Ground truth: the SPMD reference on the scalar module, per n.
    let mut reference = Vec::new();
    for &n in &case.n_values {
        match run_reference(&module, case, n, opts.step_limit) {
            Ok(out) => reference.push((n, out)),
            Err(f) => return Verdict::Fail(f),
        }
    }

    // The vectorizing pipeline (fault-injected if armed).
    let popts = PipelineOptions {
        verify: VerifyMode::Fallback,
        inject: opts.inject.clone(),
        jobs: opts.jobs,
        target: Target::reference_default(),
    };
    let out = match vectorize_module_with(&module, &VectorizeOptions::default(), &popts) {
        Ok(o) => o,
        Err(e) => {
            let msg = e.to_string();
            if opts.inject.is_some() && horizontal && msg.contains("cannot serialize") {
                // The injected fault forced a fallback that a horizontal
                // region cannot take; refusing loudly is the contract.
                return Verdict::Pass;
            }
            return fail(FailKind::Pipeline, format!("{}: {msg}", case.name));
        }
    };
    if opts.inject.is_some() && out.degraded.is_empty() {
        return fail(
            FailKind::Pipeline,
            format!(
                "{}: fault injection was armed but no region degraded",
                case.name
            ),
        );
    }
    let label = if opts.inject.is_some() {
        "fault-degraded pipeline"
    } else {
        "vectorized pipeline"
    };
    if let Some(v) = check_module(&out.module, case, &reference, opts, label) {
        return v;
    }

    // Forced scalar fallback (skipped when injection is already armed —
    // that configuration *is* the degraded one — and for horizontal
    // regions, which have no scalar serialization by design).
    if opts.inject.is_none() && !horizontal {
        let popts = PipelineOptions {
            verify: VerifyMode::Fallback,
            inject: Some(FaultInjector::parse("vectorize:panic").expect("registered site")),
            jobs: opts.jobs,
            target: Target::reference_default(),
        };
        let out = match vectorize_module_with(&module, &VectorizeOptions::default(), &popts) {
            Ok(o) => o,
            Err(e) => {
                return fail(
                    FailKind::Pipeline,
                    format!("{}: forced fallback: {e}", case.name),
                )
            }
        };
        if out.degraded.is_empty() {
            return fail(
                FailKind::Pipeline,
                format!(
                    "{}: the injected vectorize panic did not degrade any region",
                    case.name
                ),
            );
        }
        if let Some(v) = check_module(&out.module, case, &reference, opts, "scalar fallback") {
            return v;
        }
    }

    Verdict::Pass
}

/// Runs the oracle over a program's whole gang sweep; first failure wins.
pub fn run_program(p: &Program, opts: &OracleOptions) -> Verdict {
    for case in p.cases() {
        if let v @ Verdict::Fail(_) = run_case(&case, opts) {
            return v;
        }
    }
    Verdict::Pass
}

/// Whether every gang variant of the program compiles — shrink candidates
/// that break compilation are rejected through this.
pub fn compiles(p: &Program) -> bool {
    p.cases().iter().all(|c| psimc::compile(&c.source).is_ok())
}
