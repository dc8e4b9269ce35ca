//! The `compile` workload: each op takes one source all the way to
//! runnable code — `psimc::compile`, `vectorize_module_with` with default
//! pipeline options, and a plan for every function. Sources are a seeded
//! draw of `psim_fuzz::generate` programs plus multi-region translation
//! units from `compbench::synth_source`. Off the clock, one tiny-n run of
//! each op's module is checked against the SPMD reference executor.

use crate::execute::record_pipeline;
use crate::layers::Tally;
use crate::trace::{traced_window, OpRecord, Tracer};
use crate::util;
use crate::{Outcome, Params};
use parsimony::{vectorize_module_with, PipelineOptions, SpmdRef, VectorizeOptions};
use psir::{Interp, Memory, Module, RtVal};
use std::collections::HashMap;
use std::time::Instant;
use suite::runner::fill_buffer;
use suite::{BufSpec, Init};
use vmach::{Target, TargetCost};
use vmath::RuntimeExterns;

static EXTERNS: RuntimeExterns = RuntimeExterns::new();

/// One compile input: a translation unit plus the tiny workload its
/// output is checked on.
#[derive(Debug, Clone)]
pub struct Unit {
    /// Display name.
    pub name: String,
    /// PsimC source.
    pub source: String,
    /// Host functions to call, in order.
    pub entries: Vec<String>,
    /// Named buffers, in host parameter order.
    pub bufs: Vec<(String, BufSpec)>,
    /// Thread count of the check run.
    pub n: u64,
}

/// A generated fuzz program (its first gang variant, smallest `n`).
pub fn fuzz_unit(seed: u64) -> Unit {
    let p = psim_fuzz::generate(seed);
    let case = p.cases().swap_remove(0);
    Unit {
        name: case.name.clone(),
        source: case.source,
        entries: vec!["kernel".into()],
        bufs: case
            .bufs
            .iter()
            .map(|b| (b.name.clone(), b.spec()))
            .collect(),
        n: case.n_values.iter().copied().min().unwrap_or(1),
    }
}

/// Thread count of the synthesized units' check run: not a multiple of
/// their gang, so the partial-gang path runs too.
const SYNTH_CHECK_N: u64 = 37;

/// A synthesized translation unit with `regions` SPMD regions.
pub fn synth_unit(regions: usize, seed: u64) -> Unit {
    let f32_in = |s: u64| BufSpec {
        elem: psir::ScalarTy::F32,
        len: SYNTH_CHECK_N,
        init: Init::RandomF32 {
            seed: s,
            lo: 0.0,
            hi: 4.0,
        },
        check: true,
    };
    Unit {
        name: format!("synth{regions}"),
        source: psim_bench::compbench::synth_source(regions),
        entries: (0..regions).map(|r| format!("k{r}")).collect(),
        bufs: vec![
            ("a".into(), f32_in(seed)),
            ("b".into(), f32_in(seed ^ 0x5555)),
            (
                "out".into(),
                BufSpec::output(psir::ScalarTy::F32, SYNTH_CHECK_N),
            ),
        ],
        n: SYNTH_CHECK_N,
    }
}

/// Generated fuzz programs per pass: enough that the pass's mean compile
/// cost barely depends on which programs the seed drew.
pub const FUZZ_PER_PASS: usize = 1000;

/// Region counts of the synthesized units.
pub const SYNTH_REGIONS: [usize; 4] = [4, 16, 32, 64];

/// Copies of each synthesized unit per pass (about 6% of the ops, so the
/// multi-region units set the tail).
pub const SYNTH_COPIES: usize = 16;

/// The op pool: fuzz programs from seeded draws plus the synthesized
/// units. Every pass runs the whole pool in a seeded order.
pub fn pool(seed: u64) -> Vec<Unit> {
    let mut rng = util::rng(seed, 2);
    let mut units: Vec<Unit> = (0..FUZZ_PER_PASS)
        .map(|_| fuzz_unit(rng.next_u64()))
        .collect();
    for &r in &SYNTH_REGIONS {
        let unit = synth_unit(r, rng.next_u64());
        units.extend(std::iter::repeat_n(unit, SYNTH_COPIES));
    }
    units
}

/// Whether the default pipeline refuses a module. A few generated programs
/// (about one in 15 000) hit a vectorizer defect: a region fails
/// verification and, holding a horizontal operation, cannot fall back to
/// serial code (fuzz seed 3882141172837595020).
pub fn pipeline_refuses(scalar: &Module) -> bool {
    vectorize_module_with(
        scalar,
        &VectorizeOptions::default(),
        &PipelineOptions::default(),
    )
    .is_err()
}

/// A generated fuzz program the default pipeline accepts: the draw from
/// `rng`, or the first later draw that is accepted. Returns the unit and
/// the number of draws replaced.
pub fn accepted_fuzz_unit(rng: &mut util::Rng) -> (Unit, usize) {
    let mut replaced = 0;
    loop {
        let u = fuzz_unit(rng.next_u64());
        match psimc::compile(&u.source) {
            Ok(scalar) if pipeline_refuses(&scalar) => replaced += 1,
            _ => return (u, replaced),
        }
    }
}

/// The outputs a pool's ops are checked against.
#[derive(Debug, Default)]
pub struct References {
    /// Per unit: fingerprint of the SPMD reference executor's outputs.
    pub fingerprints: Vec<u64>,
    /// Fuzz draws replaced because their reference outputs hold a NaN.
    pub nan_draws_replaced: usize,
    /// Fuzz draws replaced because the default pipeline refuses them.
    pub refused_draws_replaced: usize,
}

/// Runs the SPMD reference on every unit of the pool, once per distinct
/// unit.
///
/// A fuzz draw the default pipeline refuses ([`pipeline_refuses`]) is
/// replaced by a draw from a stream of its own, and so is one whose
/// reference outputs hold a NaN (about 1.2% of draws). IEEE 754 leaves the
/// sign and payload of a computed NaN unspecified, and the default engine
/// and the SPMD reference disagree on them (e.g. `0x7fc00000` against
/// `0xffc00000` for a product of `sqrt` of a negative constant; fuzz seed
/// 660573946932991588), so such a program has no single right answer to
/// the byte comparison.
///
/// # Errors
/// A unit that does not compile or whose reference run traps.
pub fn references(seed: u64, units: &mut [Unit]) -> Result<References, String> {
    let mut spare = util::rng(seed, 6);
    let mut seen: HashMap<String, u64> = HashMap::new();
    let mut out = References::default();
    for (i, u) in units.iter_mut().enumerate() {
        if let Some(&f) = seen.get(&u.name) {
            out.fingerprints.push(f);
            continue;
        }
        let f = loop {
            let scalar = psimc::compile(&u.source).map_err(|e| format!("{}: {e}", u.name))?;
            if i < FUZZ_PER_PASS && pipeline_refuses(&scalar) {
                out.refused_draws_replaced += 1;
                *u = fuzz_unit(spare.next_u64());
                continue;
            }
            let bufs = reference_outputs(&scalar, u)?;
            if i >= FUZZ_PER_PASS || !holds_nan(u, &bufs) {
                break fingerprint(&bufs);
            }
            out.nan_draws_replaced += 1;
            *u = fuzz_unit(spare.next_u64());
        };
        seen.insert(u.name.clone(), f);
        out.fingerprints.push(f);
    }
    Ok(out)
}

/// One op: compile, vectorize, and build a plan for every function.
/// Returns the runnable module.
///
/// # Errors
/// Front-end and pipeline failures.
pub fn compile_op(
    u: &Unit,
    popts: &PipelineOptions,
    cost: &TargetCost,
    t: &mut Tracer,
    tally: &mut Tally,
) -> Result<Module, String> {
    tally.add("psimc.bytes", u.source.len() as f64);
    let scalar = t
        .span("psimc.compile", |_| psimc::compile(&u.source))
        .map_err(|e| {
            tally.add("psimc.errors", 1.0);
            format!("{}: {e}", u.name)
        })?;
    let out = t
        .span("core.vectorize", |_| {
            vectorize_module_with(&scalar, &VectorizeOptions::default(), popts)
        })
        .map_err(|e| format!("{}: {e}", u.name))?;
    record_pipeline(&scalar, &out, tally);
    let built = t.span("psir.plan_build", |_| {
        let mut it = Interp::new(&out.module, Memory::default(), cost, &EXTERNS);
        for f in out.module.functions() {
            it.precompile(&f.name);
        }
        it.plan_counters().1
    });
    tally.add("psir.plans_built", built as f64);
    Ok(out.module)
}

fn fill(u: &Unit) -> (Memory, Vec<u64>) {
    let mut mem = Memory::default();
    let addrs = u
        .bufs
        .iter()
        .map(|(_, s)| fill_buffer(&mut mem, s))
        .collect();
    (mem, addrs)
}

/// A unit's buffers after a run, in host parameter order.
pub type Buffers = Vec<Vec<u8>>;

fn read(mem: &Memory, u: &Unit, addrs: &[u64]) -> Result<Buffers, String> {
    let mut bufs = Vec::new();
    for ((_, s), &a) in u.bufs.iter().zip(addrs) {
        let bytes = s.elem.size_bytes() * s.len;
        bufs.push(
            mem.read_bytes(a, bytes)
                .map_err(|e| e.to_string())?
                .to_vec(),
        );
    }
    Ok(bufs)
}

/// The fingerprint outputs are compared on.
pub fn fingerprint(bufs: &Buffers) -> u64 {
    util::fingerprint(bufs.iter().map(Vec::as_slice))
}

/// Whether a floating-point buffer of the unit holds a NaN.
pub fn holds_nan(u: &Unit, bufs: &Buffers) -> bool {
    u.bufs.iter().zip(bufs).any(|((_, s), b)| match s.elem {
        psir::ScalarTy::F32 => b
            .chunks_exact(4)
            .any(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]).is_nan()),
        psir::ScalarTy::F64 => b
            .chunks_exact(8)
            .any(|c| f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]).is_nan()),
        _ => false,
    })
}

/// Buffers after the SPMD reference executor ran over the scalar module:
/// each host's regions, hosts in order, arguments bound by name.
///
/// # Errors
/// Traps, and region captures the unit cannot supply.
pub fn reference_outputs(scalar: &Module, u: &Unit) -> Result<Buffers, String> {
    let (mem, addrs) = fill(u);
    let mut r = SpmdRef::new(scalar, mem);
    for host in &u.entries {
        let prefix = format!("{host}__psim");
        for region in scalar.spmd_functions() {
            if !region.starts_with(&prefix) {
                continue;
            }
            let f = scalar.function(&region).ok_or("region vanished")?;
            let captured = &f.params[..f.params.len().saturating_sub(2)];
            let mut args = Vec::new();
            for p in captured {
                if p.name == "n" {
                    args.push(RtVal::S(u.n));
                } else if let Some(i) = u.bufs.iter().position(|(b, _)| *b == p.name) {
                    args.push(RtVal::S(addrs[i]));
                } else {
                    return Err(format!("{}: @{region} captures `{}`", u.name, p.name));
                }
            }
            r.run_region(&region, &args, u.n)
                .map_err(|e| format!("{}: SPMD reference: {e}", u.name))?;
        }
    }
    read(&r.mem, u, &addrs)
}

/// Buffers after the vectorized module ran on the default engine.
///
/// # Errors
/// Traps.
pub fn vectorized_outputs(module: &Module, u: &Unit, cost: &TargetCost) -> Result<Buffers, String> {
    let (mem, addrs) = fill(u);
    let mut it = Interp::new(module, mem, cost, &EXTERNS);
    let mut args: Vec<RtVal> = addrs.iter().map(|&a| RtVal::S(a)).collect();
    args.push(RtVal::S(u.n));
    for host in &u.entries {
        it.call(host, &args)
            .map_err(|e| format!("{}: @{host}: {e}", u.name))?;
    }
    read(&it.mem, u, &addrs)
}

/// Runs the workload.
///
/// # Errors
/// Never at present; set-up is infallible.
pub fn run(p: &Params, out: &mut Outcome) -> Result<(), String> {
    let epoch = Instant::now();
    let mut t = Tracer::new(p.trace, epoch, 0);
    let mut tally = Tally::default();
    let cost = TargetCost::for_target(Target::reference_default());
    let popts = PipelineOptions::default();

    let (t0, ticks) = (Instant::now(), util::cpu_ticks());
    let mut units = t.span("setup", |_| pool(p.seed));
    out.record_setup(t0, ticks);
    // Off the clock, like every check: the outputs ops are compared with.
    let refs = references(p.seed, &mut units)?;
    out.input_mix = vec![
        ("fuzz_programs", FUZZ_PER_PASS as f64),
        ("nan_draws_replaced", refs.nan_draws_replaced as f64),
        ("refused_draws_replaced", refs.refused_draws_replaced as f64),
    ];

    let mut rng = util::rng(p.seed, 3);
    let mut check_s = 0.0;
    let start = Instant::now();
    let mut last_pass = 0.0;
    let mut op_id = 0u64;
    loop {
        let elapsed = start.elapsed().as_secs_f64() - check_s;
        if op_id > 0 && elapsed + last_pass > p.seconds {
            break;
        }
        let pass_start = Instant::now();
        let pass_ticks = util::cpu_ticks();
        let pass_check_start = check_s;
        let mut order: Vec<usize> = (0..units.len()).collect();
        util::shuffle(&mut rng, &mut order);
        for ui in order {
            op_id += 1;
            let traced = p.trace && traced_window(start.elapsed().as_secs_f64() - check_s);
            t.set_on(traced);
            t.set_op(op_id);
            let u = &units[ui];
            let t0 = Instant::now();
            let r = t.span("op", |t| compile_op(u, &popts, &cost, t, &mut tally));
            let nanos = t0.elapsed().as_nanos() as u64;
            out.attempted += 1;
            // Off the clock: the tiny-n check against the SPMD reference.
            let c0 = Instant::now();
            let verdict = r.and_then(|module| {
                let got = fingerprint(&vectorized_outputs(&module, u, &cost)?);
                let want = refs.fingerprints[ui] ^ u64::from(p.corrupt_reference);
                if got == want {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: output differs from the SPMD reference",
                        u.name
                    ))
                }
            });
            check_s += c0.elapsed().as_secs_f64();
            match verdict {
                Ok(()) => out.ops.push(OpRecord {
                    kind: ui as u32,
                    nanos,
                    traced,
                    segment: out.segments.len() as u32,
                }),
                Err(e) => out.fail(e),
            }
        }
        last_pass = pass_start.elapsed().as_secs_f64() - (check_s - pass_check_start);
        out.segments.push(last_pass);
        out.segment_ticks
            .push(util::ticks_between(pass_ticks, util::cpu_ticks()));
        check_s += crate::setup_block(out, || {
            drop(pool(p.seed));
            Ok(())
        })?;
    }
    out.wall_s = start.elapsed().as_secs_f64() - check_s;
    out.peak_rss_mib = out.peak_rss_mib.or_else(|| crate::util::peak_rss_mib(None));
    out.rss_of = "benchmark process";
    if p.trace {
        t.set_on(true);
        // The pool ends with the multi-region units; walking it backwards
        // puts each of them in the breakdown before the fuzz programs.
        let sources =
            crate::layers::breakdown_sources(units.iter().rev().map(|u| u.source.as_str()));
        crate::layers::pass_breakdown(&mut t, &mut tally, &sources);
    }
    out.tally.merge(&tally);
    out.tracers.push(t);
    Ok(())
}
