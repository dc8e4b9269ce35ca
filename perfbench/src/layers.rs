//! Per-layer metrics: names, units, and how they are derived from span
//! aggregates and the workloads' own counters.

use crate::trace::Agg;
use parsimony::VectorizeOptions;
use psir::{Function, Module};
use std::collections::BTreeMap;

/// Every per-layer metric a traced run reports, with its unit. A workload
/// that does not exercise a layer reports 0 for it (no calls, no time).
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("psimc.parse_s", "s"),
    ("psimc.compile_s", "s"),
    ("psimc.bytes_per_s", "B/s"),
    ("psimc.errors", "count"),
    ("core.vectorize_s", "s"),
    ("core.structurize_s", "s"),
    ("core.shape_s", "s"),
    ("core.transform_s", "s"),
    ("core.opt_s", "s"),
    ("core.verify_s", "s"),
    ("core.regions", "count"),
    ("core.degraded_frac", "share"),
    ("core.ir_insts_in", "count"),
    ("core.ir_insts_out", "count"),
    ("core.parallel_efficiency", "share"),
    ("autovec.vectorize_s", "s"),
    ("vmach.legalize_s", "s"),
    ("vmach.uops", "count"),
    ("psir.plan_build_s", "s"),
    ("psir.plans_built", "count"),
    ("psir.exec_s", "s"),
    ("psir.insts", "count"),
    ("psir.ns_per_inst", "ns"),
    ("psir.sim_cycles", "count"),
    ("suite.fill_s", "s"),
    ("serve.compile_s", "s"),
    ("serve.exec_s", "s"),
    ("serve.unattributed_s", "s"),
    ("serve.unattributed_frac", "share"),
    ("serve.codec_s", "s"),
    ("serve.module_hit_ratio", "share"),
    ("serve.plan_hit_ratio", "share"),
    ("serve.evictions", "count"),
    ("serve.batches", "count"),
    ("serve.mean_batch_size", "count"),
    ("serve.coalesced_frac", "share"),
    ("serve.refused", "count"),
    ("self.op_s", "s"),
    ("self.psimc.compile_s", "s"),
    ("self.core.vectorize_s", "s"),
    ("self.psir.plan_build_s", "s"),
    ("self.psir.exec_s", "s"),
    ("self.suite.fill_s", "s"),
    ("self.serve.request_s", "s"),
    ("trace.overhead_frac", "share"),
    ("trace.spans", "count"),
];

/// Per-layer metrics that cannot be measured from outside the program,
/// with the reason (reported in every traced run's report file).
pub const NOT_MEASURED: &[(&str, &str)] = &[(
    "serve.retries",
    "the benchmark never retries: a refused (`overloaded`) request counts as failed, so \
     retries are 0 by construction; `serve.refused` carries the signal",
)];

/// Span names whose mean duration per call is reported as `<name>_s`.
const TIMED_CALLS: &[&str] = &[
    "psimc.parse",
    "psimc.compile",
    "core.vectorize",
    "core.structurize",
    "core.shape",
    "core.opt",
    "core.verify",
    "autovec.vectorize",
    "vmach.legalize",
    "psir.plan_build",
    "psir.exec",
    "suite.fill",
    "serve.codec",
];

/// Span names inside an op whose self time per op is reported as
/// `self.<name>_s`.
const SELF_TIMED: &[&str] = &[
    "op",
    "psimc.compile",
    "core.vectorize",
    "psir.plan_build",
    "psir.exec",
    "suite.fill",
    "serve.request",
];

/// At most this many distinct sources go through the per-pass breakdown.
pub const MAX_BREAKDOWN_SOURCES: usize = 24;

/// The first [`MAX_BREAKDOWN_SOURCES`] distinct sources, in order.
pub fn breakdown_sources<'a>(sources: impl Iterator<Item = &'a str>) -> Vec<&'a str> {
    let mut out: Vec<&str> = Vec::new();
    for s in sources {
        if out.len() == MAX_BREAKDOWN_SOURCES {
            break;
        }
        if !out.contains(&s) {
            out.push(s);
        }
    }
    out
}

/// Summed counters a workload records at layer boundaries.
#[derive(Debug, Default, Clone)]
pub struct Tally(BTreeMap<&'static str, (f64, u64)>);

impl Tally {
    /// Adds one observation.
    pub fn add(&mut self, name: &'static str, v: f64) {
        let e = self.0.entry(name).or_default();
        e.0 += v;
        e.1 += 1;
    }

    /// Sum of the observations (0 if none).
    pub fn sum(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |e| e.0)
    }

    /// Mean of the observations (0 if none).
    pub fn mean(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .map_or(0.0, |e| if e.1 == 0 { 0.0 } else { e.0 / e.1 as f64 })
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &Tally) {
        for (k, (s, n)) in &other.0 {
            let e = self.0.entry(k).or_default();
            e.0 += s;
            e.1 += n;
        }
    }
}

/// Ratio that reads 0 when the denominator is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Derives every per-layer metric from the span aggregates and counters.
/// Metrics named in `absent` (a daemon counter the running server no
/// longer reports) are left out rather than reported as 0.
pub fn derive(
    agg: &BTreeMap<(&'static str, &'static str), Agg>,
    tally: &Tally,
    overhead: Option<f64>,
    absent: &[&str],
) -> Vec<(&'static str, &'static str, f64)> {
    let mut by_name: BTreeMap<&str, Agg> = BTreeMap::new();
    for ((_, name), a) in agg {
        let e = by_name.entry(name).or_default();
        e.count += a.count;
        e.total_ns += a.total_ns;
        e.self_ns += a.self_ns;
    }
    let mean_s = |name: &str| {
        by_name
            .get(name)
            .map_or(0.0, |a| ratio(a.total_ns as f64, a.count as f64) / 1e9)
    };
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    for name in TIMED_CALLS {
        v.insert(format!("{name}_s"), mean_s(name));
    }
    // vectorize_function runs structurize and shape analysis itself; the
    // transform's own time is what remains.
    v.insert(
        "core.transform_s".into(),
        (mean_s("core.transform") - mean_s("core.structurize") - mean_s("core.shape")).max(0.0),
    );
    let compile_total = by_name
        .get("psimc.compile")
        .map_or(0.0, |a| a.total_ns as f64 / 1e9);
    v.insert(
        "psimc.bytes_per_s".into(),
        ratio(tally.sum("psimc.bytes"), compile_total),
    );
    v.insert("psimc.errors".into(), tally.sum("psimc.errors"));
    v.insert("core.regions".into(), tally.mean("core.regions"));
    v.insert(
        "core.degraded_frac".into(),
        ratio(tally.sum("core.degraded"), tally.sum("core.regions")),
    );
    v.insert("core.ir_insts_in".into(), tally.mean("core.ir_insts_in"));
    v.insert("core.ir_insts_out".into(), tally.mean("core.ir_insts_out"));
    v.insert(
        "core.parallel_efficiency".into(),
        ratio(tally.sum("core.region_ns"), tally.sum("core.wall_jobs_ns")),
    );
    v.insert("vmach.uops".into(), tally.mean("vmach.uops"));
    v.insert("psir.plans_built".into(), tally.mean("psir.plans_built"));
    v.insert("psir.insts".into(), tally.mean("psir.insts"));
    v.insert(
        "psir.ns_per_inst".into(),
        ratio(tally.sum("psir.exec_ns"), tally.sum("psir.insts")),
    );
    v.insert("psir.sim_cycles".into(), tally.mean("psir.sim_cycles"));
    for name in [
        "serve.compile_s",
        "serve.exec_s",
        "serve.unattributed_s",
        "serve.module_hit_ratio",
    ] {
        v.insert(name.into(), tally.mean(name));
    }
    v.insert(
        "serve.unattributed_frac".into(),
        ratio(
            tally.sum("serve.unattributed_s"),
            tally.sum("serve.latency_s"),
        ),
    );
    v.insert(
        "serve.plan_hit_ratio".into(),
        ratio(
            tally.sum("serve.plan_hits"),
            tally.sum("serve.plan_hits") + tally.sum("serve.plan_builds"),
        ),
    );
    for name in [
        "serve.evictions",
        "serve.batches",
        "serve.mean_batch_size",
        "serve.coalesced_frac",
        "serve.refused",
    ] {
        v.insert(name.into(), tally.sum(name));
    }
    let ops = agg.get(&("op", "op")).map_or(0, |a| a.count) as f64;
    for name in SELF_TIMED {
        let self_ns = agg.get(&("op", *name)).map_or(0, |a| a.self_ns) as f64;
        v.insert(format!("self.{name}_s"), ratio(self_ns, ops) / 1e9);
    }
    v.insert("trace.overhead_frac".into(), overhead.unwrap_or(0.0));
    v.insert(
        "trace.spans".into(),
        agg.values().map(|a| a.count).sum::<u64>() as f64,
    );
    LAYER_METRICS
        .iter()
        .filter(|(name, _)| !absent.contains(name))
        .map(|&(name, unit)| (name, unit, v.get(name).copied().unwrap_or(0.0)))
        .collect()
}

/// Live instructions of a function (the arena may hold dead ones).
pub fn live_insts(f: &Function) -> usize {
    f.block_ids().map(|b| f.block(b).insts.len()).sum()
}

/// Live instructions of a module.
pub fn module_insts(m: &Module) -> usize {
    m.functions().map(live_insts).sum()
}

/// The per-pass breakdown, run off the clock after the traced loop: each
/// pipeline pass called on its own over the regions of `sources`, under a
/// `passes` root span. Regions whose transform fails (the pipeline would
/// degrade them) stop after the transform.
pub fn pass_breakdown(tracer: &mut crate::trace::Tracer, tally: &mut Tally, sources: &[&str]) {
    let target = vmach::Target::reference_default();
    let opts = VectorizeOptions::default();
    for src in sources {
        tracer.span("passes", |t| {
            if t.span("psimc.parse", |_| psimc::parse(src)).is_err() {
                return;
            }
            let Ok(m) = psimc::compile(src) else { return };
            for name in m.spmd_functions() {
                let Some(f) = m.function(&name) else { continue };
                let Some(spmd) = f.spmd else { continue };
                let Ok(tree) = t.span("core.structurize", |_| parsimony::structurize(f)) else {
                    continue;
                };
                t.span("core.shape", |_| {
                    parsimony::analyze(f, spmd.gang_size, &tree);
                });
                let Ok(v) = t.span("core.transform", |_| {
                    parsimony::vectorize_function(f, &opts, false)
                }) else {
                    continue;
                };
                let mut func = v.func;
                t.span("core.opt", |_| parsimony::opt::cleanup(&mut func));
                t.span("core.verify", |_| {
                    psir::verify_function(&func);
                });
                let uops = t.span("vmach.legalize", |_| {
                    let mut uops = 0;
                    for b in func.block_ids() {
                        for &id in &func.block(b).insts {
                            uops += vmach::legalize(&target, &func, id).len();
                        }
                    }
                    uops
                });
                tally.add("vmach.uops", uops as f64);
            }
        });
    }
}
