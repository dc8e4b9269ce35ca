//! Wall-clock execution benchmark for the interpreter's fast engine.
//!
//! Every Figure 4/5 cycle count comes from dynamically executing vector IR
//! through the `psir` interpreter, so the interpreter's *wall-clock* speed
//! bounds how large a workload the harnesses can afford. This module times
//! the suite kernels end-to-end under both execution engines — the
//! precompiled `FramePlan` fast path and the retained reference step loop
//! — reporting best-of-`iters` wall time per kernel, the geomean speedup,
//! and whether the two engines were **byte-identical** in simulated
//! cycles, checked outputs, execution statistics, and profile JSON (the
//! identity contract CI gates on with `--check`).
//!
//! Used by the `runbench` binary and the CI `run-time` job; the committed
//! `BENCH_runbench.json` and `BENCH_runbench_sve.json` baselines record
//! the perf trajectory.

use psir::Engine;
use std::time::Instant;
use suite::runner::{
    build_module, geomean, run_module_engine, run_module_engine_shared, Config, RunResult,
};
use suite::Kernel;
use telemetry::Json;
use vmach::{Target, TargetCost};

/// Configuration of one execution-time measurement.
#[derive(Debug, Clone)]
pub struct RunBenchConfig {
    /// Workload size for the Simd-Library kernel set (elements; must be a
    /// positive multiple of 256).
    pub n: u64,
    /// Timed repetitions per kernel and engine; the best (minimum) wall
    /// time is reported to suppress scheduler noise.
    pub iters: usize,
    /// The machine simulated cycles are priced against. Both engines share
    /// it (the identity contract is per target), and it is recorded in the
    /// report meta so per-target baseline files cannot be compared across
    /// targets by accident.
    pub target: Target,
}

impl Default for RunBenchConfig {
    fn default() -> RunBenchConfig {
        RunBenchConfig {
            n: 4096,
            iters: 3,
            target: Target::reference_default(),
        }
    }
}

/// The mode tag recorded in the report meta and the text summary.
const MODE: &str = "fast-vs-reference";

/// Per-kernel timing of the fast engine against the reference engine.
#[derive(Debug, Clone)]
pub struct RunBenchRow {
    /// Kernel name.
    pub kernel: String,
    /// Configuration label (the vectorized module that was executed).
    pub config: &'static str,
    /// Simulated cycles (identical for both engines when `identical`).
    pub cycles: u64,
    /// Best fast-engine wall time, nanoseconds.
    pub fast_nanos: u64,
    /// Best reference-engine wall time, nanoseconds.
    pub reference_nanos: u64,
    /// Whether cycles, checked outputs, execution statistics, and profile
    /// JSON were byte-identical between the engines.
    pub identical: bool,
}

impl RunBenchRow {
    /// Reference wall time over fast wall time (higher = fast engine
    /// faster).
    pub fn speedup(&self) -> f64 {
        self.reference_nanos as f64 / self.fast_nanos.max(1) as f64
    }
}

/// Result of a full suite sweep.
#[derive(Debug, Clone)]
pub struct RunBenchReport {
    /// The configuration measured.
    pub config: RunBenchConfig,
    /// Per-kernel timings.
    pub rows: Vec<RunBenchRow>,
}

impl RunBenchReport {
    /// Geomean of per-kernel wall-clock speedups (reference / fast).
    pub fn geomean_speedup(&self) -> f64 {
        let xs: Vec<f64> = self.rows.iter().map(RunBenchRow::speedup).collect();
        geomean(&xs)
    }

    /// Whether every kernel was engine-identical.
    pub fn all_identical(&self) -> bool {
        self.rows.iter().all(|r| r.identical)
    }

    /// Serializes the report to a JSON object (the CI artifact and
    /// `BENCH_runbench.json` baseline format).
    pub fn to_json(&self) -> Json {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("kernel", Json::Str(r.kernel.clone())),
                    ("config", Json::Str(r.config.to_string())),
                    ("cycles", Json::u64(r.cycles)),
                    ("fast_nanos", Json::u64(r.fast_nanos)),
                    ("reference_nanos", Json::u64(r.reference_nanos)),
                    ("speedup", Json::Num(r.speedup())),
                    ("identical", Json::Bool(r.identical)),
                ])
            })
            .collect();
        Json::obj(vec![
            (
                "meta",
                telemetry::cli::bench_meta(
                    "runbench",
                    vec![
                        ("n", Json::u64(self.config.n)),
                        ("iters", Json::u64(self.config.iters as u64)),
                        // Cache-relevant sweep description: which kernel
                        // sets and gang configurations the rows cover.
                        (
                            "gang_config",
                            Json::Str("simdlib×parsimony + ispc(tiny)×{parsimony,gangsync}".into()),
                        ),
                        ("engine", Json::Str(MODE.into())),
                        ("target", Json::Str(self.config.target.flag_name())),
                    ],
                ),
            ),
            ("n", Json::u64(self.config.n)),
            ("iters", Json::u64(self.config.iters as u64)),
            ("geomean_speedup", Json::Num(self.geomean_speedup())),
            ("identical", Json::Bool(self.all_identical())),
            ("kernels", Json::u64(self.rows.len() as u64)),
            ("rows", Json::Arr(rows)),
        ])
    }

    /// Renders the human-readable summary (worst and best kernels plus the
    /// aggregate line; the full per-kernel table lives in the JSON).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "runbench[{}]: {} kernel(s), n={}, {} iteration(s) per engine\n",
            MODE,
            self.rows.len(),
            self.config.n,
            self.config.iters
        ));
        out.push_str(&format!(
            "{:<28} {:>12} {:>12} {:>8}  identical\n",
            "kernel", "fast (us)", "ref (us)", "speedup"
        ));
        let mut ranked: Vec<&RunBenchRow> = self.rows.iter().collect();
        ranked.sort_by(|a, b| {
            a.speedup()
                .partial_cmp(&b.speedup())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let shown: Vec<&RunBenchRow> = if ranked.len() > 10 {
            ranked
                .iter()
                .take(5)
                .chain(ranked.iter().rev().take(5).rev())
                .copied()
                .collect()
        } else {
            ranked
        };
        for r in &shown {
            out.push_str(&format!(
                "{:<28} {:>12.1} {:>12.1} {:>7.2}x  {}\n",
                format!("{}/{}", r.kernel, r.config),
                r.fast_nanos as f64 / 1e3,
                r.reference_nanos as f64 / 1e3,
                r.speedup(),
                if r.identical { "yes" } else { "NO" }
            ));
        }
        if shown.len() < self.rows.len() {
            out.push_str(&format!(
                "  ... ({} more kernels in the JSON report)\n",
                self.rows.len() - shown.len()
            ));
        }
        out.push_str(&format!(
            "geomean speedup      : {:>7.2}x\n",
            self.geomean_speedup()
        ));
        out.push_str(&format!(
            "engines identical    : {}\n",
            if self.all_identical() { "yes" } else { "NO" }
        ));
        out
    }
}

/// One timed execution of a built module under `engine` (unprofiled, the
/// configuration the harnesses run in). All runs of one kernel share a
/// plan cache, so the measurement amortizes frame-plan construction across
/// iterations exactly as the serving path's warm runs do — both engines
/// benefit identically, keeping the comparison fair.
fn timed_run(
    module: &psir::Module,
    k: &Kernel,
    cost: &TargetCost,
    engine: Engine,
    plans: &std::sync::Arc<psir::PlanCache>,
) -> Result<(u64, RunResult), String> {
    let t = Instant::now();
    let r = run_module_engine_shared(module, k, cost, false, engine, plans, 0)?;
    Ok((t.elapsed().as_nanos() as u64, r))
}

/// Benchmarks one kernel/config pair: best-of-`iters` wall time per
/// engine, plus a profiled identity run per engine.
fn bench_kernel(
    k: &Kernel,
    cfg_label: &'static str,
    config: Config,
    iters: usize,
    target: &Target,
) -> Result<RunBenchRow, String> {
    let module = build_module(k, config).map_err(|e| format!("{}: {e}", k.name))?;
    let cost = TargetCost::for_target(target.clone());
    // One cache per kernel (module_id 0): both engines share the same
    // frame plans, so neither engine pays plan construction inside
    // the timed region after its first iteration.
    let plans = std::sync::Arc::new(psir::PlanCache::new(1 << 20));

    let mut best: [Option<(u64, RunResult)>; 2] = [None, None];
    for (slot, engine) in [(0, Engine::Fast), (1, Engine::Reference)] {
        for _ in 0..iters {
            let (nanos, r) = timed_run(&module, k, &cost, engine, &plans)
                .map_err(|e| format!("{}[{engine:?}]: {e}", k.name))?;
            if best[slot].as_ref().is_none_or(|(b, _)| nanos < *b) {
                best[slot] = Some((nanos, r));
            }
        }
    }
    let [fast, reference] = best;
    let (fast_nanos, fast_r) = fast.ok_or("runbench: no fast run completed")?;
    let (reference_nanos, ref_r) = reference.ok_or("runbench: no reference run completed")?;

    // Identity: cycles / outputs / stats from the timed runs, profile JSON
    // from one profiled run per engine.
    let profile_json = |engine: Engine| -> Result<String, String> {
        let r = run_module_engine(&module, k, &cost, true, engine)
            .map_err(|e| format!("{}[{engine:?}]: {e}", k.name))?;
        Ok(r.profile
            .map(|p| p.to_json().to_string_pretty())
            .unwrap_or_default())
    };
    let identical = fast_r.cycles == ref_r.cycles
        && fast_r.outputs == ref_r.outputs
        && fast_r.stats == ref_r.stats
        && profile_json(Engine::Fast)? == profile_json(Engine::Reference)?;

    Ok(RunBenchRow {
        kernel: k.name.clone(),
        config: cfg_label,
        cycles: fast_r.cycles,
        fast_nanos,
        reference_nanos,
        identical,
    })
}

/// Runs the full suite sweep: every Simd-Library kernel (Figure 5's set)
/// executed as its Parsimony-vectorized module, plus the ispc suite
/// (Figure 4's set, tiny sizes) under both the Parsimony and
/// gang-synchronous configurations.
///
/// # Errors
/// Reports build failures and runtime traps with kernel context.
pub fn run(cfg: &RunBenchConfig) -> Result<RunBenchReport, String> {
    if cfg.iters == 0 {
        return Err("runbench: iters must be >= 1".into());
    }
    if cfg.n == 0 || !cfg.n.is_multiple_of(256) {
        return Err("runbench: n must be a positive multiple of 256".into());
    }
    let mut rows = Vec::new();
    for k in suite::simdlib::kernels(cfg.n) {
        rows.push(bench_kernel(
            &k,
            Config::Parsimony.label(),
            Config::Parsimony,
            cfg.iters,
            &cfg.target,
        )?);
    }
    for k in suite::ispc::kernels(suite::ispc::IspcSizes::tiny()) {
        for config in [Config::Parsimony, Config::GangSync] {
            rows.push(bench_kernel(
                &k,
                config.label(),
                config,
                cfg.iters,
                &cfg.target,
            )?);
        }
    }
    Ok(RunBenchReport {
        config: cfg.clone(),
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_kernel_is_identical_and_reports() {
        let k = suite::simdlib::kernels(256)
            .into_iter()
            .next()
            .expect("suite has kernels");
        let row = bench_kernel(
            &k,
            Config::Parsimony.label(),
            Config::Parsimony,
            1,
            &Target::reference_default(),
        )
        .expect("kernel benches");
        assert!(row.identical, "engines must agree on {}", row.kernel);
        assert!(row.cycles > 0);
        let report = RunBenchReport {
            config: RunBenchConfig {
                n: 256,
                iters: 1,
                target: Target::reference_default(),
            },
            rows: vec![row],
        };
        let j = report.to_json().to_string_pretty();
        assert!(j.contains("\"geomean_speedup\""));
        assert!(j.contains("\"identical\": true"));
        assert!(j.contains("\"fast_nanos\""));
        assert!(j.contains("\"reference_nanos\""));
        assert!(report.render_text().contains("geomean speedup"));
    }

    #[test]
    fn rejects_bad_config() {
        assert!(run(&RunBenchConfig {
            n: 100,
            iters: 1,
            ..RunBenchConfig::default()
        })
        .is_err());
        assert!(run(&RunBenchConfig {
            n: 256,
            iters: 0,
            ..RunBenchConfig::default()
        })
        .is_err());
    }
}
