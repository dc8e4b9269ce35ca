//! # psim-bench — the experiment harnesses
//!
//! Binaries `fig4` and `fig5` regenerate the paper's two results figures
//! (run them with `cargo run --release -p psim-bench --bin fig4` / `fig5`).
//! See `EXPERIMENTS.md` at the repository root for recorded outputs.

#![warn(missing_docs)]

pub mod compbench;
pub mod runbench;

use suite::runner::{
    build_module, geomean, run_kernel_profiled, run_module_engine, Config, RunResult,
};
use suite::Kernel;
use telemetry::cli::{positive, Args};
use telemetry::{Profile, ProfileDiff};
use vmach::{Target, TargetCost};

/// One row of a speedup table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Kernel name.
    pub name: String,
    /// `(config, cycles)` pairs in presentation order.
    pub cycles: Vec<(Config, u64)>,
    /// `(config, best-of-iters wall nanoseconds)` pairs: how long the
    /// interpreter itself took, as opposed to the simulated cycles it
    /// reported.
    pub wall_nanos: Vec<(Config, u64)>,
}

impl Row {
    /// Speedup of `cfg` relative to `base` (higher = faster than base).
    pub fn speedup(&self, cfg: Config, base: Config) -> f64 {
        let get = |c: Config| {
            self.cycles
                .iter()
                .find(|(k, _)| *k == c)
                .map(|(_, v)| *v as f64)
                .expect("config measured")
        };
        get(base) / get(cfg)
    }

    /// Best-of-iters wall time of one configuration, in milliseconds.
    pub fn wall_ms(&self, cfg: Config) -> f64 {
        self.wall_nanos
            .iter()
            .find(|(k, _)| *k == cfg)
            .map(|(_, v)| *v as f64 / 1e6)
            .expect("config measured")
    }
}

/// Runs every configuration of every kernel once, returning the rows.
///
/// # Panics
/// Panics on any build or runtime failure (harness inputs are trusted).
pub fn measure(kernels: &[Kernel], cfgs: &[Config]) -> Vec<Row> {
    measure_iters(kernels, cfgs, 1)
}

/// Like [`measure`], repeating each kernel/config execution `iters` times
/// and recording the best (minimum) wall time — the simulated cycles are
/// deterministic across repetitions, only the wall clock varies.
///
/// # Panics
/// Panics on any build or runtime failure (harness inputs are trusted),
/// and if `iters` is zero.
pub fn measure_iters(kernels: &[Kernel], cfgs: &[Config], iters: usize) -> Vec<Row> {
    assert!(iters >= 1, "iters must be >= 1");
    kernels
        .iter()
        .map(|k| {
            let mut cycles = Vec::with_capacity(cfgs.len());
            let mut wall_nanos = Vec::with_capacity(cfgs.len());
            for &c in cfgs {
                // Build once; the wall clock times execution, not
                // compilation (compbench owns compile time).
                let module = build_module(k, c).unwrap_or_else(|e| panic!("{}: {e}", k.name));
                let cost = TargetCost::for_target(suite::runner::default_target());
                let mut best = u64::MAX;
                let mut got = 0u64;
                for _ in 0..iters {
                    let t = std::time::Instant::now();
                    let r: RunResult =
                        run_module_engine(&module, k, &cost, false, psir::Engine::default())
                            .unwrap_or_else(|e| panic!("{}: {e}", k.name));
                    best = best.min(t.elapsed().as_nanos() as u64);
                    got = r.cycles;
                }
                cycles.push((c, got));
                wall_nanos.push((c, best));
            }
            Row {
                name: k.name.clone(),
                cycles,
                wall_nanos,
            }
        })
        .collect()
}

/// Total best-of-iters wall time of one configuration across all rows, in
/// milliseconds.
pub fn total_wall_ms(rows: &[Row], cfg: Config) -> f64 {
    rows.iter().map(|r| r.wall_ms(cfg)).sum()
}

/// Geomean of per-row speedups of `cfg` over `base`.
pub fn geomean_speedup(rows: &[Row], cfg: Config, base: Config) -> f64 {
    let xs: Vec<f64> = rows.iter().map(|r| r.speedup(cfg, base)).collect();
    geomean(&xs)
}

/// Formats a fixed-width table cell.
pub fn cell(v: f64) -> String {
    format!("{v:8.2}")
}

/// How a harness should report its cycle-attribution profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileMode {
    /// No profiling (the default).
    Off,
    /// Human-readable per-kernel breakdown after the speedup tables.
    Text,
    /// A single profile JSON document on stdout (tables suppressed so the
    /// output can be piped straight into `profdiff`).
    Json,
}

/// Applies the flags both figure harnesses share and returns the
/// best-of-N iteration count (`--iters`, default 1) and the profile mode
/// (`--profile[=text|json]`).
///
/// `--target T` routes every default-cost kernel run through
/// [`suite::runner::set_target_override`], so the whole process prices
/// against the chosen machine. `-j N` reaches the kernel builders, which
/// compile through default [`parsimony::PipelineOptions`], through the
/// `PSIM_JOBS` environment variable, set here before any compilation
/// starts.
pub fn figure_flags(args: &Args) -> (usize, ProfileMode) {
    if let Some(target) = args.value("--target", Target::parse) {
        suite::runner::set_target_override(target);
    }
    if let Some(jobs) = args.value("--jobs", positive::<usize>) {
        std::env::set_var(parsimony::JOBS_ENV_VAR, jobs.to_string());
    }
    let profile = match args.optional("--profile") {
        None => ProfileMode::Off,
        Some(Some("json")) => ProfileMode::Json,
        Some(_) => ProfileMode::Text,
    };
    (args.value("--iters", positive).unwrap_or(1), profile)
}

/// FNV-1a fingerprint of a module's printed text. The `target-contract`
/// gate (fig4 `--contract`) prints this so CI can diff compilations at
/// different SVE vector lengths: the fingerprints must match because
/// compilation is target-independent.
pub fn module_fingerprint(module: &psir::Module) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in psir::print_module(module).bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Runs one kernel configuration with profiling and namespaces every
/// function as `{kernel}/{target}/{config}/{function}` so profiles from
/// many kernels (and many targets, since the telemetry is a target×config
/// matrix) can be merged into one document without key collisions.
///
/// # Panics
/// Panics on build or runtime failure (harness inputs are trusted).
pub fn profile_kernel(k: &Kernel, cfg: Config) -> Profile {
    let r = run_kernel_profiled(k, cfg).unwrap_or_else(|e| panic!("{}: {e}", k.name));
    let p = r.profile.expect("profiled run returns a profile");
    let target = suite::runner::default_target().flag_name();
    let mut out = Profile::new();
    for (fname, fp) in p.functions {
        out.functions
            .insert(format!("{}/{target}/{}/{fname}", k.name, cfg.label()), fp);
    }
    out
}

/// Profiles every kernel under every configuration into one merged,
/// namespaced [`Profile`].
///
/// # Panics
/// Panics on build or runtime failure (harness inputs are trusted).
pub fn profile_kernels(kernels: &[Kernel], cfgs: &[Config]) -> Profile {
    let mut merged = Profile::new();
    for k in kernels {
        for &c in cfgs {
            merged.merge(&profile_kernel(k, c));
        }
    }
    merged
}

/// Core of the `profdiff` binary: parse two profile JSON documents and
/// compare `after` against the `before` baseline.
///
/// Returns the rendered diff table and whether the geomean cycle ratio
/// regressed past `threshold` (the binary turns that into a nonzero exit).
///
/// # Errors
/// Reports malformed JSON or JSON that is not a profile document.
pub fn profdiff(
    before_json: &str,
    after_json: &str,
    threshold: f64,
) -> Result<(String, bool), String> {
    let parse = |src: &str, which: &str| -> Result<Profile, String> {
        let j = telemetry::Json::parse(src).map_err(|e| format!("{which}: {e}"))?;
        Profile::from_json(&j).ok_or_else(|| format!("{which}: not a profile document"))
    };
    let before = parse(before_json, "before")?;
    let after = parse(after_json, "after")?;
    let diff = ProfileDiff::compute(&before, &after, threshold);
    Ok((diff.render_text(), diff.regressed))
}
