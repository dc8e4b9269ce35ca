//! # perfbench — the repository benchmark
//!
//! Four workloads, each timing the benchmark's own calls into the
//! workspace crates' public functions (see `README.md` in this directory):
//!
//! * `compile` — source to runnable code ([`compile`]);
//! * `execute` — the Figure 4/5 kernels on the default engine ([`execute`]);
//! * `serve-mixed` / `serve-shared` — the shipped `psim-serve` daemon
//!   ([`serve`]).
//!
//! A run prints the end-to-end metrics (tracing off) or, with `--trace 1`,
//! the per-layer metrics derived from in-memory spans ([`trace`],
//! [`layers`]). Every op's output is checked; any failure makes the run
//! report `correct: false` and exit non-zero.

pub mod compile;
pub mod execute;
pub mod layers;
pub mod serve;
pub mod trace;
pub mod util;

use std::collections::BTreeSet;
use std::path::PathBuf;
use telemetry::Json;

/// Fewest set-up repetitions per run of the serve workloads, which set up
/// before their timed loop only; `setup_s` is the median of the
/// repetitions.
pub const SETUP_REPS: usize = 5;

/// Set-up repeats until its repetitions add up to at least this many
/// seconds. Five repetitions of a short set-up read the host's speed over
/// a fraction of a second, which on a shared machine swings by a third
/// between runs.
pub const SETUP_MIN_S: f64 = 2.0;

/// Most set-up repetitions per run, whatever their duration.
pub const SETUP_MAX_REPS: usize = 200;

/// Whether a workload should repeat its set-up once more, given the
/// durations of the repetitions so far.
pub fn more_setup(done: &[f64]) -> bool {
    done.len() < SETUP_REPS
        || (done.len() < SETUP_MAX_REPS && done.iter().sum::<f64>() < SETUP_MIN_S)
}

/// Seconds of set-up repetitions after each timed pass of `compile` and
/// `execute`. Their set-up takes 40–200 ms and the host's speed drifts
/// over seconds, so repetitions taken only before the loop read one
/// moment of it; spread over the run they read the same host the timed
/// passes do.
pub const SETUP_BLOCK_S: f64 = 0.25;

/// Off the clock, after a timed pass: reads peak RSS if not yet read (a
/// repetition holds a second copy of the set-up's result), then repeats
/// `setup` for [`SETUP_BLOCK_S`], recording each repetition. Returns the
/// block's duration.
///
/// # Errors
/// A failed repetition.
pub fn setup_block(
    out: &mut Outcome,
    mut setup: impl FnMut() -> Result<(), String>,
) -> Result<f64, String> {
    if out.peak_rss_mib.is_none() {
        out.peak_rss_mib = util::peak_rss_mib(None);
    }
    let block = std::time::Instant::now();
    while block.elapsed().as_secs_f64() < SETUP_BLOCK_S {
        let (t0, ticks) = (std::time::Instant::now(), util::cpu_ticks());
        setup()?;
        out.record_setup(t0, ticks);
    }
    Ok(block.elapsed().as_secs_f64())
}

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["compile", "execute", "serve-mixed", "serve-shared"];

/// Environment variables that would make the benchmark measure a different
/// program (fault injection, serve chaos, a pinned pipeline job count).
pub const FORBIDDEN_ENV: [&str; 3] = ["PSIM_INJECT_FAULT", "PSIM_SERVE_CHAOS", "PSIM_JOBS"];

/// The set variables among [`FORBIDDEN_ENV`].
pub fn forbidden_env_set() -> Vec<&'static str> {
    FORBIDDEN_ENV
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect()
}

/// Run parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Test hook: flip one bit of every reference fingerprint, so every
    /// output check must fail.
    pub corrupt_reference: bool,
    /// The `psim-serve` binary.
    pub serve_bin: PathBuf,
    /// Available parallelism of this machine.
    pub nproc: usize,
}

/// Everything a workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Ops attempted in the timed loop.
    pub attempted: u64,
    /// Ops that failed: errors, refusals, wrong outputs.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
    /// Op kinds whose outputs failed the check after the loop; their ops
    /// do not count as completed.
    pub bad_kinds: BTreeSet<u32>,
    /// Duration of each set-up repetition, s.
    pub setup_s: Vec<f64>,
    /// The machine's CPU ticks during each set-up repetition.
    pub setup_ticks: Vec<Option<util::Ticks>>,
    /// Timed wall time, s.
    pub wall_s: f64,
    /// Wall time of each measurement segment (a pass of the op pool, or a
    /// time slice), s.
    pub segments: Vec<f64>,
    /// Per segment: the machine's CPU ticks while it ran (`None` where
    /// `/proc/stat` cannot be read). The end-to-end metrics count each
    /// segment's times net of the CPU time stolen in it
    /// ([`Outcome::held_shares`]).
    pub segment_ticks: Vec<Option<util::Ticks>>,
    /// Every op that returned (checked or not yet checked).
    pub ops: Vec<trace::OpRecord>,
    /// Peak resident set of the process doing the work, MiB.
    pub peak_rss_mib: Option<f64>,
    /// Which process `peak_rss_mib` describes.
    pub rss_of: &'static str,
    /// Share of the host's CPU time stolen by other guests during the run.
    pub steal_frac: Option<f64>,
    /// Per (kernel, configuration) simulated cycles.
    pub cycle_rows: Vec<execute::CycleRow>,
    /// Span recorders, one per thread.
    pub tracers: Vec<trace::Tracer>,
    /// Layer counters.
    pub tally: layers::Tally,
    /// Per-layer metrics whose daemon counter was missing.
    pub absent: Vec<&'static str>,
    /// What the inputs were made of: for `serve-mixed` the assumed shares
    /// of the request mix and the shares it actually had, for `compile`
    /// the fuzz draws it replaced.
    pub input_mix: Vec<(&'static str, f64)>,
}

/// Failure messages kept per run.
const MAX_FAILURE_MESSAGES: usize = 20;

impl Outcome {
    /// Records a set-up repetition that started at `t0`, when the machine's
    /// CPU ticks read `ticks`.
    pub fn record_setup(&mut self, t0: std::time::Instant, ticks: Option<util::Ticks>) {
        self.setup_s.push(t0.elapsed().as_secs_f64());
        self.setup_ticks
            .push(util::ticks_between(ticks, util::cpu_ticks()));
    }

    /// The share of the wanted CPU time the machine held over all set-up
    /// repetitions together ([`util::Ticks::held_share`]; 1 when unknown).
    /// One repetition can be shorter than the ticks' resolution, so they
    /// are pooled.
    pub fn setup_held_share(&self) -> f64 {
        self.setup_ticks
            .iter()
            .try_fold(util::Ticks::default(), |sum, t| Some(sum.plus((*t)?)))
            .map_or(1.0, util::Ticks::held_share)
    }

    /// Records one failed op.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < MAX_FAILURE_MESSAGES {
            self.failures.push(msg);
        }
    }

    /// Records that all `n` ops of `kind` failed the output check.
    pub fn fail_kind(&mut self, kind: u32, n: u64, msg: String) {
        self.bad_kinds.insert(kind);
        self.failed += n;
        if self.failures.len() < MAX_FAILURE_MESSAGES {
            self.failures.push(msg);
        }
    }

    /// Wall times of the ops that completed with a correct output, ms,
    /// ascending, each multiplied by its segment's entry in `scale` (as
    /// measured when `None`).
    pub fn ok_latencies_ms(&self, scale: Option<&[f64]>) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .ops
            .iter()
            .filter(|o| !self.bad_kinds.contains(&o.kind))
            .map(|o| {
                let f = scale.map_or(1.0, |s| s.get(o.segment as usize).copied().unwrap_or(1.0));
                o.nanos as f64 / 1e6 * f
            })
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Per segment: the share of the CPU time the machine wanted that the
    /// hypervisor gave it ([`util::Ticks::held_share`]); 1 where unknown.
    ///
    /// On a shared host other guests take CPU time in phases of seconds to
    /// minutes; a stretch that lost a fifth of it reads a third slower.
    /// Work that runs on the CPU progresses only while it holds one, so a
    /// segment's wall time times its held share is the time the work would
    /// have taken on a host of its own. Time the program spends idle
    /// (waiting on a timer or a socket) is not stolen and is not removed.
    pub fn held_shares(&self) -> Vec<f64> {
        (0..self.segments.len())
            .map(|k| {
                self.segment_ticks
                    .get(k)
                    .copied()
                    .flatten()
                    .map_or(1.0, util::Ticks::held_share)
            })
            .collect()
    }

    /// Whether every attempted op succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

/// The tail percentile each workload reports, fixed per workload so runs
/// compare like with like: the highest percentile that keeps at least ten
/// samples beyond it at the workload's usual op count and stays steady on a
/// shared machine. On `serve-mixed` the 5% never-seen programs hold the top
/// percentiles; its p98 moved by 12% between runs, its p95 by 6%. A `serve-shared` request does almost no
/// work, so its upper percentiles are scheduler stalls: on a shared 2-core
/// machine its p90 moved by 17% and its p95 by 36% between runs, its p75 by
/// 6%. A run with too few samples for the percentile falls back to
/// [`util::tail`].
pub fn tail_percentile(workload: &str) -> f64 {
    match workload {
        "compile" => 99.0,
        "serve-mixed" => 95.0,
        "serve-shared" => 75.0,
        _ => 98.0,
    }
}

/// The end-to-end metrics of a run (tracing off), in report order. Times
/// are counted net of stolen CPU time ([`Outcome::held_shares`]):
/// throughput is the correct ops over the summed net segment time, the
/// latencies are percentiles of the ops' net times. `failed_frac` and
/// `latency_tail_pct` are reported but are not gated (both can
/// legitimately read 0 or a constant).
pub fn end_to_end(workload: &str, o: &Outcome) -> Vec<Metric> {
    let held = o.held_shares();
    let wall: f64 = o.segments.iter().zip(&held).map(|(w, h)| w * h).sum();
    let lat = o.ok_latencies_ms(Some(&held));
    let pct = tail_percentile(workload);
    let beyond = lat.len() - ((pct / 100.0) * lat.len() as f64).ceil() as usize;
    let (tail_pct, tail) = if beyond >= 10 {
        (pct, util::percentile(&lat, pct))
    } else {
        util::tail(&lat)
    };
    let m = |name, unit, value| Metric { name, unit, value };
    let mut out = vec![
        m(
            "setup_s",
            "s",
            util::median(&o.setup_s) * o.setup_held_share(),
        ),
        m(
            "throughput_per_s",
            "ops/s",
            layers::ratio(lat.len() as f64, wall),
        ),
        m("latency_p50_ms", "ms", util::percentile(&lat, 50.0)),
        m("latency_tail_ms", "ms", tail),
        m("latency_tail_pct", "percentile", tail_pct),
        m(
            "failed_frac",
            "share",
            layers::ratio(o.failed as f64, o.attempted as f64),
        ),
        m("peak_rss_mb", "MiB", o.peak_rss_mib.unwrap_or(0.0)),
    ];
    for (name, v) in execute::cycle_metrics(&o.cycle_rows) {
        let unit = if name == "parsimony_over_hand" {
            "ratio"
        } else {
            "x"
        };
        out.push(m(name, unit, v));
    }
    out
}

/// End-to-end metrics that are reported but not part of the gated set.
pub const UNGATED: [&str; 2] = ["latency_tail_pct", "failed_frac"];

/// The per-layer metrics of a traced run.
pub fn per_layer(o: &Outcome) -> Vec<Metric> {
    let tracers: Vec<&trace::Tracer> = o.tracers.iter().collect();
    let agg = trace::aggregate(&tracers);
    layers::derive(&agg, &o.tally, trace::overhead(&o.ops), &o.absent)
        .into_iter()
        .map(|(name, unit, value)| Metric { name, unit, value })
        .collect()
}

/// Renders a metric value with every digit (shortest round-trip form).
pub fn num(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else {
        Json::Null
    }
}

/// Result-line entries `name: {value, unit}`, each key prefixed with
/// `prefix` (a combined run uses `<workload>/`).
pub fn metric_entries(ms: &[Metric], prefix: &str) -> Vec<(String, Json)> {
    ms.iter()
        .map(|m| {
            (
                format!("{prefix}{}", m.name),
                Json::obj(vec![
                    ("value", num(m.value)),
                    ("unit", Json::Str(m.unit.into())),
                ]),
            )
        })
        .collect()
}

/// The result line: `correct`, `attempted`, `failed`, and `metrics`.
pub fn result_line(o: &Outcome, metrics: Vec<(String, Json)>) -> String {
    Json::obj(vec![
        ("correct", Json::Bool(o.correct())),
        ("attempted", Json::u64(o.attempted)),
        ("failed", Json::u64(o.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .to_string_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_repeats_until_min_reps_and_seconds() {
        assert!(more_setup(&[1.0; SETUP_REPS - 1]), "too few repetitions");
        assert!(!more_setup(&[1.0; SETUP_REPS]), "enough of both");
        assert!(more_setup(&[0.01; SETUP_REPS]), "too few seconds");
        assert!(!more_setup(&[0.0; SETUP_MAX_REPS]), "capped");
    }
}
