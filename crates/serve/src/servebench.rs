//! `servebench` core: a load generator for `psim-serve`.
//!
//! Spawns an in-process server, fans a fixed workload — the full suite
//! sweep (the 86 kernel runs `runbench` times) plus the committed fuzz
//! corpus — across `clients` concurrent connections, and measures
//! per-item cold (first submission, empty caches) and hot (resubmission,
//! warm caches) latency, p50/p99, throughput, and the hot-over-cold
//! speedup the caches buy.
//!
//! Latency percentiles are client-observed wall times (they include queue
//! wait, which is the point of a load test). The gated speedup, by
//! contrast, is computed from the server-reported per-request service
//! time (`compile_nanos + exec_nanos`): under a saturated queue, a
//! request's wall time is dominated by its queue position, which would
//! make cold/hot wall ratios measure scheduling luck instead of what the
//! caches actually save.
//!
//! With `check`, every served response's deterministic identity payload
//! (outputs, cycles, stats, remarks — see `RunResponse::identity`) is
//! compared byte-for-byte against an uncached [`single_shot`] run of the
//! same request, hot responses are compared against cold ones, and any
//! drop, id mismatch, or non-`ok` status is a failure. This is the serve
//! path's differential gate, run in CI.

use crate::chaos::ChaosSpec;
use crate::client::Client;
use crate::engine::{single_shot, ServeOptions};
use crate::request::{Mode, Request, Response, RunRequest};
use crate::server::serve_tcp;
use parsimony::fault::SERVE_SITES;
use std::path::Path;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};
use suite::runner::geomean;
use suite::Kernel;
use telemetry::Json;

/// One workload item: a named request template (ids are assigned per
/// submission).
#[derive(Debug, Clone)]
pub struct WorkItem {
    /// Display name (`kernel/config` or `corpus/file@n`).
    pub name: String,
    /// The request template.
    pub req: RunRequest,
}

fn kernel_request(k: &Kernel, mode: Mode) -> Result<RunRequest, String> {
    let mut r = RunRequest::new(0, &k.psim_src, k.n);
    r.mode = mode;
    r.buffers = k.buffers.clone();
    r.want_remarks = true;
    r.extra_args = k
        .extra_args
        .iter()
        .map(|v| match v {
            psir::RtVal::S(x) => Ok(*x),
            other => Err(format!("{}: non-scalar extra arg {other:?}", k.name)),
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(r)
}

/// The suite sweep: every Simd-Library kernel under Parsimony plus the
/// ispc set (tiny sizes) under both modes — the same 86 runs `runbench`
/// measures, now served over the wire.
///
/// # Errors
/// Reports kernels whose extra arguments cannot travel the wire.
pub fn suite_items(n: u64) -> Result<Vec<WorkItem>, String> {
    let mut items = Vec::new();
    for k in suite::simdlib::kernels(n) {
        items.push(WorkItem {
            name: format!("{}/parsimony", k.name),
            req: kernel_request(&k, Mode::Parsimony)?,
        });
    }
    for k in suite::ispc::kernels(suite::ispc::IspcSizes::tiny()) {
        for mode in [Mode::Parsimony, Mode::GangSync] {
            items.push(WorkItem {
                name: format!("{}/{}", k.name, mode.name()),
                req: kernel_request(&k, mode)?,
            });
        }
    }
    Ok(items)
}

/// The committed fuzz-corpus regression cases (entry `kernel`), one item
/// per `(file, n)` pair — the serve path replays the same inputs the
/// differential oracle runs.
///
/// # Errors
/// Reports unreadable or malformed repro files.
pub fn corpus_items(dir: &Path) -> Result<Vec<WorkItem>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read corpus dir {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "psim"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no .psim files in {}", dir.display()));
    }
    let mut items = Vec::new();
    for path in files {
        let stem = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let case = psim_fuzz::parse_repro(&text, &stem)?;
        for &n in &case.n_values {
            let mut r = RunRequest::new(0, &case.source, n);
            r.entry = "kernel".into();
            r.buffers = case.bufs.iter().map(psim_fuzz::FuzzBuf::spec).collect();
            r.want_remarks = true;
            items.push(WorkItem {
                name: format!("corpus/{stem}@{n}"),
                req: r,
            });
        }
    }
    Ok(items)
}

/// The default corpus location when running from the workspace.
pub fn default_corpus_dir() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../fuzz/corpus")
}

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct ServeBenchConfig {
    /// Concurrent client connections.
    pub clients: usize,
    /// Simd-Library workload size.
    pub n: u64,
    /// Hot resubmissions per item (the best is reported).
    pub hot_iters: usize,
    /// Differential gate: compare every response against [`single_shot`].
    pub check: bool,
    /// Execution engine every request is tagged with (and the
    /// single-shot references run on).
    pub engine: psir::Engine,
    /// Costing target every request is tagged with (and the single-shot
    /// references price against).
    pub target: vmach::Target,
    /// Server sizing (workers, queue bound, cache budgets) plus the
    /// batch size cap (`opts.max_batch`).
    pub opts: ServeOptions,
}

impl Default for ServeBenchConfig {
    fn default() -> ServeBenchConfig {
        ServeBenchConfig {
            clients: 8,
            n: 1024,
            hot_iters: 2,
            check: false,
            engine: psir::Engine::Fast,
            target: vmach::Target::reference_default(),
            opts: ServeOptions::default(),
        }
    }
}

/// Per-item measurement.
#[derive(Debug, Clone)]
pub struct ServeBenchRow {
    /// Item name.
    pub name: String,
    /// Cold (cache-miss) client-observed latency, nanoseconds.
    pub cold_nanos: u64,
    /// Best hot (cache-hit) client-observed latency, nanoseconds.
    pub hot_nanos: u64,
    /// Server-reported cold service time (compile + execute), nanoseconds.
    pub cold_serve_nanos: u64,
    /// Best server-reported hot service time, nanoseconds.
    pub hot_serve_nanos: u64,
    /// Whether the hot submissions hit the module cache.
    pub hot_module_hit: bool,
}

impl ServeBenchRow {
    /// Cold over hot *service time* (higher = caches help more). Queue
    /// wait is excluded — see the module docs.
    pub fn speedup(&self) -> f64 {
        self.cold_serve_nanos as f64 / self.hot_serve_nanos.max(1) as f64
    }

    /// Cold client-observed wall time minus server-reported service
    /// time: queue wait and transport, in nanoseconds.
    pub fn cold_queue_nanos(&self) -> u64 {
        self.cold_nanos.saturating_sub(self.cold_serve_nanos)
    }

    /// Hot-pass counterpart of [`ServeBenchRow::cold_queue_nanos`].
    pub fn hot_queue_nanos(&self) -> u64 {
        self.hot_nanos.saturating_sub(self.hot_serve_nanos)
    }
}

/// Full load-generator report.
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    /// The configuration measured.
    pub clients: usize,
    /// Simd-Library workload size.
    pub n: u64,
    /// Hot resubmissions per item.
    pub hot_iters: usize,
    /// Per-item rows.
    pub rows: Vec<ServeBenchRow>,
    /// Requests sent (== responses received; drops are failures).
    pub requests: u64,
    /// `overloaded` responses absorbed by bounded retry with backoff
    /// (each retry is also counted in `requests`).
    pub retries: u64,
    /// Total wall nanoseconds of the measurement (cold + hot phases).
    pub wall_nanos: u64,
    /// Cold latency percentiles (p50, p99), nanoseconds.
    pub cold_p50: u64,
    /// 99th percentile cold latency.
    pub cold_p99: u64,
    /// Median hot latency.
    pub hot_p50: u64,
    /// 99th percentile hot latency.
    pub hot_p99: u64,
    /// Median cold queue-wait (client wall minus server service time:
    /// queue and transport), nanoseconds.
    pub cold_queue_p50: u64,
    /// 99th percentile cold queue-wait.
    pub cold_queue_p99: u64,
    /// Median hot queue-wait.
    pub hot_queue_p50: u64,
    /// 99th percentile hot queue-wait.
    pub hot_queue_p99: u64,
    /// Execution engine the workload ran on.
    pub engine: psir::Engine,
    /// Costing target the workload was priced against.
    pub target: vmach::Target,
    /// Most members one batch could hold on the server.
    pub max_batch: usize,
    /// The plan-sharing batching phase (full [`run`]s only; [`run_items`]
    /// leaves it out).
    pub plan_share: Option<PlanShareReport>,
    /// Server stats document captured after the run.
    pub server_stats: Json,
    /// Check failures (empty = the differential gate passed).
    pub failures: Vec<String>,
    /// Whether the differential check ran.
    pub checked: bool,
}

impl ServeBenchReport {
    /// Geomean of per-item cold/hot speedups.
    pub fn geomean_speedup(&self) -> f64 {
        let xs: Vec<f64> = self.rows.iter().map(ServeBenchRow::speedup).collect();
        geomean(&xs)
    }

    /// Requests per second over the whole measurement.
    pub fn throughput_rps(&self) -> f64 {
        self.requests as f64 / (self.wall_nanos.max(1) as f64 / 1e9)
    }

    /// Serializes the report (the CI artifact and `BENCH_servebench.json`
    /// baseline format).
    pub fn to_json(&self) -> Json {
        let rows = self
            .rows
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("name", Json::Str(r.name.clone())),
                    ("cold_nanos", Json::u64(r.cold_nanos)),
                    ("hot_nanos", Json::u64(r.hot_nanos)),
                    ("cold_serve_nanos", Json::u64(r.cold_serve_nanos)),
                    ("hot_serve_nanos", Json::u64(r.hot_serve_nanos)),
                    ("cold_queue_nanos", Json::u64(r.cold_queue_nanos())),
                    ("hot_queue_nanos", Json::u64(r.hot_queue_nanos())),
                    ("speedup", Json::Num(r.speedup())),
                    ("hot_module_hit", Json::Bool(r.hot_module_hit)),
                ])
            })
            .collect();
        let mut fields = vec![
            (
                "meta",
                telemetry::cli::bench_meta(
                    "servebench",
                    vec![
                        ("clients", Json::u64(self.clients as u64)),
                        ("n", Json::u64(self.n)),
                        ("hot_iters", Json::u64(self.hot_iters as u64)),
                        (
                            "gang_config",
                            Json::Str(
                                "simdlib×parsimony + ispc(tiny)×{parsimony,gangsync} + corpus"
                                    .into(),
                            ),
                        ),
                        ("engine", Json::Str(self.engine.flag_name().into())),
                        ("target", Json::Str(self.target.flag_name())),
                        ("max_batch", Json::u64(self.max_batch as u64)),
                        ("retries", Json::u64(self.retries)),
                    ],
                ),
            ),
            ("items", Json::u64(self.rows.len() as u64)),
            ("requests", Json::u64(self.requests)),
            ("wall_nanos", Json::u64(self.wall_nanos)),
            ("throughput_rps", Json::Num(self.throughput_rps())),
            ("cold_p50_nanos", Json::u64(self.cold_p50)),
            ("cold_p99_nanos", Json::u64(self.cold_p99)),
            ("hot_p50_nanos", Json::u64(self.hot_p50)),
            ("hot_p99_nanos", Json::u64(self.hot_p99)),
            ("cold_queue_p50_nanos", Json::u64(self.cold_queue_p50)),
            ("cold_queue_p99_nanos", Json::u64(self.cold_queue_p99)),
            ("hot_queue_p50_nanos", Json::u64(self.hot_queue_p50)),
            ("hot_queue_p99_nanos", Json::u64(self.hot_queue_p99)),
            ("geomean_speedup", Json::Num(self.geomean_speedup())),
        ];
        if let Some(ps) = &self.plan_share {
            fields.push(("plan_share", ps.to_json()));
        }
        fields.extend([
            ("checked", Json::Bool(self.checked)),
            ("failures", Json::u64(self.failures.len() as u64)),
            ("server_stats", self.server_stats.clone()),
            ("rows", Json::Arr(rows)),
        ]);
        Json::obj(fields)
    }

    /// Human-readable summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "servebench: {} item(s), {} client(s), n={}, {} hot iteration(s)\n",
            self.rows.len(),
            self.clients,
            self.n,
            self.hot_iters
        ));
        out.push_str(&format!(
            "  requests           : {:>10} ({:.0} req/s, {} retried)\n",
            self.requests,
            self.throughput_rps(),
            self.retries
        ));
        out.push_str(&format!(
            "  cold latency       : {:>10.2} ms p50, {:>10.2} ms p99\n",
            self.cold_p50 as f64 / 1e6,
            self.cold_p99 as f64 / 1e6
        ));
        out.push_str(&format!(
            "  hot latency        : {:>10.2} ms p50, {:>10.2} ms p99\n",
            self.hot_p50 as f64 / 1e6,
            self.hot_p99 as f64 / 1e6
        ));
        out.push_str(&format!(
            "  cold queue wait    : {:>10.2} ms p50, {:>10.2} ms p99 (wall - service)\n",
            self.cold_queue_p50 as f64 / 1e6,
            self.cold_queue_p99 as f64 / 1e6
        ));
        out.push_str(&format!(
            "  hot queue wait     : {:>10.2} ms p50, {:>10.2} ms p99 (wall - service)\n",
            self.hot_queue_p50 as f64 / 1e6,
            self.hot_queue_p99 as f64 / 1e6
        ));
        out.push_str(&format!(
            "  engine / batching  : {} / max {}\n",
            self.engine.flag_name(),
            self.max_batch
        ));
        out.push_str(&format!(
            "  costing target     : {}\n",
            self.target.flag_name()
        ));
        out.push_str(&format!(
            "  hot/cold speedup   : {:>10.2}x geomean (service time)\n",
            self.geomean_speedup()
        ));
        if let Some(ps) = &self.plan_share {
            out.push_str(&ps.render_text());
        }
        if self.checked {
            out.push_str(&format!(
                "  differential check : {}\n",
                if self.failures.is_empty() {
                    "ok (served == single-shot, byte-identical)".to_string()
                } else {
                    format!("{} FAILURE(S)", self.failures.len())
                }
            ));
            for f in self.failures.iter().take(10) {
                out.push_str(&format!("    {f}\n"));
            }
        }
        out
    }
}

/// Result of the plan-sharing batching phase: the same synchronized
/// identical-request workload driven twice — batches of up to
/// `max_batch` vs batches of one — against fresh servers, reporting
/// client-observed throughput for both legs and the batch counters of
/// the on leg.
#[derive(Debug, Clone)]
pub struct PlanShareReport {
    /// Client threads (same as the main phase's client count); each
    /// drives [`PLAN_SHARE_FAN`] pipelined connections.
    pub clients: usize,
    /// Pipelined connections per client thread.
    pub fan: usize,
    /// Submission rounds per connection, per leg.
    pub rounds: usize,
    /// Measured legs per side; reported throughput is the median.
    pub legs: usize,
    /// `max_batch` of the on leg; the off leg runs with `max_batch = 1`.
    pub max_batch: usize,
    /// Client-observed throughput with batching on, requests/second
    /// (median across the measured legs).
    pub on_rps: f64,
    /// Client-observed throughput with batches of one, requests/second
    /// (median across the measured legs).
    pub off_rps: f64,
    /// Batches the on-leg server formed.
    pub batches_formed: u64,
    /// Members across all on-leg batches.
    pub batched_requests: u64,
    /// On-leg requests that joined an existing batch.
    pub coalesced_requests: u64,
    /// Largest on-leg batch.
    pub max_batch_size: u64,
    /// Identity/transport failures from both legs (merged into the main
    /// report's failures, so `--check` gates them).
    pub failures: Vec<String>,
}

impl PlanShareReport {
    /// Client-observed throughput ratio, batching on over off.
    pub fn speedup(&self) -> f64 {
        self.on_rps / self.off_rps.max(f64::MIN_POSITIVE)
    }

    /// Mean members per batch on the on leg.
    pub fn mean_batch_size(&self) -> f64 {
        self.batched_requests as f64 / self.batches_formed.max(1) as f64
    }

    /// The `plan_share` section of the JSON report.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("clients", Json::u64(self.clients as u64)),
            ("fan", Json::u64(self.fan as u64)),
            ("rounds", Json::u64(self.rounds as u64)),
            ("legs", Json::u64(self.legs as u64)),
            ("max_batch", Json::u64(self.max_batch as u64)),
            ("batch_on_rps", Json::Num(self.on_rps)),
            ("batch_off_rps", Json::Num(self.off_rps)),
            ("batch_speedup", Json::Num(self.speedup())),
            ("batches_formed", Json::u64(self.batches_formed)),
            ("batched_requests", Json::u64(self.batched_requests)),
            ("coalesced_requests", Json::u64(self.coalesced_requests)),
            ("mean_batch_size", Json::Num(self.mean_batch_size())),
            ("max_batch_size", Json::u64(self.max_batch_size)),
        ])
    }

    /// Human-readable block appended to the main summary.
    pub fn render_text(&self) -> String {
        format!(
            "  plan-share phase   : {:>10.0} rps batched, {:>10.0} rps unbatched ({:.2}x, \
             {} threads x {} conns)\n  \
               batches            : {} formed, {:.1} mean / {} max members, {} coalesced\n",
            self.on_rps,
            self.off_rps,
            self.speedup(),
            self.clients,
            self.fan,
            self.batches_formed,
            self.mean_batch_size(),
            self.max_batch_size,
            self.coalesced_requests,
        )
    }
}

/// Submission rounds per connection in each plan-share leg.
const PLAN_SHARE_ROUNDS: usize = 200;

/// Times each leg is measured (alternating on/off, each against a fresh
/// server); the reported throughput is the per-leg median. One leg is a
/// couple hundred milliseconds — short enough that a scheduler hiccup
/// can swing it by tens of percent, and the median of three filters
/// exactly that tail.
const PLAN_SHARE_LEGS: usize = 3;

/// Pipelined connections each client thread drives. Batch members can
/// only come from distinct connections (the wire protocol is
/// request-reply per connection), so a thread writes one request down
/// each of its connections back-to-back and then collects the replies —
/// the in-flight population the coalescer sees is `clients × fan`.
const PLAN_SHARE_FAN: usize = 4;

/// `psim` regions in the plan-share kernel — few, because every region
/// adds per-request transport (its line in the response's stats string)
/// faster than it adds amortizable setup.
const PLAN_SHARE_REGIONS: usize = 2;

/// Gang width and thread count of each plan-share region.
const PLAN_SHARE_N: u64 = 64;

/// Stride of the kernel's table reads. The input table spans
/// `(n-1)·stride + 1` elements, so its seeded fill — the dominant
/// fresh-run cost, which batch members share via the input-arena
/// snapshot — is ~60x the work the kernel itself does per request.
const PLAN_SHARE_STRIDE: u64 = 61;

/// The plan-share request: a couple of small regions reading a large
/// seeded lookup table at a stride. Per-request execution is trivial;
/// what dominates an unbatched run is exactly the per-run machinery the
/// batching tier amortizes — executor dispatch and worker wake,
/// interpreter construction, plan resolution, lane/frame pool warmup,
/// and above all the deterministic per-element table fill, which batch
/// members with identical buffer specs restore from the lead member's
/// arena image instead of recomputing.
fn plan_share_request(id: u64) -> RunRequest {
    let gang = PLAN_SHARE_N;
    let stride = PLAN_SHARE_STRIDE;
    let mut src = String::from("void main(f32* restrict a, f32* restrict out, i64 n) {\n");
    for k in 0..PLAN_SHARE_REGIONS {
        src.push_str(&format!(
            "  psim gang({gang}) threads(n) {{ i64 i = psim_thread_num(); \
             out[i] = out[i] + a[i * {stride}] * {k}.5; }}\n"
        ));
    }
    src.push('}');
    let mut r = RunRequest::new(id, &src, PLAN_SHARE_N);
    r.buffers = vec![
        suite::BufSpec {
            elem: psir::ScalarTy::F32,
            len: (PLAN_SHARE_N - 1) * PLAN_SHARE_STRIDE + 1,
            init: suite::Init::RandomF32 {
                seed: 11,
                lo: -1.0,
                hi: 1.0,
            },
            check: false,
        },
        suite::BufSpec {
            elem: psir::ScalarTy::F32,
            len: PLAN_SHARE_N,
            init: suite::Init::Zero,
            check: false,
        },
    ];
    r
}

/// Drives the plan-sharing workload — every connection submitting the
/// *same* request, pipelined [`PLAN_SHARE_FAN`] deep per client thread —
/// twice: once with the configured batch cap and once with
/// `max_batch = 1`, each against a fresh server. Every response is
/// identity-checked against an uncached [`single_shot`] run (after the
/// clock stops, so verification cost never pollutes the throughput
/// comparison), so the phase is also an identity gate for the batched
/// path.
///
/// # Errors
/// Harness failures (bind/connect, the single-shot reference). Identity
/// failures land in [`PlanShareReport::failures`].
pub fn run_plan_share(cfg: &ServeBenchConfig) -> Result<PlanShareReport, String> {
    let mut req = plan_share_request(0);
    req.engine = cfg.engine;
    req.target = cfg.target.clone();
    let expected = single_shot(&req)
        .map(|r| r.identity())
        .map_err(|e| format!("plan-share single-shot reference: {e}"))?;
    let on = cfg.opts.clone();
    let mut off = on.clone();
    off.max_batch = 1;
    let mut failures = Vec::new();
    let mut on_runs: Vec<f64> = Vec::new();
    let mut off_runs: Vec<f64> = Vec::new();
    let mut on_stats: Vec<Json> = Vec::new();
    for _ in 0..PLAN_SHARE_LEGS {
        let (rps, stats, fails) = plan_share_leg(cfg, &on, &req, &expected)?;
        on_runs.push(rps);
        on_stats.push(stats);
        failures.extend(fails);
        let (rps, _, fails) = plan_share_leg(cfg, &off, &req, &expected)?;
        off_runs.push(rps);
        failures.extend(fails);
    }
    let median = |runs: &mut Vec<f64>| {
        runs.sort_by(f64::total_cmp);
        runs[runs.len() / 2]
    };
    // Batch counters are summed across the on legs (each leg ran against
    // its own fresh server): totals for the whole phase.
    let counter = |name: &str| {
        on_stats
            .iter()
            .filter_map(|s| {
                s.get("batch")
                    .and_then(|b| b.get(name))
                    .and_then(Json::as_u64)
            })
            .sum::<u64>()
    };
    let max_counter = |name: &str| {
        on_stats
            .iter()
            .filter_map(|s| {
                s.get("batch")
                    .and_then(|b| b.get(name))
                    .and_then(Json::as_u64)
            })
            .max()
            .unwrap_or(0)
    };
    Ok(PlanShareReport {
        clients: cfg.clients,
        fan: PLAN_SHARE_FAN,
        rounds: PLAN_SHARE_ROUNDS,
        legs: PLAN_SHARE_LEGS,
        max_batch: on.max_batch,
        on_rps: median(&mut on_runs),
        off_rps: median(&mut off_runs),
        batches_formed: counter("batches_formed"),
        batched_requests: counter("batched_requests"),
        coalesced_requests: counter("coalesced_requests"),
        max_batch_size: max_counter("max_batch_size"),
        failures,
    })
}

/// The plan-share wire id for a (connection, round) pair. Always ten
/// decimal digits (connections and rounds are small), so the prebuilt
/// request line can be patched in place instead of re-serialized.
fn plan_share_id(cid: usize, round: usize) -> u64 {
    1_000_000_000 + (cid as u64) * 1_000_000 + round as u64
}

/// One plan-share leg: fresh server with `opts`, `cfg.clients` threads
/// each driving [`PLAN_SHARE_FAN`] pipelined connections for
/// [`PLAN_SHARE_ROUNDS`] rounds after a warmup request. Inside the timed
/// window a thread only writes prebuilt request lines (id patched in
/// place) and collects raw reply lines — parsing and identity checking
/// happen after the clock stops, so the measured wall time is transport
/// plus serving and nothing else. Returns (client-observed rps, final
/// server stats, identity/transport failures).
fn plan_share_leg(
    cfg: &ServeBenchConfig,
    opts: &ServeOptions,
    req: &RunRequest,
    expected: &str,
) -> Result<(f64, Json, Vec<String>), String> {
    use std::io::{BufRead, BufReader, Write};
    let leg = if opts.max_batch > 1 { "on" } else { "off" };
    let fan = PLAN_SHARE_FAN;
    let mut opts = opts.clone();
    opts.queue_cap = opts.queue_cap.max(cfg.clients * fan * 2 + 16);
    let server = serve_tcp("127.0.0.1:0", &opts).map_err(|e| format!("plan-share: bind: {e}"))?;
    let addr = server.addr.clone();
    // Warm the module cache so both legs measure steady-state serving.
    let mut warm = Client::connect(&addr).map_err(|e| format!("plan-share: connect: {e}"))?;
    let mut wreq = req.clone();
    wreq.id = 1;
    match warm.run(wreq) {
        Ok(Response::Ok(_)) => {}
        other => return Err(format!("plan-share warmup: unexpected {other:?}")),
    }
    // The prebuilt wire line, with a ten-digit placeholder id to patch.
    let mut proto = req.clone();
    proto.id = plan_share_id(0, 0);
    let mut line = Request::Run(Box::new(proto)).to_json().to_string_compact();
    line.push('\n');
    let Some(idpos) = line.find(&plan_share_id(0, 0).to_string()) else {
        return Err("plan-share: id not found in serialized request".into());
    };
    let template = line.into_bytes();
    let barrier = Barrier::new(cfg.clients);
    let t0 = Instant::now();
    type LegOutcome = (Vec<(u64, String)>, Vec<String>);
    let outcomes: Vec<LegOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|tid| {
                let addr = addr.clone();
                let barrier = &barrier;
                let template = &template;
                s.spawn(move || -> LegOutcome {
                    let mut fails = Vec::new();
                    let mut replies: Vec<(u64, String)> =
                        Vec::with_capacity(fan * PLAN_SHARE_ROUNDS);
                    let mut conns = Vec::with_capacity(fan);
                    for _ in 0..fan {
                        match std::net::TcpStream::connect(&addr) {
                            Ok(st) => {
                                // One request per reply round-trips on each
                                // connection; waiting for more data to fill a
                                // segment would only add latency.
                                let _ = st.set_nodelay(true);
                                match st.try_clone() {
                                    Ok(rd) => conns.push((st, BufReader::new(rd))),
                                    Err(e) => {
                                        fails.push(format!(
                                            "plan-share({leg}) thread {tid}: clone: {e}"
                                        ));
                                    }
                                }
                            }
                            Err(e) => {
                                fails.push(format!("plan-share({leg}) thread {tid}: connect: {e}"))
                            }
                        }
                    }
                    // A degraded thread still hits the barrier exactly once,
                    // or every other thread wedges before the first round.
                    barrier.wait();
                    if conns.len() != fan {
                        return (replies, fails);
                    }
                    let mut buf = template.clone();
                    let width = plan_share_id(0, 0).to_string().len();
                    'rounds: for round in 0..PLAN_SHARE_ROUNDS {
                        for (f, (wr, _)) in conns.iter_mut().enumerate() {
                            let id = plan_share_id(tid * fan + f, round);
                            buf[idpos..idpos + width].copy_from_slice(id.to_string().as_bytes());
                            if let Err(e) = wr.write_all(&buf) {
                                fails.push(format!(
                                    "plan-share({leg}) thread {tid} round {round}: write: {e}"
                                ));
                                break 'rounds;
                            }
                        }
                        for (f, (_, rd)) in conns.iter_mut().enumerate() {
                            let id = plan_share_id(tid * fan + f, round);
                            let mut reply = String::new();
                            match rd.read_line(&mut reply) {
                                Ok(0) => {
                                    fails.push(format!(
                                        "plan-share({leg}) thread {tid} round {round}: \
                                         connection closed"
                                    ));
                                    break 'rounds;
                                }
                                Ok(_) => replies.push((id, reply)),
                                Err(e) => {
                                    fails.push(format!(
                                        "plan-share({leg}) thread {tid} round {round}: read: {e}"
                                    ));
                                    break 'rounds;
                                }
                            }
                        }
                    }
                    (replies, fails)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| (Vec::new(), vec!["plan-share thread panicked".into()]))
            })
            .collect()
    });
    let wall = t0.elapsed().as_nanos().max(1) as f64;
    // Verification, off the clock: every reply parses, echoes the id it
    // was written against, and matches the single-shot identity.
    let mut failures = Vec::new();
    let mut answered = 0usize;
    for (replies, fails) in outcomes {
        failures.extend(fails);
        answered += replies.len();
        for (want, reply) in replies {
            match Response::parse(reply.trim_end()) {
                Ok(Response::Ok(ok)) => {
                    if ok.id != want {
                        failures.push(format!(
                            "plan-share({leg}) id {want}: misordered response (got {})",
                            ok.id
                        ));
                    } else if ok.identity() != expected {
                        failures.push(format!(
                            "plan-share({leg}) id {want}: response differs from single-shot run"
                        ));
                    }
                }
                Ok(other) => failures.push(format!(
                    "plan-share({leg}) id {want}: unexpected response {other:?}"
                )),
                Err(e) => failures.push(format!("plan-share({leg}) id {want}: malformed: {e}")),
            }
        }
    }
    let sent = cfg.clients * fan * PLAN_SHARE_ROUNDS;
    if answered != sent {
        failures.push(format!(
            "plan-share({leg}): {answered} of {sent} requests answered"
        ));
    }
    let rps = answered as f64 / (wall / 1e9);
    let stats = match warm.request(&Request::Stats { id: u64::MAX }) {
        Ok(Response::Stats { stats, .. }) => stats,
        other => return Err(format!("plan-share stats: unexpected {other:?}")),
    };
    drop(warm);
    server.shutdown();
    Ok((rps, stats, failures))
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

struct ItemResult {
    index: usize,
    cold_nanos: u64,
    hot_nanos: u64,
    cold_serve_nanos: u64,
    hot_serve_nanos: u64,
    hot_module_hit: bool,
    failures: Vec<String>,
    requests: u64,
    retries: u64,
}

/// Runs the full load generation against a fresh in-process server.
///
/// # Errors
/// Workload construction and server/socket failures. Check failures are
/// *not* errors — they are reported in the returned report so the caller
/// can gate and still emit the artifact.
pub fn run(cfg: &ServeBenchConfig) -> Result<ServeBenchReport, String> {
    let mut items = suite_items(cfg.n)?;
    items.extend(corpus_items(&default_corpus_dir())?);
    for item in &mut items {
        item.req.engine = cfg.engine;
        item.req.target = cfg.target.clone();
    }
    let mut report = run_items(cfg, &items)?;
    let plan_share = run_plan_share(cfg)?;
    // Plan-share identity failures gate `--check` like any other.
    report.failures.extend(plan_share.failures.iter().cloned());
    report.plan_share = Some(plan_share);
    Ok(report)
}

/// [`run`] over an explicit workload (the tests use tiny ones).
///
/// # Errors
/// As [`run`].
pub fn run_items(cfg: &ServeBenchConfig, items: &[WorkItem]) -> Result<ServeBenchReport, String> {
    if cfg.clients == 0 || cfg.hot_iters == 0 {
        return Err("servebench: clients and hot-iters must be >= 1".into());
    }
    // Reference identities, computed uncached before the server starts so
    // server load cannot perturb them. Parallel across host threads.
    let expected: Vec<Option<String>> = if cfg.check {
        let results: Vec<Mutex<Option<Result<String, String>>>> =
            items.iter().map(|_| Mutex::new(None)).collect();
        let next = std::sync::atomic::AtomicUsize::new(0);
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4)
            .min(items.len().max(1));
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= items.len() {
                        return;
                    }
                    let r = single_shot(&items[i].req).map(|resp| resp.identity());
                    *results[i]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(r);
                });
            }
        });
        let mut expected = Vec::with_capacity(items.len());
        for (i, cell) in results.into_iter().enumerate() {
            match cell
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
            {
                Some(Ok(identity)) => expected.push(Some(identity)),
                Some(Err(e)) => return Err(format!("single-shot {}: {e}", items[i].name)),
                None => return Err(format!("single-shot {}: not computed", items[i].name)),
            }
        }
        expected
    } else {
        items.iter().map(|_| None).collect()
    };

    let mut opts = cfg.opts.clone();
    // The queue bound must admit a full burst from every client, otherwise
    // the bench would measure its own backpressure.
    opts.queue_cap = opts.queue_cap.max(cfg.clients * 2 + 16);
    let server = serve_tcp("127.0.0.1:0", &opts).map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr.clone();

    // Round-robin partition of item indices across clients.
    let assignments: Vec<Vec<usize>> = (0..cfg.clients)
        .map(|c| (c..items.len()).step_by(cfg.clients).collect())
        .collect();
    let barrier = Barrier::new(cfg.clients);
    let t0 = Instant::now();
    let mut all: Vec<ItemResult> = Vec::with_capacity(items.len());
    let client_results: Result<Vec<Vec<ItemResult>>, String> = std::thread::scope(|s| {
        let handles: Vec<_> = assignments
            .iter()
            .enumerate()
            .map(|(cid, mine)| {
                let addr = addr.clone();
                let barrier = &barrier;
                let expected = &expected;
                s.spawn(move || client_worker(cid, &addr, items, mine, expected, cfg, barrier))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "client thread panicked".to_string())?)
            .collect()
    });
    let client_results = client_results?;
    let wall_nanos = t0.elapsed().as_nanos() as u64;
    for mut v in client_results {
        all.append(&mut v);
    }
    all.sort_by_key(|r| r.index);

    // Capture server-side counters before tearing the server down.
    let mut stats_client = Client::connect(&addr).map_err(|e| format!("stats connect: {e}"))?;
    let server_stats = match stats_client.request(&Request::Stats { id: u64::MAX })? {
        Response::Stats { stats, .. } => stats,
        other => return Err(format!("expected stats, got {other:?}")),
    };
    drop(stats_client);
    server.shutdown();

    let mut failures = Vec::new();
    let mut requests = 0;
    let mut retries = 0;
    let mut rows = Vec::with_capacity(all.len());
    let mut colds = Vec::with_capacity(all.len());
    let mut hots = Vec::with_capacity(all.len());
    for r in all {
        requests += r.requests;
        retries += r.retries;
        failures.extend(r.failures);
        colds.push(r.cold_nanos);
        hots.push(r.hot_nanos);
        rows.push(ServeBenchRow {
            name: items[r.index].name.clone(),
            cold_nanos: r.cold_nanos,
            hot_nanos: r.hot_nanos,
            cold_serve_nanos: r.cold_serve_nanos,
            hot_serve_nanos: r.hot_serve_nanos,
            hot_module_hit: r.hot_module_hit,
        });
    }
    colds.sort_unstable();
    hots.sort_unstable();
    let mut cold_queues: Vec<u64> = rows.iter().map(ServeBenchRow::cold_queue_nanos).collect();
    let mut hot_queues: Vec<u64> = rows.iter().map(ServeBenchRow::hot_queue_nanos).collect();
    cold_queues.sort_unstable();
    hot_queues.sort_unstable();
    Ok(ServeBenchReport {
        clients: cfg.clients,
        n: cfg.n,
        hot_iters: cfg.hot_iters,
        cold_p50: percentile(&colds, 0.50),
        cold_p99: percentile(&colds, 0.99),
        hot_p50: percentile(&hots, 0.50),
        hot_p99: percentile(&hots, 0.99),
        cold_queue_p50: percentile(&cold_queues, 0.50),
        cold_queue_p99: percentile(&cold_queues, 0.99),
        hot_queue_p50: percentile(&hot_queues, 0.50),
        hot_queue_p99: percentile(&hot_queues, 0.99),
        engine: cfg.engine,
        target: cfg.target.clone(),
        max_batch: cfg.opts.max_batch,
        plan_share: None,
        rows,
        requests,
        retries,
        wall_nanos,
        server_stats,
        failures,
        checked: cfg.check,
    })
}

/// One client connection's share of the workload: a cold pass over its
/// items, a barrier (so the hot phase measures a fully warm server), then
/// `hot_iters` hot passes.
fn client_worker(
    cid: usize,
    addr: &str,
    items: &[WorkItem],
    mine: &[usize],
    expected: &[Option<String>],
    cfg: &ServeBenchConfig,
    barrier: &Barrier,
) -> Result<Vec<ItemResult>, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("client {cid}: connect: {e}"))?;
    let mut results: Vec<ItemResult> = mine
        .iter()
        .map(|&i| ItemResult {
            index: i,
            cold_nanos: 0,
            hot_nanos: u64::MAX,
            cold_serve_nanos: 0,
            hot_serve_nanos: u64::MAX,
            hot_module_hit: true,
            failures: Vec::new(),
            requests: 0,
            retries: 0,
        })
        .collect();
    let mut cold_identity: Vec<Option<String>> = mine.iter().map(|_| None).collect();

    for phase in 0..=cfg.hot_iters {
        if phase == 1 {
            barrier.wait();
        }
        for (slot, &i) in mine.iter().enumerate() {
            let r = &mut results[slot];
            let mut req = items[i].req.clone();
            // Unique id per submission; the echo check catches misrouting.
            req.id = ((cid as u64) << 40) | ((phase as u64) << 32) | i as u64;
            let want = req.id;
            let t = Instant::now();
            let (resp, attempts) = run_with_retry(&mut client, &req, cid);
            let nanos = t.elapsed().as_nanos() as u64;
            r.requests += 1 + attempts;
            r.retries += attempts;
            let resp = match resp {
                Ok(resp) => resp,
                Err(e) => {
                    r.failures.push(format!("{}: dropped: {e}", items[i].name));
                    continue;
                }
            };
            let ok = match resp {
                Response::Ok(ok) => ok,
                other => {
                    r.failures
                        .push(format!("{}: unexpected response {other:?}", items[i].name));
                    continue;
                }
            };
            if ok.id != want {
                r.failures.push(format!(
                    "{}: misordered response (sent id {want}, got {})",
                    items[i].name, ok.id
                ));
            }
            let identity = ok.identity();
            let serve_nanos = ok.compile_nanos + ok.exec_nanos;
            if phase == 0 {
                r.cold_nanos = nanos;
                r.cold_serve_nanos = serve_nanos;
                if let Some(exp) = &expected[i] {
                    if *exp != identity {
                        r.failures.push(format!(
                            "{}: cold response differs from single-shot run",
                            items[i].name
                        ));
                    }
                }
                cold_identity[slot] = Some(identity);
            } else {
                r.hot_nanos = r.hot_nanos.min(nanos);
                r.hot_serve_nanos = r.hot_serve_nanos.min(serve_nanos);
                r.hot_module_hit &= ok.cache.module_hit;
                if let Some(cold) = &cold_identity[slot] {
                    if *cold != identity {
                        r.failures.push(format!(
                            "{}: hot response differs from cold response",
                            items[i].name
                        ));
                    }
                }
            }
        }
    }
    for r in &mut results {
        if r.hot_nanos == u64::MAX {
            r.hot_nanos = r.cold_nanos.max(1);
        }
        if r.hot_serve_nanos == u64::MAX {
            r.hot_serve_nanos = r.cold_serve_nanos.max(1);
        }
    }
    Ok(results)
}

/// Retry bound for `overloaded` responses: with exponential backoff this
/// absorbs transient saturation without ever spinning on a permanently
/// full server.
pub const MAX_RETRIES: u64 = 8;

/// Base unit of the retry backoff; attempt `k` sleeps
/// `RETRY_BASE × (2^k + jitter)` with deterministic jitter.
pub const RETRY_BASE: Duration = Duration::from_millis(2);

/// FNV-1a over the words — the deterministic jitter source, so a rerun
/// of the same configuration backs off identically (no wall-clock or
/// RNG dependence).
fn fnv1a(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Sends `req`, absorbing up to [`MAX_RETRIES`] `overloaded` responses
/// with exponential backoff plus deterministic jitter (seeded from the
/// client id, request id, and attempt number). Returns the final
/// response and how many retries were spent; an `overloaded` that
/// survives the budget is returned to the caller as the final answer.
fn run_with_retry(
    client: &mut Client,
    req: &RunRequest,
    cid: usize,
) -> (Result<Response, String>, u64) {
    let mut attempts: u64 = 0;
    loop {
        match client.run(req.clone()) {
            Ok(Response::Overloaded { .. }) if attempts < MAX_RETRIES => {
                attempts += 1;
                let exp = 1u64 << attempts.min(6);
                let jitter = fnv1a(&[cid as u64, req.id, attempts]) % exp;
                std::thread::sleep(RETRY_BASE * (exp + jitter) as u32);
            }
            other => return (other, attempts),
        }
    }
}

/// A tiny fixed kernel for the chaos sweep — fast enough that the sweep
/// over every site stays well under a second of compute.
const CHAOS_SRC: &str = "
void main(f32* restrict a, f32* restrict out, i64 n) {
  psim gang(8) threads(n) {
    i64 i = psim_thread_num();
    out[i] = a[i] * 2.0 + 1.0;
  }
}
";

fn chaos_request(id: u64) -> RunRequest {
    let mut r = RunRequest::new(id, CHAOS_SRC, 64);
    r.buffers = vec![
        suite::BufSpec {
            elem: psir::ScalarTy::F32,
            len: 64,
            init: suite::Init::RandomF32 {
                seed: 11,
                lo: -1.0,
                hi: 1.0,
            },
            check: false,
        },
        suite::BufSpec {
            elem: psir::ScalarTy::F32,
            len: 64,
            init: suite::Init::Zero,
            check: true,
        },
    ];
    r
}

/// How one chaos-site probe ended. Every value here is an *acceptable*
/// outcome — hangs, panic escapes, and byte-different successes are
/// failures, reported separately.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// The armed `<layer>:<site>`.
    pub site: String,
    /// Times the site fired during the probe (must be ≥ 1).
    pub fired: u64,
    /// Classification: `ok-identical`, `structured:<status>`, or
    /// `transport-error`.
    pub outcome: String,
}

/// Result of sweeping every registered serve fault site.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// One entry per registered site, in registry order.
    pub outcomes: Vec<ChaosOutcome>,
    /// Contract violations (empty = the sweep passed).
    pub failures: Vec<String>,
}

impl ChaosReport {
    /// Human-readable summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "servebench --chaos: {} site(s) swept\n",
            self.outcomes.len()
        ));
        for o in &self.outcomes {
            out.push_str(&format!(
                "  {:28} fired {:>3}x  -> {}\n",
                o.site, o.fired, o.outcome
            ));
        }
        if self.failures.is_empty() {
            out.push_str("  contract: ok (structured error or clean close at every site)\n");
        } else {
            out.push_str(&format!("  {} FAILURE(S)\n", self.failures.len()));
            for f in &self.failures {
                out.push_str(&format!("    {f}\n"));
            }
        }
        out
    }

    /// Serialized sweep report (the CI artifact).
    pub fn to_json(&self) -> Json {
        let outcomes = self
            .outcomes
            .iter()
            .map(|o| {
                Json::obj(vec![
                    ("site", Json::Str(o.site.clone())),
                    ("fired", Json::u64(o.fired)),
                    ("outcome", Json::Str(o.outcome.clone())),
                ])
            })
            .collect();
        Json::obj(vec![
            (
                "meta",
                telemetry::cli::bench_meta(
                    "servebench-chaos",
                    vec![("sites", Json::u64(self.outcomes.len() as u64))],
                ),
            ),
            ("outcomes", Json::Arr(outcomes)),
            (
                "failures",
                Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
            ),
        ])
    }
}

/// Classifies one response under chaos against the expected identity.
/// Returns `(outcome, failure)`.
fn classify_chaos(
    site: &str,
    resp: &Result<Response, String>,
    expected: &str,
) -> (String, Option<String>) {
    match resp {
        Ok(Response::Ok(ok)) => {
            if ok.identity() == *expected {
                ("ok-identical".into(), None)
            } else {
                (
                    "ok-DIFFERENT".into(),
                    Some(format!(
                        "{site}: chaos produced a byte-different success — fail-stop violated"
                    )),
                )
            }
        }
        Ok(other) => {
            let status = match other.to_json() {
                Json::Obj(pairs) => pairs
                    .into_iter()
                    .find(|(k, _)| k == "status")
                    .map(|(_, v)| match v {
                        Json::Str(s) => s,
                        v => v.to_string_compact(),
                    })
                    .unwrap_or_default(),
                _ => String::new(),
            };
            (format!("structured:{status}"), None)
        }
        Err(e) if e.contains("timeout") => (
            "hang".into(),
            Some(format!("{site}: client timed out — the server hung: {e}")),
        ),
        Err(_) => ("transport-error".into(), None),
    }
}

/// Sweeps every registered serve fault site
/// ([`parsimony::fault::SERVE_SITES`]): for each, a fresh server is
/// started with that one site armed, a request is driven through it with
/// client timeouts, and the outcome must be a byte-identical success, a
/// structured error line, or a clean transport error — never a hang, an
/// escaped panic, or a byte-different success. Each site must actually
/// fire, and each server must shut down cleanly afterwards.
///
/// # Errors
/// Harness failures (bind/connect, single-shot reference). Contract
/// violations are reported in the returned [`ChaosReport::failures`].
pub fn run_chaos() -> Result<ChaosReport, String> {
    let expected = single_shot(&chaos_request(1))
        .map(|r| r.identity())
        .map_err(|e| format!("single-shot reference: {e}"))?;
    let mut outcomes = Vec::new();
    let mut failures = Vec::new();
    for &(layer, site) in SERVE_SITES {
        let spec = format!("{layer}:{site}");
        let chaos = ChaosSpec::parse(&spec)?;
        // Every request goes through the coalescer, so the `batch:*`
        // sites sit on the probed path (a lone request is a singleton
        // batch).
        let opts = ServeOptions {
            workers: 2,
            queue_cap: 8,
            chaos: Some(chaos.clone()),
            ..ServeOptions::default()
        };
        let server = serve_tcp("127.0.0.1:0", &opts).map_err(|e| format!("{spec}: bind: {e}"))?;
        let mut client = Client::connect_with_timeout(&server.addr, Duration::from_secs(10))
            .map_err(|e| format!("{spec}: connect: {e}"))?;
        let resp = client.run(chaos_request(2));
        let (outcome, failure) = classify_chaos(&spec, &resp, &expected);
        failures.extend(failure);
        // A fresh, chaos-free connection must still get service — chaos
        // wounds one exchange, never the server. (Connection-layer sites
        // fire on every exchange, so probe liveness only for worker
        // sites; for conn sites clean shutdown below is the liveness
        // check.)
        if layer == "worker" && site == "kill" {
            // One contained crash must not poison the pool.
            let again = Client::connect_with_timeout(&server.addr, Duration::from_secs(10))
                .map_err(|e| format!("{spec}: reconnect: {e}"))
                .and_then(|mut c| c.run(chaos_request(3)));
            match again {
                Ok(_) => {}
                Err(e) => failures.push(format!("{spec}: server dead after contained crash: {e}")),
            }
        }
        let fired = chaos.fired();
        if fired == 0 {
            failures.push(format!("{spec}: armed site never fired"));
        }
        drop(client);
        // Shutdown must complete; a wedged reader/worker would hang here
        // and trip the CI wall-clock cap.
        server.shutdown();
        outcomes.push(ChaosOutcome {
            site: spec,
            fired,
            outcome,
        });
    }
    Ok(ChaosReport { outcomes, failures })
}
