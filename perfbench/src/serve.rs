//! The `serve-mixed` and `serve-shared` workloads: the shipped
//! `psim-serve` daemon, started with only a listen address, driven by
//! closed-loop `psim_serve::Client` connections (one per thread, at most
//! `nproc`, at most two).
//!
//! * `serve-mixed` repeats the suite and corpus items with skewed
//!   popularity, plus a fixed share of never-seen fuzz programs that miss
//!   the caches. Both are assumptions, not measured traffic; the report
//!   records the shares the run actually had. Items are partitioned
//!   between the connections by source, so the two never send the same
//!   request at the same time: requests pay the batch window but never
//!   coalesce.
//! * `serve-shared` sends the same request on both connections, one
//!   table-reading kernel per third of a time slice, so pairs coalesce
//!   into batches.
//!
//! Every response is checked against an uncached `single_shot` run of the
//! same request after the timed loop.

use crate::layers::Tally;
use crate::trace::{traced_window, OpRecord, Tracer};
use crate::util::{self, Rng};
use crate::{Outcome, Params};
use psim_serve::servebench::{corpus_items, default_corpus_dir, suite_items};
use psim_serve::{single_shot, Client, Request, Response, RunRequest};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use telemetry::Json;

/// A running `psim-serve` child process. Dropping it kills and reaps the
/// process if it has not shut down cleanly.
pub struct Daemon {
    child: Child,
    _stderr: BufReader<ChildStderr>,
    /// The address it listens on.
    pub addr: String,
}

impl Daemon {
    /// Starts the daemon with only a listen address (an ephemeral
    /// loopback port) and waits for its `listening on` line.
    ///
    /// # Errors
    /// Spawn failures and a daemon that exits before listening.
    pub fn spawn(bin: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().ok_or("no stderr pipe")?);
        let mut line = String::new();
        loop {
            line.clear();
            let n = stderr.read_line(&mut line).unwrap_or(0);
            if n == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("{} exited before listening", bin.display()));
            }
            if let Some((_, addr)) = line.trim().split_once("listening on ") {
                return Ok(Daemon {
                    addr: addr.to_string(),
                    child,
                    _stderr: stderr,
                });
            }
        }
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to shut down and waits (bounded) for it to exit.
    pub fn shutdown(mut self, client: &mut Client) {
        let _ = client.request(&Request::Shutdown { id: 0 });
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// The daemon's `stats` document.
///
/// # Errors
/// Transport failures and unexpected reply kinds.
pub fn stats(client: &mut Client) -> Result<Json, String> {
    match client.request(&Request::Stats { id: 0 })? {
        Response::Stats { stats, .. } => Ok(stats),
        other => Err(format!("expected stats, got {other:?}")),
    }
}

/// A numeric `stats` field by path; `None` when the running daemon does
/// not report it.
pub fn field(stats: &Json, path: &[&str]) -> Option<f64> {
    let mut j = stats;
    for p in path {
        j = j.get(p)?;
    }
    j.as_f64()
}

/// How one request ended, from the benchmark's point of view: only an
/// `ok` reply is a success. Refusals (`overloaded`), errors, deadline and
/// budget replies, and transport failures all count as failed.
pub fn classify(r: Result<Response, String>) -> Result<Box<psim_serve::RunResponse>, String> {
    match r {
        Ok(Response::Ok(resp)) => Ok(resp),
        Ok(Response::Overloaded { id }) => Err(format!("request {id}: refused (overloaded)")),
        Ok(Response::Error { id, message }) => Err(format!("request {id}: error: {message}")),
        Ok(other) => Err(format!("unexpected reply: {other:?}")),
        Err(e) => Err(format!("transport: {e}")),
    }
}

/// The identity fingerprint a response is checked on.
pub fn identity_hash(r: &psim_serve::RunResponse) -> u64 {
    psim_serve::hashing::fnv1a(r.identity().as_bytes())
}

/// One request template and the key its responses are checked under.
#[derive(Clone)]
struct Item {
    key: u32,
    req: RunRequest,
}

/// What one client connection produced.
#[derive(Default)]
struct ClientLog {
    ops: Vec<OpRecord>,
    /// (item key, identity hash) of every `ok` reply.
    replies: Vec<(u32, u64)>,
    /// The never-seen programs this connection generated and sent.
    misses: Vec<Item>,
    /// `ok` replies that missed the daemon's module cache.
    module_misses: u64,
    /// Never-seen draws replaced because the pipeline refuses them.
    refused_draws: usize,
    failures: Vec<String>,
    attempted: u64,
    tally: Tally,
    /// Per segment: earliest op start and latest op end, s since the start.
    bounds: Vec<(f64, f64)>,
}

/// Sends one request and records it.
fn send(
    client: &mut Client,
    item: &Item,
    id: u64,
    t: &mut Tracer,
    log: &mut ClientLog,
    traced: bool,
    segment: u32,
) -> bool {
    let mut req = item.req.clone();
    req.id = id;
    let req = Request::Run(Box::new(req));
    t.set_op(id);
    let t0 = Instant::now();
    let r = t.span("op", |t| t.span("serve.request", |_| client.request(&req)));
    let nanos = t0.elapsed().as_nanos() as u64;
    log.attempted += 1;
    let transport_ok = r.is_ok();
    if traced {
        if let Ok(resp) = &r {
            let line = resp.to_json().to_string_compact();
            t.span("serve.codec", |_| {
                let _ = req.to_json().to_string_compact();
                let _ = Response::parse(&line);
            });
        }
    }
    match classify(r) {
        Ok(resp) => {
            let lat = nanos as f64 / 1e9;
            let service = (resp.compile_nanos + resp.exec_nanos) as f64 / 1e9;
            let tl = &mut log.tally;
            tl.add("serve.latency_s", lat);
            tl.add("serve.compile_s", resp.compile_nanos as f64 / 1e9);
            tl.add("serve.exec_s", resp.exec_nanos as f64 / 1e9);
            tl.add("serve.unattributed_s", (lat - service).max(0.0));
            tl.add(
                "serve.module_hit_ratio",
                f64::from(u8::from(resp.cache.module_hit)),
            );
            log.module_misses += u64::from(!resp.cache.module_hit);
            tl.add("serve.plan_hits", resp.cache.plan_shared_hits as f64);
            tl.add("serve.plan_builds", resp.cache.plan_builds as f64);
            log.replies.push((item.key, identity_hash(&resp)));
            log.ops.push(OpRecord {
                kind: item.key,
                nanos,
                traced,
                segment,
            });
        }
        Err(e) => {
            log.failures.push(e);
        }
    }
    transport_ok
}

/// Length of the time slices a serve run is split into, s (at least four
/// slices per run). Each slice records the CPU time the hypervisor stole
/// while it ran, so its times can be counted net of it.
pub const SEGMENT_S: f64 = 1.0;

/// Share of `serve-mixed` requests that are never-seen fuzz programs.
/// An assumption: the repository records no traffic of the daemon's
/// callers. It stands for the share of requests that miss the caches and
/// compile; the report gives the share each run actually had.
pub const MISS_SHARE: f64 = 0.05;

/// Zipf exponent of the popular items' request distribution. Also an
/// assumption, for "a few items take most requests".
const ZIPF_S: f64 = 1.0;

/// Simd-Library size of the suite items (servebench's default).
const SUITE_N: u64 = 1024;

/// The daemon's peak RSS is read once the run has sent this many requests
/// (at the end if it sends fewer). Every never-seen program stays in the
/// caches, so read at the end of a fixed-length run the peak would grow
/// with throughput; read here it reflects the same traffic on every run.
pub const RSS_AT_REQUESTS: u64 = 4000;

/// Keys of never-seen programs: this bit, the connection in bits 24..28,
/// and the program's index on that connection below.
const MISS_KEY_BASE: u32 = 1 << 28;

/// A never-seen fuzz program as a request: the next draw from `rng` the
/// default pipeline accepts (see [`crate::compile::pipeline_refuses`]).
/// Returns the request and the number of draws replaced.
fn miss_request(rng: &mut Rng) -> (RunRequest, usize) {
    let (u, replaced) = crate::compile::accepted_fuzz_unit(rng);
    let mut r = RunRequest::new(0, &u.source, u.n);
    r.entry = "kernel".into();
    r.buffers = u.bufs.into_iter().map(|(_, s)| s).collect();
    (r, replaced)
}

/// One client's share of the popular items, with cumulative Zipf weights
/// in item order: which items are hot does not depend on the seed, so the
/// request mix costs the same for every seed; the seed draws the sequence.
struct Popular {
    items: Vec<Item>,
    cdf: Vec<f64>,
}

impl Popular {
    fn new(items: Vec<Item>) -> Popular {
        let mut acc = 0.0;
        let cdf = (0..items.len())
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
                acc
            })
            .collect();
        Popular { items, cdf }
    }

    fn draw(&self, rng: &mut Rng) -> &Item {
        let x = util::unit(rng) * self.cdf.last().copied().unwrap_or(0.0);
        let i = self.cdf.partition_point(|&c| c <= x);
        &self.items[i.min(self.items.len() - 1)]
    }
}

/// The request templates both serve workloads check against, by key.
type Templates = BTreeMap<u32, RunRequest>;

/// What a serve workload sends. `serve-mixed`'s never-seen programs are
/// not here: each connection generates them from its own seeded stream
/// when it draws one, so their share holds however many requests a run
/// sends.
struct Inputs {
    /// Per client: the repeated items.
    popular: Vec<Popular>,
    /// Every repeated item's template by key, for the reference runs.
    templates: Templates,
}

/// Builds the `serve-mixed` inputs: per-client popular sets, partitioned
/// by source.
fn mixed_inputs(clients: usize) -> Result<Inputs, String> {
    let mut all = suite_items(SUITE_N)?;
    all.extend(corpus_items(&default_corpus_dir())?);
    let mut groups: Vec<String> = Vec::new();
    let mut per_client: Vec<Vec<Item>> = vec![Vec::new(); clients];
    let mut templates = Templates::new();
    for (i, w) in all.into_iter().enumerate() {
        let group_key = format!("{}\x1f{}", w.req.mode.name(), w.req.source);
        let g = groups
            .iter()
            .position(|s| *s == group_key)
            .unwrap_or_else(|| {
                groups.push(group_key);
                groups.len() - 1
            });
        let item = Item {
            key: i as u32,
            req: w.req,
        };
        templates.insert(item.key, item.req.clone());
        per_client[g % clients].push(item);
    }
    Ok(Inputs {
        popular: per_client.into_iter().map(Popular::new).collect(),
        templates,
    })
}

/// Lattice kernels of `serve-shared`: (regions, table stride, threads).
const SHARED_KERNELS: [(usize, u64, u64); 3] = [(2, 61, 64), (3, 37, 64), (1, 97, 128)];

/// A table-reading request shaped like servebench's plan-share request:
/// a few small regions reading a large seeded table at a stride.
fn shared_request(regions: usize, stride: u64, n: u64, seed: u64) -> RunRequest {
    let mut src = String::from("void main(f32* restrict a, f32* restrict out, i64 n) {\n");
    for k in 0..regions {
        src.push_str(&format!(
            "  psim gang(16) threads(n) {{ i64 i = psim_thread_num(); \
             out[i] = out[i] + a[i * {stride}] * {k}.5; }}\n"
        ));
    }
    src.push('}');
    let mut r = RunRequest::new(0, &src, n);
    r.buffers = vec![
        suite::BufSpec {
            elem: psir::ScalarTy::F32,
            len: (n - 1) * stride + 1,
            init: suite::Init::RandomF32 {
                seed,
                lo: -1.0,
                hi: 1.0,
            },
            check: false,
        },
        suite::BufSpec::output(psir::ScalarTy::F32, n),
    ];
    r
}

/// Builds the `serve-shared` inputs: every client sends the same kernels.
fn shared_inputs(seed: u64, clients: usize) -> Inputs {
    let mut rng = util::rng(seed, 5);
    let items: Vec<Item> = SHARED_KERNELS
        .iter()
        .enumerate()
        .map(|(i, &(regions, stride, n))| Item {
            key: i as u32,
            req: shared_request(regions, stride, n, rng.next_u64()),
        })
        .collect();
    Inputs {
        templates: items.iter().map(|i| (i.key, i.req.clone())).collect(),
        popular: (0..clients).map(|_| Popular::new(items.clone())).collect(),
    }
}

/// Which serve workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// `serve-mixed`.
    Mixed,
    /// `serve-shared`.
    Shared,
}

fn warm(client: &mut Client, items: &[Item]) -> Result<(), String> {
    for it in items {
        classify(client.run(it.req.clone())).map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(())
}

/// Runs a serve workload.
///
/// # Errors
/// Set-up failures: the daemon does not start, or warm-up fails.
pub fn run(p: &Params, mix: Mix, out: &mut Outcome) -> Result<(), String> {
    let clients = p.nproc.clamp(1, 2);
    let epoch = Instant::now();
    let mut setup: Option<(Inputs, Daemon, Client)> = None;
    while crate::more_setup(&out.setup_s) {
        if let Some((_, daemon, mut c0)) = setup.take() {
            daemon.shutdown(&mut c0);
        }
        let (t0, ticks) = (Instant::now(), util::cpu_ticks());
        let inputs = match mix {
            Mix::Mixed => mixed_inputs(clients)?,
            Mix::Shared => shared_inputs(p.seed, clients),
        };
        let daemon = Daemon::spawn(&p.serve_bin)?;
        let mut c0 = Client::connect(&daemon.addr).map_err(|e| format!("connect: {e}"))?;
        for pop in &inputs.popular {
            warm(&mut c0, &pop.items)?;
        }
        out.record_setup(t0, ticks);
        setup = Some((inputs, daemon, c0));
    }
    let (
        Inputs {
            popular,
            mut templates,
        },
        daemon,
        mut c0,
    ) = setup.expect("at least one set-up");

    let before = stats(&mut c0)?;
    let start = Instant::now();
    let deadline = p.seconds;
    let segments = ((deadline / SEGMENT_S).round() as u32).max(4);
    let seg_len = deadline / f64::from(segments);
    // CPU ticks at the start of each slice, taken by the first op to start
    // in it; the last entry is taken when the timed loop ends.
    let marks: Mutex<Vec<Option<util::Ticks>>> = Mutex::new(vec![None; segments as usize + 1]);
    let logs: Mutex<Vec<(usize, ClientLog, Tracer)>> = Mutex::new(Vec::new());
    let sent = AtomicU64::new(0);
    let rss_at: Mutex<Option<f64>> = Mutex::new(None);
    let drive = |cid: usize, client: &mut Client| {
        let mut t = Tracer::new(false, epoch, cid as u32);
        let mut log = ClientLog::default();
        let mut rng = util::rng(p.seed, 100 + cid as u64);
        let mut miss_rng = util::rng(p.seed, 200 + cid as u64);
        log.bounds = vec![(f64::INFINITY, 0.0); segments as usize];
        let mut marked = None;
        for round in 0u64.. {
            let traced = p.trace && traced_window(start.elapsed().as_secs_f64());
            let segment = ((start.elapsed().as_secs_f64() / seg_len) as u32).min(segments - 1);
            if marked != Some(segment) {
                marked = Some(segment);
                let mut m = marks
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                if m[segment as usize].is_none() {
                    m[segment as usize] = util::cpu_ticks();
                }
            }
            t.set_on(traced);
            let id = ((cid as u64 + 1) << 40) | round;
            let op_start = start.elapsed().as_secs_f64();
            match mix {
                Mix::Mixed => {
                    if start.elapsed().as_secs_f64() >= deadline {
                        break;
                    }
                    let sent = if util::unit(&mut rng) < MISS_SHARE {
                        let (req, replaced) = miss_request(&mut miss_rng);
                        log.refused_draws += replaced;
                        let item = Item {
                            key: MISS_KEY_BASE | (cid as u32) << 24 | log.misses.len() as u32,
                            req,
                        };
                        let sent = send(client, &item, id, &mut t, &mut log, traced, segment);
                        log.misses.push(item);
                        sent
                    } else {
                        let item = popular[cid].draw(&mut rng);
                        send(client, item, id, &mut t, &mut log, traced, segment)
                    };
                    if !sent {
                        break;
                    }
                }
                Mix::Shared => {
                    if start.elapsed().as_secs_f64() >= deadline {
                        break;
                    }
                    // One kernel per third of a time slice, the same on
                    // both connections, so every slice runs each kernel for
                    // as long. The daemon's batch window keeps them in
                    // step: a pair's replies leave together when its batch
                    // ends, so the next two requests arrive within one
                    // window again. A client-side barrier would do the same
                    // but stall both connections whenever either thread
                    // waits for a CPU.
                    let items = &popular[cid].items;
                    let third = (start.elapsed().as_secs_f64() * 3.0 / seg_len) as usize;
                    let item = &items[third % items.len()];
                    send(client, item, id, &mut t, &mut log, traced, segment);
                }
            }
            if sent.fetch_add(1, Ordering::SeqCst) + 1 == RSS_AT_REQUESTS {
                *rss_at
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) =
                    crate::util::peak_rss_mib(Some(daemon.pid()));
            }
            let b = &mut log.bounds[segment as usize];
            *b = (b.0.min(op_start), b.1.max(start.elapsed().as_secs_f64()));
        }
        logs.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push((cid, log, t));
    };
    let connect_err: Mutex<Option<String>> = Mutex::new(None);
    std::thread::scope(|s| {
        for cid in 1..clients {
            let drive = &drive;
            let connect_err = &connect_err;
            let addr = daemon.addr.clone();
            s.spawn(move || match Client::connect(&addr) {
                Ok(mut c) => drive(cid, &mut c),
                Err(e) => {
                    *connect_err
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) =
                        Some(format!("connect: {e}"));
                }
            });
        }
        drive(0, &mut c0);
    });
    out.wall_s = start.elapsed().as_secs_f64();
    let mut marks = marks
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    marks[segments as usize] = util::cpu_ticks();
    out.segment_ticks = marks
        .windows(2)
        .map(|w| util::ticks_between(w[0], w[1]))
        .collect();
    if let Some(e) = connect_err.into_inner().unwrap_or_default() {
        return Err(e);
    }
    let after = stats(&mut c0)?;
    out.peak_rss_mib = rss_at
        .into_inner()
        .unwrap_or_default()
        .or_else(|| crate::util::peak_rss_mib(Some(daemon.pid())));
    out.rss_of = "psim-serve daemon";
    daemon.shutdown(&mut c0);

    // Counters from the daemon's own stats, read by name.
    let diff = |path: &[&str]| Some(field(&after, path)? - field(&before, path)?);
    let mut tally = Tally::default();
    let evictions = diff(&["module_cache", "evictions"])
        .zip(diff(&["plan_cache", "evictions"]))
        .map(|(a, b)| a + b);
    let batches = diff(&["batch", "batches_formed"]);
    let batched = diff(&["batch", "batched_requests"]);
    let coalesced = diff(&["batch", "coalesced_requests"]);
    let requests = diff(&["requests"]);
    let refused = diff(&["admission", "refused"]);
    let mut record = |name: &'static str, v: Option<f64>| match v {
        Some(v) => tally.add(name, v),
        None => out.absent.push(name),
    };
    record("serve.evictions", evictions);
    record("serve.batches", batches);
    record(
        "serve.mean_batch_size",
        batched
            .zip(batches)
            .map(|(a, b)| crate::layers::ratio(a, b)),
    );
    record(
        "serve.coalesced_frac",
        coalesced
            .zip(requests)
            .map(|(a, b)| crate::layers::ratio(a, b)),
    );
    record("serve.refused", refused);

    // Off the clock: every reply against an uncached single-shot run.
    let mut logs = logs.into_inner().unwrap_or_default();
    logs.sort_by_key(|(cid, _, _)| *cid);
    let (mut attempted, mut sent_misses, mut module_misses, mut replies) = (0, 0, 0, 0);
    let mut refused_draws = 0;
    for (_, log, _) in &mut logs {
        attempted += log.attempted;
        refused_draws += log.refused_draws;
        sent_misses += log.misses.len();
        module_misses += log.module_misses;
        replies += log.replies.len();
        templates.extend(log.misses.drain(..).map(|i| (i.key, i.req)));
    }
    out.input_mix = vec![
        ("connections", clients as f64),
        ("zipf_s", if mix == Mix::Mixed { ZIPF_S } else { 0.0 }),
        (
            "assumed_miss_share",
            if mix == Mix::Mixed { MISS_SHARE } else { 0.0 },
        ),
        (
            "never_seen_share",
            crate::layers::ratio(sent_misses as f64, attempted as f64),
        ),
        (
            "module_miss_share",
            crate::layers::ratio(module_misses as f64, replies as f64),
        ),
        ("refused_draws_replaced", refused_draws as f64),
    ];
    // A segment's wall time runs from its first op's start to its last
    // op's end, across both connections.
    out.segments = (0..segments as usize)
        .map(|k| {
            let lo = logs
                .iter()
                .map(|(_, l, _)| l.bounds[k].0)
                .fold(f64::INFINITY, f64::min);
            let hi = logs
                .iter()
                .map(|(_, l, _)| l.bounds[k].1)
                .fold(0.0, f64::max);
            if hi > lo {
                hi - lo
            } else {
                seg_len
            }
        })
        .collect();
    let mut reference: BTreeMap<u32, Result<u64, String>> = BTreeMap::new();
    for (_, log, t) in logs {
        out.attempted += log.attempted;
        for f in log.failures {
            out.fail(f);
        }
        for &(key, got) in &log.replies {
            let want = reference.entry(key).or_insert_with(|| {
                single_shot(&templates[&key])
                    .map(|r| identity_hash(&r))
                    .map_err(|e| format!("single-shot reference: {e}"))
            });
            let verdict = match want {
                Ok(w) if (*w ^ u64::from(p.corrupt_reference)) == got => Ok(()),
                Ok(_) => Err(format!(
                    "item {key}: reply differs from the single-shot run"
                )),
                Err(e) => Err(e.clone()),
            };
            if let Err(e) = verdict {
                out.fail_kind(key, 1, e);
            }
        }
        out.ops.extend(log.ops);
        tally.merge(&log.tally);
        out.tracers.push(t);
    }
    if p.trace {
        let mut t = Tracer::new(true, epoch, clients as u32);
        let sources =
            crate::layers::breakdown_sources(templates.values().map(|r| r.source.as_str()));
        crate::layers::pass_breakdown(&mut t, &mut tally, &sources);
        out.tracers.push(t);
    }
    out.tally.merge(&tally);
    if mix == Mix::Shared {
        // Its CPUs are mostly idle between wake-ups, and time stolen while
        // an idle CPU wakes holds a request up for longer than the busy
        // time it is compared with: counted net of it, this workload read
        // twice the throughput it reaches on a quiet host. Its times stay
        // as measured.
        out.segment_ticks.clear();
        out.setup_ticks.clear();
    }
    Ok(())
}
