//! Compile-and-execute core of the server.
//!
//! [`ServeState`] owns the two cache tiers — content hash → compiled
//! module ([`ModuleCache`]) and (module, function) → execution plan
//! (the shared [`psir::PlanCache`] from the interpreter) — and serves a
//! [`RunRequest`] by compiling through them and executing on the
//! interpreter engine the request names (fast by default, the reference
//! engine as an opt-in). [`single_shot`] is the cache-free reference path,
//! equivalent to a one-off `psimcc --run` invocation; `servebench
//! --check` gates on the two producing byte-identical responses.
//!
//! The engine and costing target are part of the request key even though
//! the compiled module depends on neither: reference and fast requests
//! for the same source never share a module or plan entry, so an
//! engine-selection bug can never serve one engine's request from the
//! other's warm path — and since cached cycle counts are priced against
//! the request's target, per-target keys keep those prices from bleeding
//! across machines.
//!
//! The cost model is derived per request from its target
//! (`TargetCost::for_target`). The module-cache key is still a valid
//! `module_id` for the plan cache: a `FramePlan` is a pure function of
//! (module, function, cost model), and the key identifies the module,
//! the configuration, *and* the target the cost model came from.

use crate::cache::{CompiledModule, ModuleCache};
use crate::chaos::ChaosSpec;
use crate::hashing::request_key;
use crate::request::{hex, CacheInfo, Mode, RunRequest, RunResponse};
use parsimony::{
    vectorize_module_with, FaultInjector, PipelineOptions, VectorizeOptions, VerifyMode,
};
use psir::{CancelReason, CancelToken, ExecError, Interp, Memory, PlanCache, RtVal};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;
use suite::runner::fill_buffer;
use telemetry::Json;
use vmach::TargetCost;
use vmath::RuntimeExterns;

static EXTERNS: RuntimeExterns = RuntimeExterns::new();

/// Server-wide resource limits and socket timeouts. Per-request budgets
/// (`deadline_ms`, `max_steps`, `max_mem_bytes` on the request) may
/// tighten these but never exceed them. Defaults are generous — at the
/// defaults every suite/corpus workload behaves exactly as without
/// budgets, which the servebench identity gate relies on.
#[derive(Debug, Clone)]
pub struct ServeLimits {
    /// Default per-request deadline in milliseconds (0 = none).
    pub deadline_ms: u64,
    /// Cap on dynamic interpreter steps per request.
    pub max_steps: u64,
    /// Cap on bytes a request may allocate (buffers + runtime allocs).
    pub max_mem_bytes: u64,
    /// Cap on request source size in bytes.
    pub max_source_bytes: u64,
    /// Cap on one wire frame (request line) in bytes. Enforced by the
    /// server's bounded frame reader; an oversized frame cannot be
    /// re-synchronized, so the connection closes after the error reply.
    pub max_frame_bytes: u64,
    /// Idle-connection reaping: a connection with no frame activity for
    /// this long is closed (0 = never).
    pub idle_timeout_ms: u64,
    /// Slow-client (slowloris) protection: a *started* frame must
    /// complete within this long or the connection is closed (0 = never).
    pub frame_timeout_ms: u64,
    /// Socket write timeout in milliseconds (0 = none).
    pub write_timeout_ms: u64,
}

impl Default for ServeLimits {
    fn default() -> ServeLimits {
        ServeLimits {
            deadline_ms: 0,
            max_steps: psir::DEFAULT_STEP_LIMIT,
            max_mem_bytes: 64 << 20,
            max_source_bytes: 1 << 20,
            max_frame_bytes: 8 << 20,
            idle_timeout_ms: 300_000,
            frame_timeout_ms: 30_000,
            write_timeout_ms: 30_000,
        }
    }
}

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads in the executor pool.
    pub workers: usize,
    /// Bound on pending (queued + executing) requests; submissions past
    /// the bound receive explicit `overloaded` responses.
    pub queue_cap: usize,
    /// Byte budget of the module cache.
    pub module_budget: usize,
    /// Byte budget of the shared plan cache.
    pub plan_budget: usize,
    /// Resource limits and socket timeouts.
    pub limits: ServeLimits,
    /// Most members one batch may hold (the batching tier's only knob;
    /// 1 runs every request alone).
    pub max_batch: usize,
    /// Armed chaos injection (strictly opt-in; `None` in production
    /// unless `PSIM_SERVE_CHAOS` is set).
    pub chaos: Option<ChaosSpec>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4),
            queue_cap: 64,
            module_budget: 64 << 20,
            plan_budget: 64 << 20,
            limits: ServeLimits::default(),
            max_batch: 16,
            chaos: None,
        }
    }
}

/// A typed failure from the serving path, mapped one-to-one onto the
/// structured response statuses (see
/// [`telemetry::cli::STRUCTURED_FAILURE_STATUSES`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Compile or runtime failure (the `error` status).
    Error(String),
    /// The effective deadline passed.
    DeadlineExceeded,
    /// The request was cancelled (client disconnect).
    Cancelled,
    /// The server is shutting down.
    ShuttingDown,
    /// A resource budget was exhausted.
    ResourceExhausted {
        /// Which budget: `steps`, `mem_bytes`, or `source_bytes`.
        what: String,
        /// Human-readable detail.
        detail: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Error(m) => write!(f, "{m}"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServeError::Cancelled => write!(f, "request cancelled"),
            ServeError::ShuttingDown => write!(f, "server shutting down"),
            ServeError::ResourceExhausted { what, detail } => {
                write!(f, "resource exhausted ({what}): {detail}")
            }
        }
    }
}

/// Effective (server ∧ request) budgets for one execution: the request may
/// tighten a server limit, never exceed it. 0 on the request means
/// "inherit".
#[derive(Debug, Clone, Copy)]
pub struct RunBudget {
    /// Dynamic-step cap.
    pub max_steps: u64,
    /// Allocation cap in bytes.
    pub max_mem_bytes: u64,
}

impl RunBudget {
    /// Combines the server limits with a request's own budget fields.
    pub fn effective(limits: &ServeLimits, req: &RunRequest) -> RunBudget {
        let tighter = |server: u64, request: u64| {
            if request == 0 {
                server
            } else {
                server.min(request)
            }
        };
        RunBudget {
            max_steps: tighter(limits.max_steps, req.max_steps),
            max_mem_bytes: tighter(limits.max_mem_bytes, req.max_mem_bytes),
        }
    }

    /// The effective deadline in milliseconds (0 = none).
    pub fn effective_deadline_ms(limits: &ServeLimits, req: &RunRequest) -> u64 {
        match (limits.deadline_ms, req.deadline_ms) {
            (0, d) | (d, 0) => d,
            (a, b) => a.min(b),
        }
    }
}

/// Shared compile/execute state: both cache tiers. `Send + Sync`; one
/// instance is shared by every worker and connection. The cost model is
/// per-request (derived from the request's target), not state.
#[derive(Debug)]
pub struct ServeState {
    /// Tier 1: content hash → compiled module.
    pub modules: ModuleCache,
    /// Tier 2: (module, function) → execution plan, shared with every
    /// in-flight interpreter.
    pub plans: Arc<PlanCache>,
}

impl ServeState {
    /// Fresh state with the configured cache budgets.
    pub fn new(opts: &ServeOptions) -> ServeState {
        ServeState {
            modules: ModuleCache::new(opts.module_budget),
            plans: Arc::new(PlanCache::new(opts.plan_budget)),
        }
    }

    /// Serves one request through the caches on the request's engine.
    ///
    /// # Errors
    /// Compile failures (parse, vectorization, bad verify/inject
    /// descriptors) and runtime traps, with enough context to act on.
    /// Failures are never cached.
    pub fn run_request(&self, req: &RunRequest) -> Result<RunResponse, String> {
        self.run_request_with(req, &ServeLimits::default(), None)
            .map_err(|e| e.to_string())
    }

    /// Serves one request under explicit limits and an optional
    /// cancellation token: a batch of one. Budgets are *runtime* knobs:
    /// they are deliberately not part of the cache key, so the same
    /// source served under different budgets shares one compiled module.
    ///
    /// # Errors
    /// Typed: budget exhaustion, deadline, cancellation, and plain
    /// compile/runtime failures each map to their structured response
    /// status. Failures are never cached.
    pub fn run_request_with(
        &self,
        req: &RunRequest,
        limits: &ServeLimits,
        cancel: Option<&CancelToken>,
    ) -> Result<RunResponse, ServeError> {
        let mut out = self.run_batch_with(&[(req, cancel)], limits);
        out.pop().expect("one result per member")
    }

    /// Serves a batch of coalesced requests — one cache lookup,
    /// one compile (at most), one interpreter arena for every member.
    /// Members share a [`batch_key`](crate::hashing::batch_key), so they
    /// agree on module, entry, gang configuration, and budget triple; the
    /// per-member budget, token, and profiling are still configured
    /// individually, and each member's response is byte-identical to what
    /// it would have received alone.
    ///
    /// Detach-on-error contract: a member that fails — cancelled, past
    /// its deadline, over a budget, or trapped at runtime — gets its
    /// typed error at its slot and the loop moves on; the arena reset
    /// between members scrubs any partial state, so a poisoned member can
    /// never leak into a batchmate's answer.
    pub fn run_batch_with(
        &self,
        members: &[(&RunRequest, Option<&CancelToken>)],
        limits: &ServeLimits,
    ) -> Vec<Result<RunResponse, ServeError>> {
        let mut out: Vec<Option<Result<RunResponse, ServeError>>> =
            members.iter().map(|_| None).collect();
        // Source admission per member: batch keys hash the *canonicalized*
        // source, so raw lengths may differ across members. A member that
        // is already cancelled or past its deadline is answered here too,
        // so a batch whose members all expired while queued skips the
        // (uncancellable) compile phase entirely.
        for (slot, (req, cancel)) in out.iter_mut().zip(members) {
            if req.source.len() as u64 > limits.max_source_bytes {
                *slot = Some(Err(ServeError::ResourceExhausted {
                    what: "source_bytes".into(),
                    detail: format!(
                        "source is {} bytes, {} allowed",
                        req.source.len(),
                        limits.max_source_bytes
                    ),
                }));
            } else if let Some(Err(e)) = cancel.map(check_token) {
                *slot = Some(Err(e));
            }
        }
        // Resolve the shared module once, compiling through the first
        // still-admissible member. No admissible member at all means every
        // slot already holds its error.
        let Some(lead) = out.iter().position(Option::is_none).map(|i| members[i].0) else {
            return out.into_iter().map(|s| s.expect("filled")).collect();
        };
        let key = request_key(
            &lead.source,
            lead.mode.name(),
            &lead.verify,
            &lead.inject,
            lead.engine.flag_name(),
            &lead.target.flag_name(),
        );
        let t = Instant::now();
        let (cm, module_hit) = match self.modules.get(key) {
            Some(cm) => (cm, true),
            None => match compile_uncached(lead, key) {
                Ok(cm) => (self.modules.insert(cm), false),
                Err(e) => {
                    // A compile failure detaches every admissible member
                    // with the same error (they share the source).
                    for slot in &mut out {
                        if slot.is_none() {
                            *slot = Some(Err(ServeError::Error(e.clone())));
                        }
                    }
                    return out.into_iter().map(|s| s.expect("filled")).collect();
                }
            },
        };
        let compile_nanos = if module_hit {
            0
        } else {
            t.elapsed().as_nanos() as u64
        };
        // One arena, one interpreter, members back-to-back. The reset pair
        // (`Memory::reset` + `Interp::reset_run`) restores the
        // fresh-interpreter state between members while keeping the warm
        // machinery — resolved plans, lane/frame pools, the mapped arena.
        // Batch members share a target by construction — the target is
        // folded into the request key, which leads the batch key — so the
        // lead's cost model prices every member.
        let cost = TargetCost::for_target(lead.target.clone());
        let mut it = Interp::new(&cm.module, Memory::default(), &cost, &EXTERNS);
        it.set_plan_cache(Arc::clone(&self.plans), key);
        // Input-arena sharing: the first member to fill its workload
        // buffers leaves an image behind when a later member has the
        // *identical* buffer-spec list, and that member restores it instead
        // of re-running the seeded per-element fills — one memcpy replaces
        // the RNG. The fills are deterministic functions of the specs, so
        // the restored arena is byte-for-byte the one a fresh fill would
        // produce. A member no later one can reuse (a singleton batch, say)
        // takes no image.
        let mut inputs: Option<InputSnapshot> = None;
        let mut first = true;
        for (i, (req, cancel)) in members.iter().enumerate() {
            if out[i].is_some() {
                continue;
            }
            if !first {
                it.mem.reset();
                it.reset_run();
            }
            first = false;
            let reused_later = || {
                members[i + 1..]
                    .iter()
                    .zip(&out[i + 1..])
                    .any(|((later, _), slot)| slot.is_none() && later.buffers == req.buffers)
            };
            let snap = if inputs.is_some() || reused_later() {
                Some(&mut inputs)
            } else {
                None
            };
            let result = match cancel.map_or(Ok(()), check_token) {
                Err(e) => Err(e),
                Ok(()) => {
                    let budget = RunBudget::effective(limits, req);
                    run_member(&mut it, &cm, req, Some(&budget), *cancel, snap)
                }
            };
            out[i] = Some(result.map(|mut resp| {
                resp.cache.module_hit = module_hit;
                resp.compile_nanos = compile_nanos;
                resp
            }));
        }
        out.into_iter().map(|s| s.expect("filled")).collect()
    }

    /// Cache counter document (the `stats` op payload).
    pub fn stats_json(&self) -> Json {
        let m = self.modules.stats();
        let p = self.plans.stats();
        Json::obj(vec![
            (
                "module_cache",
                Json::obj(vec![
                    ("hits", Json::u64(m.hits)),
                    ("misses", Json::u64(m.misses)),
                    ("evictions", Json::u64(m.evictions)),
                    ("entries", Json::u64(m.entries as u64)),
                    ("bytes", Json::u64(m.bytes as u64)),
                    ("budget", Json::u64(self.modules.budget() as u64)),
                ]),
            ),
            (
                "plan_cache",
                Json::obj(vec![
                    ("hits", Json::u64(p.hits)),
                    ("misses", Json::u64(p.misses)),
                    ("evictions", Json::u64(p.evictions)),
                    ("entries", Json::u64(p.entries)),
                    ("bytes", Json::u64(p.bytes)),
                    ("budget", Json::u64(self.plans.budget() as u64)),
                ]),
            ),
        ])
    }
}

/// Compiles a request's source with its per-request pipeline
/// configuration, bypassing every cache.
fn compile_uncached(req: &RunRequest, key: u64) -> Result<CompiledModule, String> {
    let verify = VerifyMode::parse(&req.verify)
        .ok_or_else(|| format!("bad verify mode {:?} (off|fallback|strict)", req.verify))?;
    let inject = if req.inject.is_empty() {
        None
    } else {
        Some(FaultInjector::parse(&req.inject).map_err(|e| format!("bad inject spec: {e}"))?)
    };
    let m = psimc::compile(&req.source).map_err(|e| format!("compile error: {e}"))?;
    let opts = match req.mode {
        Mode::Parsimony => VectorizeOptions::default(),
        Mode::GangSync => VectorizeOptions::gang_synchronous(),
    };
    // jobs = 1: requests are already parallel across the worker pool, so
    // per-request region fan-out would only oversubscribe the host. The
    // pipeline output is byte-identical at any job count (PR 3's
    // contract), so this is invisible to clients.
    let popts = PipelineOptions {
        verify,
        inject,
        jobs: 1,
        target: req.target.clone(),
    };
    let out =
        vectorize_module_with(&m, &opts, &popts).map_err(|e| format!("pipeline error: {e}"))?;
    let remarks = telemetry::remarks_to_json(&out.remarks);
    let approx_bytes = CompiledModule::estimate_bytes(&out.module, &remarks);
    Ok(CompiledModule {
        module: out.module,
        key,
        warnings: out.warnings,
        degraded: out.degraded,
        remarks,
        approx_bytes,
    })
}

/// Maps a cancelled token onto its typed error. The reason distinguishes
/// shutdown from client disconnect from deadline.
fn check_token(tok: &CancelToken) -> Result<(), ServeError> {
    match tok.poll_deadline() {
        None => Ok(()),
        Some(CancelReason::Deadline) => Err(ServeError::DeadlineExceeded),
        Some(CancelReason::Client) => Err(ServeError::Cancelled),
        Some(CancelReason::Shutdown) => Err(ServeError::ShuttingDown),
    }
}

/// Maps an interpreter trap onto the typed serve error, consulting the
/// token (when present) to attribute a generic `Cancelled` trap to
/// disconnect vs shutdown.
fn map_exec_error(
    e: &ExecError,
    budget: Option<&RunBudget>,
    tok: Option<&CancelToken>,
) -> ServeError {
    match e {
        ExecError::StepLimit => ServeError::ResourceExhausted {
            what: "steps".into(),
            detail: format!(
                "step budget of {} exhausted",
                budget.map_or(psir::DEFAULT_STEP_LIMIT, |b| b.max_steps)
            ),
        },
        ExecError::MemoryBudget { requested, limit } => ServeError::ResourceExhausted {
            what: "mem_bytes".into(),
            detail: format!("{requested} bytes requested, {limit} allowed"),
        },
        ExecError::DeadlineExceeded => ServeError::DeadlineExceeded,
        ExecError::Cancelled => match tok.and_then(CancelToken::reason) {
            Some(CancelReason::Shutdown) => ServeError::ShuttingDown,
            _ => ServeError::Cancelled,
        },
        other => ServeError::Error(format!("runtime error: {other}")),
    }
}

/// The lead batch member's initialized input arena: its buffer-spec list,
/// the buffer base addresses, and the filled-arena image. Batchmates with
/// an identical spec list restore the image instead of refilling.
struct InputSnapshot {
    specs: Vec<suite::BufSpec>,
    addrs: Vec<u64>,
    image: psir::MemImage,
}

/// Runs one request on a prepared interpreter whose memory is fresh (or
/// freshly [`Memory::reset`]) — the shared tail of the batch path and the
/// single-shot reference. The arena and resolved plans carry over between
/// batch members; everything the response depends on is configured here
/// per member, so a member executed mid-batch is byte-identical to one
/// executed alone.
fn run_member(
    it: &mut Interp<'_>,
    cm: &CompiledModule,
    req: &RunRequest,
    budget: Option<&RunBudget>,
    cancel: Option<&CancelToken>,
    snap: Option<&mut Option<InputSnapshot>>,
) -> Result<RunResponse, ServeError> {
    let t = Instant::now();
    if let Some(b) = budget {
        // The workload buffers are allocated before the budget could be
        // attached (their fill path treats allocation failure as fatal),
        // so their footprint is pre-checked with the allocator's own
        // arithmetic: 64-byte aligned bumps from a 64-byte reserve.
        let mut brk: u64 = 64;
        for spec in &req.buffers {
            let bytes = spec.elem.size_bytes() * spec.len;
            brk = brk.div_ceil(64) * 64 + bytes;
        }
        let footprint = brk.saturating_sub(64);
        if footprint > b.max_mem_bytes {
            return Err(ServeError::ResourceExhausted {
                what: "mem_bytes".into(),
                detail: format!(
                    "workload buffers need {footprint} bytes, {} allowed",
                    b.max_mem_bytes
                ),
            });
        }
    }
    let mut addrs: Vec<u64> = Vec::new();
    match snap {
        Some(Some(s)) if s.specs == req.buffers => {
            // A batchmate already filled this exact workload: restore its
            // image (one memcpy) instead of re-running the seeded fills.
            it.mem.restore(&s.image);
            addrs.clone_from(&s.addrs);
        }
        slot => {
            for spec in &req.buffers {
                addrs.push(fill_buffer(&mut it.mem, spec));
            }
            if let Some(slot @ None) = slot {
                *slot = Some(InputSnapshot {
                    specs: req.buffers.clone(),
                    addrs: addrs.clone(),
                    image: it.mem.image(),
                });
            }
        }
    }
    let mut args: Vec<RtVal> = addrs.iter().map(|&a| RtVal::S(a)).collect();
    args.extend(req.extra_args.iter().map(|&v| RtVal::S(v)));
    args.push(RtVal::S(req.n));
    if let Some(b) = budget {
        it.mem.set_budget(Some(b.max_mem_bytes));
    }

    it.set_engine(req.engine);
    if let Some(b) = budget {
        it.set_step_limit(b.max_steps);
    }
    if let Some(tok) = cancel {
        it.set_cancel_token(tok.clone());
    }
    if req.want_profile {
        it.enable_profiling();
    }
    it.call(&req.entry, &args)
        .map_err(|e| map_exec_error(&e, budget, cancel))?;

    let mut outputs = Vec::new();
    for (spec, &addr) in req.buffers.iter().zip(&addrs) {
        if spec.check {
            let bytes = spec.elem.size_bytes() * spec.len;
            outputs.push(hex(it
                .mem
                .read_bytes(addr, bytes)
                .map_err(|e| ServeError::Error(e.to_string()))?));
        }
    }
    let (plan_shared_hits, plan_builds) = it.plan_counters();
    Ok(RunResponse {
        id: req.id,
        cycles: it.cycles,
        outputs,
        stats: format!("{:?}", it.stats),
        degraded: cm.degraded.clone(),
        warnings: cm.warnings.clone(),
        remarks: req.want_remarks.then(|| cm.remarks.clone()),
        profile: it.take_profile().map(|p| p.to_json()),
        cache: CacheInfo {
            module_hit: false,
            plan_shared_hits,
            plan_builds,
        },
        compile_nanos: 0,
        exec_nanos: t.elapsed().as_nanos() as u64,
        steps: it.steps(),
        mem_bytes: it.mem.allocated(),
    })
}

/// The uncached reference path: compiles and executes a request from
/// scratch, exactly as a one-off `psimcc --run` would. `servebench
/// --check` asserts every served response is byte-identical (in its
/// [`RunResponse::identity`] payload) to this.
///
/// # Errors
/// Same failure surface as [`ServeState::run_request`].
pub fn single_shot(req: &RunRequest) -> Result<RunResponse, String> {
    let key = request_key(
        &req.source,
        req.mode.name(),
        &req.verify,
        &req.inject,
        req.engine.flag_name(),
        &req.target.flag_name(),
    );
    let t = Instant::now();
    let cm = compile_uncached(req, key)?;
    let compile_nanos = t.elapsed().as_nanos() as u64;
    // A fresh, uncached interpreter with nothing configured beyond the
    // engine: the reference execution.
    let cost = TargetCost::for_target(req.target.clone());
    let mut it = Interp::new(&cm.module, Memory::default(), &cost, &EXTERNS);
    let mut resp = run_member(&mut it, &cm, req, None, None, None).map_err(|e| e.to_string())?;
    resp.compile_nanos = compile_nanos;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psir::Engine;

    const SRC: &str = "
void main(f32* restrict a, f32* restrict out, i64 n) {
  psim gang(8) threads(n) {
    i64 i = psim_thread_num();
    out[i] = a[i] * 2.0 + 1.0;  // doubled plus one
  }
}
";

    fn req(id: u64) -> RunRequest {
        let mut r = RunRequest::new(id, SRC, 256);
        r.buffers = vec![
            suite::BufSpec {
                elem: psir::ScalarTy::F32,
                len: 256,
                init: suite::Init::RandomF32 {
                    seed: 1,
                    lo: -4.0,
                    hi: 4.0,
                },
                check: false,
            },
            suite::BufSpec {
                elem: psir::ScalarTy::F32,
                len: 256,
                init: suite::Init::Zero,
                check: true,
            },
        ];
        r
    }

    #[test]
    fn cached_and_single_shot_agree_byte_for_byte() {
        let state = ServeState::new(&ServeOptions::default());
        let cold = state.run_request(&req(1)).expect("cold run");
        let hot = state.run_request(&req(2)).expect("hot run");
        let reference = single_shot(&req(3)).expect("single shot");
        assert!(!cold.cache.module_hit);
        assert!(hot.cache.module_hit);
        assert!(hot.cache.plan_shared_hits > 0, "hot run reuses the plan");
        assert_eq!(cold.identity(), reference.identity());
        assert_eq!(hot.identity(), reference.identity());
        assert!(!cold.outputs[0].is_empty());
        assert_eq!(hot.compile_nanos, 0, "module-cache hit skips the compiler");
    }

    #[test]
    fn remarks_and_profile_are_opt_in_and_replayed_on_hits() {
        let state = ServeState::new(&ServeOptions::default());
        let plain = state.run_request(&req(1)).expect("plain");
        assert!(plain.remarks.is_none() && plain.profile.is_none());
        let mut r = req(2);
        r.want_remarks = true;
        r.want_profile = true;
        let full = state.run_request(&r).expect("full");
        assert!(full.remarks.is_some() && full.profile.is_some());
        let mut shot = req(3);
        shot.want_remarks = true;
        shot.want_profile = true;
        let reference = single_shot(&shot).expect("single shot");
        assert_eq!(full.identity(), reference.identity());
    }

    #[test]
    fn bad_descriptors_fail_without_poisoning_the_cache() {
        let state = ServeState::new(&ServeOptions::default());
        let mut bad = req(1);
        bad.verify = "nope".into();
        assert!(state.run_request(&bad).unwrap_err().contains("verify"));
        let mut bad = req(2);
        bad.inject = "not-a-site".into();
        assert!(state.run_request(&bad).unwrap_err().contains("inject"));
        let mut bad = req(3);
        bad.source = "void main( {".into();
        assert!(state.run_request(&bad).unwrap_err().contains("compile"));
        // The clean request still compiles fresh (nothing was cached).
        let ok = state.run_request(&req(4)).expect("clean run");
        assert!(!ok.cache.module_hit);
        assert_eq!(state.modules.stats().entries, 1);
    }

    const SLOW_SRC: &str = "
void main(f32* restrict out, i64 n) {
  psim gang(8) threads(n) {
    i64 i = psim_thread_num();
    f32 x = (f32) i;
    i64 it = 0;
    while (it < 100000) {
      x = x * 1.000001 + 0.5;
      it += 1;
    }
    out[i] = x;
  }
}
";

    fn slow_req(id: u64) -> RunRequest {
        let mut r = RunRequest::new(id, SLOW_SRC, 64);
        r.buffers = vec![suite::BufSpec {
            elem: psir::ScalarTy::F32,
            len: 64,
            init: suite::Init::Zero,
            check: true,
        }];
        r
    }

    #[test]
    fn step_budget_exhaustion_is_typed_and_does_not_poison_the_caches() {
        let state = ServeState::new(&ServeOptions::default());
        let mut tight = slow_req(1);
        tight.max_steps = 1000;
        match state.run_request_with(&tight, &ServeLimits::default(), None) {
            Err(ServeError::ResourceExhausted { what, detail }) => {
                assert_eq!(what, "steps");
                assert!(detail.contains("1000"));
            }
            other => panic!("expected steps exhaustion, got {other:?}"),
        }
        // The module compiled fine and stays cached; an unbudgeted retry
        // serves the canonical answer.
        let full = state.run_request(&slow_req(2)).expect("unbudgeted run");
        assert!(full.cache.module_hit, "budget failure must not evict");
        assert_eq!(
            full.identity(),
            single_shot(&slow_req(3)).expect("reference").identity()
        );
    }

    #[test]
    fn source_and_memory_budgets_are_enforced_before_execution() {
        let state = ServeState::new(&ServeOptions::default());
        let limits = ServeLimits {
            max_source_bytes: 16,
            ..ServeLimits::default()
        };
        match state.run_request_with(&slow_req(1), &limits, None) {
            Err(ServeError::ResourceExhausted { what, .. }) => {
                assert_eq!(what, "source_bytes");
            }
            other => panic!("expected source_bytes exhaustion, got {other:?}"),
        }
        let mut tight = req(2);
        tight.max_mem_bytes = 128; // two 256-element f32 buffers cannot fit
        match state.run_request_with(&tight, &ServeLimits::default(), None) {
            Err(ServeError::ResourceExhausted { what, .. }) => {
                assert_eq!(what, "mem_bytes");
            }
            other => panic!("expected mem_bytes exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_and_cancelled_token_map_to_their_statuses() {
        let state = ServeState::new(&ServeOptions::default());
        let tok = psir::CancelToken::with_deadline(std::time::Duration::from_nanos(0));
        assert_eq!(
            state
                .run_request_with(&slow_req(1), &ServeLimits::default(), Some(&tok))
                .unwrap_err(),
            ServeError::DeadlineExceeded
        );
        let tok = psir::CancelToken::new();
        tok.cancel(psir::CancelReason::Client);
        assert_eq!(
            state
                .run_request_with(&slow_req(2), &ServeLimits::default(), Some(&tok))
                .unwrap_err(),
            ServeError::Cancelled
        );
        let tok = psir::CancelToken::new();
        tok.cancel(psir::CancelReason::Shutdown);
        assert_eq!(
            state
                .run_request_with(&slow_req(3), &ServeLimits::default(), Some(&tok))
                .unwrap_err(),
            ServeError::ShuttingDown
        );
        // A live token with room to finish serves normally, byte-identical
        // to the reference.
        let tok = psir::CancelToken::with_deadline(std::time::Duration::from_secs(600));
        let ok = state
            .run_request_with(&slow_req(4), &ServeLimits::default(), Some(&tok))
            .expect("live token");
        assert_eq!(
            ok.identity(),
            single_shot(&slow_req(5)).expect("reference").identity()
        );
        assert!(ok.steps > 0 && ok.mem_bytes > 0, "accounting is reported");
    }

    #[test]
    fn reference_requests_never_share_cache_entries_with_fast_requests() {
        let state = ServeState::new(&ServeOptions::default());
        let fast_cold = state.run_request(&req(1)).expect("fast cold");
        assert!(!fast_cold.cache.module_hit);

        // Same source on the reference engine: a distinct module entry
        // (cold compile) and distinct plans (builds, not shared hits).
        let mut reference = req(2);
        reference.engine = Engine::Reference;
        let reference_cold = state.run_request(&reference).expect("reference cold");
        assert!(
            !reference_cold.cache.module_hit,
            "reference request must not hit the fast request's module entry"
        );
        assert_eq!(
            reference_cold.cache.plan_shared_hits, 0,
            "reference request must not reuse the fast request's plans"
        );
        assert_eq!(state.modules.stats().entries, 2);

        // Warm replays on each engine hit only their own entries, and both
        // engines serve the byte-identical answer.
        let fast_hot = state.run_request(&req(3)).expect("fast hot");
        let mut reference2 = req(4);
        reference2.engine = Engine::Reference;
        let reference_hot = state.run_request(&reference2).expect("reference hot");
        assert!(fast_hot.cache.module_hit && reference_hot.cache.module_hit);
        assert_eq!(state.modules.stats().entries, 2);
        assert_eq!(fast_hot.identity(), fast_cold.identity());
        assert_eq!(reference_hot.identity(), reference_cold.identity());
        assert_eq!(
            reference_cold.identity(),
            fast_cold.identity(),
            "engines must agree byte for byte"
        );
        let mut shot = req(5);
        shot.engine = Engine::Reference;
        assert_eq!(
            reference_hot.identity(),
            single_shot(&shot)
                .expect("reference single shot")
                .identity()
        );
    }

    #[test]
    fn fault_injection_is_honored_per_request() {
        let state = ServeState::new(&ServeOptions::default());
        let clean = state.run_request(&req(1)).expect("clean");
        assert!(clean.degraded.is_empty(), "clean request must not degrade");
        let mut faulty = req(2);
        faulty.inject = "shape:1".into();
        match state.run_request(&faulty) {
            // Depending on the injected site the pipeline either degrades
            // the region (graceful degradation) or the request errors —
            // both are per-request effects; the clean entry must survive.
            Ok(resp) => assert!(!resp.degraded.is_empty() || resp.cycles > 0),
            Err(e) => assert!(!e.is_empty()),
        }
        let again = state.run_request(&req(3)).expect("clean again");
        assert!(again.cache.module_hit, "clean entry still cached");
        assert_eq!(again.identity(), clean.identity());
    }
}
