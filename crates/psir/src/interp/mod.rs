//! IR interpreter with pluggable cost model.
//!
//! The interpreter is the reproduction's stand-in for running compiled code
//! on AVX-512 hardware: it executes any (scalar or vector) `psir` function
//! over a flat [`Memory`] and charges cycles for every executed instruction
//! through a [`CostModel`] — the `vmach` crate supplies the calibrated
//! AVX-512-class model; [`UnitCost`] charges one cycle per operation.
//!
//! Two execution engines share one set of instruction semantics
//! ([`Interp::set_engine`]):
//!
//! * [`Engine::Fast`] (the default) executes through a precompiled
//!   per-function [`FramePlan`]: dense frame slots instead of a hash map,
//!   pre-resolved φ edge tables, memoized instruction costs (one
//!   legalization per *static* instruction), and pooled lane buffers.
//! * [`Engine::Reference`] is the retained slow path: per-dynamic-step
//!   cost-model queries, hashed value storage, and dynamic φ resolution.
//!
//! Both engines produce byte-identical simulated cycles, [`Profile`]s,
//! statistics, and results — `runbench --check` and the engine
//! differential tests gate on this identity contract.

mod cancel;
mod eval;
mod memory;
mod plan;
mod plan_cache;

pub use cancel::{CancelReason, CancelToken, DEADLINE_POLL_STEPS};
pub use eval::{
    eval_bin, eval_cast, eval_cmp, eval_math, eval_un, reduce_identity, reduce_step, sext, trunc,
    ExecError,
};
pub use memory::{MemImage, Memory};
pub use plan::{BlockPlan, CallSite, EdgeTable, FramePlan, LaneKernel, PhiMove, PlannedCost};
pub use plan_cache::{PlanCache, PlanCacheStats};

use crate::function::{Function, Module};
use crate::inst::{BlockId, Inst, InstId, Intrinsic, Terminator, Value};
use crate::types::{ScalarTy, Ty};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

pub use telemetry::{CostClass, Profile};

/// A runtime value: raw payload bits, scalar or per-lane.
#[derive(Debug, Clone, PartialEq)]
pub enum RtVal {
    /// No value (void results).
    Unit,
    /// A scalar payload (see [`crate::Const`] for the encoding).
    S(u64),
    /// A vector of per-lane payloads.
    V(Vec<u64>),
}

impl RtVal {
    /// The scalar payload.
    ///
    /// # Errors
    /// Fails if this is not a scalar.
    pub fn scalar(&self) -> Result<u64, ExecError> {
        match self {
            RtVal::S(v) => Ok(*v),
            other => Err(ExecError::Other(format!("expected scalar, got {other:?}"))),
        }
    }

    /// The per-lane payloads.
    ///
    /// # Errors
    /// Fails if this is not a vector.
    pub fn vector(&self) -> Result<&[u64], ExecError> {
        match self {
            RtVal::V(v) => Ok(v),
            other => Err(ExecError::Other(format!("expected vector, got {other:?}"))),
        }
    }

    /// Builds a scalar from an `i64`.
    pub fn from_i64(ty: ScalarTy, v: i64) -> RtVal {
        RtVal::S(v as u64 & ty.bit_mask())
    }

    /// Builds a scalar from an `f32`.
    pub fn from_f32(v: f32) -> RtVal {
        RtVal::S(v.to_bits() as u64)
    }

    /// Builds a scalar from an `f64`.
    pub fn from_f64(v: f64) -> RtVal {
        RtVal::S(v.to_bits())
    }

    /// Lane payloads of a mask as booleans, collected into a fresh vector.
    ///
    /// Hot paths should prefer [`RtVal::mask_lanes_iter`], which borrows
    /// instead of allocating.
    ///
    /// # Errors
    /// Fails if this is not a vector.
    pub fn mask_lanes(&self) -> Result<Vec<bool>, ExecError> {
        Ok(self.mask_lanes_iter()?.collect())
    }

    /// Borrowing variant of [`RtVal::mask_lanes`]: iterates the mask lanes
    /// as booleans without allocating.
    ///
    /// # Errors
    /// Fails if this is not a vector.
    pub fn mask_lanes_iter(&self) -> Result<impl Iterator<Item = bool> + '_, ExecError> {
        Ok(self.vector()?.iter().map(|&b| b & 1 != 0))
    }
}

/// A borrowed per-lane view of an operand: a scalar splatted to the lane
/// count, or the operand's own lane slice. This is the allocation-free
/// replacement for cloning broadcast vectors on every operand read.
#[derive(Debug, Clone, Copy)]
pub enum Lanes<'a> {
    /// A scalar broadcast across the lanes.
    Splat {
        /// The splatted payload.
        val: u64,
        /// Lane count of the view.
        lanes: u32,
    },
    /// A borrowed lane slice.
    Slice(&'a [u64]),
}

impl<'a> Lanes<'a> {
    /// Views `v` as `lanes` per-lane payloads (splatting scalars).
    ///
    /// # Errors
    /// Fails on void operands and on vectors of a different lane count.
    pub fn of(v: &'a RtVal, lanes: u32) -> Result<Lanes<'a>, ExecError> {
        match v {
            RtVal::S(s) => Ok(Lanes::Splat { val: *s, lanes }),
            RtVal::V(l) => {
                if l.len() != lanes as usize {
                    return Err(ExecError::Other(format!(
                        "lane count mismatch: {} vs {}",
                        l.len(),
                        lanes
                    )));
                }
                Ok(Lanes::Slice(l))
            }
            RtVal::Unit => Err(ExecError::Other("void operand".into())),
        }
    }

    /// The payload of lane `i`.
    #[inline]
    pub fn at(&self, i: usize) -> u64 {
        match self {
            Lanes::Splat { val, .. } => *val,
            Lanes::Slice(l) => l[i],
        }
    }

    /// Lane count of the view.
    pub fn len(&self) -> usize {
        match self {
            Lanes::Splat { lanes, .. } => *lanes as usize,
            Lanes::Slice(l) => l.len(),
        }
    }

    /// Whether the view has no lanes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates the lane payloads.
    pub fn iter(&self) -> impl Iterator<Item = u64> + 'a {
        let view = *self;
        (0..view.len()).map(move |i| view.at(i))
    }
}

/// A borrowed view of an optional execution mask: `active(i)` is true for
/// unmasked operations and for lanes whose mask payload has bit 0 set.
#[derive(Debug, Clone, Copy)]
pub struct MaskRef<'a>(Option<&'a [u64]>);

impl<'a> MaskRef<'a> {
    /// Builds the view, checking that a present mask is a vector.
    ///
    /// # Errors
    /// Fails if `m` is `Some` but not a vector value.
    pub fn new(m: Option<&'a RtVal>) -> Result<MaskRef<'a>, ExecError> {
        Ok(MaskRef(match m {
            Some(v) => Some(v.vector()?),
            None => None,
        }))
    }

    /// Whether lane `i` executes.
    #[inline]
    pub fn active(&self, i: usize) -> bool {
        self.0.is_none_or(|m| m[i] & 1 != 0)
    }

    /// Whether there is no mask at all (every lane executes).
    pub fn is_unmasked(&self) -> bool {
        self.0.is_none()
    }
}

/// Charges simulated cycles for executed operations.
///
/// The interpreter calls [`CostModel::inst_cost`] once per dynamically
/// executed instruction (or once per *static* instruction when the fast
/// engine builds a [`FramePlan`] cost table). Implementations can inspect
/// the instruction and the types of its operands via the owning function
/// (this is how `vmach` legalizes gang-width vectors onto 512-bit
/// registers and charges per-lane costs for gathers/scatters).
pub trait CostModel {
    /// Cycles for one dynamic execution of `id` in `f`.
    fn inst_cost(&self, f: &Function, id: InstId) -> u64;

    /// Cycles for a call to an external (library) function.
    fn extern_call_cost(&self, name: &str, ret: Ty) -> u64;

    /// Cycles charged per executed terminator (branch).
    fn term_cost(&self, _f: &Function, _term: &Terminator) -> u64 {
        1
    }

    /// [`inst_cost`](CostModel::inst_cost), broken down by cost class for
    /// profiling. The returned cycles must sum to `inst_cost(f, id)`.
    ///
    /// The default attributes everything to [`CostClass::Other`]; `vmach`
    /// overrides this with its legalized micro-op breakdown.
    fn inst_cost_classed(&self, f: &Function, id: InstId) -> Vec<(CostClass, u64)> {
        vec![(CostClass::Other, self.inst_cost(f, id))]
    }

    /// Total and classed cost in one query, used when building a
    /// [`FramePlan`] cost table. Implementations whose cost methods share
    /// expensive work (as `vmach`'s micro-op legalization does) should
    /// override this to compute both in a single pass.
    fn inst_cost_full(&self, f: &Function, id: InstId) -> (u64, Vec<(CostClass, u64)>) {
        (self.inst_cost(f, id), self.inst_cost_classed(f, id))
    }
}

/// Charges one cycle for everything (useful for functional tests).
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitCost;

impl CostModel for UnitCost {
    fn inst_cost(&self, _f: &Function, _id: InstId) -> u64 {
        1
    }

    fn extern_call_cost(&self, _name: &str, _ret: Ty) -> u64 {
        1
    }
}

/// Resolves calls to functions that are not defined in the module (vector
/// math libraries, test hooks).
pub trait ExternFns {
    /// Executes the named external function.
    ///
    /// # Errors
    /// Returns [`ExecError::UnknownFunction`] for unknown names.
    fn call(&self, name: &str, args: &[RtVal]) -> Result<RtVal, ExecError>;
}

/// An extern resolver that knows no functions.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoExterns;

impl ExternFns for NoExterns {
    fn call(&self, name: &str, _args: &[RtVal]) -> Result<RtVal, ExecError> {
        Err(ExecError::UnknownFunction(name.to_string()))
    }
}

/// Dynamic execution statistics, used by tests and the experiment harnesses
/// to explain *why* a configuration is fast or slow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Dynamically executed instructions.
    pub insts: u64,
    /// Scalar loads.
    pub scalar_loads: u64,
    /// Packed (consecutive) vector loads.
    pub packed_loads: u64,
    /// Gathers (vector of addresses).
    pub gathers: u64,
    /// Scalar stores.
    pub scalar_stores: u64,
    /// Packed vector stores.
    pub packed_stores: u64,
    /// Scatters.
    pub scatters: u64,
    /// Calls executed (module-local and external).
    pub calls: u64,
}

/// Which execution engine the interpreter steps with. All engines share
/// one set of instruction semantics and are cycle/profile/result
/// identical; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Precompiled [`FramePlan`] execution (dense frame slots, memoized
    /// costs, φ edge tables, pooled buffers). The default.
    #[default]
    Fast,
    /// The retained reference step loop (hashed values, per-step cost
    /// queries, dynamic φ scans), kept as the identity baseline for
    /// `runbench --check` and the differential tests.
    Reference,
}

impl Engine {
    /// Every selectable engine, in CLI listing order.
    pub const ALL: [Engine; 2] = [Engine::Fast, Engine::Reference];

    /// The CLI name of the engine (`--engine` flag value).
    pub fn flag_name(self) -> &'static str {
        match self {
            Engine::Fast => "fast",
            Engine::Reference => "reference",
        }
    }

    /// Parses a `--engine` flag value.
    ///
    /// # Errors
    /// Names the valid engines, so CLIs can print the message as their
    /// exit-2 diagnostic.
    pub fn from_flag(s: &str) -> Result<Engine, String> {
        match s {
            "fast" => Ok(Engine::Fast),
            "reference" | "ref" => Ok(Engine::Reference),
            _ => Err(format!(
                "unknown engine {s:?}; valid engines: {}",
                Engine::ALL.map(Engine::flag_name).join(", ")
            )),
        }
    }
}

/// Dense activation frame used by the fast engine: one slot per arena
/// instruction, indexed by `InstId`. Unset slots read as [`RtVal::Unit`] —
/// the fast engine relies on the verifier's SSA dominance guarantee
/// instead of tracking initialization per slot. (The reference engine
/// keeps the retained `HashMap<InstId, RtVal>` storage.)
struct SlotFrame(Vec<RtVal>);

impl SlotFrame {
    /// The value of `id`, if it has been computed.
    fn get(&self, id: InstId) -> Option<&RtVal> {
        self.0.get(id.0 as usize)
    }

    /// Stores the result of `id`, returning the displaced value (so the
    /// caller can recycle its lane buffer).
    fn set(&mut self, id: InstId, v: RtVal) -> RtVal {
        std::mem::replace(&mut self.0[id.0 as usize], v)
    }

    /// Moves the value of `id` out of the frame (used at `ret`).
    fn take(&mut self, id: InstId) -> RtVal {
        std::mem::replace(&mut self.0[id.0 as usize], RtVal::Unit)
    }
}

/// Resolves an operand to a (usually borrowed) runtime value — the fast
/// engine's allocation-free replacement for the reference path's
/// clone-per-operand `value_ref`.
fn operand<'v>(
    f: &Function,
    frame: &'v SlotFrame,
    args: &'v [RtVal],
    v: Value,
) -> Result<Cow<'v, RtVal>, ExecError> {
    match v {
        Value::Const(c) => Ok(Cow::Owned(RtVal::S(c.bits))),
        Value::Param(i) => args
            .get(i as usize)
            .map(Cow::Borrowed)
            .ok_or_else(|| ExecError::Other(format!("missing argument {i} to @{}", f.name))),
        Value::Inst(i) => frame
            .get(i)
            .map(Cow::Borrowed)
            .ok_or_else(|| ExecError::Other(format!("use of unevaluated {i} in @{}", f.name))),
    }
}

/// The interpreter. See the module docs.
pub struct Interp<'a> {
    /// The module being executed.
    pub module: &'a Module,
    /// Flat memory (inputs/outputs live here).
    pub mem: Memory,
    cost: &'a dyn CostModel,
    externs: &'a dyn ExternFns,
    /// Simulated cycles accumulated so far.
    pub cycles: u64,
    /// Execution statistics.
    pub stats: ExecStats,
    /// Cycle-attribution profile, populated when profiling is enabled.
    profile: Option<Profile>,
    steps: u64,
    step_limit: u64,
    engine: Engine,
    /// Precompiled plans, keyed by function address (stable for the
    /// lifetime of the `&'a Module` borrow). `Arc` (not `Rc`) so plans can
    /// be shared with a cross-thread [`PlanCache`].
    plans: HashMap<usize, Arc<FramePlan>>,
    /// Optional shared plan tier: `(cache, module_id)`. The id must
    /// identify the module *and* the cost model (see [`PlanCache`]).
    shared_plans: Option<(Arc<PlanCache>, u64)>,
    /// Plans resolved from the shared cache by this interpreter.
    plan_shared_hits: u64,
    /// Plans this interpreter had to build itself.
    plan_builds: u64,
    /// Recycled lane buffers for vector results.
    lane_pool: Vec<Vec<u64>>,
    /// Recycled slot vectors for fast-engine activations.
    frame_pool: Vec<Vec<RtVal>>,
    /// Cooperative cancellation handle, polled at block boundaries by both
    /// engines. `None` (the default) costs one branch per block and keeps
    /// execution byte-identical to a token-less run.
    cancel: Option<CancelToken>,
    /// Step count at which the deadline clock is next consulted.
    next_deadline_poll: u64,
}

/// Default guard against runaway loops.
pub const DEFAULT_STEP_LIMIT: u64 = 4_000_000_000;

/// Bound on pooled lane buffers (keeps pathological gang widths from
/// pinning memory).
const LANE_POOL_CAP: usize = 4096;

/// Bound on pooled activation frames (call depth is shallow in practice).
const FRAME_POOL_CAP: usize = 64;

static UNIT_COST: UnitCost = UnitCost;
static NO_EXTERNS: NoExterns = NoExterns;

impl<'a> Interp<'a> {
    /// Full-control constructor.
    pub fn new(
        module: &'a Module,
        mem: Memory,
        cost: &'a dyn CostModel,
        externs: &'a dyn ExternFns,
    ) -> Interp<'a> {
        Interp {
            module,
            mem,
            cost,
            externs,
            cycles: 0,
            stats: ExecStats::default(),
            profile: None,
            steps: 0,
            step_limit: DEFAULT_STEP_LIMIT,
            engine: Engine::default(),
            plans: HashMap::new(),
            shared_plans: None,
            plan_shared_hits: 0,
            plan_builds: 0,
            lane_pool: Vec::new(),
            frame_pool: Vec::new(),
            cancel: None,
            next_deadline_poll: 0,
        }
    }

    /// Turns on cycle-attribution profiling. Subsequent execution
    /// attributes every charged cycle to a [`CostClass`] bucket of the
    /// function it was spent in (via [`CostModel::inst_cost_classed`]).
    pub fn enable_profiling(&mut self) {
        if self.profile.is_none() {
            self.profile = Some(Profile::new());
        }
    }

    /// Takes the accumulated profile, leaving profiling enabled with a
    /// fresh empty profile. Returns `None` if profiling was never enabled.
    pub fn take_profile(&mut self) -> Option<Profile> {
        self.profile.replace(Profile::new())
    }

    /// The accumulated profile so far, if profiling is enabled.
    pub fn profile(&self) -> Option<&Profile> {
        self.profile.as_ref()
    }

    /// Interpreter with unit costs and no external functions.
    pub fn with_defaults(module: &'a Module, mem: Memory) -> Interp<'a> {
        Interp::new(module, mem, &UNIT_COST, &NO_EXTERNS)
    }

    /// Replaces the runaway-loop guard (dynamic steps, not cycles).
    pub fn set_step_limit(&mut self, limit: u64) {
        self.step_limit = limit;
    }

    /// Dynamic steps executed so far (the quantity the step limit and the
    /// deadline-poll cadence are measured in).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Attaches a cooperative-cancellation token. Both engines poll it at
    /// every block boundary: the atomic flag always, the deadline clock
    /// every [`DEADLINE_POLL_STEPS`] dynamic steps. Cancellation surfaces
    /// as [`ExecError::Cancelled`] / [`ExecError::DeadlineExceeded`]; the
    /// polls charge no cycles and touch no statistics, so an execution that
    /// is never cancelled is byte-identical to one without a token.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
        self.next_deadline_poll = 0;
    }

    /// Block-boundary cancellation poll (see [`Interp::set_cancel_token`]).
    #[inline]
    fn check_cancel(&mut self) -> Result<(), ExecError> {
        let Some(tok) = &self.cancel else {
            return Ok(());
        };
        let reason = if tok.has_deadline() && self.steps >= self.next_deadline_poll {
            self.next_deadline_poll = self.steps.saturating_add(DEADLINE_POLL_STEPS);
            tok.poll_deadline()
        } else {
            tok.reason()
        };
        match reason {
            None => Ok(()),
            Some(CancelReason::Deadline) => Err(ExecError::DeadlineExceeded),
            Some(CancelReason::Client | CancelReason::Shutdown) => Err(ExecError::Cancelled),
        }
    }

    /// Selects the execution engine (the default is [`Engine::Fast`]).
    pub fn set_engine(&mut self, engine: Engine) {
        self.engine = engine;
    }

    /// The active execution engine.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Eagerly builds (and caches) the execution plan for `name`; plans
    /// are otherwise built lazily on first call. Returns `false` when the
    /// function is not defined in the module.
    pub fn precompile(&mut self, name: &str) -> bool {
        match self.module.function(name) {
            Some(f) => {
                self.plan_for(f);
                true
            }
            None => false,
        }
    }

    /// Calls a module function by name.
    ///
    /// # Errors
    /// Propagates any runtime trap ([`ExecError`]).
    pub fn call(&mut self, name: &str, args: &[RtVal]) -> Result<RtVal, ExecError> {
        let f = self
            .module
            .function(name)
            .ok_or_else(|| ExecError::UnknownFunction(name.to_string()))?;
        self.exec_function(f, args.to_vec())
    }

    fn exec_function(&mut self, f: &Function, args: Vec<RtVal>) -> Result<RtVal, ExecError> {
        match self.engine {
            Engine::Fast => self.exec_planned(f, args),
            Engine::Reference => self.exec_reference(f, args),
        }
    }

    /// Attaches a shared cross-thread [`PlanCache`]. `module_id` must be a
    /// content hash identifying both `self.module` and the cost model —
    /// callers with the same id share byte-identical plans instead of
    /// rebuilding them per interpreter.
    pub fn set_plan_cache(&mut self, cache: Arc<PlanCache>, module_id: u64) {
        self.shared_plans = Some((cache, module_id));
    }

    /// Plans this interpreter resolved from the shared cache (or a prior
    /// local build) versus built from scratch — per-request cache telemetry.
    pub fn plan_counters(&self) -> (u64, u64) {
        (self.plan_shared_hits, self.plan_builds)
    }

    /// Clears every piece of per-run state — cycles, statistics, step
    /// count, profile, cancellation token, and the plan telemetry
    /// counters — while keeping the warm machinery: resolved plans, the
    /// shared plan cache attachment, the lane/frame pools, the engine
    /// selection, and the step limit. The memory is *not* touched; callers
    /// reset it separately via [`Memory::reset`]. Together the two resets
    /// make a reused interpreter byte-indistinguishable from a fresh one,
    /// which is what lets a batch executor run many requests back-to-back
    /// on one arena.
    pub fn reset_run(&mut self) {
        self.cycles = 0;
        self.stats = ExecStats::default();
        self.profile = None;
        self.steps = 0;
        self.plan_shared_hits = 0;
        self.plan_builds = 0;
        self.cancel = None;
        self.next_deadline_poll = 0;
    }

    /// The cached plan for `f`, building it on first use. Resolution order:
    /// this interpreter's local map (free, no lock), then the shared
    /// [`PlanCache`] if attached, then a fresh build (published to both).
    fn plan_for(&mut self, f: &Function) -> Arc<FramePlan> {
        let key = std::ptr::from_ref(f) as usize;
        if let Some(p) = self.plans.get(&key) {
            return Arc::clone(p);
        }
        if let Some((cache, module_id)) = &self.shared_plans {
            if let Some(plan) = cache.get(*module_id, &f.name) {
                self.plan_shared_hits += 1;
                self.plans.insert(key, Arc::clone(&plan));
                return plan;
            }
        }
        let mut plan = Arc::new(FramePlan::build(self.module, f, self.cost));
        self.plan_builds += 1;
        if let Some((cache, module_id)) = &self.shared_plans {
            // A racing builder may have won; converge on its Arc.
            plan = cache.insert(*module_id, &f.name, plan);
        }
        self.plans.insert(key, Arc::clone(&plan));
        plan
    }

    /// Pops (or allocates) a lane buffer with room for `cap` lanes.
    fn take_lanes(&mut self, cap: usize) -> Vec<u64> {
        let mut b = self.lane_pool.pop().unwrap_or_default();
        b.clear();
        b.reserve(cap);
        b
    }

    /// Applies a resolved two-operand kernel across lane views into a
    /// pooled buffer, specializing the (slice, splat) operand shapes so the
    /// hot loop iterates raw slices with no per-lane enum dispatch.
    fn map2(&mut self, g: fn(u64, u64) -> u64, a: Lanes<'_>, b: Lanes<'_>) -> Vec<u64> {
        let mut out = self.take_lanes(a.len());
        match (a, b) {
            (Lanes::Slice(x), Lanes::Slice(y)) => {
                out.extend(x.iter().zip(y).map(|(&p, &q)| g(p, q)));
            }
            (Lanes::Slice(x), Lanes::Splat { val, .. }) => {
                out.extend(x.iter().map(|&p| g(p, val)));
            }
            (Lanes::Splat { val, .. }, Lanes::Slice(y)) => {
                out.extend(y.iter().map(|&q| g(val, q)));
            }
            (Lanes::Splat { val: p, lanes }, Lanes::Splat { val: q, .. }) => {
                out.resize(lanes as usize, g(p, q));
            }
        }
        out
    }

    /// One-operand counterpart of [`Interp::map2`].
    fn map1(&mut self, g: fn(u64) -> u64, a: Lanes<'_>) -> Vec<u64> {
        let mut out = self.take_lanes(a.len());
        match a {
            Lanes::Slice(x) => out.extend(x.iter().map(|&p| g(p))),
            Lanes::Splat { val, lanes } => out.resize(lanes as usize, g(val)),
        }
        out
    }

    /// Returns a displaced value's lane buffer to the pool.
    fn recycle(&mut self, v: RtVal) {
        if let RtVal::V(b) = v {
            self.recycle_buf(b);
        }
    }

    /// Returns a raw lane buffer to the pool.
    fn recycle_buf(&mut self, b: Vec<u64>) {
        if self.lane_pool.len() < LANE_POOL_CAP {
            self.lane_pool.push(b);
        }
    }

    /// Pops (or allocates) an activation frame of `slots` slots.
    fn take_frame(&mut self, slots: usize) -> Vec<RtVal> {
        let mut v = self.frame_pool.pop().unwrap_or_default();
        v.clear();
        v.resize(slots, RtVal::Unit);
        v
    }

    /// Charges one dynamic execution of `id`, attributing to the profile
    /// when profiling is enabled (reference engine: per-step cost query).
    fn charge_inst(&mut self, f: &Function, id: InstId) {
        if let Some(p) = self.profile.as_mut() {
            let classed = self.cost.inst_cost_classed(f, id);
            for (class, cy) in classed {
                self.cycles += cy;
                p.record(&f.name, class, cy);
            }
        } else {
            self.cycles += self.cost.inst_cost(f, id);
        }
    }

    /// Fast-engine charge: the memoized cost table stands in for the
    /// per-step cost-model query. Cycle and profile effects are identical
    /// to [`Interp::charge_inst`] by the [`CostModel`] contract.
    fn charge_planned(&mut self, fname: &str, pc: &PlannedCost) {
        if let Some(p) = self.profile.as_mut() {
            let mut sum = 0u64;
            for &(_, cy) in &pc.classed {
                sum += cy;
            }
            self.cycles += sum;
            p.record_classed(fname, &pc.classed);
        } else {
            self.cycles += pc.total;
        }
    }

    /// Charges an executed terminator (reference engine: per-step query).
    fn charge_term(&mut self, f: &Function, term: &Terminator) {
        let cy = self.cost.term_cost(f, term);
        self.charge_term_cy(&f.name, cy);
    }

    /// Charges `cy` terminator cycles to `fname`.
    fn charge_term_cy(&mut self, fname: &str, cy: u64) {
        self.cycles += cy;
        if let Some(p) = self.profile.as_mut() {
            p.record(fname, CostClass::Branch, cy);
        }
    }

    /// Charges an external (library) call at `cy` cycles.
    fn charge_extern(&mut self, f: &Function, callee: &str, cy: u64) {
        self.cycles += cy;
        if let Some(p) = self.profile.as_mut() {
            p.record_extern(&f.name, callee, cy);
        }
    }

    /// Fast engine: executes `f` through its precompiled [`FramePlan`].
    fn exec_planned(&mut self, f: &Function, args: Vec<RtVal>) -> Result<RtVal, ExecError> {
        let plan = self.plan_for(f);
        let mut frame = SlotFrame(self.take_frame(plan.slots));
        let result = self.run_planned(f, &plan, &mut frame, &args);
        let mut slots = frame.0;
        for v in slots.drain(..) {
            self.recycle(v);
        }
        if self.frame_pool.len() < FRAME_POOL_CAP {
            self.frame_pool.push(slots);
        }
        result
    }

    fn run_planned(
        &mut self,
        f: &Function,
        plan: &FramePlan,
        frame: &mut SlotFrame,
        args: &[RtVal],
    ) -> Result<RtVal, ExecError> {
        let mut block = f.entry;
        let mut prev: Option<BlockId> = None;
        let mut phi_vals: Vec<(InstId, RtVal)> = Vec::new();

        loop {
            self.check_cancel()?;
            let bp = &plan.blocks[block.0 as usize];

            // φ schedule: the edge table resolved at plan time replaces
            // the reference engine's per-entry scan + incoming search.
            if let Some(first) = bp.first_phi {
                let Some(p) = prev else {
                    return Err(ExecError::Other(format!(
                        "phi {first} in entry block of @{}",
                        f.name
                    )));
                };
                let Some(table) = bp.edges.iter().find(|e| e.pred == p) else {
                    return Err(ExecError::Other(format!(
                        "phi {first} missing edge from {p}"
                    )));
                };
                phi_vals.clear();
                for mv in &table.moves {
                    if self.steps >= self.step_limit {
                        return Err(ExecError::StepLimit);
                    }
                    self.steps += 1;
                    let Some(src) = mv.src else {
                        return Err(ExecError::Other(format!(
                            "phi {} missing edge from {p}",
                            mv.phi
                        )));
                    };
                    let rv = operand(f, frame, args, src)?.into_owned();
                    self.charge_planned(&f.name, &plan.costs[mv.phi.0 as usize]);
                    phi_vals.push((mv.phi, rv));
                }
                for (id, rv) in phi_vals.drain(..) {
                    let old = frame.set(id, rv);
                    self.recycle(old);
                }
            }

            // Straight-line body over dense slots and memoized costs.
            for &id in &bp.body {
                if self.steps >= self.step_limit {
                    return Err(ExecError::StepLimit);
                }
                self.steps += 1;
                self.stats.insts += 1;
                self.charge_planned(&f.name, &plan.costs[id.0 as usize]);
                let r = self.exec_inst(f, frame, args, id, plan)?;
                let old = frame.set(id, r);
                self.recycle(old);
            }

            self.charge_term_cy(&f.name, bp.term_cost);
            match &f.block(block).term {
                Terminator::Br(t) => {
                    prev = Some(block);
                    block = *t;
                }
                Terminator::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    let c = operand(f, frame, args, *cond)?.scalar()?;
                    prev = Some(block);
                    block = if c & 1 != 0 { *then_bb } else { *else_bb };
                }
                Terminator::Ret(v) => {
                    return match v {
                        None => Ok(RtVal::Unit),
                        Some(Value::Inst(i)) => Ok(frame.take(*i)),
                        Some(v) => operand(f, frame, args, *v).map(Cow::into_owned),
                    };
                }
            }
        }
    }

    /// Reference engine: the retained pre-plan step loop, kept verbatim as
    /// the identity baseline (hashed value storage, cloned operands,
    /// per-dynamic-step cost-model queries, per-entry φ scans). The only
    /// intentional changes from the original are the φ step-limit check
    /// (the runaway-guard bugfix) and the block-boundary cancellation poll
    /// — both apply identically to both engines and neither perturbs
    /// cycles or statistics.
    fn exec_reference(&mut self, f: &Function, args: Vec<RtVal>) -> Result<RtVal, ExecError> {
        let mut vals: HashMap<InstId, RtVal> = HashMap::new();
        let mut block = f.entry;
        let mut prev: Option<BlockId> = None;

        loop {
            self.check_cancel()?;
            // φ nodes first, evaluated simultaneously from the incoming edge.
            let blk = f.block(block);
            let mut phi_results: Vec<(InstId, RtVal)> = Vec::new();
            for &id in &blk.insts {
                if let Inst::Phi { incoming } = f.inst(id) {
                    // The runaway guard applies to φ steps too: a
                    // φ-only loop must not spin past the limit between
                    // body checks.
                    if self.steps >= self.step_limit {
                        return Err(ExecError::StepLimit);
                    }
                    self.steps += 1;
                    let p = prev.ok_or_else(|| {
                        ExecError::Other(format!("phi {id} in entry block of @{}", f.name))
                    })?;
                    let (_, v) = incoming.iter().find(|(b, _)| *b == p).ok_or_else(|| {
                        ExecError::Other(format!("phi {id} missing edge from {p}"))
                    })?;
                    let rv = self.value_ref(f, &vals, &args, *v)?;
                    self.charge_inst(f, id);
                    phi_results.push((id, rv));
                } else {
                    break;
                }
            }
            for (id, rv) in phi_results {
                vals.insert(id, rv);
            }

            // Straight-line body.
            for &id in &blk.insts {
                if matches!(f.inst(id), Inst::Phi { .. }) {
                    continue;
                }
                if self.steps >= self.step_limit {
                    return Err(ExecError::StepLimit);
                }
                self.steps += 1;
                self.stats.insts += 1;
                self.charge_inst(f, id);
                let r = self.exec_inst_ref(f, &vals, &args, id)?;
                vals.insert(id, r);
            }

            self.charge_term(f, &blk.term);
            match &blk.term {
                Terminator::Br(t) => {
                    prev = Some(block);
                    block = *t;
                }
                Terminator::CondBr {
                    cond,
                    then_bb,
                    else_bb,
                } => {
                    let c = self.value_ref(f, &vals, &args, *cond)?.scalar()?;
                    prev = Some(block);
                    block = if c & 1 != 0 { *then_bb } else { *else_bb };
                }
                Terminator::Ret(v) => {
                    return match v {
                        None => Ok(RtVal::Unit),
                        Some(v) => self.value_ref(f, &vals, &args, *v),
                    };
                }
            }
        }
    }

    /// Reference-engine operand resolution: clones out of the hash map, as
    /// the original step loop did.
    fn value_ref(
        &self,
        f: &Function,
        vals: &HashMap<InstId, RtVal>,
        args: &[RtVal],
        v: Value,
    ) -> Result<RtVal, ExecError> {
        match v {
            Value::Const(c) => Ok(RtVal::S(c.bits)),
            Value::Param(i) => args
                .get(i as usize)
                .cloned()
                .ok_or_else(|| ExecError::Other(format!("missing argument {i} to @{}", f.name))),
            Value::Inst(i) => vals
                .get(&i)
                .cloned()
                .ok_or_else(|| ExecError::Other(format!("use of unevaluated {i} in @{}", f.name))),
        }
    }

    /// Reference-engine broadcast helper: yields per-lane payloads whether
    /// the value is a scalar (splatted) or already a vector, allocating a
    /// fresh vector per call as the original did.
    fn lanes_of_ref(&self, v: &RtVal, lanes: u32) -> Result<Vec<u64>, ExecError> {
        match v {
            RtVal::S(s) => Ok(vec![*s; lanes as usize]),
            RtVal::V(l) => {
                if l.len() != lanes as usize {
                    return Err(ExecError::Other(format!(
                        "lane count mismatch: {} vs {}",
                        l.len(),
                        lanes
                    )));
                }
                Ok(l.clone())
            }
            RtVal::Unit => Err(ExecError::Other("void operand".into())),
        }
    }

    /// Charges an external (library) call, resolving the cost dynamically
    /// (the reference path; the fast engine memoizes it in the plan).
    fn charge_extern_dyn(&mut self, f: &Function, callee: &str, ret: Ty) {
        let cy = self.cost.extern_call_cost(callee, ret);
        self.charge_extern(f, callee, cy);
    }

    /// Reference-engine instruction execution: the retained original,
    /// cloning the instruction and every operand and allocating fresh lane
    /// buffers per operation. `crates/suite/tests/engine_differential.rs`
    /// pins it result/cycle/profile-identical to the fast path.
    #[allow(clippy::too_many_lines)]
    fn exec_inst_ref(
        &mut self,
        f: &Function,
        vals: &HashMap<InstId, RtVal>,
        args: &[RtVal],
        id: InstId,
    ) -> Result<RtVal, ExecError> {
        let inst = f.inst(id).clone();
        let ty = f.inst_ty(id);
        let get = |me: &Interp<'a>, v: Value| me.value_ref(f, vals, args, v);
        match &inst {
            Inst::Bin { op, a, b } => {
                let elem = ty
                    .elem()
                    .ok_or_else(|| ExecError::Other("void bin".into()))?;
                let av = get(self, *a)?;
                let bv = get(self, *b)?;
                if ty.is_vec() {
                    let al = self.lanes_of_ref(&av, ty.lanes())?;
                    let bl = self.lanes_of_ref(&bv, ty.lanes())?;
                    let r: Result<Vec<u64>, _> = al
                        .iter()
                        .zip(&bl)
                        .map(|(&x, &y)| eval_bin(*op, elem, x, y))
                        .collect();
                    Ok(RtVal::V(r?))
                } else {
                    Ok(RtVal::S(eval_bin(*op, elem, av.scalar()?, bv.scalar()?)?))
                }
            }
            Inst::Un { op, a } => {
                let elem = ty
                    .elem()
                    .ok_or_else(|| ExecError::Other("void un".into()))?;
                let av = get(self, *a)?;
                if ty.is_vec() {
                    let al = self.lanes_of_ref(&av, ty.lanes())?;
                    let r: Result<Vec<u64>, _> =
                        al.iter().map(|&x| eval_un(*op, elem, x)).collect();
                    Ok(RtVal::V(r?))
                } else {
                    Ok(RtVal::S(eval_un(*op, elem, av.scalar()?)?))
                }
            }
            Inst::Cmp { pred, a, b } => {
                let src = f.value_ty(*a);
                let elem = src
                    .elem()
                    .ok_or_else(|| ExecError::Other("void cmp".into()))?;
                let av = get(self, *a)?;
                let bv = get(self, *b)?;
                if src.is_vec() {
                    let al = self.lanes_of_ref(&av, src.lanes())?;
                    let bl = self.lanes_of_ref(&bv, src.lanes())?;
                    Ok(RtVal::V(
                        al.iter()
                            .zip(&bl)
                            .map(|(&x, &y)| eval_cmp(*pred, elem, x, y) as u64)
                            .collect(),
                    ))
                } else {
                    Ok(RtVal::S(
                        eval_cmp(*pred, elem, av.scalar()?, bv.scalar()?) as u64
                    ))
                }
            }
            Inst::Cast { kind, a } => {
                let from = f
                    .value_ty(*a)
                    .elem()
                    .ok_or_else(|| ExecError::Other("void cast".into()))?;
                let to = ty
                    .elem()
                    .ok_or_else(|| ExecError::Other("void cast".into()))?;
                let av = get(self, *a)?;
                if ty.is_vec() {
                    let al = self.lanes_of_ref(&av, ty.lanes())?;
                    Ok(RtVal::V(
                        al.iter().map(|&x| eval_cast(*kind, from, to, x)).collect(),
                    ))
                } else {
                    Ok(RtVal::S(eval_cast(*kind, from, to, av.scalar()?)))
                }
            }
            Inst::Select { cond, t, f: fv } => {
                let cv = get(self, *cond)?;
                let tv = get(self, *t)?;
                let fvv = get(self, *fv)?;
                match cv {
                    RtVal::S(c) => Ok(if c & 1 != 0 { tv } else { fvv }),
                    RtVal::V(cl) => {
                        let lanes = ty.lanes();
                        let tl = self.lanes_of_ref(&tv, lanes)?;
                        let fl = self.lanes_of_ref(&fvv, lanes)?;
                        Ok(RtVal::V(
                            cl.iter()
                                .zip(tl.iter().zip(&fl))
                                .map(|(&c, (&x, &y))| if c & 1 != 0 { x } else { y })
                                .collect(),
                        ))
                    }
                    RtVal::Unit => Err(ExecError::Other("void select cond".into())),
                }
            }
            Inst::Splat { a } => {
                let s = get(self, *a)?.scalar()?;
                Ok(RtVal::V(vec![s; ty.lanes() as usize]))
            }
            Inst::ConstVec { lanes, .. } => Ok(RtVal::V(lanes.clone())),
            Inst::Extract { v, lane } => {
                let vv = get(self, *v)?;
                let l = get(self, *lane)?.scalar()? as usize;
                let lv = vv.vector()?;
                lv.get(l)
                    .copied()
                    .map(RtVal::S)
                    .ok_or_else(|| ExecError::Other(format!("extract lane {l} out of range")))
            }
            Inst::Insert { v, lane, x } => {
                let mut lv = get(self, *v)?.vector()?.to_vec();
                let l = get(self, *lane)?.scalar()? as usize;
                let xv = get(self, *x)?.scalar()?;
                if l >= lv.len() {
                    return Err(ExecError::Other(format!("insert lane {l} out of range")));
                }
                lv[l] = xv;
                Ok(RtVal::V(lv))
            }
            Inst::ShuffleConst { v, pattern } => {
                let lv = get(self, *v)?.vector()?.to_vec();
                Ok(RtVal::V(pattern.iter().map(|&p| lv[p as usize]).collect()))
            }
            Inst::ShuffleVar { v, idx } => {
                let lv = get(self, *v)?.vector()?.to_vec();
                let iv = get(self, *idx)?.vector()?.to_vec();
                let n = lv.len() as u64;
                Ok(RtVal::V(iv.iter().map(|&i| lv[(i % n) as usize]).collect()))
            }
            Inst::Load { ptr, mask } => {
                let elem = ty
                    .elem()
                    .ok_or_else(|| ExecError::Other("void load".into()))?;
                let pv = get(self, *ptr)?;
                let mk = match mask {
                    Some(m) => Some(get(self, *m)?.mask_lanes()?),
                    None => None,
                };
                match (&pv, ty) {
                    (RtVal::S(addr), Ty::Scalar(_)) => {
                        self.stats.scalar_loads += 1;
                        Ok(RtVal::S(self.mem.load_scalar(elem, *addr)?))
                    }
                    (RtVal::S(addr), Ty::Vec(_, n)) => {
                        self.stats.packed_loads += 1;
                        let sz = elem.size_bytes();
                        let mut out = Vec::with_capacity(n as usize);
                        for i in 0..u64::from(n) {
                            let active = mk.as_ref().is_none_or(|m| m[i as usize]);
                            out.push(if active {
                                self.mem.load_scalar(elem, addr + i * sz)?
                            } else {
                                0
                            });
                        }
                        Ok(RtVal::V(out))
                    }
                    (RtVal::V(addrs), Ty::Vec(..)) => {
                        self.stats.gathers += 1;
                        let mut out = Vec::with_capacity(addrs.len());
                        for (i, &a) in addrs.iter().enumerate() {
                            let active = mk.as_ref().is_none_or(|m| m[i]);
                            out.push(if active {
                                self.mem.load_scalar(elem, a)?
                            } else {
                                0
                            });
                        }
                        Ok(RtVal::V(out))
                    }
                    _ => Err(ExecError::Other("malformed load shapes".into())),
                }
            }
            Inst::Store { ptr, val, mask } => {
                let vv = get(self, *val)?;
                let vty = f.value_ty(*val);
                let elem = vty
                    .elem()
                    .ok_or_else(|| ExecError::Other("void store".into()))?;
                let pv = get(self, *ptr)?;
                let mk = match mask {
                    Some(m) => Some(get(self, *m)?.mask_lanes()?),
                    None => None,
                };
                match (&pv, &vv) {
                    (RtVal::S(addr), RtVal::S(bits)) => {
                        self.stats.scalar_stores += 1;
                        self.mem.store_scalar(elem, *addr, *bits)?;
                    }
                    (RtVal::S(addr), RtVal::V(lanes)) => {
                        self.stats.packed_stores += 1;
                        let sz = elem.size_bytes();
                        for (i, &b) in lanes.iter().enumerate() {
                            if mk.as_ref().is_none_or(|m| m[i]) {
                                self.mem.store_scalar(elem, addr + i as u64 * sz, b)?;
                            }
                        }
                    }
                    (RtVal::V(addrs), RtVal::V(lanes)) => {
                        self.stats.scatters += 1;
                        for (i, (&a, &b)) in addrs.iter().zip(lanes).enumerate() {
                            if mk.as_ref().is_none_or(|m| m[i]) {
                                self.mem.store_scalar(elem, a, b)?;
                            }
                        }
                    }
                    (RtVal::V(addrs), RtVal::S(bits)) => {
                        // Scatter of a uniform value.
                        self.stats.scatters += 1;
                        for (i, &a) in addrs.iter().enumerate() {
                            if mk.as_ref().is_none_or(|m| m[i]) {
                                self.mem.store_scalar(elem, a, *bits)?;
                            }
                        }
                    }
                    _ => return Err(ExecError::Other("malformed store shapes".into())),
                }
                Ok(RtVal::Unit)
            }
            Inst::Alloca { size } => {
                let sz = get(self, *size)?.scalar()?;
                Ok(RtVal::S(self.mem.alloc(sz, 64)?))
            }
            Inst::Gep { base, index, scale } => {
                let bv = get(self, *base)?;
                let iv = get(self, *index)?;
                let ity = f.value_ty(*index).elem().unwrap_or(ScalarTy::I64);
                match (&bv, &iv) {
                    (RtVal::S(b), RtVal::S(i)) => Ok(RtVal::S(
                        b.wrapping_add((sext(ity, *i) as u64).wrapping_mul(*scale)),
                    )),
                    _ => {
                        let lanes = ty.lanes();
                        let bl = self.lanes_of_ref(&bv, lanes)?;
                        let il = self.lanes_of_ref(&iv, lanes)?;
                        Ok(RtVal::V(
                            bl.iter()
                                .zip(&il)
                                .map(|(&b, &i)| {
                                    b.wrapping_add((sext(ity, i) as u64).wrapping_mul(*scale))
                                })
                                .collect(),
                        ))
                    }
                }
            }
            Inst::Call {
                callee,
                args: cargs,
            } => {
                self.stats.calls += 1;
                let mut avs = Vec::with_capacity(cargs.len());
                for &a in cargs {
                    avs.push(get(self, a)?);
                }
                if let Some(callee_fn) = self.module.function(callee) {
                    self.exec_reference(callee_fn, avs)
                } else {
                    self.charge_extern_dyn(f, callee, ty);
                    self.externs.call(callee, &avs)
                }
            }
            Inst::Intrin { kind, args: iargs } => match kind {
                Intrinsic::Math(m) => {
                    let elem = ty
                        .elem()
                        .ok_or_else(|| ExecError::Other("void math".into()))?;
                    let mut avs = Vec::with_capacity(iargs.len());
                    for &a in iargs {
                        avs.push(get(self, a)?);
                    }
                    if ty.is_vec() {
                        let lanes = ty.lanes();
                        let cols: Result<Vec<Vec<u64>>, _> =
                            avs.iter().map(|v| self.lanes_of_ref(v, lanes)).collect();
                        let cols = cols?;
                        let mut out = Vec::with_capacity(lanes as usize);
                        for i in 0..lanes as usize {
                            let row: Vec<u64> = cols.iter().map(|c| c[i]).collect();
                            out.push(eval_math(*m, elem, &row)?);
                        }
                        Ok(RtVal::V(out))
                    } else {
                        let row: Result<Vec<u64>, _> = avs.iter().map(|v| v.scalar()).collect();
                        Ok(RtVal::S(eval_math(*m, elem, &row?)?))
                    }
                }
                Intrinsic::Fma => {
                    let elem = ty
                        .elem()
                        .ok_or_else(|| ExecError::Other("void fma".into()))?;
                    let a = get(self, iargs[0])?;
                    let b = get(self, iargs[1])?;
                    let c = get(self, iargs[2])?;
                    let fma1 = |x: u64, y: u64, z: u64| -> Result<u64, ExecError> {
                        let mul = if elem.is_float() {
                            crate::inst::BinOp::FMul
                        } else {
                            crate::inst::BinOp::Mul
                        };
                        let add = if elem.is_float() {
                            crate::inst::BinOp::FAdd
                        } else {
                            crate::inst::BinOp::Add
                        };
                        eval_bin(add, elem, eval_bin(mul, elem, x, y)?, z)
                    };
                    if ty.is_vec() {
                        let n = ty.lanes();
                        let (al, bl, cl) = (
                            self.lanes_of_ref(&a, n)?,
                            self.lanes_of_ref(&b, n)?,
                            self.lanes_of_ref(&c, n)?,
                        );
                        let r: Result<Vec<u64>, _> =
                            (0..n as usize).map(|i| fma1(al[i], bl[i], cl[i])).collect();
                        Ok(RtVal::V(r?))
                    } else {
                        Ok(RtVal::S(fma1(a.scalar()?, b.scalar()?, c.scalar()?)?))
                    }
                }
                other => Err(ExecError::SpmdIntrinsic(other.name())),
            },
            Inst::Phi { .. } => unreachable!("phis handled at block entry"),
            Inst::Reduce { op, v, mask } => {
                let src = f.value_ty(*v);
                let elem = src
                    .elem()
                    .ok_or_else(|| ExecError::Other("void reduce".into()))?;
                let lv = get(self, *v)?.vector()?.to_vec();
                let mk = match mask {
                    Some(m) => Some(get(self, *m)?.mask_lanes()?),
                    None => None,
                };
                let mut acc = reduce_identity(*op, elem);
                for (i, &x) in lv.iter().enumerate() {
                    if mk.as_ref().is_none_or(|m| m[i]) {
                        acc = reduce_step(*op, elem, acc, x);
                    }
                }
                Ok(RtVal::S(acc))
            }
        }
    }

    /// Fast-engine instruction execution over dense frame slots, borrowed
    /// operand views, and pooled lane buffers; `plan` supplies the static
    /// call-site table (call kind and extern cost) and the pre-resolved
    /// per-lane kernels.
    #[allow(clippy::too_many_lines)]
    fn exec_inst(
        &mut self,
        f: &Function,
        frame: &SlotFrame,
        args: &[RtVal],
        id: InstId,
        plan: &FramePlan,
    ) -> Result<RtVal, ExecError> {
        let inst = f.inst(id);
        let ty = f.inst_ty(id);
        match inst {
            Inst::Bin { op, a, b } => {
                let elem = ty
                    .elem()
                    .ok_or_else(|| ExecError::Other("void bin".into()))?;
                let av = operand(f, frame, args, *a)?;
                let bv = operand(f, frame, args, *b)?;
                let kern = plan.kernels[id.0 as usize];
                if ty.is_vec() {
                    let n = ty.lanes();
                    let al = Lanes::of(&av, n)?;
                    let bl = Lanes::of(&bv, n)?;
                    if let LaneKernel::Bin(g) = kern {
                        return Ok(RtVal::V(self.map2(g, al, bl)));
                    }
                    let mut out = self.take_lanes(n as usize);
                    for i in 0..n as usize {
                        out.push(eval_bin(*op, elem, al.at(i), bl.at(i))?);
                    }
                    Ok(RtVal::V(out))
                } else if let LaneKernel::Bin(g) = kern {
                    Ok(RtVal::S(g(av.scalar()?, bv.scalar()?)))
                } else {
                    Ok(RtVal::S(eval_bin(*op, elem, av.scalar()?, bv.scalar()?)?))
                }
            }
            Inst::Un { op, a } => {
                let elem = ty
                    .elem()
                    .ok_or_else(|| ExecError::Other("void un".into()))?;
                let av = operand(f, frame, args, *a)?;
                let kern = plan.kernels[id.0 as usize];
                if ty.is_vec() {
                    let n = ty.lanes();
                    let al = Lanes::of(&av, n)?;
                    if let LaneKernel::Un(g) = kern {
                        return Ok(RtVal::V(self.map1(g, al)));
                    }
                    let mut out = self.take_lanes(n as usize);
                    for i in 0..n as usize {
                        out.push(eval_un(*op, elem, al.at(i))?);
                    }
                    Ok(RtVal::V(out))
                } else if let LaneKernel::Un(g) = kern {
                    Ok(RtVal::S(g(av.scalar()?)))
                } else {
                    Ok(RtVal::S(eval_un(*op, elem, av.scalar()?)?))
                }
            }
            Inst::Cmp { pred, a, b } => {
                let src = f.value_ty(*a);
                let elem = src
                    .elem()
                    .ok_or_else(|| ExecError::Other("void cmp".into()))?;
                let av = operand(f, frame, args, *a)?;
                let bv = operand(f, frame, args, *b)?;
                let kern = plan.kernels[id.0 as usize];
                if src.is_vec() {
                    let n = src.lanes();
                    let al = Lanes::of(&av, n)?;
                    let bl = Lanes::of(&bv, n)?;
                    if let LaneKernel::Bin(g) = kern {
                        return Ok(RtVal::V(self.map2(g, al, bl)));
                    }
                    let mut out = self.take_lanes(n as usize);
                    for i in 0..n as usize {
                        out.push(eval_cmp(*pred, elem, al.at(i), bl.at(i)) as u64);
                    }
                    Ok(RtVal::V(out))
                } else if let LaneKernel::Bin(g) = kern {
                    Ok(RtVal::S(g(av.scalar()?, bv.scalar()?)))
                } else {
                    Ok(RtVal::S(
                        eval_cmp(*pred, elem, av.scalar()?, bv.scalar()?) as u64
                    ))
                }
            }
            Inst::Cast { kind, a } => {
                let from = f
                    .value_ty(*a)
                    .elem()
                    .ok_or_else(|| ExecError::Other("void cast".into()))?;
                let to = ty
                    .elem()
                    .ok_or_else(|| ExecError::Other("void cast".into()))?;
                let av = operand(f, frame, args, *a)?;
                let kern = plan.kernels[id.0 as usize];
                if ty.is_vec() {
                    let n = ty.lanes();
                    let al = Lanes::of(&av, n)?;
                    if let LaneKernel::Un(g) = kern {
                        return Ok(RtVal::V(self.map1(g, al)));
                    }
                    let mut out = self.take_lanes(n as usize);
                    for i in 0..n as usize {
                        out.push(eval_cast(*kind, from, to, al.at(i)));
                    }
                    Ok(RtVal::V(out))
                } else if let LaneKernel::Un(g) = kern {
                    Ok(RtVal::S(g(av.scalar()?)))
                } else {
                    Ok(RtVal::S(eval_cast(*kind, from, to, av.scalar()?)))
                }
            }
            Inst::Select { cond, t, f: fv } => {
                let cv = operand(f, frame, args, *cond)?;
                let tv = operand(f, frame, args, *t)?;
                let fvv = operand(f, frame, args, *fv)?;
                match cv.as_ref() {
                    RtVal::S(c) => Ok(if c & 1 != 0 {
                        tv.into_owned()
                    } else {
                        fvv.into_owned()
                    }),
                    RtVal::V(cl) => {
                        let n = ty.lanes();
                        let tl = Lanes::of(&tv, n)?;
                        let fl = Lanes::of(&fvv, n)?;
                        let len = cl.len().min(tl.len()).min(fl.len());
                        let mut out = self.take_lanes(len);
                        for (i, &c) in cl.iter().take(len).enumerate() {
                            out.push(if c & 1 != 0 { tl.at(i) } else { fl.at(i) });
                        }
                        Ok(RtVal::V(out))
                    }
                    RtVal::Unit => Err(ExecError::Other("void select cond".into())),
                }
            }
            Inst::Splat { a } => {
                let s = operand(f, frame, args, *a)?.scalar()?;
                let n = ty.lanes() as usize;
                let mut out = self.take_lanes(n);
                out.resize(n, s);
                Ok(RtVal::V(out))
            }
            Inst::ConstVec { lanes, .. } => {
                let mut out = self.take_lanes(lanes.len());
                out.extend_from_slice(lanes);
                Ok(RtVal::V(out))
            }
            Inst::Extract { v, lane } => {
                let vv = operand(f, frame, args, *v)?;
                let l = operand(f, frame, args, *lane)?.scalar()? as usize;
                let lv = vv.vector()?;
                lv.get(l)
                    .copied()
                    .map(RtVal::S)
                    .ok_or_else(|| ExecError::Other(format!("extract lane {l} out of range")))
            }
            Inst::Insert { v, lane, x } => {
                let vv = operand(f, frame, args, *v)?;
                let src = vv.vector()?;
                let mut out = self.take_lanes(src.len());
                out.extend_from_slice(src);
                let l = operand(f, frame, args, *lane)?.scalar()? as usize;
                let xv = operand(f, frame, args, *x)?.scalar()?;
                if l >= out.len() {
                    return Err(ExecError::Other(format!("insert lane {l} out of range")));
                }
                out[l] = xv;
                Ok(RtVal::V(out))
            }
            Inst::ShuffleConst { v, pattern } => {
                let vv = operand(f, frame, args, *v)?;
                let lv = vv.vector()?;
                let mut out = self.take_lanes(pattern.len());
                for &p in pattern {
                    out.push(lv[p as usize]);
                }
                Ok(RtVal::V(out))
            }
            Inst::ShuffleVar { v, idx } => {
                let vv = operand(f, frame, args, *v)?;
                let iv = operand(f, frame, args, *idx)?;
                let lv = vv.vector()?;
                let il = iv.vector()?;
                let n = lv.len() as u64;
                let mut out = self.take_lanes(il.len());
                for &i in il {
                    out.push(lv[(i % n) as usize]);
                }
                Ok(RtVal::V(out))
            }
            Inst::Load { ptr, mask } => {
                let elem = ty
                    .elem()
                    .ok_or_else(|| ExecError::Other("void load".into()))?;
                let pv = operand(f, frame, args, *ptr)?;
                let mkv = match mask {
                    Some(m) => Some(operand(f, frame, args, *m)?),
                    None => None,
                };
                let mk = MaskRef::new(mkv.as_deref())?;
                match (pv.as_ref(), ty) {
                    (RtVal::S(addr), Ty::Scalar(_)) => {
                        self.stats.scalar_loads += 1;
                        Ok(RtVal::S(self.mem.load_scalar(elem, *addr)?))
                    }
                    (RtVal::S(addr), Ty::Vec(_, n)) => {
                        self.stats.packed_loads += 1;
                        let sz = elem.size_bytes();
                        let mut out = self.take_lanes(n as usize);
                        if mk.is_unmasked() {
                            // One bounds check for the whole packed range;
                            // a masked load keeps the per-lane path (its
                            // inactive lanes may legitimately be
                            // out-of-bounds under the tail-gang contract).
                            self.mem.load_lanes(elem, *addr, u64::from(n), &mut out)?;
                        } else {
                            for i in 0..u64::from(n) {
                                out.push(if mk.active(i as usize) {
                                    self.mem.load_scalar(elem, addr + i * sz)?
                                } else {
                                    0
                                });
                            }
                        }
                        Ok(RtVal::V(out))
                    }
                    (RtVal::V(addrs), Ty::Vec(..)) => {
                        self.stats.gathers += 1;
                        let mut out = self.take_lanes(addrs.len());
                        for (i, &a) in addrs.iter().enumerate() {
                            out.push(if mk.active(i) {
                                self.mem.load_scalar(elem, a)?
                            } else {
                                0
                            });
                        }
                        Ok(RtVal::V(out))
                    }
                    _ => Err(ExecError::Other("malformed load shapes".into())),
                }
            }
            Inst::Store { ptr, val, mask } => {
                let vv = operand(f, frame, args, *val)?;
                let vty = f.value_ty(*val);
                let elem = vty
                    .elem()
                    .ok_or_else(|| ExecError::Other("void store".into()))?;
                let pv = operand(f, frame, args, *ptr)?;
                let mkv = match mask {
                    Some(m) => Some(operand(f, frame, args, *m)?),
                    None => None,
                };
                let mk = MaskRef::new(mkv.as_deref())?;
                match (pv.as_ref(), vv.as_ref()) {
                    (RtVal::S(addr), RtVal::S(bits)) => {
                        self.stats.scalar_stores += 1;
                        self.mem.store_scalar(elem, *addr, *bits)?;
                    }
                    (RtVal::S(addr), RtVal::V(lanes)) => {
                        self.stats.packed_stores += 1;
                        if mk.is_unmasked() {
                            // Single bounds check; masked stores stay
                            // per-lane (inactive out-of-bounds lanes must
                            // not fault).
                            self.mem.store_lanes(elem, *addr, lanes)?;
                        } else {
                            let sz = elem.size_bytes();
                            for (i, &b) in lanes.iter().enumerate() {
                                if mk.active(i) {
                                    self.mem.store_scalar(elem, addr + i as u64 * sz, b)?;
                                }
                            }
                        }
                    }
                    (RtVal::V(addrs), RtVal::V(lanes)) => {
                        self.stats.scatters += 1;
                        for (i, (&a, &b)) in addrs.iter().zip(lanes).enumerate() {
                            if mk.active(i) {
                                self.mem.store_scalar(elem, a, b)?;
                            }
                        }
                    }
                    (RtVal::V(addrs), RtVal::S(bits)) => {
                        // Scatter of a uniform value.
                        self.stats.scatters += 1;
                        for (i, &a) in addrs.iter().enumerate() {
                            if mk.active(i) {
                                self.mem.store_scalar(elem, a, *bits)?;
                            }
                        }
                    }
                    _ => return Err(ExecError::Other("malformed store shapes".into())),
                }
                Ok(RtVal::Unit)
            }
            Inst::Alloca { size } => {
                let sz = operand(f, frame, args, *size)?.scalar()?;
                Ok(RtVal::S(self.mem.alloc(sz, 64)?))
            }
            Inst::Gep { base, index, scale } => {
                let bv = operand(f, frame, args, *base)?;
                let iv = operand(f, frame, args, *index)?;
                let ity = f.value_ty(*index).elem().unwrap_or(ScalarTy::I64);
                match (bv.as_ref(), iv.as_ref()) {
                    (RtVal::S(b), RtVal::S(i)) => Ok(RtVal::S(
                        b.wrapping_add((sext(ity, *i) as u64).wrapping_mul(*scale)),
                    )),
                    _ => {
                        let n = ty.lanes();
                        let bl = Lanes::of(&bv, n)?;
                        let il = Lanes::of(&iv, n)?;
                        let mut out = self.take_lanes(n as usize);
                        for i in 0..n as usize {
                            out.push(
                                bl.at(i).wrapping_add(
                                    (sext(ity, il.at(i)) as u64).wrapping_mul(*scale),
                                ),
                            );
                        }
                        Ok(RtVal::V(out))
                    }
                }
            }
            Inst::Call {
                callee,
                args: cargs,
            } => {
                self.stats.calls += 1;
                let mut avs = Vec::with_capacity(cargs.len());
                for &a in cargs {
                    avs.push(operand(f, frame, args, a)?.into_owned());
                }
                // The call kind (and the extern cost) come statically
                // from the plan.
                match plan.calls[id.0 as usize] {
                    CallSite::Extern { cost } => {
                        self.charge_extern(f, callee, cost);
                        self.externs.call(callee, &avs)
                    }
                    _ => match self.module.function(callee) {
                        Some(callee_fn) => self.exec_planned(callee_fn, avs),
                        None => Err(ExecError::UnknownFunction(callee.clone())),
                    },
                }
            }
            Inst::Intrin { kind, args: iargs } => match kind {
                Intrinsic::Math(m) => {
                    let elem = ty
                        .elem()
                        .ok_or_else(|| ExecError::Other("void math".into()))?;
                    let mut avs = Vec::with_capacity(iargs.len());
                    for &a in iargs {
                        avs.push(operand(f, frame, args, a)?);
                    }
                    if ty.is_vec() {
                        let lanes = ty.lanes();
                        let views: Result<Vec<Lanes<'_>>, ExecError> =
                            avs.iter().map(|v| Lanes::of(v, lanes)).collect();
                        let views = views?;
                        let mut row = self.take_lanes(views.len());
                        let mut out = self.take_lanes(lanes as usize);
                        for i in 0..lanes as usize {
                            row.clear();
                            row.extend(views.iter().map(|c| c.at(i)));
                            out.push(eval_math(*m, elem, &row)?);
                        }
                        self.recycle_buf(row);
                        Ok(RtVal::V(out))
                    } else {
                        let row: Result<Vec<u64>, _> = avs.iter().map(|v| v.scalar()).collect();
                        Ok(RtVal::S(eval_math(*m, elem, &row?)?))
                    }
                }
                Intrinsic::Fma => {
                    let elem = ty
                        .elem()
                        .ok_or_else(|| ExecError::Other("void fma".into()))?;
                    let a = operand(f, frame, args, iargs[0])?;
                    let b = operand(f, frame, args, iargs[1])?;
                    let c = operand(f, frame, args, iargs[2])?;
                    let fma1 = |x: u64, y: u64, z: u64| -> Result<u64, ExecError> {
                        let mul = if elem.is_float() {
                            crate::inst::BinOp::FMul
                        } else {
                            crate::inst::BinOp::Mul
                        };
                        let add = if elem.is_float() {
                            crate::inst::BinOp::FAdd
                        } else {
                            crate::inst::BinOp::Add
                        };
                        eval_bin(add, elem, eval_bin(mul, elem, x, y)?, z)
                    };
                    if ty.is_vec() {
                        let n = ty.lanes();
                        let (al, bl, cl) =
                            (Lanes::of(&a, n)?, Lanes::of(&b, n)?, Lanes::of(&c, n)?);
                        let mut out = self.take_lanes(n as usize);
                        for i in 0..n as usize {
                            out.push(fma1(al.at(i), bl.at(i), cl.at(i))?);
                        }
                        Ok(RtVal::V(out))
                    } else {
                        Ok(RtVal::S(fma1(a.scalar()?, b.scalar()?, c.scalar()?)?))
                    }
                }
                other => Err(ExecError::SpmdIntrinsic(other.name())),
            },
            Inst::Phi { .. } => unreachable!("phis handled at block entry"),
            Inst::Reduce { op, v, mask } => {
                let src = f.value_ty(*v);
                let elem = src
                    .elem()
                    .ok_or_else(|| ExecError::Other("void reduce".into()))?;
                let vv = operand(f, frame, args, *v)?;
                let lv = vv.vector()?;
                let mkv = match mask {
                    Some(m) => Some(operand(f, frame, args, *m)?),
                    None => None,
                };
                let mk = MaskRef::new(mkv.as_deref())?;
                let mut acc = reduce_identity(*op, elem);
                for (i, &x) in lv.iter().enumerate() {
                    if mk.active(i) {
                        acc = reduce_step(*op, elem, acc, x);
                    }
                }
                Ok(RtVal::S(acc))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{c_i64, FunctionBuilder};
    use crate::function::{Module, Param};
    use crate::inst::{BinOp, CmpPred, ReduceOp};
    use crate::types::{ScalarTy, Ty};

    fn run(m: &Module, name: &str, args: &[RtVal]) -> RtVal {
        let mut it = Interp::with_defaults(m, Memory::default());
        it.call(name, args).unwrap()
    }

    fn sum_module() -> Module {
        // sum of 0..n
        let mut fb = FunctionBuilder::new(
            "sum",
            vec![Param::new("n", Ty::scalar(ScalarTy::I64))],
            Ty::scalar(ScalarTy::I64),
        );
        let header = fb.new_block("header");
        let body = fb.new_block("body");
        let exit = fb.new_block("exit");
        let entry = fb.current_block();
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi_typed(Ty::scalar(ScalarTy::I64), vec![(entry, c_i64(0))]);
        let acc = fb.phi_typed(Ty::scalar(ScalarTy::I64), vec![(entry, c_i64(0))]);
        let c = fb.cmp(CmpPred::Slt, i, Value::Param(0));
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let acc2 = fb.bin(BinOp::Add, acc, i);
        let i2 = fb.bin(BinOp::Add, i, 1i64);
        fb.phi_add_incoming(i, body, i2);
        fb.phi_add_incoming(acc, body, acc2);
        fb.br(header);
        fb.switch_to(exit);
        fb.ret(Some(acc));
        let mut m = Module::new();
        m.add_function(fb.finish());
        m
    }

    #[test]
    fn scalar_loop_sum() {
        let m = sum_module();
        let r = run(&m, "sum", &[RtVal::S(10)]);
        assert_eq!(r, RtVal::S(45));
    }

    #[test]
    fn engines_agree_on_cycles_and_profile() {
        let m = sum_module();
        let mut results = Vec::new();
        for engine in Engine::ALL {
            let mut it = Interp::with_defaults(&m, Memory::default());
            it.set_engine(engine);
            it.enable_profiling();
            let r = it.call("sum", &[RtVal::S(100)]).unwrap();
            let p = it.take_profile().expect("profiling enabled");
            results.push((r, it.cycles, it.stats, p.to_json().to_string_pretty()));
        }
        assert_eq!(results[0], results[1]);
    }

    /// Vector loop: acc = Σ_i (v * i) over 8 lanes, then reduce.
    fn vec_loop_module() -> Module {
        let mut fb = FunctionBuilder::new(
            "vk",
            vec![Param::new("n", Ty::scalar(ScalarTy::I64))],
            Ty::scalar(ScalarTy::I64),
        );
        let header = fb.new_block("header");
        let body = fb.new_block("body");
        let exit = fb.new_block("exit");
        let entry = fb.current_block();
        let base = fb.const_vec(ScalarTy::I64, (1..=8).collect());
        let zero = fb.splat(c_i64(0), 8);
        fb.br(header);
        fb.switch_to(header);
        let i = fb.phi_typed(Ty::scalar(ScalarTy::I64), vec![(entry, c_i64(0))]);
        let acc = fb.phi_typed(Ty::vec(ScalarTy::I64, 8), vec![(entry, zero)]);
        let c = fb.cmp(CmpPred::Slt, i, Value::Param(0));
        fb.cond_br(c, body, exit);
        fb.switch_to(body);
        let iv = fb.splat(i, 8);
        let prod = fb.bin(BinOp::Mul, base, iv);
        let acc2 = fb.bin(BinOp::Add, acc, prod);
        let i2 = fb.bin(BinOp::Add, i, 1i64);
        fb.phi_add_incoming(i, body, i2);
        fb.phi_add_incoming(acc, body, acc2);
        fb.br(header);
        fb.switch_to(exit);
        let r = fb.reduce(ReduceOp::Add, acc, None);
        fb.ret(Some(r));
        let mut m = Module::new();
        m.add_function(fb.finish());
        m
    }

    /// Asserts both engines leave the same observable state after calling
    /// `name` — including on the error paths (traps, step limits, broken
    /// φ edges), where the per-step accounting must stop at the same
    /// instruction.
    fn assert_engines_identical(m: &Module, name: &str, args: &[RtVal], step_limit: Option<u64>) {
        let observe = |engine: Engine| {
            let mut it = Interp::with_defaults(m, Memory::default());
            it.set_engine(engine);
            if let Some(l) = step_limit {
                it.set_step_limit(l);
            }
            it.enable_profiling();
            let r = it.call(name, args);
            let p = it.take_profile().map(|p| p.to_json().to_string_pretty());
            (r, it.cycles, it.steps(), it.stats, p)
        };
        assert_eq!(
            observe(Engine::Fast),
            observe(Engine::Reference),
            "engines diverge on @{name} (step limit {step_limit:?})"
        );
    }

    #[test]
    fn engines_agree_on_traps_and_step_limit_boundaries() {
        let m = vec_loop_module();
        assert_engines_identical(&m, "vk", &[RtVal::S(100)], None);
        for limit in [1, 7, 8, 9, 40, 41] {
            assert_engines_identical(&m, "vk", &[RtVal::S(1_000_000)], Some(limit));
        }

        // Division by zero mid-block.
        let mut fb = FunctionBuilder::new(
            "trap",
            vec![Param::new("d", Ty::scalar(ScalarTy::I64))],
            Ty::scalar(ScalarTy::I64),
        );
        let a = fb.bin(BinOp::Add, 10i64, 5i64);
        let q = fb.bin(BinOp::SDiv, a, Value::Param(0));
        let z = fb.bin(BinOp::Add, q, 1i64);
        fb.ret(Some(z));
        let mut m = Module::new();
        m.add_function(fb.finish());
        assert_engines_identical(&m, "trap", &[RtVal::S(0)], None);
        assert_engines_identical(&m, "trap", &[RtVal::S(3)], None);

        // A φ source reading an argument the caller does not pass.
        let mut fb = FunctionBuilder::new(
            "phi_arg",
            vec![Param::new("x", Ty::scalar(ScalarTy::I64))],
            Ty::scalar(ScalarTy::I64),
        );
        let next = fb.new_block("next");
        let entry = fb.current_block();
        fb.br(next);
        fb.switch_to(next);
        let p = fb.phi_typed(Ty::scalar(ScalarTy::I64), vec![(entry, Value::Param(0))]);
        fb.ret(Some(p));
        let mut m = Module::new();
        m.add_function(fb.finish());
        assert_engines_identical(&m, "phi_arg", &[], None);
        assert_engines_identical(&m, "phi_arg", &[RtVal::S(7)], None);

        // A φ with no entry for one real predecessor.
        let mut fb = FunctionBuilder::new(
            "inc_phi",
            vec![Param::new("c", Ty::scalar(ScalarTy::I1))],
            Ty::scalar(ScalarTy::I64),
        );
        let left = fb.new_block("left");
        let right = fb.new_block("right");
        let join = fb.new_block("join");
        fb.cond_br(Value::Param(0), left, right);
        fb.switch_to(left);
        fb.br(join);
        fb.switch_to(right);
        fb.br(join);
        fb.switch_to(join);
        let p = fb.phi_typed(Ty::scalar(ScalarTy::I64), vec![(left, c_i64(1))]);
        fb.ret(Some(p));
        let mut m = Module::new();
        m.add_function(fb.finish());
        assert_engines_identical(&m, "inc_phi", &[RtVal::S(1)], None);
        assert_engines_identical(&m, "inc_phi", &[RtVal::S(0)], None);
    }

    #[test]
    fn engines_agree_under_nonuniform_cost_model() {
        // Distinct totals and classes per opcode: the fast engine's
        // memoized table must charge and attribute exactly what the
        // reference engine's per-step queries do.
        struct Lumpy;
        impl CostModel for Lumpy {
            fn inst_cost(&self, f: &Function, id: InstId) -> u64 {
                match f.inst(id) {
                    Inst::Bin { .. } => 3,
                    Inst::Phi { .. } => 2,
                    _ => 5,
                }
            }
            fn extern_call_cost(&self, _name: &str, _ret: Ty) -> u64 {
                11
            }
            fn term_cost(&self, _f: &Function, _t: &Terminator) -> u64 {
                4
            }
            fn inst_cost_classed(&self, f: &Function, id: InstId) -> Vec<(CostClass, u64)> {
                vec![
                    (CostClass::Other, self.inst_cost(f, id) - 1),
                    (CostClass::VecAlu, 1),
                ]
            }
        }
        let m = vec_loop_module();
        let mut results = Vec::new();
        for engine in Engine::ALL {
            let mut it = Interp::new(&m, Memory::default(), &Lumpy, &NoExterns);
            it.set_engine(engine);
            it.enable_profiling();
            let r = it.call("vk", &[RtVal::S(50)]);
            let p = it.take_profile().map(|p| p.to_json().to_string_pretty());
            results.push((r, it.cycles, it.steps(), p));
        }
        assert_eq!(results[0], results[1]);
        // Σ_{i<50} Σ_lane lane*i = (1+..+8) * (0+..+49)
        assert_eq!(results[0].0, Ok(RtVal::S(36 * 1225)));
        assert!(results[0].3.is_some(), "profiling enabled");
    }

    #[test]
    fn vector_ops_and_reduce() {
        let mut fb = FunctionBuilder::new("v", vec![], Ty::scalar(ScalarTy::I32));
        let a = fb.const_vec(ScalarTy::I32, vec![1, 2, 3, 4]);
        let b = fb.splat(crate::builder::c_i32(10), 4);
        let s = fb.bin(BinOp::Mul, a, b);
        let r = fb.reduce(ReduceOp::Add, s, None);
        fb.ret(Some(r));
        let mut m = Module::new();
        m.add_function(fb.finish());
        assert_eq!(run(&m, "v", &[]), RtVal::S(100));
    }

    #[test]
    fn packed_and_gather_loads() {
        // load <4 x i32> packed from p, gather from p with indices*2,
        // add, store packed to q.
        let mut fb = FunctionBuilder::new(
            "k",
            vec![
                Param::new("p", Ty::scalar(ScalarTy::Ptr)),
                Param::new("q", Ty::scalar(ScalarTy::Ptr)),
            ],
            Ty::Void,
        );
        let packed = fb.load(Ty::vec(ScalarTy::I32, 4), Value::Param(0), None);
        let idx = fb.const_vec(ScalarTy::I64, vec![0, 2, 4, 6]);
        let ptrs = fb.gep(Value::Param(0), idx, 4);
        let gathered = fb.load(Ty::vec(ScalarTy::I32, 4), ptrs, None);
        let sum = fb.bin(BinOp::Add, packed, gathered);
        fb.store(Value::Param(1), sum, None);
        fb.ret(None);
        let mut m = Module::new();
        m.add_function(fb.finish());
        let mut mem = Memory::default();
        let data: Vec<u8> = (0..8i32).flat_map(|v| v.to_le_bytes()).collect();
        let p = mem.alloc_bytes(&data, 64).unwrap();
        let q = mem.alloc(16, 64).unwrap();
        let mut it = Interp::with_defaults(&m, mem);
        it.call("k", &[RtVal::S(p), RtVal::S(q)]).unwrap();
        assert_eq!(it.stats.packed_loads, 1);
        assert_eq!(it.stats.gathers, 1);
        assert_eq!(it.stats.packed_stores, 1);
        let out = it.mem.read_bytes(q, 16).unwrap();
        let vals: Vec<i32> = out
            .chunks(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        // packed = [0,1,2,3]; gathered = [0,2,4,6]
        assert_eq!(vals, vec![0, 3, 6, 9]);
    }

    #[test]
    fn masked_store_preserves_inactive_lanes() {
        let mut fb = FunctionBuilder::new(
            "ms",
            vec![Param::new("q", Ty::scalar(ScalarTy::Ptr))],
            Ty::Void,
        );
        let v = fb.const_vec(ScalarTy::I32, vec![9, 9, 9, 9]);
        let mask = fb.const_vec(ScalarTy::I1, vec![1, 0, 1, 0]);
        fb.store(Value::Param(0), v, Some(mask));
        fb.ret(None);
        let mut m = Module::new();
        m.add_function(fb.finish());
        let mut mem = Memory::default();
        let init: Vec<u8> = (0..4i32).flat_map(|v| v.to_le_bytes()).collect();
        let q = mem.alloc_bytes(&init, 64).unwrap();
        let mut it = Interp::with_defaults(&m, mem);
        it.call("ms", &[RtVal::S(q)]).unwrap();
        let out = it.mem.read_bytes(q, 16).unwrap();
        let vals: Vec<i32> = out
            .chunks(4)
            .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(vals, vec![9, 1, 9, 3]);
    }

    #[test]
    fn spmd_intrinsic_traps_in_plain_interp() {
        let mut fb = FunctionBuilder::new("bad", vec![], Ty::scalar(ScalarTy::I64));
        let l = fb.lane_num();
        fb.ret(Some(l));
        let mut m = Module::new();
        m.add_function(fb.finish());
        let mut it = Interp::with_defaults(&m, Memory::default());
        assert!(matches!(
            it.call("bad", &[]),
            Err(ExecError::SpmdIntrinsic(_))
        ));
    }

    #[test]
    fn step_limit_guards_infinite_loops() {
        let mut fb = FunctionBuilder::new("inf", vec![], Ty::Void);
        let l = fb.new_block("l");
        fb.br(l);
        fb.switch_to(l);
        let _x = fb.bin(BinOp::Add, 1i64, 1i64);
        fb.br(l);
        let mut m = Module::new();
        m.add_function(fb.finish());
        for engine in Engine::ALL {
            let mut it = Interp::with_defaults(&m, Memory::default());
            it.set_engine(engine);
            it.set_step_limit(1000);
            assert!(matches!(it.call("inf", &[]), Err(ExecError::StepLimit)));
        }
    }

    #[test]
    fn step_limit_guards_phi_only_loops() {
        // Regression: a loop whose header consists *only* of φ nodes never
        // reached the body's step-limit check, so the runaway guard never
        // fired. The φ schedule must check the limit too — on both
        // engines.
        let mut fb = FunctionBuilder::new("phi_spin", vec![], Ty::Void);
        let header = fb.new_block("header");
        let entry = fb.current_block();
        fb.br(header);
        fb.switch_to(header);
        let c = fb.phi_typed(
            Ty::scalar(ScalarTy::I1),
            vec![(entry, Value::Const(crate::Const::bool(true)))],
        );
        let exit = fb.new_block("exit");
        fb.cond_br(c, header, exit);
        fb.phi_add_incoming(c, header, c);
        fb.switch_to(exit);
        fb.ret(None);
        let mut m = Module::new();
        m.add_function(fb.finish());
        for engine in Engine::ALL {
            let mut it = Interp::with_defaults(&m, Memory::default());
            it.set_engine(engine);
            it.set_step_limit(1000);
            assert!(
                matches!(it.call("phi_spin", &[]), Err(ExecError::StepLimit)),
                "φ-only loop must trip the step limit under {engine:?}"
            );
        }
    }

    #[test]
    fn cancellation_stops_both_engines_at_a_block_boundary() {
        let mut fb = FunctionBuilder::new("inf", vec![], Ty::Void);
        let l = fb.new_block("l");
        fb.br(l);
        fb.switch_to(l);
        let _x = fb.bin(BinOp::Add, 1i64, 1i64);
        fb.br(l);
        let mut m = Module::new();
        m.add_function(fb.finish());
        for engine in Engine::ALL {
            let mut it = Interp::with_defaults(&m, Memory::default());
            it.set_engine(engine);
            let tok = CancelToken::new();
            tok.cancel(CancelReason::Client);
            it.set_cancel_token(tok);
            assert!(
                matches!(it.call("inf", &[]), Err(ExecError::Cancelled)),
                "pre-cancelled token must stop the {engine:?} engine"
            );
        }
    }

    #[test]
    fn expired_deadline_stops_both_engines() {
        let mut fb = FunctionBuilder::new("inf", vec![], Ty::Void);
        let l = fb.new_block("l");
        fb.br(l);
        fb.switch_to(l);
        let _x = fb.bin(BinOp::Add, 1i64, 1i64);
        fb.br(l);
        let mut m = Module::new();
        m.add_function(fb.finish());
        for engine in Engine::ALL {
            let mut it = Interp::with_defaults(&m, Memory::default());
            it.set_engine(engine);
            it.set_cancel_token(CancelToken::with_deadline(std::time::Duration::from_nanos(
                0,
            )));
            assert!(
                matches!(it.call("inf", &[]), Err(ExecError::DeadlineExceeded)),
                "expired deadline must stop the {engine:?} engine"
            );
        }
    }

    #[test]
    fn uncancelled_token_is_invisible_to_the_identity() {
        // A live token (with a far deadline) must not perturb cycles,
        // stats, or results relative to a token-less run — the serve layer
        // attaches one to every request, and the differential gates
        // require byte-identity with single-shot runs that attach none.
        let m = sum_module();
        for engine in Engine::ALL {
            let mut plain = Interp::with_defaults(&m, Memory::default());
            plain.set_engine(engine);
            let r1 = plain.call("sum", &[RtVal::S(100)]).unwrap();

            let mut tokened = Interp::with_defaults(&m, Memory::default());
            tokened.set_engine(engine);
            tokened.set_cancel_token(CancelToken::with_deadline(std::time::Duration::from_secs(
                3600,
            )));
            let r2 = tokened.call("sum", &[RtVal::S(100)]).unwrap();

            assert_eq!(r1, r2);
            assert_eq!(plain.cycles, tokened.cycles, "{engine:?} cycles differ");
            assert_eq!(
                format!("{:?}", plain.stats),
                format!("{:?}", tokened.stats),
                "{engine:?} stats differ"
            );
            assert_eq!(plain.steps(), tokened.steps());
        }
    }

    #[test]
    fn mask_and_lane_views_borrow() {
        let v = RtVal::V(vec![1, 0, 3, 0]);
        let bools: Vec<bool> = v.mask_lanes_iter().unwrap().collect();
        assert_eq!(bools, vec![true, false, true, false]);
        assert_eq!(v.mask_lanes().unwrap(), bools);

        let lanes = Lanes::of(&v, 4).unwrap();
        assert_eq!(lanes.len(), 4);
        assert_eq!(lanes.at(2), 3);
        assert_eq!(lanes.iter().collect::<Vec<_>>(), vec![1, 0, 3, 0]);
        let s = RtVal::S(7);
        let splat = Lanes::of(&s, 3).unwrap();
        assert!(!splat.is_empty());
        assert_eq!(splat.iter().collect::<Vec<_>>(), vec![7, 7, 7]);
        assert!(Lanes::of(&v, 5).is_err());
        assert!(Lanes::of(&RtVal::Unit, 2).is_err());

        let mk = MaskRef::new(Some(&v)).unwrap();
        assert!(mk.active(0) && !mk.active(1));
        assert!(!mk.is_unmasked());
        let unmasked = MaskRef::new(None).unwrap();
        assert!(unmasked.is_unmasked() && unmasked.active(123));
        assert!(MaskRef::new(Some(&RtVal::S(1))).is_err());
    }

    #[test]
    fn precompile_caches_plans() {
        let m = sum_module();
        let mut it = Interp::with_defaults(&m, Memory::default());
        assert!(it.precompile("sum"));
        assert!(!it.precompile("missing"));
        assert_eq!(it.call("sum", &[RtVal::S(5)]).unwrap(), RtVal::S(10));
    }
}
