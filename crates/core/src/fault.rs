//! Deterministic fault injection for the vectorization pipeline.
//!
//! The degradation machinery in [`crate::pipeline`] only earns its keep if
//! every recovery path is actually exercised, so this module lets a test (or
//! `psimcc --inject-fault`) force a failure at any registered pass boundary:
//!
//! * `<pass>:error` — the pass returns its ordinary error,
//! * `<pass>:panic` — the pass panics (exercising the `catch_unwind`
//!   boundary in the driver),
//! * `verify:corrupt` — the produced variant's IR is corrupted *before*
//!   in-pipeline verification runs (exercising the verify-then-degrade
//!   path; the corrupt function is discarded, never executed).
//!
//! Injection is scoped to the current thread (tests run concurrently in one
//! process), either explicitly through
//! [`PipelineOptions::inject`](crate::pipeline::PipelineOptions) or via the
//! `PSIM_INJECT_FAULT=<pass>:<site>` environment variable, which
//! [`crate::vectorize_module`] consults once per call. Firing is
//! deterministic: an active injector fires at *every* matching site, so a
//! sweep over [`SITES`] covers each recovery path without any randomness.
//!
//! Thread-locality is a feature, not a hazard, for the parallel region
//! driver: each fan-out worker re-arms the module's injector on its own
//! thread ([`with_injector`]) before building regions, so an armed site
//! fires in every region that reaches it regardless of which worker (or
//! how many workers) the scheduler picked — the set of degraded regions,
//! and therefore the output, is identical at every `-j` level. The same
//! holds for the panic machinery: [`pass_scope`] attribution and the quiet
//! hook's suppression flag are per-thread, while the installed hook itself
//! is process-global and consults the firing thread's flag.

use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;
use telemetry::Pass;

/// Environment variable holding a `<pass>:<site>` injection spec.
pub const ENV_VAR: &str = "PSIM_INJECT_FAULT";

/// Every registered injection site, as `(pass, site)` pairs. The sweep test
/// iterates this list; adding an injection point to a pass without
/// registering it here leaves it untested.
pub const SITES: &[(&str, &str)] = &[
    ("structurize", "error"),
    ("structurize", "panic"),
    ("shape", "panic"),
    ("vectorize", "error"),
    ("vectorize", "panic"),
    ("opt", "panic"),
    ("verify", "corrupt"),
];

/// Environment variable holding a serve-layer `<layer>:<site>` chaos spec
/// (consulted by `psim-serve` at startup; strictly opt-in).
pub const SERVE_ENV_VAR: &str = "PSIM_SERVE_CHAOS";

/// Every registered serve-layer chaos site, as `(layer, site)` pairs. The
/// same registry discipline as [`SITES`], one process boundary up: the
/// serve chaos sweep iterates this list, so an injection point added to
/// the daemon without registering it here is left untested. Firing is
/// deterministic — an armed site fires at *every* matching point.
///
/// * `conn:close_before_write` — the connection is dropped instead of
///   writing a response (the client sees EOF, never a partial success).
/// * `conn:truncate_write` — half the response bytes are written, no
///   newline, then the connection is dropped (a torn frame).
/// * `conn:delay_write` — a bounded delay before each response write
///   (slow-server simulation; must not be confused with a hang).
/// * `conn:close_on_read` — the connection is dropped right after a frame
///   is read, before it is processed.
/// * `worker:kill` — the worker thread executing the request panics
///   mid-request (the pool must survive and the client must get a
///   structured error).
/// * `worker:delay` — a bounded delay inside the worker before its drain
///   job takes a batch (more requests pile up behind it).
/// * `batch:form_delay` — a bounded delay during admission, before the
///   request joins its key's pending list (skews join timing so late
///   joins and fresh drains are exercised).
/// * `batch:member_cancel` — once a drain has taken its batch, the first
///   member has its token cancelled as if its client had disconnected;
///   that member must detach to a structured `cancelled` reply without
///   poisoning its batchmates.
pub const SERVE_SITES: &[(&str, &str)] = &[
    ("conn", "close_before_write"),
    ("conn", "truncate_write"),
    ("conn", "delay_write"),
    ("conn", "close_on_read"),
    ("worker", "kill"),
    ("worker", "delay"),
    ("batch", "form_delay"),
    ("batch", "member_cancel"),
];

/// Parses a `<first>:<second>` spec against a `(first, second)` site
/// registry — the shared grammar of [`FaultInjector::parse`] and the serve
/// chaos parser.
///
/// # Errors
/// Reports a malformed spec or an unregistered site, listing the valid
/// ones.
pub fn parse_site_spec(spec: &str, sites: &[(&str, &str)]) -> Result<(String, String), String> {
    let valid = || {
        sites
            .iter()
            .map(|&(p, s)| format!("{p}:{s}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let Some((pass, site)) = spec.split_once(':') else {
        return Err(format!(
            "invalid fault spec `{spec}` (expected <pass>:<site>; one of: {})",
            valid()
        ));
    };
    if !sites.iter().any(|&(p, s)| p == pass && s == site) {
        return Err(format!(
            "unknown fault site `{spec}` (registered sites: {})",
            valid()
        ));
    }
    Ok((pass.to_string(), site.to_string()))
}

/// An armed fault injector: fires at every site matching `pass:site`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultInjector {
    /// Pass name (first component of the spec).
    pub pass: String,
    /// Site name within the pass (second component).
    pub site: String,
}

impl FaultInjector {
    /// Parses a `<pass>:<site>` spec against the registered [`SITES`].
    ///
    /// # Errors
    /// Reports a malformed spec or an unregistered site, listing the valid
    /// ones.
    pub fn parse(spec: &str) -> Result<FaultInjector, String> {
        let (pass, site) = parse_site_spec(spec, SITES)?;
        Ok(FaultInjector { pass, site })
    }

    /// Reads and parses [`ENV_VAR`]; `None` when unset or invalid (the CLIs
    /// validate explicitly so a typo is reported rather than ignored).
    pub fn from_env() -> Option<FaultInjector> {
        std::env::var(ENV_VAR)
            .ok()
            .and_then(|s| FaultInjector::parse(&s).ok())
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<FaultInjector>> = const { RefCell::new(None) };
}

/// Runs `f` with `inj` armed on this thread, restoring the previous injector
/// afterwards (including on unwind, so a caught injected panic does not leak
/// the armed state into unrelated work).
pub fn with_injector<T>(inj: Option<FaultInjector>, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<FaultInjector>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            ACTIVE.with(|a| *a.borrow_mut() = prev);
        }
    }
    let prev = ACTIVE.with(|a| std::mem::replace(&mut *a.borrow_mut(), inj));
    let _restore = Restore(prev);
    f()
}

/// Whether an injector armed on this thread matches `pass:site`.
pub fn armed(pass: &str, site: &str) -> bool {
    ACTIVE.with(|a| {
        a.borrow()
            .as_ref()
            .is_some_and(|i| i.pass == pass && i.site == site)
    })
}

/// True when `<pass>:error` is armed; the pass then returns its ordinary
/// error with an "injected fault" message.
pub fn inject_error(pass: &str) -> bool {
    armed(pass, "error")
}

/// Panics when `<pass>:panic` is armed, with a recognizable message.
pub fn inject_panic(pass: &str) {
    if armed(pass, "panic") {
        panic!("injected fault at {pass}:panic");
    }
}

/// When `verify:corrupt` is armed, makes `f` fail verification by pointing
/// its entry terminator at a nonexistent block. Returns whether it fired.
/// The corrupted function is only ever fed to the verifier, never executed.
pub fn corrupt_for_verify(f: &mut psir::Function) -> bool {
    if !armed("verify", "corrupt") {
        return false;
    }
    let entry = f.entry;
    f.block_mut(entry).term = psir::Terminator::Br(psir::BlockId(u32::MAX));
    true
}

thread_local! {
    static CURRENT_PASS: Cell<Pass> = const { Cell::new(Pass::Pipeline) };
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Marks `p` as the active pass for the duration of `f`, for panic
/// attribution. On normal exit the previous pass is restored; on unwind the
/// marker deliberately keeps the deepest pass that was active when the
/// panic started, so the driver's `catch_unwind` boundary can read it via
/// [`current_pass`].
pub fn pass_scope<T>(p: Pass, f: impl FnOnce() -> T) -> T {
    let prev = CURRENT_PASS.with(|c| c.replace(p));
    let r = f();
    CURRENT_PASS.with(|c| c.set(prev));
    r
}

/// The pass most recently entered via [`pass_scope`] on this thread.
pub fn current_pass() -> Pass {
    CURRENT_PASS.with(Cell::get)
}

/// Resets the pass marker to [`Pass::Pipeline`] (called by the driver after
/// it has attributed a caught panic).
pub fn reset_current_pass() {
    CURRENT_PASS.with(|c| c.set(Pass::Pipeline));
}

fn install_quiet_hook() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

/// Runs `f`, converting a panic into `Err(message)` without printing the
/// default `thread panicked at …` line for this thread (other threads keep
/// the standard hook behavior). This is the driver-boundary `catch_unwind`
/// of the pipeline: residual panics deep inside a pass become located
/// diagnostics instead of aborting compilation.
pub fn catch_pass_panic<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    install_quiet_hook();
    let prev_quiet = QUIET.with(|q| q.replace(true));
    let r = catch_unwind(AssertUnwindSafe(f));
    QUIET.with(|q| q.set(prev_quiet));
    r.map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic with non-string payload".to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_registered_sites_only() {
        for &(p, s) in SITES {
            let inj = FaultInjector::parse(&format!("{p}:{s}")).unwrap();
            assert_eq!((inj.pass.as_str(), inj.site.as_str()), (p, s));
        }
        assert!(FaultInjector::parse("vectorize").is_err());
        assert!(FaultInjector::parse("nosuch:error").is_err());
        assert!(FaultInjector::parse("vectorize:nosite")
            .unwrap_err()
            .contains("registered sites"));
    }

    #[test]
    fn scoping_restores_previous_injector() {
        let a = FaultInjector::parse("opt:panic").unwrap();
        let b = FaultInjector::parse("shape:panic").unwrap();
        with_injector(Some(a), || {
            assert!(armed("opt", "panic"));
            with_injector(Some(b), || {
                assert!(armed("shape", "panic"));
                assert!(!armed("opt", "panic"));
            });
            assert!(armed("opt", "panic"));
        });
        assert!(!armed("opt", "panic"));
    }

    #[test]
    fn restores_on_unwind() {
        let inj = FaultInjector::parse("vectorize:panic").unwrap();
        let r = catch_pass_panic(|| {
            with_injector(Some(inj), || inject_panic("vectorize"));
        });
        assert_eq!(r.unwrap_err(), "injected fault at vectorize:panic");
        assert!(!armed("vectorize", "panic"));
    }

    #[test]
    fn panics_are_attributed_to_the_deepest_active_pass() {
        let r = catch_pass_panic(|| {
            pass_scope(Pass::Vectorize, || {
                pass_scope(Pass::Shape, || panic!("boom"));
            })
        });
        assert_eq!(r.unwrap_err(), "boom");
        assert_eq!(current_pass(), Pass::Shape);
        reset_current_pass();
        assert_eq!(current_pass(), Pass::Pipeline);
        // Normal exits restore the previous marker.
        pass_scope(Pass::Opt, || assert_eq!(current_pass(), Pass::Opt));
        assert_eq!(current_pass(), Pass::Pipeline);
    }
}
