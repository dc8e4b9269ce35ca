//! `psim-serve` — the persistent compile-and-execute daemon.
//!
//! Run `psim-serve --help` for the flags and their defaults.
//!
//! Requests may carry their own `deadline_ms` / `max_steps` /
//! `max_mem_bytes`, which tighten the server limits but never exceed
//! them. Setting `PSIM_SERVE_CHAOS=<layer>:<site>` arms deterministic
//! fault injection at one registered serve site (testing only).
//!
//! Serves the line-delimited JSON protocol (see `crates/serve/src/
//! request.rs`) until a client sends a `shutdown` request. Prints one
//! `listening on ADDR` line to stderr once ready, so scripts can wait for
//! it.
//!
//! Exit contract (as for every tool in this repo): 0 clean shutdown,
//! 1 runtime failure (bind error), 2 usage error.

use psim_serve::{serve_tcp, serve_unix, ChaosSpec, ServeOptions};
use telemetry::cli::{non_negative, positive, Flag, Help};

const HELP: Help = Help {
    bin: "psim-serve",
    about: "Persistent compile-and-execute daemon: accepts PsimC sources over a line-delimited \
            JSON socket protocol, compiles through the Parsimony pipeline with content-addressed \
            module/plan caches shared across sessions, and executes on the fast engine.",
    flags: &[
        Flag::value(
            &["--listen"],
            "ADDR",
            "TCP listen address (default: 127.0.0.1:7878; port 0 = ephemeral)",
        ),
        Flag::value(
            &["--unix"],
            "PATH",
            "serve a Unix-domain socket at PATH instead of TCP",
        ),
        Flag::value(
            &["--workers"],
            "N",
            "executor pool size (default: available parallelism)",
        ),
        Flag::value(
            &["--queue-cap"],
            "N",
            "max pending requests before `overloaded` replies (default: 64)",
        ),
        Flag::value(
            &["--module-budget"],
            "BYTES",
            "module-cache byte budget (default: 67108864)",
        ),
        Flag::value(
            &["--plan-budget"],
            "BYTES",
            "plan-cache byte budget (default: 67108864)",
        ),
        Flag::value(
            &["--deadline-ms"],
            "MS",
            "default per-request deadline in ms (default: 0 = none)",
        ),
        Flag::value(
            &["--max-steps"],
            "N",
            "per-request dynamic-step budget (default: 4000000000)",
        ),
        Flag::value(
            &["--max-mem-bytes"],
            "BYTES",
            "per-request allocation budget (default: 67108864)",
        ),
        Flag::value(
            &["--max-source-bytes"],
            "BYTES",
            "request source size cap (default: 1048576)",
        ),
        Flag::value(
            &["--max-frame-bytes"],
            "BYTES",
            "wire frame (request line) cap (default: 8388608)",
        ),
        Flag::value(
            &["--idle-timeout-ms"],
            "MS",
            "reap connections idle this long (default: 300000; 0 = never)",
        ),
        Flag::value(
            &["--frame-timeout-ms"],
            "MS",
            "close connections whose frame trickles longer than this (default: 30000; 0 = never)",
        ),
        Flag::value(
            &["--max-batch"],
            "N",
            "most identical-plan runs one batch may hold (default: 16; 1 = run each alone)",
        ),
    ],
};

fn main() {
    let args = HELP.parse(env!("CARGO_PKG_VERSION"));
    let mut opts = ServeOptions::default();
    // Sizing flags and the step/size budgets take a positive integer; the
    // time limits accept 0 ("none"/"never").
    let sizes = [
        ("--workers", &mut opts.workers),
        ("--queue-cap", &mut opts.queue_cap),
        ("--module-budget", &mut opts.module_budget),
        ("--plan-budget", &mut opts.plan_budget),
        ("--max-batch", &mut opts.max_batch),
    ];
    for (flag, field) in sizes {
        if let Some(v) = args.value(flag, positive) {
            *field = v;
        }
    }
    let limits = &mut opts.limits;
    let budgets = [
        ("--max-steps", &mut limits.max_steps),
        ("--max-mem-bytes", &mut limits.max_mem_bytes),
        ("--max-source-bytes", &mut limits.max_source_bytes),
        ("--max-frame-bytes", &mut limits.max_frame_bytes),
    ];
    for (flag, field) in budgets {
        if let Some(v) = args.value(flag, positive) {
            *field = v;
        }
    }
    let timeouts = [
        ("--deadline-ms", &mut limits.deadline_ms),
        ("--idle-timeout-ms", &mut limits.idle_timeout_ms),
        ("--frame-timeout-ms", &mut limits.frame_timeout_ms),
    ];
    for (flag, field) in timeouts {
        if let Some(v) = args.value(flag, non_negative) {
            *field = v;
        }
    }

    match ChaosSpec::from_env() {
        Ok(None) => {}
        Ok(Some(chaos)) => {
            eprintln!("psim-serve: CHAOS ARMED at {} (testing only)", chaos.spec());
            opts.chaos = Some(chaos);
        }
        Err(e) => {
            eprintln!("psim-serve: {e}");
            std::process::exit(2);
        }
    }

    let handle = match args.str("--unix") {
        Some(path) => serve_unix(path, &opts),
        None => serve_tcp(args.str("--listen").unwrap_or("127.0.0.1:7878"), &opts),
    };
    match handle {
        Ok(h) => {
            eprintln!("psim-serve: listening on {}", h.addr);
            h.join();
            eprintln!("psim-serve: shut down");
        }
        Err(e) => {
            eprintln!("psim-serve: cannot bind: {e}");
            std::process::exit(1);
        }
    }
}
