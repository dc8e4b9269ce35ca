//! `psim-serve` — the persistent compile-and-execute daemon.
//!
//! ```text
//! psim-serve [--listen ADDR | --unix PATH] [--workers N] [--queue-cap N]
//!            [--module-budget BYTES] [--plan-budget BYTES]
//!            [--deadline-ms MS] [--max-steps N] [--max-mem-bytes BYTES]
//!            [--max-source-bytes BYTES] [--max-frame-bytes BYTES]
//!            [--idle-timeout-ms MS] [--frame-timeout-ms MS]
//!            [--max-batch N]
//! ```
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
use telemetry::cli::Help;

const HELP: Help = Help {
    bin: "psim-serve",
    about: "Persistent compile-and-execute daemon: accepts PsimC sources over a line-delimited \
            JSON socket protocol, compiles through the Parsimony pipeline with content-addressed \
            module/plan caches shared across sessions, and executes on the fast engine.",
    usage: "[options]",
    flags: &[
        (
            "--listen ADDR",
            "TCP listen address (default: 127.0.0.1:7878; port 0 = ephemeral)",
        ),
        (
            "--unix PATH",
            "serve a Unix-domain socket at PATH instead of TCP",
        ),
        (
            "--workers N",
            "executor pool size (default: available parallelism)",
        ),
        (
            "--queue-cap N",
            "max pending requests before `overloaded` replies (default: 64)",
        ),
        (
            "--module-budget BYTES",
            "module-cache byte budget (default: 67108864)",
        ),
        (
            "--plan-budget BYTES",
            "plan-cache byte budget (default: 67108864)",
        ),
        (
            "--deadline-ms MS",
            "default per-request deadline in ms (default: 0 = none)",
        ),
        (
            "--max-steps N",
            "per-request dynamic-step budget (default: 33554432)",
        ),
        (
            "--max-mem-bytes BYTES",
            "per-request allocation budget (default: 67108864)",
        ),
        (
            "--max-source-bytes BYTES",
            "request source size cap (default: 1048576)",
        ),
        (
            "--max-frame-bytes BYTES",
            "wire frame (request line) cap (default: 8388608)",
        ),
        (
            "--idle-timeout-ms MS",
            "reap connections idle this long (default: 300000; 0 = never)",
        ),
        (
            "--frame-timeout-ms MS",
            "close connections whose frame trickles longer than this (default: 30000; 0 = never)",
        ),
        (
            "--max-batch N",
            "most identical-plan runs one batch may hold (default: 16; 1 = run each alone)",
        ),
        ("-h, --help", "print this help"),
        (
            "-V, --version",
            "print version, protocol, and toolchain info",
        ),
    ],
};

fn usage() -> ! {
    eprintln!(
        "usage: psim-serve [--listen ADDR | --unix PATH] [--workers N] [--queue-cap N] \
         [--module-budget BYTES] [--plan-budget BYTES] [--deadline-ms MS] [--max-steps N] \
         [--max-mem-bytes BYTES] [--max-source-bytes BYTES] [--max-frame-bytes BYTES] \
         [--idle-timeout-ms MS] [--frame-timeout-ms MS] [--max-batch N]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    for a in &args {
        HELP.intercept(a, env!("CARGO_PKG_VERSION"));
    }
    let mut listen = "127.0.0.1:7878".to_string();
    let mut unix: Option<String> = None;
    let mut opts = ServeOptions::default();

    let parse_num = |v: Option<&String>, what: &str| -> usize {
        let Some(v) = v else { usage() };
        match v.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("psim-serve: {what} takes a positive integer, got {v:?}");
                usage();
            }
        }
    };

    // Limit flags accept 0 ("unlimited"/"none") where the limit is
    // optional, unlike the sizing flags above which require >= 1.
    let parse_u64 = |v: Option<&String>, what: &str| -> u64 {
        let Some(v) = v else { usage() };
        match v.parse::<u64>() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("psim-serve: {what} takes a non-negative integer, got {v:?}");
                usage();
            }
        }
    };

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--listen" => {
                i += 1;
                let Some(v) = args.get(i) else { usage() };
                listen.clone_from(v);
            }
            "--unix" => {
                i += 1;
                let Some(v) = args.get(i) else { usage() };
                unix = Some(v.clone());
            }
            "--workers" => {
                i += 1;
                opts.workers = parse_num(args.get(i), "--workers");
            }
            "--queue-cap" => {
                i += 1;
                opts.queue_cap = parse_num(args.get(i), "--queue-cap");
            }
            "--module-budget" => {
                i += 1;
                opts.module_budget = parse_num(args.get(i), "--module-budget");
            }
            "--plan-budget" => {
                i += 1;
                opts.plan_budget = parse_num(args.get(i), "--plan-budget");
            }
            "--deadline-ms" => {
                i += 1;
                opts.limits.deadline_ms = parse_u64(args.get(i), "--deadline-ms");
            }
            "--max-steps" => {
                i += 1;
                opts.limits.max_steps = parse_num(args.get(i), "--max-steps") as u64;
            }
            "--max-mem-bytes" => {
                i += 1;
                opts.limits.max_mem_bytes = parse_num(args.get(i), "--max-mem-bytes") as u64;
            }
            "--max-source-bytes" => {
                i += 1;
                opts.limits.max_source_bytes = parse_num(args.get(i), "--max-source-bytes") as u64;
            }
            "--max-frame-bytes" => {
                i += 1;
                opts.limits.max_frame_bytes = parse_num(args.get(i), "--max-frame-bytes") as u64;
            }
            "--idle-timeout-ms" => {
                i += 1;
                opts.limits.idle_timeout_ms = parse_u64(args.get(i), "--idle-timeout-ms");
            }
            "--frame-timeout-ms" => {
                i += 1;
                opts.limits.frame_timeout_ms = parse_u64(args.get(i), "--frame-timeout-ms");
            }
            "--max-batch" => {
                i += 1;
                opts.max_batch = parse_num(args.get(i), "--max-batch");
            }
            other => {
                eprintln!("psim-serve: unknown flag {other}");
                usage();
            }
        }
        i += 1;
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

    let handle = match &unix {
        Some(path) => serve_unix(path, &opts),
        None => serve_tcp(&listen, &opts),
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
