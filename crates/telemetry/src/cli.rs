//! Shared command-line surface for the repository's binaries.
//!
//! Every tool (`psimcc`, `fig4`, `fig5`, `runbench`, `compbench`,
//! `profdiff`, `psim-fuzz`, `psim-serve`, `servebench`) answers
//! `--version` and `--help` through this module so the output format, the
//! advertised protocol/schema versions, and the exit-status contract stay
//! consistent — the shared exit-contract test in `crates/serve` asserts
//! them across binaries.
//!
//! Version surfaces carried here:
//!
//! * [`PROTOCOL_VERSION`] — the `psim-serve` line-delimited JSON wire
//!   protocol. Bumped on any incompatible request/response change; servers
//!   report it in `--version`, `ping` responses, and error messages.
//! * [`BENCH_SCHEMA_VERSION`] — the schema of every `BENCH_*.json`
//!   artifact (`runbench`, `compbench`, `servebench`). Baselines embed it
//!   in a `meta` object together with the toolchain pin, making them
//!   self-describing; gates call [`check_bench_meta`] and fail loudly on a
//!   mismatch instead of comparing numbers that mean different things.

use crate::Json;

/// Version of the `psim-serve` wire protocol (requests, responses, and
/// their field semantics).
///
/// History:
/// * 1 — initial protocol (PR 6): `run`/`ping`/`stats`/`shutdown`,
///   statuses `ok`/`pong`/`stats`/`overloaded`/`error`/`shutting_down`.
/// * 2 — request lifecycle robustness: per-request budgets on `run`
///   (`deadline_ms`, `max_steps`, `max_mem_bytes`), the structured
///   failure statuses in [`STRUCTURED_FAILURE_STATUSES`], and
///   `steps`/`mem_bytes` accounting fields on `ok` responses.
/// * 3 — plan-sharing request batching: the `stats` response gains a
///   `batch` object (enabled flag, window/max knobs, and the
///   batches-formed / batched / coalesced / max-size / window-timeout
///   counters). `run` requests and responses are unchanged — batched
///   responses are byte-identical to unbatched ones.
/// * 4 — costing targets: `run` requests carry an optional `target`
///   (`x86-avx512`, `x86-avx2`, `sve-vla[:VL]`; absent = `x86-avx512`)
///   that prices the response's simulated cycles and joins the module
///   cache key. Default requests stay wire-identical to protocol 3.
/// * 5 — dispatch-on-idle batching: there is no coalescing window any
///   more, so the `stats` response's `batch` object drops the enabled
///   flag, the window knob and the window-timeout counter, keeping
///   `max_batch` plus the batches-formed / batched / coalesced / max-size
///   counters. `run` requests and responses are unchanged.
pub const PROTOCOL_VERSION: u64 = 5;

/// Every structured failure status a `psim-serve` response can carry.
/// "Structured" is the robustness contract: whatever goes wrong — budget
/// exhaustion, deadline, disconnect, shutdown, overload, or a plain error
/// — the client receives one of these statuses, never a hang or a
/// byte-different success. The chaos sweep asserts against this list.
pub const STRUCTURED_FAILURE_STATUSES: &[&str] = &[
    "error",
    "overloaded",
    "shutting_down",
    "deadline_exceeded",
    "cancelled",
    "resource_exhausted",
];

/// Version of the bench-report JSON schema shared by `runbench`,
/// `compbench`, and `servebench` (the `meta` object itself plus the
/// report fields the CI gates read).
///
/// History:
/// * 1 — initial versioned schema (PR 8).
/// * 2 — servebench splits client-observed latency into queue-wait and
///   service time, adds the `plan_share` batching phase (on/off rps and
///   the batch counters), and records the batching knobs plus the
///   engine in `meta`. Baselines written under schema 1 are rejected by
///   the `--baseline` gate and must be regenerated.
/// * 3 — costing targets: `runbench` and `servebench` record the target
///   in `meta`, and cycle-derived numbers are priced against it (the
///   target×engine CI matrix keeps one baseline file per leg). Schema-2
///   baselines must be regenerated.
pub const BENCH_SCHEMA_VERSION: u64 = 3;

/// The exit-status contract every binary follows (also asserted by the
/// shared exit-contract test): printed at the end of `--help`.
pub const EXIT_CONTRACT: &str = "exit status:\n  \
     0  success (including gracefully degraded compilations)\n  \
     1  runtime error, compile error, or gate failure\n  \
     2  usage error (unknown flag, missing argument)";

/// The toolchain channel pinned by `rust-toolchain.toml` (baked in at
/// compile time so the binaries report the pin they were built under).
pub fn toolchain_channel() -> &'static str {
    static PIN: &str = include_str!("../../../rust-toolchain.toml");
    for line in PIN.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("channel") {
            if let Some(v) = rest.split('"').nth(1) {
                return v;
            }
        }
    }
    "unknown"
}

/// The one-line `--version` output: binary name, crate version, protocol
/// and bench-schema versions, and the toolchain pin. Callers pass their
/// own `env!("CARGO_PKG_VERSION")`.
pub fn version_line(bin: &str, pkg_version: &str) -> String {
    format!(
        "{bin} {pkg_version} (protocol {PROTOCOL_VERSION}, bench-schema {BENCH_SCHEMA_VERSION}, toolchain {})",
        toolchain_channel()
    )
}

/// A structured `--help` description: rendered identically by every
/// binary (usage line, about text, aligned flag table, exit contract).
pub struct Help {
    /// Binary name as invoked.
    pub bin: &'static str,
    /// One-line description of what the tool does.
    pub about: &'static str,
    /// Usage synopsis (everything after the binary name).
    pub usage: &'static str,
    /// Flag table: (`--flag[=ARG]`, description).
    pub flags: &'static [(&'static str, &'static str)],
}

impl Help {
    /// Renders the full help text.
    pub fn render(&self) -> String {
        let mut out = format!("{}\n\nusage: {} {}\n", self.about, self.bin, self.usage);
        if !self.flags.is_empty() {
            let width = self.flags.iter().map(|(f, _)| f.len()).max().unwrap_or(0);
            out.push_str("\noptions:\n");
            for (flag, desc) in self.flags {
                out.push_str(&format!("  {flag:width$}  {desc}\n"));
            }
        }
        out.push('\n');
        out.push_str(EXIT_CONTRACT);
        out.push('\n');
        out
    }

    /// Handles `--help`/`-h`/`--version`/`-V` if `arg` is one of them:
    /// prints the requested text to stdout and exits 0. Returns `false`
    /// for any other argument so callers keep their own parsing loop.
    pub fn intercept(&self, arg: &str, pkg_version: &str) -> bool {
        match arg {
            "--help" | "-h" => {
                println!("{}", self.render());
                std::process::exit(0);
            }
            "--version" | "-V" => {
                println!("{}", version_line(self.bin, pkg_version));
                std::process::exit(0);
            }
            _ => false,
        }
    }
}

/// The self-describing `meta` object embedded in every bench JSON report:
/// schema version, toolchain pin, and the tool that produced it. Harnesses
/// append their own cache-relevant pairs (gang configuration, engine,
/// client counts) via `extra`.
pub fn bench_meta(tool: &str, extra: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![
        ("schema_version", Json::u64(BENCH_SCHEMA_VERSION)),
        ("tool", Json::Str(tool.to_string())),
        ("toolchain", Json::Str(toolchain_channel().to_string())),
    ];
    pairs.extend(extra);
    Json::obj(pairs)
}

/// Validates the `meta` object of a bench baseline against this build.
///
/// # Errors
/// Explains exactly what is missing or mismatched — gates print this and
/// exit nonzero, so stale or foreign baselines fail loudly rather than
/// producing nonsense comparisons.
pub fn check_bench_meta(report: &Json, tool: &str) -> Result<(), String> {
    let meta = report
        .get("meta")
        .ok_or_else(|| format!("baseline has no `meta` object (pre-versioned {tool} schema?); regenerate it with this build"))?;
    let ver = meta
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or_else(|| "baseline `meta.schema_version` is missing or not an integer".to_string())?;
    if ver != BENCH_SCHEMA_VERSION {
        return Err(format!(
            "baseline schema_version {ver} does not match this build's {BENCH_SCHEMA_VERSION}; regenerate the baseline"
        ));
    }
    let got_tool = meta.get("tool").and_then(Json::as_str).unwrap_or("");
    if got_tool != tool {
        return Err(format!(
            "baseline was produced by `{got_tool}`, expected `{tool}`"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toolchain_pin_is_parsed() {
        assert_eq!(toolchain_channel(), "stable");
    }

    #[test]
    fn version_line_carries_all_surfaces() {
        let line = version_line("psimcc", "0.1.0");
        assert!(line.starts_with("psimcc 0.1.0"));
        assert!(line.contains(&format!("protocol {PROTOCOL_VERSION}")));
        assert!(line.contains(&format!("bench-schema {BENCH_SCHEMA_VERSION}")));
        assert!(line.contains("toolchain stable"));
    }

    #[test]
    fn help_renders_flags_and_exit_contract() {
        let h = Help {
            bin: "demo",
            about: "Does demo things.",
            usage: "[--json[=FILE]] INPUT",
            flags: &[
                ("--json[=FILE]", "emit JSON"),
                ("--check", "verify outputs"),
            ],
        };
        let text = h.render();
        assert!(text.contains("usage: demo [--json[=FILE]] INPUT"));
        assert!(text.contains("--json[=FILE]  emit JSON"));
        assert!(text.contains("exit status:"));
        assert!(text.contains("2  usage error"));
        assert!(!h.intercept("--json", "0.1.0"));
    }

    #[test]
    fn bench_meta_roundtrips_and_gates() {
        let report = Json::obj(vec![
            ("meta", bench_meta("runbench", vec![("n", Json::u64(1024))])),
            ("geomean_speedup", Json::Num(3.0)),
        ]);
        let text = report.to_string_pretty();
        let parsed = Json::parse(&text).unwrap();
        assert!(check_bench_meta(&parsed, "runbench").is_ok());
        // Wrong tool and missing meta both fail loudly.
        let err = check_bench_meta(&parsed, "compbench").unwrap_err();
        assert!(err.contains("runbench"));
        let bare = Json::obj(vec![("geomean_speedup", Json::Num(3.0))]);
        let err = check_bench_meta(&bare, "runbench").unwrap_err();
        assert!(err.contains("meta"));
        // Version skew fails loudly.
        let skewed = Json::obj(vec![(
            "meta",
            Json::obj(vec![
                ("schema_version", Json::u64(BENCH_SCHEMA_VERSION + 1)),
                ("tool", Json::Str("runbench".into())),
            ]),
        )]);
        let err = check_bench_meta(&skewed, "runbench").unwrap_err();
        assert!(err.contains("does not match"));
    }
}
