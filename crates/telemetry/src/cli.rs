//! Shared command-line front door for the repository's binaries.
//!
//! Every tool (`psimcc`, `fig4`, `fig5`, `runbench`, `compbench`,
//! `profdiff`, `psim-fuzz`, `psim-serve`, `servebench`) declares its flags
//! exactly once, as a [`Help`] table of [`Flag`]s. That one table drives
//! three things, so they cannot drift apart:
//!
//! * the `--help` text ([`Help::render`]): about line, usage line,
//!   aligned flag list, and the [`EXIT_CONTRACT`];
//! * the usage line printed with every usage error ([`Help::usage_line`]);
//! * parsing ([`Help::parse`]), where an unknown flag, a missing value, or
//!   a bad value prints `BIN: MESSAGE` plus the usage line and exits 2.
//!
//! The grammar is the same for every tool. A flag's [`Arity`] is one of:
//! a switch (`--check`); a value, spelled `--flag V` or `--flag=V`; an
//! optional value, spelled `--flag` or `--flag=V` only (`--json[=FILE]`,
//! `--profile[=text|json]`); a positional word (`FILE`); or a
//! rest-of-line flag that takes the next word and every word after it
//! (`psimcc --run ENTRY [ARG…]`), except that the table's switches keep
//! their meaning there. A value restricted to a fixed set of words
//! ([`Meta::OneOf`]) is checked by the parser, which lists the valid
//! choices on a mismatch; any other value is checked where the binary
//! reads it ([`Args::value`]) by one of the shared checks below
//! ([`positive`], [`non_negative`], [`positive_finite`],
//! [`non_negative_finite`], [`positive_multiple_of`]) or by a domain
//! parser such as `Target::parse` or `Engine::from_flag`. When a flag is
//! repeated, the last value wins. `-h`/`--help` and `-V`/`--version`
//! anywhere on the line print their text and exit 0.
//!
//! The module also owns the two report surfaces the bench tools share:
//! the `--json[=FILE]` writer ([`Args::write_report`]) and the
//! `--baseline FILE` gate ([`Args::baseline`], [`Baseline::check_shape`]).
//!
//! Version surfaces carried here:
//!
//! * [`PROTOCOL_VERSION`] — the `psim-serve` line-delimited JSON wire
//!   protocol. Bumped on any incompatible request/response change; servers
//!   report it in `--version`, `ping` responses, and error messages.
//! * [`BENCH_SCHEMA_VERSION`] — the schema of every `BENCH_*.json`
//!   artifact (`runbench`, `compbench`, `servebench`). Baselines embed it
//!   in a `meta` object together with the toolchain pin, making them
//!   self-describing; the `--baseline` gate checks it before the run
//!   ([`check_bench_meta`]) and the report's field names after it
//!   ([`shape_diff`]), and fails loudly on a mismatch instead of
//!   comparing numbers that mean different things.

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

/// What a flag's value may be.
#[derive(Debug, Clone, Copy)]
pub enum Meta {
    /// Any word, shown in help as this placeholder (`N`, `FILE`, …) and
    /// checked where the binary reads it ([`Args::value`]).
    Name(&'static str),
    /// Exactly one of these words: the parser rejects anything else and
    /// lists them.
    OneOf(&'static [&'static str]),
}

impl Meta {
    fn render(self) -> String {
        match self {
            Meta::Name(name) => name.to_string(),
            Meta::OneOf(choices) => choices.join("|"),
        }
    }
}

/// How a flag takes its value.
#[derive(Debug, Clone, Copy)]
pub enum Arity {
    /// `--flag`.
    Switch,
    /// `--flag V` or `--flag=V`.
    Value(Meta),
    /// `--flag` alone or `--flag=V`; never takes the next word.
    Optional(Meta),
    /// A required bare word, filled in table order.
    Positional,
    /// `--flag V [ARG…]`: V and every later word (shown in help as this
    /// placeholder), except the table's switches, which keep their
    /// meaning.
    Rest(&'static str),
}

/// One row of a tool's flag table.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// Every spelling, short alias first (`["-j", "--jobs"]`); for a
    /// positional, its placeholder (`["FILE"]`).
    pub names: &'static [&'static str],
    /// How the flag takes its value.
    pub arity: Arity,
    /// One-line description shown by `--help`.
    pub help: &'static str,
}

impl Flag {
    /// A switch.
    pub const fn switch(names: &'static [&'static str], help: &'static str) -> Flag {
        Flag {
            names,
            arity: Arity::Switch,
            help,
        }
    }

    /// A flag taking a free-form value shown as `meta`.
    pub const fn value(
        names: &'static [&'static str],
        meta: &'static str,
        help: &'static str,
    ) -> Flag {
        Flag {
            names,
            arity: Arity::Value(Meta::Name(meta)),
            help,
        }
    }

    /// A flag taking exactly one of `choices`.
    pub const fn choice(
        names: &'static [&'static str],
        choices: &'static [&'static str],
        help: &'static str,
    ) -> Flag {
        Flag {
            names,
            arity: Arity::Value(Meta::OneOf(choices)),
            help,
        }
    }

    /// A flag whose value may only be attached with `=`.
    pub const fn optional(names: &'static [&'static str], meta: Meta, help: &'static str) -> Flag {
        Flag {
            names,
            arity: Arity::Optional(meta),
            help,
        }
    }

    /// A required positional word.
    pub const fn positional(names: &'static [&'static str], help: &'static str) -> Flag {
        Flag {
            names,
            arity: Arity::Positional,
            help,
        }
    }

    /// A flag taking the rest of the line.
    pub const fn rest(
        names: &'static [&'static str],
        meta: &'static str,
        help: &'static str,
    ) -> Flag {
        Flag {
            names,
            arity: Arity::Rest(meta),
            help,
        }
    }

    /// The flag as written in help (`sep` = `", "`) or in the usage line
    /// (`sep` = `"|"`).
    fn spelling(&self, sep: &str) -> String {
        let names = self.names.join(sep);
        match self.arity {
            Arity::Switch | Arity::Positional => names,
            Arity::Value(meta) => format!("{names} {}", meta.render()),
            Arity::Optional(meta) => format!("{names}[={}]", meta.render()),
            Arity::Rest(meta) => format!("{names} {meta}"),
        }
    }
}

/// The flags every tool answers before parsing anything else.
const BUILTIN_FLAGS: [Flag; 2] = [
    Flag::switch(&["-h", "--help"], "print this help"),
    Flag::switch(
        &["-V", "--version"],
        "print version, protocol, and toolchain info",
    ),
];

/// A tool's command-line description: the one table its `--help`, its
/// usage line, and its parser are all generated from.
pub struct Help {
    /// Binary name as invoked.
    pub bin: &'static str,
    /// One-line description of what the tool does.
    pub about: &'static str,
    /// The tool's flags and positionals (`--help`/`--version` are added).
    pub flags: &'static [Flag],
}

impl Help {
    fn all_flags(&self) -> impl Iterator<Item = &Flag> {
        self.flags.iter().chain(&BUILTIN_FLAGS)
    }

    /// The usage line printed by `--help` and after every usage error.
    pub fn usage_line(&self) -> String {
        let mut out = format!("usage: {}", self.bin);
        for flag in self.all_flags() {
            match flag.arity {
                Arity::Positional => out.push_str(&format!(" {}", flag.spelling("|"))),
                _ => out.push_str(&format!(" [{}]", flag.spelling("|"))),
            }
        }
        out
    }

    /// Renders the full help text.
    pub fn render(&self) -> String {
        let rows: Vec<(String, &str)> = self
            .all_flags()
            .map(|f| (f.spelling(", "), f.help))
            .collect();
        let width = rows.iter().map(|(s, _)| s.len()).max().unwrap_or(0);
        let mut out = format!("{}\n\n{}\n\noptions:\n", self.about, self.usage_line());
        for (spelling, help) in rows {
            out.push_str(&format!("  {spelling:width$}  {help}\n"));
        }
        out.push('\n');
        out.push_str(EXIT_CONTRACT);
        out.push('\n');
        out
    }

    /// Reports a usage error (`BIN: MESSAGE` plus the usage line on
    /// stderr) and exits 2.
    pub fn usage_error(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}\n{}", self.bin, self.usage_line());
        std::process::exit(2);
    }

    /// Parses the process arguments. `--help`/`-h` and `--version`/`-V`
    /// anywhere on the line print their text and exit 0; any usage error
    /// exits 2 through [`Help::usage_error`]. Callers pass their own
    /// `env!("CARGO_PKG_VERSION")`.
    pub fn parse(&self, pkg_version: &str) -> Args<'_> {
        let words: Vec<String> = std::env::args().skip(1).collect();
        if words.iter().any(|w| w == "--help" || w == "-h") {
            println!("{}", self.render());
            std::process::exit(0);
        }
        if words.iter().any(|w| w == "--version" || w == "-V") {
            println!("{}", version_line(self.bin, pkg_version));
            std::process::exit(0);
        }
        self.try_parse(words)
            .unwrap_or_else(|msg| self.usage_error(&msg))
    }

    fn find(&self, name: &str) -> Option<usize> {
        self.flags
            .iter()
            .position(|f| !matches!(f.arity, Arity::Positional) && f.names.contains(&name))
    }

    /// Parses `words` (the arguments after the binary name) against the
    /// table without exiting: the testable core of [`Help::parse`].
    ///
    /// # Errors
    /// The usage-error message: an unknown flag, a missing or unexpected
    /// value, a value outside a [`Meta::OneOf`] set, or a stray word. A
    /// missing positional is reported when the tool reads it
    /// ([`Args::positional`]), after its flag values have been checked.
    pub fn try_parse(&self, words: Vec<String>) -> Result<Args<'_>, String> {
        let mut args = Args {
            help: self,
            seen: Vec::new(),
            rest: Vec::new(),
        };
        let positionals: Vec<usize> = (0..self.flags.len())
            .filter(|&i| matches!(self.flags[i].arity, Arity::Positional))
            .collect();
        let mut next_positional = positionals.iter();
        let mut words = words.into_iter();
        while let Some(word) = words.next() {
            if !word.starts_with('-') {
                let Some(&i) = next_positional.next() else {
                    return Err(format!("unexpected argument {word:?}"));
                };
                args.seen.push((i, Some(word)));
                continue;
            }
            let (name, inline) = match word.split_once('=') {
                Some((name, value)) if word.starts_with("--") => (name, Some(value.to_string())),
                _ => (word.as_str(), None),
            };
            let i = self
                .find(name)
                .ok_or_else(|| format!("unknown flag {name}"))?;
            let value = match (self.flags[i].arity, inline) {
                (Arity::Switch, Some(_)) => return Err(format!("{name} takes no value")),
                (Arity::Switch | Arity::Optional(_), None) => None,
                (Arity::Optional(_), Some(v)) => Some(v),
                (_, inline) => Some(
                    inline
                        .or_else(|| words.next())
                        .ok_or_else(|| format!("{name} requires a value"))?,
                ),
            };
            if let (
                Arity::Value(Meta::OneOf(choices)) | Arity::Optional(Meta::OneOf(choices)),
                Some(v),
            ) = (self.flags[i].arity, &value)
            {
                if !choices.contains(&v.as_str()) {
                    return Err(format!(
                        "invalid value {v:?} for {name}: expected one of {}",
                        choices.join(", ")
                    ));
                }
            }
            args.seen.push((i, value));
            if matches!(self.flags[i].arity, Arity::Rest(_)) {
                for word in words.by_ref() {
                    match self.find(&word) {
                        Some(j) if matches!(self.flags[j].arity, Arity::Switch) => {
                            args.seen.push((j, None));
                        }
                        _ => args.rest.push(word),
                    }
                }
            }
        }
        Ok(args)
    }
}

/// The parsed command line of one tool, queried by flag name (any of the
/// flag's spellings). Asking for a name the tool's table does not declare
/// is a bug in the tool and panics.
pub struct Args<'h> {
    help: &'h Help,
    /// Every occurrence in command-line order: (table index, value).
    seen: Vec<(usize, Option<String>)>,
    /// The words after a rest-of-line flag's first value.
    rest: Vec<String>,
}

impl Args<'_> {
    /// The last occurrence of `name`: `None` if absent, `Some(None)` for a
    /// switch or a bare optional-value flag, `Some(Some(V))` otherwise
    /// (`--json=FILE`).
    pub fn optional(&self, name: &str) -> Option<Option<&str>> {
        let i = self
            .help
            .flags
            .iter()
            .position(|f| f.names.contains(&name))
            .expect("flag declared in the tool's table");
        self.seen
            .iter()
            .rev()
            .find(|(j, _)| *j == i)
            .map(|(_, v)| v.as_deref())
    }

    /// Whether `name` was given at all.
    pub fn has(&self, name: &str) -> bool {
        self.optional(name).is_some()
    }

    /// The value of a value, positional, or rest-of-line flag.
    pub fn str(&self, name: &str) -> Option<&str> {
        self.optional(name).flatten()
    }

    /// A required positional; its absence is a usage error (exit 2).
    pub fn positional(&self, name: &str) -> &str {
        self.str(name)
            .unwrap_or_else(|| self.fail(&format!("missing {name}")))
    }

    /// The value of `name` run through `check`; a check failure is a
    /// usage error (exit 2) naming the flag, the value, and the reason.
    pub fn value<T>(&self, name: &str, check: impl FnOnce(&str) -> Result<T, String>) -> Option<T> {
        let v = self.str(name)?;
        Some(
            check(v).unwrap_or_else(|e| self.fail(&format!("invalid value {v:?} for {name}: {e}"))),
        )
    }

    /// The words after a rest-of-line flag's first value.
    pub fn rest(&self) -> &[String] {
        &self.rest
    }

    /// Reports a usage error and exits 2 (see [`Help::usage_error`]).
    pub fn fail(&self, msg: &str) -> ! {
        self.help.usage_error(msg)
    }

    /// The `--json[=FILE]` writer: without `--json`, prints `text`; with a
    /// bare `--json`, prints the pretty-printed `report` instead; with
    /// `--json=FILE`, writes the report to FILE and still prints `text`.
    /// A failed write is a runtime failure (exit 1).
    pub fn write_report(&self, report: &Json, text: &str) {
        match self.optional("--json") {
            None => print!("{text}"),
            Some(None) => println!("{}", report.to_string_pretty()),
            Some(Some(path)) => {
                if let Err(e) = std::fs::write(path, format!("{}\n", report.to_string_pretty())) {
                    eprintln!("{}: cannot write {path}: {e}", self.help.bin);
                    std::process::exit(1);
                }
                print!("{text}");
            }
        }
    }

    /// The `--baseline FILE` front door, run before any work: reads FILE
    /// and checks its `meta` block against this build and tool
    /// ([`check_bench_meta`]). An unreadable, malformed, or mismatched
    /// baseline fails the gate (exit 1).
    pub fn baseline(&self) -> Option<Baseline> {
        let path = self.str("--baseline")?;
        let bin = self.help.bin;
        let read = || -> Result<Json, String> {
            let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
            let json = Json::parse(&text).map_err(|e| format!("invalid JSON: {e}"))?;
            check_bench_meta(&json, bin)?;
            Ok(json)
        };
        match read() {
            Ok(json) => {
                eprintln!("{bin}: baseline {path} schema ok");
                Some(Baseline {
                    bin,
                    path: path.to_string(),
                    json,
                })
            }
            Err(e) => {
                eprintln!("{bin}: GATE FAILED: baseline {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// A bench baseline that passed the `meta` check ([`Args::baseline`]).
pub struct Baseline {
    bin: &'static str,
    path: String,
    json: Json,
}

impl Baseline {
    /// Run after the fresh report exists: fails the gate (exit 1), naming
    /// every field, when the baseline's field names differ from the
    /// report's ([`shape_diff`]) — a baseline in an older report shape
    /// must be regenerated, not compared.
    pub fn check_shape(&self, fresh: &Json) {
        let diff = shape_diff(&self.json, fresh);
        if !diff.is_empty() {
            eprintln!(
                "{}: GATE FAILED: baseline {} does not have this build's report shape \
                 (regenerate it):",
                self.bin, self.path
            );
            for line in &diff {
                eprintln!("  {line}");
            }
            std::process::exit(1);
        }
        eprintln!("{}: baseline {} shape ok", self.bin, self.path);
    }
}

/// Compares the field names of a baseline report with a fresh one: the
/// keys of every object (top level, `meta`, nested sections) and, for an
/// array of objects, the union of its elements' keys (the row keys).
/// Returns one line per field the baseline lacks or has in excess, with
/// its path (`meta.n`, `rows[].speedup`); empty when the shapes match.
pub fn shape_diff(baseline: &Json, fresh: &Json) -> Vec<String> {
    fn keys(j: &Json) -> Option<Vec<(&str, &Json)>> {
        match j {
            Json::Obj(pairs) => Some(pairs.iter().map(|(k, v)| (k.as_str(), v)).collect()),
            Json::Arr(items) if items.iter().any(|v| v.as_obj().is_some()) => {
                let mut union: Vec<(&str, &Json)> = Vec::new();
                for (k, v) in items.iter().filter_map(Json::as_obj).flatten() {
                    if !union.iter().any(|(u, _)| u == k) {
                        union.push((k.as_str(), v));
                    }
                }
                Some(union)
            }
            _ => None,
        }
    }
    fn walk(base: &Json, fresh: &Json, path: &str, out: &mut Vec<String>) {
        let (Some(b), Some(f)) = (keys(base), keys(fresh)) else {
            return;
        };
        let prefix = match (path, base) {
            ("", _) => String::new(),
            (p, Json::Arr(_)) => format!("{p}[]."),
            (p, _) => format!("{p}."),
        };
        for (k, fv) in &f {
            match b.iter().find(|(bk, _)| bk == k) {
                Some((_, bv)) => walk(bv, fv, &format!("{prefix}{k}"), out),
                None => out.push(format!("missing from baseline: {prefix}{k}")),
            }
        }
        for (k, _) in b.iter().filter(|(k, _)| !f.iter().any(|(fk, _)| fk == k)) {
            out.push(format!("not in this build's report: {prefix}{k}"));
        }
    }
    let mut out = Vec::new();
    walk(baseline, fresh, "", &mut out);
    out
}

/// Shared value check: a positive integer.
///
/// # Errors
/// Names the expected form.
pub fn positive<T: std::str::FromStr + PartialOrd + Default>(s: &str) -> Result<T, String> {
    match s.parse::<T>() {
        Ok(n) if n > T::default() => Ok(n),
        _ => Err("expected a positive integer".into()),
    }
}

/// Shared value check: a non-negative integer.
///
/// # Errors
/// Names the expected form.
pub fn non_negative<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| "expected a non-negative integer".into())
}

/// Shared value check: a positive multiple of `step` (workload sizes).
pub fn positive_multiple_of(step: u64) -> impl Fn(&str) -> Result<u64, String> {
    move |s| match s.parse::<u64>() {
        Ok(n) if n > 0 && n.is_multiple_of(step) => Ok(n),
        _ => Err(format!("expected a positive multiple of {step}")),
    }
}

/// Shared value check: a positive finite number (speedup floors).
///
/// # Errors
/// Names the expected form; NaN and infinities are rejected.
pub fn positive_finite(s: &str) -> Result<f64, String> {
    match s.parse::<f64>() {
        Ok(x) if x.is_finite() && x > 0.0 => Ok(x),
        _ => Err("expected a positive finite number".into()),
    }
}

/// Shared value check: a finite number ≥ 0 (regression thresholds).
///
/// # Errors
/// Names the expected form; NaN and infinities are rejected.
pub fn non_negative_finite(s: &str) -> Result<f64, String> {
    match s.parse::<f64>() {
        Ok(x) if x.is_finite() && x >= 0.0 => Ok(x),
        _ => Err("expected a finite number >= 0".into()),
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

    const DEMO: Help = Help {
        bin: "demo",
        about: "Does demo things.",
        flags: &[
            Flag::positional(&["INPUT"], "the input file"),
            Flag::choice(&["--emit"], &["scalar", "vector"], "what to print"),
            Flag::value(&["-j", "--jobs"], "N", "worker count"),
            Flag::switch(&["--check"], "verify outputs"),
            Flag::optional(&["--json"], Meta::Name("FILE"), "emit JSON"),
            Flag::optional(&["--profile"], Meta::OneOf(&["text", "json"]), "profile"),
            Flag::rest(&["--run"], "ENTRY [ARG…]", "run ENTRY"),
        ],
    };

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn help_renders_flags_and_exit_contract() {
        let text = DEMO.render();
        assert!(text.starts_with("Does demo things.\n\nusage: demo INPUT [--emit scalar|vector]"));
        assert!(text.contains("  -j, --jobs N "));
        assert!(text.contains("  --json[=FILE] "));
        assert!(text.contains("  --profile[=text|json] "));
        assert!(text.contains("  --run ENTRY [ARG…] "));
        assert!(text.contains("  -h, --help "));
        assert!(text.contains("exit status:"));
        assert!(text.contains("2  usage error"));
    }

    /// Every flag of the table (and the built-in `--help`/`--version`)
    /// appears in both the usage line and the help list, and nothing else
    /// does: the two renderings come from one table.
    #[test]
    fn usage_line_and_help_list_the_same_flags() -> Result<(), String> {
        let flag_words = |text: &str| -> Vec<String> {
            let mut names: Vec<String> = text
                .split(|c: char| c.is_whitespace() || "[]|,=".contains(c))
                .filter(|w| w.starts_with('-'))
                .map(str::to_string)
                .collect();
            names.sort();
            names.dedup();
            names
        };
        let usage = DEMO.usage_line();
        let help = DEMO.render();
        let listed = help
            .split("options:\n")
            .nth(1)
            .and_then(|rest| rest.split("\n\n").next())
            .ok_or("help has an options list")?;
        assert_eq!(flag_words(&usage), flag_words(listed));
        let mut declared: Vec<String> = DEMO
            .all_flags()
            .filter(|f| !matches!(f.arity, Arity::Positional))
            .flat_map(|f| f.names.iter().map(|n| n.to_string()))
            .collect();
        declared.sort();
        assert_eq!(flag_words(&usage), declared);
        assert!(usage.contains(" INPUT ") && listed.contains("  INPUT "));
        Ok(())
    }

    #[test]
    fn one_grammar_for_every_arity() -> Result<(), String> {
        let a = DEMO.try_parse(words(
            "in.psim --emit=scalar -j 3 --check --json=out.json --profile --jobs=4 \
                 --run main 1 -2 buf:8 --check",
        ))?;
        assert_eq!(a.str("INPUT"), Some("in.psim"));
        assert_eq!(a.str("--emit"), Some("scalar"));
        // Repeated flags: the last value wins, under any spelling.
        assert_eq!(a.value("-j", positive::<usize>), Some(4));
        assert!(a.has("--check"));
        assert_eq!(a.optional("--json"), Some(Some("out.json")));
        assert_eq!(a.optional("--profile"), Some(None));
        assert_eq!(a.str("--run"), Some("main"));
        // Rest-of-line words keep everything but the table's switches.
        assert_eq!(a.rest(), &words("1 -2 buf:8")[..]);
        assert_eq!(a.positional("INPUT"), "in.psim");
        let bare = DEMO.try_parse(words("in.psim"))?;
        assert!(!bare.has("--check") && bare.optional("--json").is_none());
        assert_eq!(bare.value("--jobs", positive::<usize>), None);
        Ok(())
    }

    #[test]
    fn usage_errors_name_the_problem() {
        let err = |line: &str| match DEMO.try_parse(words(line)) {
            Ok(_) => format!("{line:?} parsed"),
            Err(e) => e,
        };
        assert_eq!(err("in --bogus"), "unknown flag --bogus");
        assert_eq!(err("in --jobs"), "--jobs requires a value");
        assert_eq!(err("in --check=yes"), "--check takes no value");
        assert_eq!(err("in other"), "unexpected argument \"other\"");
        assert_eq!(
            err("in --emit garbage"),
            "invalid value \"garbage\" for --emit: expected one of scalar, vector"
        );
        assert_eq!(
            err("in --profile=yaml"),
            "invalid value \"yaml\" for --profile: expected one of text, json"
        );
        // An optional value never takes the next word.
        assert_eq!(
            err("in --json out.json"),
            "unexpected argument \"out.json\""
        );
    }

    #[test]
    fn shared_value_checks() {
        assert_eq!(positive::<usize>("3"), Ok(3));
        assert!(positive::<usize>("0").is_err() && positive::<u64>("-1").is_err());
        assert_eq!(non_negative::<u64>("0"), Ok(0));
        assert!(non_negative::<u64>("x").is_err());
        assert_eq!(positive_multiple_of(256)("512"), Ok(512));
        assert!(positive_multiple_of(256)("0").is_err());
        assert!(positive_multiple_of(256)("100").is_err());
        assert_eq!(positive_finite("1.3"), Ok(1.3));
        assert_eq!(non_negative_finite("0"), Ok(0.0));
        for bad in ["NaN", "inf", "-inf", "-0.5", "x"] {
            assert!(positive_finite(bad).is_err(), "{bad}");
            assert!(non_negative_finite(bad).is_err(), "{bad}");
        }
        assert!(positive_finite("0").is_err());
    }

    #[test]
    fn shape_diff_names_every_missing_and_extra_field() -> Result<(), String> {
        let report = |meta_extra: &str, row_extra: &str| {
            Json::parse(&format!(
                r#"{{"meta": {{"schema_version": 3, "tool": "t"{meta_extra}}},
                    "n": 1, "rows": [{{"name": "a", "speedup": 2.0{row_extra}}}]}}"#
            ))
        };
        let fresh = report("", "")?;
        assert!(shape_diff(&fresh, &fresh).is_empty());
        // Values may differ; only field names are compared.
        let other = Json::parse(
            r#"{"meta": {"schema_version": 3, "tool": "x"}, "n": 9,
                "rows": [{"name": "b", "speedup": 1.0}, {"name": "c", "speedup": 3.0}]}"#,
        )?;
        assert!(shape_diff(&other, &fresh).is_empty());
        let stale = report(r#", "batch_window_ms": 2"#, r#", "window_ms": 2"#)?;
        assert_eq!(
            shape_diff(&stale, &fresh),
            [
                "not in this build's report: meta.batch_window_ms",
                "not in this build's report: rows[].window_ms",
            ]
        );
        assert_eq!(
            shape_diff(&fresh, &stale),
            [
                "missing from baseline: meta.batch_window_ms",
                "missing from baseline: rows[].window_ms",
            ]
        );
        Ok(())
    }

    #[test]
    fn bench_meta_roundtrips_and_gates() -> Result<(), String> {
        let report = Json::obj(vec![
            ("meta", bench_meta("runbench", vec![("n", Json::u64(1024))])),
            ("geomean_speedup", Json::Num(3.0)),
        ]);
        let text = report.to_string_pretty();
        let parsed = Json::parse(&text)?;
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
        Ok(())
    }
}
