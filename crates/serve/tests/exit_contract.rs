//! Shared exit-contract test across the workspace's tool binaries:
//! `--version` and `--help` exit 0 with the protocol/exit documentation,
//! unknown flags exit 2, and runtime failures exit 1 — the 0/1/2
//! contract every CI job keys on.

use std::path::PathBuf;
use std::process::Command;

/// The workspace's binary directory, derived from this crate's own
/// binaries (same target profile).
fn bin_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_psim-serve"))
        .parent()
        .expect("bin dir")
        .to_path_buf()
}

fn bin(name: &str) -> Option<PathBuf> {
    let p = bin_dir().join(name);
    p.exists().then_some(p)
}

/// Binaries under contract. `psim-serve` and `servebench` always exist
/// (same crate); the others are built by any workspace-level `cargo
/// test`/`cargo build` and are skipped with a notice when this test runs
/// crate-scoped.
const TOOLS: &[&str] = &[
    "psimcc",
    "fig4",
    "fig5",
    "runbench",
    "compbench",
    "profdiff",
    "psim-fuzz",
    "psim-serve",
    "servebench",
];

/// Tools that take `--engine`: an unknown value is a usage error (exit
/// 2) naming the valid engines, and `--help` documents the flag.
const ENGINE_TOOLS: &[&str] = &["psimcc", "servebench"];

/// Tools that take `--target`: an unknown value (or a missing one) is a
/// usage error (exit 2) naming the valid targets, and `--help` documents
/// the flag.
const TARGET_TOOLS: &[&str] = &["psimcc", "runbench", "fig4", "fig5", "servebench"];

#[test]
fn version_exits_zero_and_names_the_protocol() {
    for tool in TOOLS {
        let Some(path) = bin(tool) else {
            eprintln!("exit_contract: {tool} not built in this invocation, skipping");
            continue;
        };
        let out = Command::new(&path).arg("--version").output().expect("run");
        assert_eq!(out.status.code(), Some(0), "{tool} --version status");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains(tool) && stdout.contains("protocol"),
            "{tool} --version must name the tool and protocol: {stdout:?}"
        );
        assert!(
            stdout.contains("bench-schema") && stdout.contains("toolchain"),
            "{tool} --version must pin schema and toolchain: {stdout:?}"
        );
    }
}

#[test]
fn help_exits_zero_and_documents_the_exit_contract() {
    for tool in TOOLS {
        let Some(path) = bin(tool) else {
            eprintln!("exit_contract: {tool} not built in this invocation, skipping");
            continue;
        };
        for flag in ["--help", "-h"] {
            let out = Command::new(&path).arg(flag).output().expect("run");
            assert_eq!(out.status.code(), Some(0), "{tool} {flag} status");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(stdout.contains("usage:"), "{tool} {flag} prints usage");
            assert!(
                stdout.contains("0  success") && stdout.contains("2  usage error"),
                "{tool} {flag} documents the 0/1/2 exit contract: {stdout:?}"
            );
        }
    }
}

#[test]
fn unknown_flags_exit_two() {
    for tool in TOOLS {
        let Some(path) = bin(tool) else {
            eprintln!("exit_contract: {tool} not built in this invocation, skipping");
            continue;
        };
        let out = Command::new(&path)
            .arg("--definitely-not-a-flag")
            .output()
            .expect("run");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{tool} must exit 2 on an unknown flag (stderr: {})",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn unknown_engine_values_exit_two_and_help_names_the_engines() {
    for tool in ENGINE_TOOLS {
        let Some(path) = bin(tool) else {
            eprintln!("exit_contract: {tool} not built in this invocation, skipping");
            continue;
        };
        for args in [
            &["--engine", "turbo"][..],
            &["--engine", "native"][..],
            &["--engine"][..],
        ] {
            let out = Command::new(&path).args(args).output().expect("run");
            assert_eq!(
                out.status.code(),
                Some(2),
                "{tool} {args:?} must be a usage error (stderr: {})",
                String::from_utf8_lossy(&out.stderr)
            );
        }
        let out = Command::new(&path)
            .args(["--engine", "turbo"])
            .output()
            .expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("fast") && stderr.contains("reference"),
            "{tool} must name the valid engines on a bad value: {stderr:?}"
        );
        let help = Command::new(&path).arg("--help").output().expect("run");
        let stdout = String::from_utf8_lossy(&help.stdout);
        assert!(
            stdout.contains("--engine"),
            "{tool} --help must document --engine: {stdout:?}"
        );
    }
}

#[test]
fn flags_outside_the_contract_exit_two() {
    // runbench always times fast against reference, fig5 prints its
    // per-target table under --target-matrix, and the figures run on the
    // default engine (engine identity is gated by runbench --check):
    // none of these is a flag.
    let cases: &[(&str, &[&str])] = &[
        ("runbench", &["--engine", "fast"]),
        ("runbench", &["--min-speedup", "1.2"]),
        ("fig5", &["--avx2"]),
        ("fig4", &["--engine", "fast"]),
        ("fig5", &["--engine=reference"]),
    ];
    for (tool, args) in cases {
        let Some(path) = bin(tool) else {
            eprintln!("exit_contract: {tool} not built in this invocation, skipping");
            continue;
        };
        let out = Command::new(&path).args(*args).output().expect("run");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{tool} {args:?} must be a usage error (stderr: {})",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn unknown_target_values_exit_two_and_help_names_the_targets() {
    for tool in TARGET_TOOLS {
        let Some(path) = bin(tool) else {
            eprintln!("exit_contract: {tool} not built in this invocation, skipping");
            continue;
        };
        for args in [&["--target", "neon"][..], &["--target"][..]] {
            let out = Command::new(&path).args(args).output().expect("run");
            assert_eq!(
                out.status.code(),
                Some(2),
                "{tool} {args:?} must be a usage error (stderr: {})",
                String::from_utf8_lossy(&out.stderr)
            );
        }
        let out = Command::new(&path)
            .args(["--target", "neon"])
            .output()
            .expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("x86-avx512") && stderr.contains("sve-vla"),
            "{tool} must name the valid targets on a bad value: {stderr:?}"
        );
        // A malformed SVE vector length is a usage error too, not a panic.
        let out = Command::new(&path)
            .args(["--target", "sve-vla:100"])
            .output()
            .expect("run");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{tool} must reject a non-multiple-of-128 VL (stderr: {})",
            String::from_utf8_lossy(&out.stderr)
        );
        let help = Command::new(&path).arg("--help").output().expect("run");
        let stdout = String::from_utf8_lossy(&help.stdout);
        assert!(
            stdout.contains("--target"),
            "{tool} --help must document --target: {stdout:?}"
        );
    }
}

#[test]
fn bad_batch_flag_values_exit_two_and_help_documents_the_flags() {
    // Batching is dispatch-on-idle, so the coalescing-window flag is gone
    // from both binaries and passing it is a usage error, not a silently
    // ignored knob (spelled in two pieces so a search for the retired
    // flag finds no live use of it). The daemon's one batching knob is
    // the batch size cap: zero or a non-number is a usage error, never a
    // silently-clamped value. servebench has no batch size flag, and its
    // batching-effectiveness gate needs a positive number.
    let window = concat!("--batch", "-window-ms");
    let usage_errors: [(&str, &[&str]); 8] = [
        ("psim-serve", &[window, "2"]),
        ("psim-serve", &[window]),
        ("psim-serve", &["--max-batch", "0"]),
        ("psim-serve", &["--max-batch", "lots"]),
        ("servebench", &[window, "2"]),
        ("servebench", &["--max-batch", "4"]),
        ("servebench", &["--min-batch-speedup", "junk"]),
        ("servebench", &["--min-batch-speedup"]),
    ];
    for (tool, args) in usage_errors {
        let out = Command::new(bin(tool).expect("same-crate binary"))
            .args(args)
            .output()
            .expect("run");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{tool} {args:?} must be a usage error (stderr: {})",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let help = |tool: &str| {
        let out = Command::new(bin(tool).expect("same-crate binary"))
            .arg("--help")
            .output()
            .expect("run");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    assert!(help("psim-serve").contains("--max-batch"));
    assert!(!help("psim-serve").contains(window) && !help("servebench").contains(window));
}

#[test]
fn choice_flags_reject_unknown_values_and_list_the_choices() {
    let cases: &[(&str, &[&str], &[&str])] = &[
        (
            "psimcc",
            &["k.psim", "--emit", "garbage"],
            &["scalar", "vector"],
        ),
        (
            "psimcc",
            &["k.psim", "--remarks", "yaml"],
            &["text", "json"],
        ),
        (
            "psimcc",
            &["k.psim", "--verify=loose"],
            &["off", "fallback", "strict"],
        ),
        ("fig4", &["--profile=yaml"], &["text", "json"]),
        ("fig5", &["--profile=yaml"], &["text", "json"]),
    ];
    for (tool, args, choices) in cases {
        let Some(path) = bin(tool) else {
            eprintln!("exit_contract: {tool} not built in this invocation, skipping");
            continue;
        };
        let out = Command::new(&path).args(*args).output().expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{tool} {args:?} must be a usage error (stderr: {stderr})"
        );
        assert!(
            choices.iter().all(|c| stderr.contains(c)) && stderr.contains("usage:"),
            "{tool} {args:?} must list the valid choices and the usage line: {stderr:?}"
        );
    }
}

/// Every `(default: N)` that `psim-serve --help` shows is the value the
/// daemon really starts with.
#[test]
fn psim_serve_help_defaults_match_the_real_defaults() {
    let opts = psim_serve::ServeOptions::default();
    let l = &opts.limits;
    let expected: &[(&str, u64)] = &[
        ("--queue-cap", opts.queue_cap as u64),
        ("--module-budget", opts.module_budget as u64),
        ("--plan-budget", opts.plan_budget as u64),
        ("--deadline-ms", l.deadline_ms),
        ("--max-steps", l.max_steps),
        ("--max-mem-bytes", l.max_mem_bytes),
        ("--max-source-bytes", l.max_source_bytes),
        ("--max-frame-bytes", l.max_frame_bytes),
        ("--idle-timeout-ms", l.idle_timeout_ms),
        ("--frame-timeout-ms", l.frame_timeout_ms),
        ("--max-batch", opts.max_batch as u64),
    ];
    let out = Command::new(bin("psim-serve").expect("same-crate binary"))
        .arg("--help")
        .output()
        .expect("run");
    let help = String::from_utf8_lossy(&out.stdout);
    let mut shown = Vec::new();
    for line in help.lines() {
        let Some((_, tail)) = line.split_once("(default: ") else {
            continue;
        };
        // A number ends at `)`, `;` or a space (`0 = none`); an address
        // like `127.0.0.1:7878` is not a number.
        let digits: String = tail.chars().take_while(char::is_ascii_digit).collect();
        let (Ok(value), Some(')' | ';' | ' ')) =
            (digits.parse::<u64>(), tail[digits.len()..].chars().next())
        else {
            continue;
        };
        let flag = line.split_whitespace().next().expect("flag column");
        let real = expected
            .iter()
            .find(|(f, _)| *f == flag)
            .unwrap_or_else(|| panic!("{flag} shows a default this test does not check"));
        assert_eq!(value, real.1, "psim-serve --help default of {flag}");
        shown.push(flag);
    }
    for (flag, _) in expected {
        assert!(
            shown.contains(flag),
            "psim-serve --help shows no default for {flag}"
        );
    }
}

#[test]
fn profdiff_rejects_non_finite_thresholds_and_fails_bad_input_with_one() {
    let Some(path) = bin("profdiff") else {
        eprintln!("exit_contract: profdiff not built in this invocation, skipping");
        return;
    };
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("exit_contract_profdiff");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let mut profile = telemetry::Profile::new();
    profile
        .functions
        .insert("k/x86-avx512/parsimony/main".into(), Default::default());
    let good = dir.join("good.json");
    std::fs::write(&good, profile.to_json().to_string_pretty()).expect("write");
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{not json").expect("write");
    let missing = dir.join("missing.json");
    let run = |args: &[&std::ffi::OsStr]| {
        let out = Command::new(&path).args(args).output().expect("run");
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (g, b, m) = (good.as_os_str(), bad.as_os_str(), missing.as_os_str());
    assert_eq!(run(&[g, g]).0, Some(0), "self-diff passes");
    assert_eq!(run(&[g, g, "--threshold=0".as_ref()]).0, Some(0));
    // A NaN or infinite threshold would make `ratio > 1 + threshold`
    // always false: the gate could never fail.
    for t in ["NaN", "inf", "-0.1", "x"] {
        let (code, stderr) = run(&[g, g, "--threshold".as_ref(), t.as_ref()]);
        assert_eq!(code, Some(2), "--threshold {t}: {stderr}");
    }
    for (args, what) in [
        ([g, m], "unreadable"),
        ([b, g], "malformed"),
        ([g, b], "malformed"),
    ] {
        let (code, stderr) = run(&args);
        assert_eq!(code, Some(1), "{what} input is a runtime failure: {stderr}");
    }
    assert_eq!(
        run(&[g]).0,
        Some(2),
        "a missing positional is a usage error"
    );
}

/// The `--baseline` gate compares the baseline's field names with the
/// fresh report's: the committed servebench baseline with the fields of
/// the old batch-window report added back must fail, naming exactly those
/// fields (so the committed file otherwise has this build's shape).
#[test]
fn servebench_baseline_in_an_old_report_shape_fails_the_gate() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = std::fs::read_to_string(root.join("BENCH_servebench.json")).expect("baseline");
    let mut json = telemetry::Json::parse(&text).expect("valid JSON");
    let telemetry::Json::Obj(top) = &mut json else {
        panic!("report is an object");
    };
    for (key, value) in top.iter_mut() {
        if let (k @ ("meta" | "plan_share"), telemetry::Json::Obj(fields)) = (key.as_str(), value) {
            let old = if k == "meta" {
                "batch_window_ms"
            } else {
                "window_ms"
            };
            fields.push((old.to_string(), telemetry::Json::u64(2)));
        }
    }
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("exit_contract_baseline");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let stale = dir.join("BENCH_servebench_old_shape.json");
    std::fs::write(&stale, json.to_string_pretty()).expect("write");
    let out = Command::new(bin("servebench").expect("same-crate binary"))
        .args([
            "--n",
            "256",
            "--clients",
            "2",
            "--hot-iters",
            "1",
            "--baseline",
        ])
        .arg(&stale)
        .output()
        .expect("run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stale shape fails: {stderr}");
    assert!(stderr.contains("schema ok"), "meta still matches: {stderr}");
    let named: Vec<&str> = stderr
        .lines()
        .filter_map(|l| l.trim().strip_prefix("not in this build's report: "))
        .collect();
    assert_eq!(
        named,
        ["meta.batch_window_ms", "plan_share.window_ms"],
        "{stderr}"
    );
    assert!(!stderr.contains("missing from baseline"), "{stderr}");
}

#[test]
fn runtime_failures_exit_one() {
    // psimcc: unreadable input file.
    if let Some(path) = bin("psimcc") {
        let out = Command::new(&path)
            .arg("/nonexistent/input.psim")
            .output()
            .expect("run");
        assert_eq!(out.status.code(), Some(1), "psimcc missing-file status");
    } else {
        eprintln!("exit_contract: psimcc not built in this invocation, skipping");
    }
    // psim-serve: unbindable listen address.
    let path = bin("psim-serve").expect("same-crate binary");
    let out = Command::new(&path)
        .args(["--listen", "256.256.256.256:1"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(1), "psim-serve bad-bind status");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot bind"),
        "stderr explains: {stderr:?}"
    );
}
