//! `profdiff` — compares two cycle-attribution profile JSON documents
//! (as emitted by `fig4 --profile=json` / `fig5 --profile=json`) and exits
//! nonzero when the geometric-mean cycle ratio across shared functions
//! regresses past a threshold. Intended as a CI perf gate:
//!
//! ```text
//! fig5 --n 1024 --profile=json > before.json
//! # ... apply a change ...
//! fig5 --n 1024 --profile=json > after.json
//! profdiff before.json after.json --threshold 0.05
//! ```
//!
//! Exit codes: 0 = within threshold, 1 = regression or unreadable or
//! malformed input, 2 = usage error.

use psim_bench::profdiff;
use telemetry::cli::{non_negative_finite, Flag, Help};

const HELP: Help = Help {
    bin: "profdiff",
    about: "Compares two cycle-attribution profiles (fig4/fig5 --profile=json) and fails when \
            the geomean cycle ratio over shared functions regresses past the threshold.",
    flags: &[
        Flag::positional(&["BEFORE.json"], "the baseline profile"),
        Flag::positional(&["AFTER.json"], "the profile under test"),
        Flag::value(
            &["--threshold"],
            "FRACTION",
            "tolerated geomean regression, a finite number >= 0 (default: 0.05)",
        ),
    ],
};

fn main() {
    let args = HELP.parse(env!("CARGO_PKG_VERSION"));
    let threshold = args
        .value("--threshold", non_negative_finite)
        .unwrap_or(0.05);
    let read = |name: &str| -> String {
        let path = args.positional(name);
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("profdiff: cannot read {path}: {e}");
            std::process::exit(1);
        })
    };
    let before = read("BEFORE.json");
    let after = read("AFTER.json");

    match profdiff(&before, &after, threshold) {
        Ok((table, regressed)) => {
            print!("{table}");
            if regressed {
                eprintln!("profdiff: REGRESSION past the {threshold} threshold");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("profdiff: {e}");
            std::process::exit(1);
        }
    }
}
