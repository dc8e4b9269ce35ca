//! The benchmark's correctness checks can fail, and a failure shows in
//! `failed_frac`, in the result line, and in the exit code.

use perfbench::serve::classify;
use perfbench::{end_to_end, Outcome};
use psim_serve::Response;
use std::process::Command;
use telemetry::Json;

fn failed_frac(o: &Outcome) -> f64 {
    end_to_end("compile", o)
        .into_iter()
        .find(|m| m.name == "failed_frac")
        .expect("failed_frac is reported")
        .value
}

#[test]
fn refused_request_counts_as_failed() {
    // The reply as it arrives on the wire.
    let wire = Response::Overloaded { id: 7 }.to_json().to_string_compact();
    let reply = Response::parse(&wire).expect("parses");
    let verdict = classify(Ok(reply));
    assert!(verdict.is_err(), "an overloaded reply is not a success");

    let mut o = Outcome {
        attempted: 4,
        ..Outcome::default()
    };
    o.fail(verdict.unwrap_err());
    assert!(!o.correct());
    assert!((failed_frac(&o) - 0.25).abs() < 1e-12);
}

#[test]
fn mismatching_output_counts_as_failed() {
    let mut o = Outcome {
        attempted: 10,
        ..Outcome::default()
    };
    assert_eq!(failed_frac(&o), 0.0);
    o.fail_kind(3, 2, "output differs".into());
    assert!(!o.correct());
    assert!((failed_frac(&o) - 0.2).abs() < 1e-12);
}

#[test]
fn wrong_reference_fails_the_run() {
    let out = std::env::temp_dir().join(format!("perfbench-check-{}", std::process::id()));
    let run = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "compile",
            "--seed",
            "5",
            "--seconds",
            "0.2",
            "--trace",
            "1",
        ])
        .arg("--corrupt-reference")
        .arg("--out")
        .arg(&out)
        .output()
        .expect("runs");
    assert_eq!(run.status.code(), Some(1), "a failed check exits 1");
    let stdout = String::from_utf8_lossy(&run.stdout);
    let last = Json::parse(stdout.lines().last().expect("result line")).expect("json");
    assert_eq!(last.get("correct"), Some(&Json::Bool(false)));
    let attempted = last
        .get("attempted")
        .and_then(Json::as_u64)
        .expect("attempted");
    let failed = last.get("failed").and_then(Json::as_u64).expect("failed");
    assert!(
        attempted > 0 && failed == attempted,
        "{failed} of {attempted}"
    );
    let report =
        std::fs::read_to_string(out.join("compile-seed5-trace1.json")).expect("report written");
    let report = Json::parse(&report).expect("report json");
    let frac = report
        .get("failed_frac")
        .and_then(Json::as_f64)
        .expect("failed_frac");
    assert!(frac > 0.0);
    let _ = std::fs::remove_dir_all(&out);
}

#[test]
fn forbidden_environment_is_refused() {
    let run = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "compile",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .env("PSIM_JOBS", "1")
        .output()
        .expect("runs");
    assert_eq!(run.status.code(), Some(2));
    assert!(run.stdout.is_empty(), "no result is printed");
}

#[test]
fn metric_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("json");
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    };
    let e2e: Vec<String> = end_to_end("compile", &Outcome::default())
        .into_iter()
        .filter(|m| !perfbench::UNGATED.contains(&m.name))
        .map(|m| m.name.to_string())
        .collect();
    assert_eq!(names("end_to_end"), e2e);
    let layers: Vec<String> = perfbench::layers::LAYER_METRICS
        .iter()
        .map(|(n, _)| n.to_string())
        .collect();
    assert_eq!(names("per_layer"), layers);
}

/// `compile` replaces fuzz draws whose reference outputs hold a NaN,
/// because the default engine and the SPMD reference disagree on NaN
/// bits. This pins the disagreement on one such program: when it fails,
/// the engines agree and the replacement in `compile::references` can go.
#[test]
fn nan_bits_still_differ_between_engines() {
    use parsimony::{vectorize_module_with, PipelineOptions, VectorizeOptions};
    use perfbench::compile::{fuzz_unit, holds_nan, reference_outputs, vectorized_outputs};
    use vmach::{Target, TargetCost};

    let u = fuzz_unit(660_573_946_932_991_588);
    let scalar = psimc::compile(&u.source).expect("compiles");
    let want = reference_outputs(&scalar, &u).expect("reference runs");
    assert!(holds_nan(&u, &want));
    let out = vectorize_module_with(
        &scalar,
        &VectorizeOptions::default(),
        &PipelineOptions::default(),
    )
    .expect("vectorizes");
    let cost = TargetCost::for_target(Target::reference_default());
    let got = vectorized_outputs(&out.module, &u, &cost).expect("runs");
    assert_ne!(got, want, "the engines now agree on NaN bits");
}

/// Pins the vectorizer defect behind the fuzz draws `compile` and
/// `serve-mixed` replace: a region fails verification (a compare of
/// `<16 x i32>` with `<16 x i64>`) and, holding a horizontal operation,
/// cannot fall back to serial code. When this fails, the pipeline accepts
/// the program and the replacement can go.
#[test]
fn pipeline_still_refuses_fuzz_seed() {
    let u = perfbench::compile::fuzz_unit(3_882_141_172_837_595_020);
    let scalar = psimc::compile(&u.source).expect("compiles");
    assert!(
        perfbench::compile::pipeline_refuses(&scalar),
        "the pipeline now accepts it"
    );
}
