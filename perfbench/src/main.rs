//! `perfbench` — runs one workload of the repository benchmark.
//!
//! ```text
//! perfbench --workload compile|execute|serve-mixed|serve-shared|all
//!           --seed N --seconds S --trace 0|1
//!           [--out DIR] [--corrupt-reference]
//! ```
//!
//! Prints a readable report, then one JSON result line (the last line of
//! stdout). Writes the full report (run metadata, every metric, per-kernel
//! cycle rows, failures) and, when traced, the spans to `--out`
//! (default `perfbench/out`). Exit codes: 0 all outputs correct, 1 a failed
//! op or set-up failure, 2 usage or a forbidden environment variable.

use perfbench::{
    end_to_end, execute, forbidden_env_set, metric_entries, per_layer, result_line, Metric,
    Outcome, Params, UNGATED, WORKLOADS,
};
use std::path::{Path, PathBuf};
use telemetry::Json;

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {}|all --seed N --seconds S --trace 0|1 \
         [--out DIR] [--corrupt-reference]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

/// Commit of the checkout, when it is a git work tree.
fn git_commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown (not a git checkout)".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn run_workload(name: &str, p: &Params) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let ticks = perfbench::util::cpu_ticks();
    match name {
        "compile" => perfbench::compile::run(p, &mut out)?,
        "execute" => execute::run(p, &mut out)?,
        "serve-mixed" => perfbench::serve::run(p, perfbench::serve::Mix::Mixed, &mut out)?,
        "serve-shared" => perfbench::serve::run(p, perfbench::serve::Mix::Shared, &mut out)?,
        other => return Err(format!("unknown workload {other:?}")),
    }
    out.steal_frac = perfbench::util::steal_share(ticks, perfbench::util::cpu_ticks());
    if !p.trace && out.cycle_rows.is_empty() {
        // The cycle metrics are deterministic and workload-independent;
        // workloads whose timed loop runs no kernels compute them here,
        // off the clock.
        out.cycle_rows = execute::cycle_rows(execute::SIMD_N, suite::ispc::IspcSizes::default())?;
    }
    Ok(out)
}

fn report(name: &str, p: &Params, o: &Outcome, meta: &Json, out_dir: &Path) -> Vec<Metric> {
    let metrics = if p.trace {
        per_layer(o)
    } else {
        end_to_end(name, o)
    };
    println!(
        "workload {name}: attempted {} failed {} ({} ops counted, {:.3} s timed)",
        o.attempted,
        o.failed,
        o.ok_latencies_ms(None).len(),
        o.wall_s
    );
    for m in &metrics {
        println!(
            "  {:<28} {:>16} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit
        );
    }
    if !p.trace {
        println!("  peak RSS measured on: {}", o.rss_of);
    }
    if !o.input_mix.is_empty() {
        let mix: Vec<String> = o
            .input_mix
            .iter()
            .map(|(k, v)| format!("{k} {v:.4}"))
            .collect();
        println!("  input mix: {}", mix.join(", "));
    }
    if let Some(steal) = o.steal_frac {
        println!(
            "  host CPU time stolen by other guests: {:.1}%",
            steal * 100.0
        );
    }
    let held = o.held_shares();
    if !p.trace && o.segment_ticks.is_empty() {
        println!("  times as measured (not net of stolen CPU time)");
    } else if !p.trace {
        println!(
            "  times counted net of stolen CPU time; share of wanted CPU time held: \
             {:.1}% (median of {} segments)",
            perfbench::util::median(&held) * 100.0,
            held.len()
        );
    }
    for f in &o.failures {
        println!("  FAILED: {f}");
    }
    let rows = Json::Arr(
        o.cycle_rows
            .iter()
            .map(|r| {
                Json::obj(vec![
                    ("figure", Json::Str(r.figure.into())),
                    ("kernel", Json::Str(r.kernel.clone())),
                    ("config", Json::Str(r.config.into())),
                    ("cycles", Json::u64(r.cycles)),
                ])
            })
            .collect(),
    );
    let not_measured = Json::Obj(
        perfbench::layers::NOT_MEASURED
            .iter()
            .map(|(k, why)| (k.to_string(), Json::Str(why.to_string())))
            .collect(),
    );
    let doc = Json::obj(vec![
        ("meta", meta.clone()),
        ("workload", Json::Str(name.into())),
        ("trace", Json::Bool(p.trace)),
        ("correct", Json::Bool(o.correct())),
        ("attempted", Json::u64(o.attempted)),
        ("failed", Json::u64(o.failed)),
        (
            "failures",
            Json::Arr(o.failures.iter().cloned().map(Json::Str).collect()),
        ),
        (
            "setup_reps_s",
            Json::Arr(o.setup_s.iter().map(|&s| perfbench::num(s)).collect()),
        ),
        (
            "segments_s",
            Json::Arr(o.segments.iter().map(|&s| perfbench::num(s)).collect()),
        ),
        (
            "segment_ticks",
            Json::Arr(
                o.segment_ticks
                    .iter()
                    .map(|t| match t {
                        Some(t) => Json::obj(vec![
                            ("steal", Json::u64(t.steal)),
                            ("idle", Json::u64(t.idle)),
                            ("total", Json::u64(t.total)),
                        ]),
                        None => Json::Null,
                    })
                    .collect(),
            ),
        ),
        ("setup_held_share", perfbench::num(o.setup_held_share())),
        (
            "segment_held_share",
            Json::Arr(held.iter().map(|&h| perfbench::num(h)).collect()),
        ),
        (
            "failed_frac",
            perfbench::num(perfbench::layers::ratio(
                o.failed as f64,
                o.attempted as f64,
            )),
        ),
        ("peak_rss_of", Json::Str(o.rss_of.into())),
        (
            "steal_frac",
            perfbench::num(o.steal_frac.unwrap_or(f64::NAN)),
        ),
        ("metrics", Json::Obj(metric_entries(&metrics, ""))),
        (
            "input_mix",
            Json::Obj(
                o.input_mix
                    .iter()
                    .map(|&(k, v)| (k.to_string(), perfbench::num(v)))
                    .collect(),
            ),
        ),
        (
            "absent",
            Json::Arr(o.absent.iter().map(|s| Json::Str(s.to_string())).collect()),
        ),
        ("not_measured", not_measured),
        ("cycle_rows", rows),
        (
            "ops",
            Json::Arr(
                o.ops
                    .iter()
                    .map(|r| {
                        Json::Arr(vec![
                            Json::u64(u64::from(r.kind)),
                            Json::u64(r.nanos),
                            Json::u64(u64::from(r.segment)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let stem = format!("{name}-seed{}-trace{}", p.seed, u8::from(p.trace));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(out_dir)?;
        std::fs::write(
            out_dir.join(format!("{stem}.json")),
            doc.to_string_compact(),
        )?;
        if p.trace {
            let tracers: Vec<&perfbench::trace::Tracer> = o.tracers.iter().collect();
            perfbench::trace::write_spans(&out_dir.join(format!("{stem}.spans.jsonl")), &tracers)?;
        }
        Ok(())
    };
    if let Err(e) = write() {
        eprintln!(
            "perfbench: cannot write report to {}: {e}",
            out_dir.display()
        );
    }
    println!(
        "  report: {}",
        out_dir.join(format!("{stem}.json")).display()
    );
    metrics
        .into_iter()
        .filter(|m| !UNGATED.contains(&m.name))
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out_dir = PathBuf::from("perfbench/out");
    let mut corrupt_reference = false;
    let mut i = 0;
    while i < args.len() {
        let val = || {
            args.get(i + 1)
                .cloned()
                .unwrap_or_else(|| usage("missing value"))
        };
        match args[i].as_str() {
            "--workload" => workload = Some(val()),
            "--seed" => seed = Some(val().parse::<u64>().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    val()
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .unwrap_or_else(|| usage("bad --seconds")),
                );
            }
            "--trace" => {
                trace = Some(match val().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                });
            }
            "--out" => out_dir = PathBuf::from(val()),
            "--corrupt-reference" => corrupt_reference = true,
            other => usage(&format!("unknown argument {other:?}")),
        }
        i += if args[i] == "--corrupt-reference" {
            1
        } else {
            2
        };
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage("--workload, --seed, --seconds and --trace are required");
    };
    let names: Vec<&str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else if WORKLOADS.contains(&workload.as_str()) {
        vec![workload.as_str()]
    } else {
        usage(&format!("unknown workload {workload:?}"));
    };
    let forbidden = forbidden_env_set();
    if !forbidden.is_empty() {
        usage(&format!(
            "refusing to run with {} set: it would change the program under test",
            forbidden.join(", ")
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The daemon is built next to this binary (see run.py).
    let serve_bin = std::env::current_exe()
        .unwrap_or_default()
        .with_file_name(format!("psim-serve{}", std::env::consts::EXE_SUFFIX));
    let p = Params {
        seed,
        seconds,
        trace,
        corrupt_reference,
        serve_bin,
        nproc,
    };
    let meta = Json::obj(vec![
        ("seed", Json::u64(seed)),
        ("seconds", perfbench::num(seconds)),
        ("nproc", Json::u64(nproc as u64)),
        ("toolchain", Json::Str(env!("PERFBENCH_RUSTC").into())),
        ("commit", Json::Str(git_commit())),
    ]);
    println!("perfbench {}", meta.to_string_compact());

    let mut total = Outcome::default();
    let mut gated = Vec::new();
    for name in &names {
        let o = match run_workload(name, &p) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                std::process::exit(1);
            }
        };
        total.attempted += o.attempted;
        total.failed += o.failed;
        let ms = report(name, &p, &o, &meta, &out_dir);
        // A combined run qualifies each metric with its workload.
        let prefix = if names.len() == 1 {
            String::new()
        } else {
            format!("{name}/")
        };
        gated.extend(metric_entries(&ms, &prefix));
    }
    println!("{}", result_line(&total, gated));
    if !total.correct() {
        std::process::exit(1);
    }
}
