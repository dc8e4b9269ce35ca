//! Helpers shared by the daemon's socket-level tests (`server_e2e`,
//! `batch_identity`).

use psim_serve::{Client, Request, Response, RunRequest};
use std::time::{Duration, Instant};

/// A kernel long enough (one gang, 20M iterations) that deadline and
/// cancellation tests can rely on it still running when they act; it is
/// only ever run to completion if the machinery under test is broken.
pub const VERY_SLOW_SRC: &str = "
void main(f32* restrict out, i64 n) {
  psim gang(8) threads(n) {
    i64 i = psim_thread_num();
    f32 x = (f32) i;
    i64 it = 0;
    while (it < 20000000) {
      x = x * 1.000001 + 0.5;
      it += 1;
    }
    out[i] = x;
  }
}
";

/// A request with a single output buffer (for the out-only slow kernels).
pub fn out_only_req(id: u64, src: &str, n: u64) -> RunRequest {
    let mut r = RunRequest::new(id, src, n);
    r.buffers = vec![suite::BufSpec {
        elem: psir::ScalarTy::F32,
        len: n,
        init: suite::Init::Zero,
        check: true,
    }];
    r
}

/// One pull of the server's `stats` document.
pub fn stats(addr: &str) -> telemetry::Json {
    let mut c = Client::connect(addr).expect("connect probe");
    match c.request(&Request::Stats { id: 1 }).expect("stats") {
        Response::Stats { stats, .. } => stats,
        other => panic!("expected stats, got {other:?}"),
    }
}

/// A numeric field of the `stats` document, by path.
pub fn stat(stats: &telemetry::Json, path: &[&str]) -> u64 {
    let mut j = stats;
    for key in path {
        j = j
            .get(key)
            .unwrap_or_else(|| panic!("stats.{path:?} missing"));
    }
    j.as_u64()
        .unwrap_or_else(|| panic!("stats.{path:?} not a number"))
}

/// Waits until the server's executor holds at least `n` pending jobs.
pub fn wait_pending(addr: &str, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while stat(&stats(addr), &["admission", "pending"]) < n {
        assert!(Instant::now() < deadline, "jobs never admitted");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Keeps a one-worker server's only worker busy for about `ms`: a run of
/// the very slow kernel under that deadline. Returns once the run's
/// drain is queued, so requests sent afterwards pile up behind it.
pub fn hold_worker(addr: &str, ms: u64) -> std::thread::JoinHandle<Response> {
    let held = {
        let addr = addr.to_string();
        std::thread::spawn(move || {
            let mut r = out_only_req(1 << 20, VERY_SLOW_SRC, 8);
            r.deadline_ms = ms;
            Client::connect(&addr)
                .expect("connect")
                .run(r)
                .expect("held run")
        })
    };
    wait_pending(addr, 1);
    held
}
