//! End-to-end tests of the daemon over real sockets: protocol liveness,
//! cache behavior across a connection, error recovery, explicit
//! backpressure, graceful shutdown, and group-commit batching.

mod common;

use common::{hold_worker, out_only_req, stat, wait_pending, VERY_SLOW_SRC};
use psim_serve::{serve_tcp, serve_unix, Client, Request, Response, RunRequest, ServeOptions};
use std::time::{Duration, Instant};

const SRC: &str = "
void main(f32* restrict a, f32* restrict out, i64 n) {
  psim gang(8) threads(n) {
    i64 i = psim_thread_num();
    out[i] = a[i] * 3.0 - 1.0;
  }
}
";

/// A deliberately slow kernel (a long data-independent loop) used to hold
/// the single worker busy while backpressure is probed.
const SLOW_SRC: &str = "
void main(f32* restrict out, i64 n) {
  psim gang(8) threads(n) {
    i64 i = psim_thread_num();
    f32 x = (f32) i;
    i64 it = 0;
    while (it < 200000) {
      x = x * 1.000001 + 0.5;
      it += 1;
    }
    out[i] = x;
  }
}
";

fn basic_req(id: u64) -> RunRequest {
    let mut r = RunRequest::new(id, SRC, 128);
    r.buffers = vec![
        suite::BufSpec {
            elem: psir::ScalarTy::F32,
            len: 128,
            init: suite::Init::RandomF32 {
                seed: 3,
                lo: -2.0,
                hi: 2.0,
            },
            check: false,
        },
        suite::BufSpec {
            elem: psir::ScalarTy::F32,
            len: 128,
            init: suite::Init::Zero,
            check: true,
        },
    ];
    r
}

#[test]
fn tcp_session_ping_run_hit_and_stats() {
    let server = serve_tcp("127.0.0.1:0", &ServeOptions::default()).expect("bind");
    let mut c = Client::connect(&server.addr).expect("connect");
    assert_eq!(c.ping(1).expect("ping"), telemetry::cli::PROTOCOL_VERSION);

    let Response::Ok(cold) = c.run(basic_req(10)).expect("cold run") else {
        panic!("cold run failed")
    };
    assert_eq!(cold.id, 10);
    assert!(!cold.cache.module_hit);
    assert!(!cold.outputs.is_empty());

    let Response::Ok(hot) = c.run(basic_req(11)).expect("hot run") else {
        panic!("hot run failed")
    };
    assert_eq!(hot.id, 11);
    assert!(hot.cache.module_hit, "second submission hits the cache");
    assert_eq!(hot.identity(), cold.identity(), "hit is byte-identical");
    assert_eq!(hot.compile_nanos, 0);

    let Response::Stats { stats, .. } = c.request(&Request::Stats { id: 12 }).expect("stats")
    else {
        panic!("stats failed")
    };
    let hits = stats
        .get("module_cache")
        .and_then(|m| m.get("hits"))
        .and_then(telemetry::Json::as_u64)
        .expect("module_cache.hits");
    assert_eq!(hits, 1);
    server.shutdown();
}

#[test]
fn unix_socket_serves_the_same_protocol() {
    let path = std::env::temp_dir().join(format!("psim-serve-test-{}.sock", std::process::id()));
    let path_str = path.to_string_lossy().into_owned();
    let server = serve_unix(&path_str, &ServeOptions::default()).expect("bind unix");
    // The TCP client only speaks TCP; talk to the Unix socket directly.
    use std::io::{BufRead, BufReader, Write};
    let stream = std::os::unix::net::UnixStream::connect(&path).expect("connect unix");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let line = Request::Ping { id: 5 }.to_json().to_string_compact();
    writer.write_all(line.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.flush().unwrap();
    let mut buf = String::new();
    reader.read_line(&mut buf).unwrap();
    let Response::Pong { id, protocol } = Response::parse(buf.trim_end()).expect("parse") else {
        panic!("expected pong, got {buf}")
    };
    assert_eq!((id, protocol), (5, telemetry::cli::PROTOCOL_VERSION));
    drop(writer);
    server.shutdown();
    assert!(!path.exists(), "socket file cleaned up on shutdown");
}

#[test]
fn malformed_and_failing_requests_keep_the_connection_usable() {
    let server = serve_tcp("127.0.0.1:0", &ServeOptions::default()).expect("bind");
    let mut c = Client::connect(&server.addr).expect("connect");

    // Malformed line → error response, connection survives.
    use std::io::{BufRead, BufReader, Write};
    let stream = std::net::TcpStream::connect(&server.addr).expect("raw connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writer.write_all(b"this is not json\n").unwrap();
    writer.flush().unwrap();
    let mut buf = String::new();
    reader.read_line(&mut buf).unwrap();
    let Response::Error { id, message } = Response::parse(buf.trim_end()).expect("parse") else {
        panic!("expected error, got {buf}")
    };
    assert_eq!(id, 0);
    assert!(message.contains("malformed"));
    // Same raw connection still serves a ping.
    let line = Request::Ping { id: 9 }.to_json().to_string_compact();
    writer.write_all(line.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.flush().unwrap();
    buf.clear();
    reader.read_line(&mut buf).unwrap();
    assert!(matches!(
        Response::parse(buf.trim_end()),
        Ok(Response::Pong { id: 9, .. })
    ));

    // A compile failure is an error response, and the next run succeeds.
    let mut bad = basic_req(20);
    bad.source = "void main( {".into();
    let Response::Error { id, message } = c.run(bad).expect("send") else {
        panic!("expected error")
    };
    assert_eq!(id, 20);
    assert!(message.contains("compile"));
    assert!(matches!(c.run(basic_req(21)), Ok(Response::Ok(_))));
    server.shutdown();
}

#[test]
fn overload_yields_explicit_backpressure_then_recovers() {
    // One worker, pending bound 1: while the slow request executes, any
    // further run must be refused with `overloaded` (not queued, not
    // dropped).
    let opts = ServeOptions {
        workers: 1,
        queue_cap: 1,
        ..ServeOptions::default()
    };
    let server = serve_tcp("127.0.0.1:0", &opts).expect("bind");
    let addr = server.addr.clone();

    let slow = std::thread::spawn({
        let addr = addr.clone();
        move || {
            let mut c = Client::connect(&addr).expect("connect slow");
            let mut r = RunRequest::new(100, SLOW_SRC, 64);
            r.buffers = vec![suite::BufSpec {
                elem: psir::ScalarTy::F32,
                len: 64,
                init: suite::Init::Zero,
                check: true,
            }];
            c.run(r).expect("slow run")
        }
    });

    // Wait until the slow request is admitted.
    wait_pending(&addr, 1);
    let mut c = Client::connect(&addr).expect("connect probe");

    // The queue is full: this run is refused, explicitly.
    match c.run(basic_req(200)).expect("send during overload") {
        Response::Overloaded { id } => assert_eq!(id, 200),
        Response::Ok(_) => {
            // The slow request finished between the stats poll and our
            // submission — rare, but not a protocol violation. The
            // refusal path is separately pinned by the executor unit
            // tests; nothing more to assert here.
        }
        other => panic!("expected overloaded or ok, got {other:?}"),
    }

    let slow_resp = slow.join().expect("slow thread");
    assert!(matches!(slow_resp, Response::Ok(_)), "slow run completes");

    // Admission recovers: the same request is now served.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match c.run(basic_req(201)).expect("send after overload") {
            Response::Ok(ok) => {
                assert_eq!(ok.id, 201);
                break;
            }
            Response::Overloaded { .. } => {
                assert!(Instant::now() < deadline, "admission never recovered");
                std::thread::sleep(Duration::from_millis(5));
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    server.shutdown();
}

#[test]
fn client_initiated_shutdown_is_acknowledged() {
    let server = serve_tcp("127.0.0.1:0", &ServeOptions::default()).expect("bind");
    let addr = server.addr.clone();
    let mut c = Client::connect(&addr).expect("connect");
    let resp = c.request(&Request::Shutdown { id: 77 }).expect("shutdown");
    assert!(matches!(resp, Response::ShuttingDown { id: 77 }));
    server.join();
    // The listener is gone: new connections are refused (or reset).
    std::thread::sleep(Duration::from_millis(50));
    assert!(
        Client::connect(&addr).is_err() || {
            // Some platforms accept briefly; a ping must then fail.
            Client::connect(&addr).is_ok_and(|mut c| c.ping(1).is_err())
        },
        "server must stop accepting after shutdown"
    );
}

#[test]
fn concurrent_clients_share_one_module_compile() {
    let server = serve_tcp("127.0.0.1:0", &ServeOptions::default()).expect("bind");
    let addr = server.addr.clone();
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(&addr).expect("connect");
                let mut ids = Vec::new();
                for k in 0..3 {
                    let id = t * 100 + k;
                    match c.run(basic_req(id)).expect("run") {
                        Response::Ok(ok) => {
                            assert_eq!(ok.id, id, "response routed to its request");
                            ids.push(ok.identity());
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                }
                ids
            })
        })
        .collect();
    let all: Vec<Vec<String>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let first = &all[0][0];
    for ids in &all {
        for id in ids {
            assert_eq!(id, first, "every client sees one identical answer");
        }
    }
    let mut c = Client::connect(&addr).expect("connect");
    let Response::Stats { stats, .. } = c.request(&Request::Stats { id: 1 }).expect("stats") else {
        panic!("stats failed")
    };
    let misses = stats
        .get("module_cache")
        .and_then(|m| m.get("misses"))
        .and_then(telemetry::Json::as_u64)
        .expect("misses");
    let entries = stats
        .get("module_cache")
        .and_then(|m| m.get("entries"))
        .and_then(telemetry::Json::as_u64)
        .expect("entries");
    assert_eq!(entries, 1, "12 submissions share one compiled module");
    assert!(misses >= 1);
    server.shutdown();
}

fn lifecycle_counter(stats: &telemetry::Json, key: &str) -> u64 {
    stats
        .get("lifecycle")
        .and_then(|l| l.get(key))
        .and_then(telemetry::Json::as_u64)
        .unwrap_or(0)
}

#[test]
fn expired_deadline_is_a_structured_response_and_the_connection_survives() {
    let server = serve_tcp("127.0.0.1:0", &ServeOptions::default()).expect("bind");
    let mut c = Client::connect(&server.addr).expect("connect");
    let mut r = out_only_req(50, VERY_SLOW_SRC, 8);
    r.deadline_ms = 50;
    match c.run(r).expect("send") {
        Response::DeadlineExceeded { id } => assert_eq!(id, 50),
        other => panic!("expected deadline_exceeded, got {other:?}"),
    }
    // The connection stays usable and ordinary requests still succeed.
    assert!(matches!(c.run(basic_req(51)), Ok(Response::Ok(_))));
    let Response::Stats { stats, .. } = c.request(&Request::Stats { id: 52 }).expect("stats")
    else {
        panic!("stats failed")
    };
    assert!(lifecycle_counter(&stats, "deadline_exceeded") >= 1);
    server.shutdown();
}

#[test]
fn step_and_source_budgets_are_resource_exhausted_on_the_wire() {
    // Request-side tightening: a tiny step budget on a long-running
    // kernel.
    let server = serve_tcp("127.0.0.1:0", &ServeOptions::default()).expect("bind");
    let mut c = Client::connect(&server.addr).expect("connect");
    let mut r = out_only_req(60, SLOW_SRC, 64);
    r.max_steps = 1000;
    match c.run(r).expect("send") {
        Response::ResourceExhausted { id, what, detail } => {
            assert_eq!(id, 60);
            assert_eq!(what, "steps");
            assert!(detail.contains("1000"), "detail names the budget: {detail}");
        }
        other => panic!("expected resource_exhausted(steps), got {other:?}"),
    }
    // The response counters expose the typed rejection.
    let Response::Stats { stats, .. } = c.request(&Request::Stats { id: 61 }).expect("stats")
    else {
        panic!("stats failed")
    };
    assert!(lifecycle_counter(&stats, "resource_exhausted") >= 1);
    server.shutdown();

    // Server-side limit: a source-size cap refuses before compiling.
    let opts = ServeOptions {
        limits: psim_serve::ServeLimits {
            max_source_bytes: 16,
            ..psim_serve::ServeLimits::default()
        },
        ..ServeOptions::default()
    };
    let server = serve_tcp("127.0.0.1:0", &opts).expect("bind");
    let mut c = Client::connect(&server.addr).expect("connect");
    match c.run(basic_req(62)).expect("send") {
        Response::ResourceExhausted { id, what, .. } => {
            assert_eq!(id, 62);
            assert_eq!(what, "source_bytes");
        }
        other => panic!("expected resource_exhausted(source_bytes), got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn oversized_frame_is_refused_and_the_connection_closes() {
    let opts = ServeOptions {
        limits: psim_serve::ServeLimits {
            max_frame_bytes: 1024,
            ..psim_serve::ServeLimits::default()
        },
        ..ServeOptions::default()
    };
    let server = serve_tcp("127.0.0.1:0", &opts).expect("bind");
    use std::io::{BufRead, BufReader, Write};
    let stream = std::net::TcpStream::connect(&server.addr).expect("raw connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    // 3000 bytes of junk with no newline: an unresynchronizable
    // oversized frame. (Small enough to arrive in one loopback segment —
    // unread residue at close would RST the structured reply away.)
    writer.write_all(&vec![b'x'; 3000]).unwrap();
    writer.flush().unwrap();
    let mut buf = String::new();
    reader.read_line(&mut buf).unwrap();
    match Response::parse(buf.trim_end()).expect("parse") {
        Response::ResourceExhausted { id, what, .. } => {
            assert_eq!(id, 0, "no request id inside an unparsed frame");
            assert_eq!(what, "frame_bytes");
        }
        other => panic!("expected resource_exhausted(frame_bytes), got {other:?}"),
    }
    // After the structured refusal the server closes the connection.
    buf.clear();
    assert_eq!(reader.read_line(&mut buf).unwrap(), 0, "connection closed");
    server.shutdown();
}

#[test]
fn client_disconnect_mid_run_cancels_and_frees_the_worker() {
    let opts = ServeOptions {
        workers: 1,
        queue_cap: 4,
        ..ServeOptions::default()
    };
    let server = serve_tcp("127.0.0.1:0", &opts).expect("bind");
    // Fire a very slow run from a raw connection and immediately drop it.
    {
        use std::io::Write;
        let mut stream = std::net::TcpStream::connect(&server.addr).expect("raw connect");
        let line = Request::Run(Box::new(out_only_req(70, VERY_SLOW_SRC, 8)))
            .to_json()
            .to_string_compact();
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        stream.flush().unwrap();
        // Dropping the stream closes the socket: the dispatcher's probe
        // must notice and cancel the in-flight execution.
    }
    let mut c = Client::connect(&server.addr).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let Response::Stats { stats, .. } = c.request(&Request::Stats { id: 71 }).expect("stats")
        else {
            panic!("stats failed")
        };
        if lifecycle_counter(&stats, "cancelled") >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "disconnect never cancelled the in-flight run"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // The single worker is free again: a normal request is served.
    assert!(matches!(c.run(basic_req(72)), Ok(Response::Ok(_))));
    server.shutdown();
}

#[test]
fn shutdown_gives_inflight_and_queued_requests_structured_replies() {
    let opts = ServeOptions {
        workers: 1,
        queue_cap: 4,
        ..ServeOptions::default()
    };
    let server = serve_tcp("127.0.0.1:0", &opts).expect("bind");
    let addr = server.addr.clone();
    let spawn_run = |id: u64, n: u64| {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(&addr).expect("connect");
            c.run(out_only_req(id, VERY_SLOW_SRC, n)).expect("reply")
        })
    };
    // The first run will occupy the single worker. The second has another
    // `n`, hence another batch key, so it gets its own drain job, which
    // sits in the queue (a same-key run would join the first run's
    // pending list and share its job).
    let a = spawn_run(80, 8);
    let b = spawn_run(81, 16);

    // Wait until both are inside the pool (one executing, one queued).
    wait_pending(&addr, 2);
    server.shutdown();
    // Both the cancelled in-flight run and the aborted queued run get
    // explicit shutting_down replies — nothing hangs, nothing is dropped.
    for h in [a, b] {
        let resp = h.join().expect("client thread");
        assert!(
            matches!(resp, Response::ShuttingDown { .. }),
            "expected shutting_down, got {resp:?}"
        );
    }
}

#[test]
fn batching_coalesces_identical_runs_and_the_counters_move() {
    // One worker, held busy: same-key requests pile up in one pending
    // list behind it and are drained together when it frees up.
    let opts = ServeOptions {
        workers: 1,
        max_batch: 2,
        ..ServeOptions::default()
    };
    let server = serve_tcp("127.0.0.1:0", &opts).expect("bind");
    let expected = psim_serve::single_shot(&basic_req(0))
        .expect("single-shot reference")
        .identity();

    let held = hold_worker(&server.addr, 1000);
    let runs: Vec<_> = (2..5)
        .map(|id| {
            let addr = server.addr.clone();
            std::thread::spawn(move || {
                // A member no drain takes would wait forever: time out.
                let mut c =
                    Client::connect_with_timeout(&addr, Duration::from_secs(30)).expect("connect");
                (id, c.run(basic_req(id)).expect("batched run"))
            })
        })
        .collect();
    for h in runs {
        let (want, resp) = h.join().expect("client thread");
        let Response::Ok(ok) = resp else {
            panic!("batched run failed: {resp:?}")
        };
        assert_eq!(ok.id, want);
        assert_eq!(
            ok.identity(),
            expected,
            "batched response byte-identical to single-shot"
        );
    }
    let held = held.join().expect("held client");
    assert!(
        matches!(held, Response::DeadlineExceeded { .. }),
        "the held run ends at its deadline, got {held:?}"
    );

    let mut c0 = Client::connect(&server.addr).expect("connect");
    let Response::Stats { stats, .. } = c0.request(&Request::Stats { id: 90 }).expect("stats")
    else {
        panic!("stats failed")
    };
    let Some(telemetry::Json::Obj(fields)) = stats.get("batch") else {
        panic!("stats.batch missing")
    };
    let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        names,
        [
            "max_batch",
            "batches_formed",
            "batched_requests",
            "coalesced_requests",
            "max_batch_size"
        ],
        "stats.batch reports the cap and the four counters, nothing else"
    );
    assert_eq!(stat(&stats, &["batch", "max_batch"]), 2);
    // The held run alone, then two of the three piled-up runs (the cap),
    // then the leftover one in a later drain.
    assert_eq!(stat(&stats, &["batch", "batches_formed"]), 3);
    assert_eq!(stat(&stats, &["batch", "batched_requests"]), 4);
    assert_eq!(stat(&stats, &["batch", "coalesced_requests"]), 1);
    assert_eq!(stat(&stats, &["batch", "max_batch_size"]), 2);

    // A lone request on an idle server is drained at once as a
    // singleton batch: no timer holds it back waiting for a batchmate.
    let mut best = Duration::MAX;
    for id in 5..10 {
        let t = Instant::now();
        let Response::Ok(solo) = c0.run(basic_req(id)).expect("singleton run") else {
            panic!("singleton run failed")
        };
        best = best.min(t.elapsed());
        assert_eq!(solo.identity(), expected);
    }
    assert!(
        best < Duration::from_millis(200),
        "a lone request waited {best:?}"
    );
    let Response::Stats { stats, .. } = c0.request(&Request::Stats { id: 91 }).expect("stats")
    else {
        panic!("stats failed")
    };
    assert_eq!(stat(&stats, &["batch", "batches_formed"]), 8);
    assert_eq!(stat(&stats, &["batch", "coalesced_requests"]), 1);
    server.shutdown();
}

#[test]
fn interleaved_replies_never_cross_connections() {
    // One worker, two connections sending at once: one connection's
    // source is refused by the compiler, the other's runs. Every reply
    // must carry its own request's id and its own request's outcome.
    let opts = ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    };
    let server = serve_tcp("127.0.0.1:0", &opts).expect("bind");
    let expected = psim_serve::single_shot(&basic_req(0))
        .expect("single-shot reference")
        .identity();
    const ROUNDS: u64 = 40;
    const REFUSED_BASE: u64 = 1 << 40;
    std::thread::scope(|s| {
        let addr = &server.addr;
        let expected = &expected;
        s.spawn(move || {
            let mut c = Client::connect(addr).expect("connect");
            for k in 0..ROUNDS {
                let mut bad = basic_req(REFUSED_BASE + k);
                bad.source = "void main( {".into();
                match c.run(bad).expect("refused run") {
                    Response::Error { id, message } => {
                        assert_eq!(id, REFUSED_BASE + k, "error reply carries its own id");
                        assert!(message.contains("compile"), "its own outcome: {message}");
                    }
                    other => panic!("refused source {k} answered with {other:?}"),
                }
            }
        });
        s.spawn(move || {
            let mut c = Client::connect(addr).expect("connect");
            for k in 0..ROUNDS {
                match c.run(basic_req(k)).expect("valid run") {
                    Response::Ok(ok) => {
                        assert_eq!(ok.id, k, "ok reply carries its own id");
                        assert_eq!(&ok.identity(), expected, "its own outcome");
                    }
                    other => panic!("valid source {k} answered with {other:?}"),
                }
            }
        });
    });
    server.shutdown();
}
