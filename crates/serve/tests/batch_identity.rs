//! Property tests for the batching tier's core contract: coalescing is
//! byte-invisible. Random interleavings of fuzz-corpus requests served
//! through a batching server must be byte-identical to uncached
//! single-shot runs, a member that exhausts its `RunBudget` must detach
//! to a structured error without poisoning other batches, and a member
//! cancelled at the worst moment (chaos `batch:member_cancel`, right
//! after its drain took the batch) must not perturb its batchmates'
//! bytes.
//!
//! Batches form from the backlog that piles up while the workers are
//! busy, so every test runs a one-worker server and keeps that worker
//! busy: with a slow request, or with the `worker:delay` chaos site.

mod common;

use common::{hold_worker, stat, stats};
use psim_serve::servebench::{corpus_items, default_corpus_dir};
use psim_serve::{serve_tcp, single_shot, ChaosSpec, Client, Response, ServeOptions};
use std::time::Duration;

/// Deterministic pseudo-random stream (FNV-1a over the words): the
/// interleavings are random-looking but reproducible across runs.
fn fnv(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn random_interleavings_of_batched_runs_match_single_shot() {
    let items = corpus_items(&default_corpus_dir()).expect("corpus");
    let items: Vec<_> = items.into_iter().take(8).collect();
    let expected: Vec<String> = items
        .iter()
        .map(|it| {
            single_shot(&it.req)
                .expect("single-shot reference")
                .identity()
        })
        .collect();

    // Every drain waits a little before taking its batch, so the other
    // clients' requests pile up; a cap of 2 also sends leftovers to later
    // drains.
    let opts = ServeOptions {
        workers: 1,
        max_batch: 2,
        chaos: Some(ChaosSpec::parse("worker:delay").expect("chaos spec")),
        ..ServeOptions::default()
    };
    let server = serve_tcp("127.0.0.1:0", &opts).expect("bind");
    let addr = server.addr.clone();

    const CLIENTS: u64 = 4;
    const REQUESTS: u64 = 16;
    std::thread::scope(|s| {
        for cid in 0..CLIENTS {
            let addr = &addr;
            let items = &items;
            let expected = &expected;
            s.spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                for k in 0..REQUESTS {
                    let pick = (fnv(&[7, cid, k]) % items.len() as u64) as usize;
                    let mut req = items[pick].req.clone();
                    req.id = (cid << 32) | k;
                    let resp = c.run(req).expect("run");
                    let Response::Ok(ok) = resp else {
                        panic!("client {cid} req {k} ({}): {resp:?}", items[pick].name)
                    };
                    assert_eq!(ok.id, (cid << 32) | k, "response routed to its request");
                    assert_eq!(
                        ok.identity(),
                        expected[pick],
                        "{}: batched response differs from single-shot",
                        items[pick].name
                    );
                    // Vary the phase between clients so some submissions
                    // coalesce and others run alone.
                    if fnv(&[11, cid, k]).is_multiple_of(3) {
                        std::thread::sleep(Duration::from_millis(fnv(&[13, cid, k]) % 4));
                    }
                }
            });
        }
    });
    let stats = stats(&addr);
    assert_eq!(
        stat(&stats, &["batch", "batched_requests"]),
        CLIENTS * REQUESTS,
        "every request was drained exactly once"
    );
    assert!(
        stat(&stats, &["batch", "coalesced_requests"]) >= 1,
        "some requests shared a batch: {stats:?}"
    );
    assert!(stat(&stats, &["batch", "max_batch_size"]) <= 2, "cap held");
    server.shutdown();
}

#[test]
fn budget_exhausted_requests_get_their_own_batch_and_poison_nothing() {
    let items = corpus_items(&default_corpus_dir()).expect("corpus");
    let base = &items.first().expect("non-empty corpus").req;
    let expected = single_shot(base).expect("single-shot reference").identity();

    let opts = ServeOptions {
        workers: 1,
        max_batch: 2,
        ..ServeOptions::default()
    };
    let server = serve_tcp("127.0.0.1:0", &opts).expect("bind");
    let addr = server.addr.clone();

    // Behind the held worker, two identical requests coalesce; a third
    // with a tiny step budget has a different batch key (budgets are part
    // of it), so it forms its own singleton batch and exhausts alone.
    let held = hold_worker(&addr, 1000);
    std::thread::scope(|s| {
        let normal = |id: u64| {
            let addr = addr.clone();
            let mut req = base.clone();
            req.id = id;
            s.spawn(move || {
                Client::connect(&addr)
                    .expect("connect")
                    .run(req)
                    .expect("run")
            })
        };
        let a = normal(1);
        let b = normal(2);
        let starved = {
            let addr = addr.clone();
            let mut req = base.clone();
            req.id = 3;
            req.max_steps = 4;
            s.spawn(move || {
                Client::connect(&addr)
                    .expect("connect")
                    .run(req)
                    .expect("run")
            })
        };
        for h in [a, b] {
            let resp = h.join().expect("client thread");
            let Response::Ok(ok) = resp else {
                panic!("batched run failed: {resp:?}")
            };
            assert_eq!(
                ok.identity(),
                expected,
                "batchmates unharmed, byte-identical"
            );
        }
        let resp = starved.join().expect("client thread");
        assert!(
            matches!(resp, Response::ResourceExhausted { .. }),
            "tiny step budget must exhaust, got {resp:?}"
        );
    });
    let held = held.join().expect("held client");
    assert!(
        matches!(held, Response::DeadlineExceeded { .. }),
        "{held:?}"
    );
    let counters = stats(&addr);
    // The held run, the coalesced pair, the starved singleton.
    assert_eq!(stat(&counters, &["batch", "batches_formed"]), 3);
    assert_eq!(stat(&counters, &["batch", "coalesced_requests"]), 1);
    assert_eq!(stat(&counters, &["batch", "max_batch_size"]), 2);

    // The server stays healthy after the exhausted batch.
    let mut c = Client::connect(&server.addr).expect("connect");
    let mut req = base.clone();
    req.id = 4;
    let Response::Ok(ok) = c.run(req).expect("follow-up run") else {
        panic!("server unhealthy after exhausted batch")
    };
    assert_eq!(ok.identity(), expected);
    server.shutdown();
}

#[test]
fn chaos_cancelled_member_detaches_without_poisoning_its_batchmate() {
    let items = corpus_items(&default_corpus_dir()).expect("corpus");
    let base = &items.first().expect("non-empty corpus").req;
    let expected = single_shot(base).expect("single-shot reference").identity();

    // Once a drain takes its batch, the first member's token is cancelled
    // as if its client had disconnected. The chaos fires on every batch,
    // a held run included, so the worker cannot be held; instead several
    // clients keep sending the same request to the one worker, and the
    // ones that arrive while it runs a batch pile up into the next.
    let opts = ServeOptions {
        workers: 1,
        chaos: Some(ChaosSpec::parse("batch:member_cancel").expect("chaos spec")),
        ..ServeOptions::default()
    };
    let server = serve_tcp("127.0.0.1:0", &opts).expect("bind");
    const CLIENTS: u64 = 6;
    const REQUESTS: u64 = 20;
    let responses: Vec<Response> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|cid| {
                let addr = &server.addr;
                s.spawn(move || {
                    let mut c = Client::connect(addr).expect("connect");
                    (0..REQUESTS)
                        .map(|k| {
                            let mut req = base.clone();
                            req.id = cid * REQUESTS + k;
                            c.run(req).expect("run")
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });

    // Exactly one member per batch detaches to `cancelled`; every other
    // member is served, byte-identical to single-shot.
    let batches = stat(&stats(&server.addr), &["batch", "batches_formed"]);
    let cancelled = responses
        .iter()
        .filter(|r| matches!(r, Response::Cancelled { .. }))
        .count() as u64;
    let ok: Vec<_> = responses
        .iter()
        .filter_map(|r| match r {
            Response::Ok(ok) => Some(ok),
            _ => None,
        })
        .collect();
    assert_eq!(
        cancelled + ok.len() as u64,
        CLIENTS * REQUESTS,
        "only `cancelled` and `ok` replies: {responses:?}"
    );
    assert_eq!(cancelled, batches, "one cancelled member per batch");
    assert!(!ok.is_empty(), "no batch ever held a second member");
    for ok in ok {
        assert_eq!(
            ok.identity(),
            expected,
            "a surviving batchmate is byte-identical to single-shot"
        );
    }
    server.shutdown();
}
