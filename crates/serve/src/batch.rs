//! Admission-side request coalescing: the batching tier.
//!
//! Concurrent `run` requests whose [`batch_key`](crate::hashing::batch_key)
//! matches — same compiled module, entry function, gang configuration, and
//! budget triple — are grouped into one batch and run by a *single*
//! executor job. The batch executor
//! ([`ServeState::run_batch_with`](crate::ServeState::run_batch_with))
//! resolves the shared plan once and runs the members back-to-back on one
//! pre-warmed interpreter arena, amortizing cache lookups, plan
//! resolution, memory-map churn, and per-job dispatch across the batch.
//!
//! Group commit, as in a database log: the coalescer keeps one pending
//! member list per key. The first request for a key with no pending list
//! asks its caller to schedule one *drain* job ([`Coalescer::push`]
//! returns `true`); later same-key arrivals just join the list. The
//! worker that runs the drain takes up to `max_batch` members
//! ([`Coalescer::take`]); if members remain, the caller schedules the
//! next drain before running its batch. An idle server therefore adds no
//! wait at all, and under load a batch is exactly the backlog that piled
//! up while the workers were busy. A refused or aborted drain hands every
//! member still pending under its key back to the caller
//! ([`Coalescer::take_all`]) to be answered.
//!
//! Invariant: a key has a pending list if and only if exactly one drain
//! for it is scheduled and has not yet taken its members. So every member
//! is drained exactly once, and no member waits on a drain that does not
//! exist.
//!
//! The coalescer is generic over the member payload so it can be unit
//! tested without sockets; the server instantiates it with its dispatch
//! bookkeeping (request, token, reply channel).

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Lifecycle-style telemetry for the batching tier, reported under
/// `"batch"` in the `stats` response.
#[derive(Default)]
pub struct BatchCounters {
    /// Batches taken by a drain (including singletons).
    pub batches_formed: AtomicU64,
    /// Total members across all batches (mean size = this /
    /// `batches_formed`).
    pub batched_requests: AtomicU64,
    /// Members that shared a batch with an earlier member instead of
    /// running alone (the requests the tier actually coalesced away).
    pub coalesced_requests: AtomicU64,
    /// Largest batch taken so far.
    pub max_batch_size: AtomicU64,
}

impl BatchCounters {
    fn note_batch(&self, size: usize) {
        self.batches_formed.fetch_add(1, Ordering::Relaxed);
        self.batched_requests
            .fetch_add(size as u64, Ordering::Relaxed);
        self.coalesced_requests
            .fetch_add(size as u64 - 1, Ordering::Relaxed);
        self.max_batch_size
            .fetch_max(size as u64, Ordering::Relaxed);
    }
}

/// The admission-side coalescer: pending member lists keyed by
/// [`batch_key`](crate::hashing::batch_key).
pub struct Coalescer<M> {
    max_batch: usize,
    pending: Mutex<HashMap<u64, VecDeque<M>>>,
    /// Telemetry (shared with the server's `stats` document).
    pub counters: BatchCounters,
}

impl<M> Coalescer<M> {
    /// A coalescer whose batches hold at most `max_batch` members
    /// (clamped to ≥ 1; 1 runs every request alone).
    pub fn new(max_batch: usize) -> Coalescer<M> {
        Coalescer {
            max_batch: max_batch.max(1),
            pending: Mutex::new(HashMap::new()),
            counters: BatchCounters::default(),
        }
    }

    /// The batch size cap.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<u64, VecDeque<M>>> {
        self.pending
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Queues `member` under `key`. Returns `true` when the key had no
    /// pending list: the caller must then schedule one drain for `key`
    /// (and, if the executor refuses it, answer [`Coalescer::take_all`]).
    /// `false` means a drain is already scheduled and will take the
    /// member.
    pub fn push(&self, key: u64, member: M) -> bool {
        match self.lock().entry(key) {
            Entry::Occupied(mut list) => {
                list.get_mut().push_back(member);
                false
            }
            Entry::Vacant(slot) => {
                slot.insert(VecDeque::from([member]));
                true
            }
        }
    }

    /// The drain step: takes up to `max_batch` members pending under
    /// `key`, in admission order. The flag is `true` when members remain;
    /// the caller must then schedule the next drain for `key` before
    /// running the batch. The batch is empty only when no list is
    /// pending under `key`, which the invariant rules out for a
    /// scheduled drain.
    pub fn take(&self, key: u64) -> (Vec<M>, bool) {
        let mut pending = self.lock();
        let Some(list) = pending.get_mut(&key) else {
            return (Vec::new(), false);
        };
        let n = list.len().min(self.max_batch);
        let batch: Vec<M> = list.drain(..n).collect();
        let more = !list.is_empty();
        if !more {
            pending.remove(&key);
        }
        drop(pending);
        self.counters.note_batch(batch.len());
        (batch, more)
    }

    /// Removes and returns every member pending under `key` — the answer
    /// set of a drain the executor refused or aborted.
    pub fn take_all(&self, key: u64) -> Vec<M> {
        self.lock().remove(&key).map(Vec::from).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn counter(c: &AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }

    #[test]
    fn singleton_is_drained_at_once() {
        let c: Coalescer<u32> = Coalescer::new(8);
        assert!(c.push(1, 7), "a lone request schedules its drain at once");
        assert_eq!(c.take(1), (vec![7], false), "and is its whole batch");
        assert_eq!(counter(&c.counters.batches_formed), 1);
        assert_eq!(counter(&c.counters.coalesced_requests), 0);
        assert!(c.lock().is_empty(), "nothing stays pending");
    }

    #[test]
    fn first_push_schedules_and_leftovers_go_to_a_later_drain() {
        let c: Coalescer<u32> = Coalescer::new(2);
        assert!(c.push(1, 10), "first member schedules the drain");
        assert!(!c.push(1, 11), "later members join the pending list");
        assert!(!c.push(1, 12));
        assert_eq!(c.take(1), (vec![10, 11], true), "capped; one left over");
        assert_eq!(c.take(1), (vec![12], false), "the next drain takes it");
        assert!(c.push(1, 13), "an emptied key schedules afresh");
        assert_eq!(c.take(1), (vec![13], false));
        assert_eq!(counter(&c.counters.batches_formed), 3);
        assert_eq!(counter(&c.counters.batched_requests), 4);
        assert_eq!(counter(&c.counters.coalesced_requests), 1);
        assert_eq!(counter(&c.counters.max_batch_size), 2);
    }

    #[test]
    fn distinct_keys_never_coalesce() {
        let c: Coalescer<u32> = Coalescer::new(8);
        assert!(c.push(1, 10));
        assert!(c.push(2, 20), "another key needs its own drain");
        assert_eq!(c.take(2), (vec![20], false));
        assert_eq!(c.take(1), (vec![10], false));
        assert_eq!(counter(&c.counters.coalesced_requests), 0);
    }

    #[test]
    fn refusal_takes_every_pending_member_and_resets_the_key() {
        let c: Coalescer<u32> = Coalescer::new(4);
        assert!(c.push(5, 1));
        assert!(!c.push(5, 2));
        assert_eq!(c.take_all(5), vec![1, 2]);
        assert_eq!(c.take(5), (Vec::new(), false), "nothing left to drain");
        assert!(c.push(5, 3), "the next arrival schedules a new drain");
        assert_eq!(counter(&c.counters.batches_formed), 0);
    }

    /// Many producers race one draining "executor" thread: every member
    /// is drained exactly once, no batch exceeds the cap, and leftovers
    /// past `max_batch` are always drained by a later job.
    #[test]
    fn each_member_is_drained_exactly_once_under_concurrency() {
        const PRODUCERS: usize = 4;
        const PER: usize = 500;
        let c: Coalescer<usize> = Coalescer::new(3);
        let (jobs_tx, jobs_rx) = mpsc::channel::<u64>();
        let mut seen = std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let (c, jobs_tx) = (&c, jobs_tx.clone());
                s.spawn(move || {
                    for i in 0..PER {
                        let key = (i % 3) as u64;
                        if c.push(key, p * PER + i) {
                            jobs_tx.send(key).unwrap();
                        }
                    }
                });
            }
            drop(jobs_tx);
            // Follow-up drains queue behind the scheduled ones, as on the
            // executor.
            let mut requeued = VecDeque::new();
            let mut seen = Vec::new();
            while let Some(key) = requeued.pop_front().or_else(|| jobs_rx.recv().ok()) {
                let (batch, more) = c.take(key);
                assert!(!batch.is_empty(), "a scheduled drain finds members");
                assert!(batch.len() <= 3, "batch over the cap: {}", batch.len());
                if more {
                    requeued.push_back(key);
                }
                seen.extend(batch);
            }
            seen
        });
        seen.sort_unstable();
        assert_eq!(seen, (0..PRODUCERS * PER).collect::<Vec<_>>());
        assert_eq!(
            counter(&c.counters.batched_requests),
            (PRODUCERS * PER) as u64
        );
        assert!(c.lock().is_empty(), "no member left pending");
    }
}
