//! Small shared helpers: the seeded generator, order statistics, output
//! fingerprints, and resident-memory probes.

use psim_serve::hashing::fnv1a;

pub use psim_fuzz::rng::Rng;

/// The generator for one purpose (`stream`) of a run's `seed`, so that
/// independent draws from one seed do not overlap. The starting state is a
/// hash of both: SplitMix64 steps its state by a fixed increment, so two
/// states that differ by a small multiple of it (as `seed ^ stream * k`
/// can) give the same sequence shifted by a few draws.
pub fn rng(seed: u64, stream: u64) -> Rng {
    let mut key = [0u8; 16];
    key[..8].copy_from_slice(&seed.to_le_bytes());
    key[8..].copy_from_slice(&stream.to_le_bytes());
    Rng::new(fnv1a(&key))
}

/// Uniform in `[0, 1)`.
pub fn unit(rng: &mut Rng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut Rng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

/// Nearest-rank percentile of an ascending slice (`p` in percent).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median of the values (any order).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Candidate tail percentiles, highest first.
const TAIL_PERCENTILES: [f64; 7] = [99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0];

/// The highest candidate percentile with at least ten samples beyond it,
/// and its value. With fewer than eleven samples it degrades to the median.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    for p in TAIL_PERCENTILES {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if n >= rank + 10 {
            return (p, percentile(sorted, p));
        }
    }
    (50.0, percentile(sorted, 50.0))
}

/// Fingerprint of a sequence of output buffers (FNV-1a of each buffer's
/// bytes, then of the per-buffer hashes).
pub fn fingerprint<'a>(bufs: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let words: Vec<u8> = bufs
        .into_iter()
        .flat_map(|b| fnv1a(b).to_le_bytes())
        .collect();
    fnv1a(&words)
}

/// Peak resident set (`VmHWM`) of `pid`, or of this process, in MiB.
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU ticks summed over all CPUs, from `/proc/stat`: a running count, or
/// the difference of two counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ticks {
    /// Time the hypervisor gave to other guests while a CPU had work.
    pub steal: u64,
    /// Time with nothing to run (idle and I/O wait).
    pub idle: u64,
    /// All time.
    pub total: u64,
}

impl Ticks {
    /// The ticks between `earlier` and `self`.
    pub fn since(self, earlier: Ticks) -> Ticks {
        Ticks {
            steal: self.steal.saturating_sub(earlier.steal),
            idle: self.idle.saturating_sub(earlier.idle),
            total: self.total.saturating_sub(earlier.total),
        }
    }

    /// The ticks of `self` and `other` together.
    pub fn plus(self, other: Ticks) -> Ticks {
        Ticks {
            steal: self.steal + other.steal,
            idle: self.idle + other.idle,
            total: self.total + other.total,
        }
    }

    /// Share of all CPU time stolen.
    pub fn steal_share(self) -> Option<f64> {
        (self.total > 0).then(|| self.steal as f64 / self.total as f64)
    }

    /// Share of the CPU time this machine wanted (time not idle) that the
    /// hypervisor gave it: its busy time over busy plus stolen time. 1 when
    /// it wanted none.
    pub fn held_share(self) -> f64 {
        let wanted = self.total.saturating_sub(self.idle);
        if wanted == 0 {
            1.0
        } else {
            wanted.saturating_sub(self.steal) as f64 / wanted as f64
        }
    }
}

/// The current [`Ticks`] count.
pub fn cpu_ticks() -> Option<Ticks> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = text
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some(Ticks {
        steal: *ticks.get(7)?,
        idle: ticks.get(3)? + ticks.get(4)?,
        total: ticks.iter().sum(),
    })
}

/// The ticks between two [`cpu_ticks`] samples.
pub fn ticks_between(before: Option<Ticks>, after: Option<Ticks>) -> Option<Ticks> {
    Some(after?.since(before?))
}

/// Share of CPU time between two [`cpu_ticks`] samples that the hypervisor
/// gave to other guests. A run with a high share measures a busy host, not
/// the program; the report records it so such runs can be recognized.
pub fn steal_share(before: Option<Ticks>, after: Option<Ticks>) -> Option<f64> {
    ticks_between(before, after)?.steal_share()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 990.0));
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v), (95.0, 190.0));
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail(&v).0, 50.0);
    }

    #[test]
    fn streams_are_seeded() {
        let draw = |seed, stream| {
            let mut r = rng(seed, stream);
            [r.next_u64(), r.next_u64()]
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
    }

    #[test]
    fn neighbouring_streams_share_no_draws() {
        for seed in 1..=100 {
            let mut seen = std::collections::HashSet::new();
            for stream in [1, 2, 3, 4, 5, 100, 101, 200, 201] {
                let mut r = rng(seed, stream);
                for _ in 0..500 {
                    assert!(seen.insert(r.next_u64()), "seed {seed} stream {stream}");
                }
            }
        }
    }

    #[test]
    fn held_share_is_busy_over_wanted_time() {
        let t = |steal, idle| Ticks {
            steal,
            idle,
            total: 200,
        };
        // 100 ticks wanted (not idle), 20 of them stolen.
        assert_eq!(t(20, 100).held_share(), 0.8);
        assert_eq!(t(0, 50).held_share(), 1.0);
        assert_eq!(t(0, 200).held_share(), 1.0, "nothing wanted");
        assert_eq!(t(20, 100).plus(t(0, 100)).held_share(), 0.9);
    }

    #[test]
    fn fingerprint_sees_buffer_boundaries() {
        assert_ne!(
            fingerprint([&b"ab"[..], b"c"]),
            fingerprint([&b"a"[..], b"bc"])
        );
    }
}
