//! Small helpers shared by the workloads: seed derivation, digests,
//! order statistics, and per-thread CPU and memory readings from `/proc`.

use std::collections::BTreeMap;
use std::time::Instant;

use aqua_obs::metrics::MetricsSnapshot;

/// SplitMix64: derives independent 64-bit seeds from the benchmark seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Incremental FNV-1a over 64-bit words.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The `q`-quantile of `values` by the nearest-rank rule (sorts in place).
/// `None` when empty.
pub fn quantile(values: &mut [f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    Some(values[rank.clamp(1, values.len()) - 1])
}

/// Median of `values` (mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// What [`reference_work`] took on the host the bounds were tuned on (a
/// 2-vCPU Intel Xeon VM).
const REFERENCE_WORK_S: f64 = 0.011;

/// A fixed, deterministic mix of allocation, sorting and tree inserts,
/// independent of the program under test. Its working set stays under
/// 0.5 MB, so it adds little to the peak RSS reported.
fn reference_work() -> u64 {
    let mut out = 0u64;
    for round in 0..6u64 {
        let mut v: Vec<u64> = (0..50_000u64)
            .map(|i| (i ^ round).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i >> 3))
            .collect();
        v.sort_unstable();
        let mut tree = BTreeMap::new();
        for x in v.iter().step_by(8) {
            *tree.entry(x % 3_000).or_insert(0u64) += x;
        }
        out = v.iter().fold(out ^ tree.len() as u64, |a, b| {
            a.wrapping_mul(31).wrapping_add(*b)
        });
    }
    out
}

/// The host's speed right now relative to the tuning host: the reference
/// time of [`reference_work`] over its measured time. The host's speed
/// drifts by ±25% within seconds (shared cores), so the simulators'
/// times and rates are scaled by a reading taken next to each
/// measurement; a program change moves them exactly as much as it moves
/// the raw figures.
pub fn host_speed() -> f64 {
    let t = Instant::now();
    std::hint::black_box(reference_work());
    REFERENCE_WORK_S / secs(t)
}

/// CPU time in nanoseconds a task (thread) of this process has run, from
/// the first field of its `schedstat`.
fn task_cpu_ns(tid: &str) -> u64 {
    read_first_u64(&format!("/proc/self/task/{tid}/schedstat"))
}

/// CPU time in nanoseconds the calling thread has run.
pub fn own_cpu_ns() -> u64 {
    read_first_u64("/proc/thread-self/schedstat")
}

fn read_first_u64(path: &str) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// The calling thread's id as `/proc/self/task` names it.
pub fn own_tid() -> String {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| Some(p.file_name()?.to_string_lossy().into_owned()))
        .unwrap_or_default()
}

/// Every live thread of this process: tid → (name, CPU ns so far).
pub fn threads() -> BTreeMap<String, (String, u64)> {
    let mut out = BTreeMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let tid = entry.file_name().to_string_lossy().into_owned();
        let name = std::fs::read_to_string(format!("/proc/self/task/{tid}/comm"))
            .map(|s| s.trim().to_owned())
            .unwrap_or_default();
        let cpu = task_cpu_ns(&tid);
        out.insert(tid, (name, cpu));
    }
    out
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))?
                .split_whitespace()
                .nth(1)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sum of a counter over all its label sets.
pub fn counter_total(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .filter(|(k, _)| k.name == name)
        .map(|(_, v)| *v)
        .sum()
}

/// A counter's value for the label set containing `label`.
pub fn counter_with(snap: &MetricsSnapshot, name: &str, label: (&str, &str)) -> u64 {
    snap.counters
        .iter()
        .filter(|(k, _)| {
            k.name == name && k.labels.iter().any(|(a, b)| a == label.0 && b == label.1)
        })
        .map(|(_, v)| *v)
        .sum()
}

/// A histogram's buckets (upper bound → count) merged over label sets.
pub fn histogram_buckets(snap: &MetricsSnapshot, name: &str) -> BTreeMap<u64, u64> {
    let mut out = BTreeMap::new();
    for (_, h) in snap.histograms.iter().filter(|(k, _)| k.name == name) {
        for b in &h.buckets {
            *out.entry(b.upper_bound).or_insert(0) += b.count;
        }
    }
    out
}

/// The buckets of `after` minus those of `before`: what was recorded
/// between the two snapshots.
pub fn bucket_delta(after: &BTreeMap<u64, u64>, before: &BTreeMap<u64, u64>) -> BTreeMap<u64, u64> {
    after
        .iter()
        .map(|(bound, n)| (*bound, n - before.get(bound).copied().unwrap_or(0)))
        .filter(|(_, n)| *n > 0)
        .collect()
}

/// The `q`-quantile of bucketed observations, interpolated linearly
/// within the bucket that holds it. 0 when empty.
pub fn bucket_quantile(buckets: &BTreeMap<u64, u64>, q: f64) -> f64 {
    let total: u64 = buckets.values().sum();
    let rank = (q * total as f64).max(1.0);
    let mut seen = 0.0;
    for (upper, n) in buckets {
        let n = *n as f64;
        if seen + n >= rank {
            let lower = bucket_lower_bound(*upper) as f64;
            let width = *upper as f64 + 1.0 - lower;
            return lower + width * (rank - seen) / n;
        }
        seen += n;
    }
    0.0
}

/// Inclusive lower bound of the `aqua-obs` histogram bucket whose
/// inclusive upper bound is `upper`: values below 16 have exact buckets,
/// and each power of two above is split into 16 equal buckets.
fn bucket_lower_bound(upper: u64) -> u64 {
    if upper < 16 {
        upper
    } else {
        let exp = 63 - upper.leading_zeros();
        upper + 1 - (1u64 << (exp - 4))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), Some(50.0));
        assert_eq!(quantile(&mut v, 0.99), Some(99.0));
        assert_eq!(quantile(&mut v, 1.0), Some(100.0));
        assert_eq!(quantile(&mut [], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn bucket_quantiles_interpolate_within_registry_buckets() {
        let h = aqua_obs::metrics::Histogram::new();
        for v in 1..=1_000u64 {
            h.record(v);
        }
        let buckets: BTreeMap<u64, u64> = h
            .snapshot()
            .buckets
            .iter()
            .map(|b| (b.upper_bound, b.count))
            .collect();
        for b in h.snapshot().buckets {
            let lower = bucket_lower_bound(b.upper_bound);
            assert!(lower <= b.upper_bound);
            assert_eq!(b.count, b.upper_bound.min(1_000) - lower + 1, "{b:?}");
        }
        let p50 = bucket_quantile(&buckets, 0.5);
        assert!((499.0..=501.0).contains(&p50), "p50 {p50}");
        let p99 = bucket_quantile(&buckets, 0.99);
        assert!((989.0..=991.0).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn seeds_and_digests_are_stable() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_eq!(mix(7, 3), mix(7, 3));
        let mut a = Fnv::new();
        a.word(1);
        let mut b = Fnv::new();
        b.word(2);
        assert_ne!(a.finish(), b.finish());
    }
}
