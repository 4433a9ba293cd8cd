//! Shared pieces: the seeded generator, the percentile rule, the input
//! hash, peak memory, and the result line.

use std::ffi::{c_char, c_int, c_uint, CString};
use std::fs::File;
use std::io::Write;
use std::os::fd::FromRawFd;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// SplitMix64: every input the benchmark generates comes from one of these,
/// seeded by `--seed`, so one seed always reproduces one input set.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Nearest-rank percentile of ascending `sorted` samples: the value at
/// 1-based rank `ceil(p/100 · n)`. At n = 1000 the p99 is the 990th value,
/// with ten samples beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `p` percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0) * n as f64).ceil() as usize
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Median of `reps` timings of `f`, in seconds.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// The note a run prints about its set-ups: each one's seconds.
pub fn setup_note(times: &[f64]) -> String {
    let rounded: Vec<f64> = times.iter().map(|s| (s * 1e4).round() / 1e4).collect();
    format!("setup_s reps: {rounded:?}")
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host's CPU counters (`/proc/stat`): stolen and total ticks.
#[derive(Copy, Clone, Default)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    pub fn now() -> CpuTicks {
        let line = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = line
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        CpuTicks {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().sum(),
        }
    }

    /// The note a run prints: the share of CPU time the hypervisor stole
    /// since `self`, taken when set-up began.
    pub fn steal_note(self) -> String {
        let now = CpuTicks::now();
        let total = now.total.saturating_sub(self.total).max(1);
        format!(
            "host: {:.1}% of CPU time stolen by the hypervisor during set-up and the timed phase",
            100.0 * now.steal.saturating_sub(self.steal) as f64 / total as f64
        )
    }
}

/// The directory, inside the working directory, for span dumps and the
/// on-disk append probe.
pub fn run_dir() -> PathBuf {
    let dir = PathBuf::from(".bench_run");
    std::fs::create_dir_all(&dir).expect("create .bench_run in the working directory");
    dir
}

/// A file in anonymous memory (a Linux memfd) that the job log opens by
/// path through `/proc/self/fd`: the log sits in RAM, as on tmpfs, and no
/// byte of it lands on any filesystem. Dropping it closes this handle; the
/// memory goes once the log's own handle closes too.
pub struct RamFile {
    _file: File,
    path: PathBuf,
}

extern "C" {
    fn memfd_create(name: *const c_char, flags: c_uint) -> c_int;
}

impl RamFile {
    pub fn with_bytes(name: &str, bytes: &[u8]) -> std::io::Result<RamFile> {
        let cname = CString::new(name).map_err(std::io::Error::other)?;
        // SAFETY: `cname` is a NUL-terminated string that outlives the
        // call, and flags 0 asks for nothing beyond a plain memfd.
        let fd = unsafe { memfd_create(cname.as_ptr(), 0) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        // SAFETY: `fd` was just returned open by memfd_create and nothing
        // else owns it.
        let mut file = unsafe { File::from_raw_fd(fd) };
        file.write_all(bytes)?;
        Ok(RamFile {
            _file: file,
            path: PathBuf::from(format!("/proc/self/fd/{fd}")),
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Verified-op accounting shared by every workload: each failed check is
/// counted and the first few are named.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }

    /// A check made outside the timed phase (set-up, warm-up): it counts
    /// only when it fails, so `ok()` stays a count of timed-phase ops.
    pub fn record_failure(&mut self, result: Result<(), String>) {
        if result.is_err() {
            self.record(result);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
    }

    pub fn ok(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn ok_frac(&self) -> f64 {
        self.ok() as f64 / self.attempted.max(1) as f64
    }
}

/// The timed phase's end-to-end figures, in the order BENCHMARK.json
/// lists them.
pub struct EndToEnd {
    pub ok_ops: u64,
    pub phase_s: f64,
    /// Per-op latencies in seconds.
    pub latencies: Vec<f64>,
    pub ok_frac: f64,
    pub setup_s: f64,
    pub bound_ratio: f64,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        let mut sorted = self.latencies.clone();
        sorted.sort_by(f64::total_cmp);
        let (p50, p99) = if sorted.is_empty() {
            (0.0, 0.0)
        } else {
            (percentile(&sorted, 50.0), percentile(&sorted, 99.0))
        };
        [
            ("ops_per_s", self.ok_ops as f64 / self.phase_s, "1/s"),
            ("latency_p50_ms", p50 * 1e3, "ms"),
            ("latency_p99_ms", p99 * 1e3, "ms"),
            ("ok_frac", self.ok_frac, "ratio"),
            ("setup_s", self.setup_s, "s"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
            ("bound_ratio", self.bound_ratio, "ratio"),
        ]
        .into_iter()
        .map(|(name, value, unit)| (name.to_string(), value, unit))
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rank_rule_is_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(
            beyond(v.len(), 99.0),
            10,
            "p99 of 1000 has ten samples beyond it"
        );
        assert_eq!(percentile(&v[..100], 99.0), 99.0);
        assert_eq!(beyond(100, 99.0), 1);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn rng_is_seeded_and_shuffle_is_a_permutation() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        let mut v: Vec<usize> = (0..50).collect();
        Rng::new(9).shuffle(&mut v);
        let mut s = v.clone();
        s.sort();
        assert_eq!(s, (0..50).collect::<Vec<_>>());
        assert_ne!(v, s);
    }
}
