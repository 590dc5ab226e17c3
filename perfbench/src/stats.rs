//! Measurement primitives: a fine-grained latency histogram, the seeded
//! generator, and the host counters (process CPU time, peak RSS) read
//! from `/proc`.

use std::time::Instant;

/// Mantissa bits per power-of-two octave: 256 sub-buckets, so a bucket
/// is at most 0.4% wide. Values below 256 are recorded exactly.
const SUB_BITS: u32 = 8;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// A log-linear histogram of nanosecond values. Quantiles interpolate
/// by rank inside the bucket they land in, so a reported value carries
/// more digits than the bucket width alone would give.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
    /// Lowest and highest bucket touched since the last clear.
    lo: usize,
    hi: usize,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
            lo: BUCKETS,
            hi: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros() - SUB_BITS + 1;
    let sub = (v >> (octave - 1)) as usize & (SUB - 1);
    octave as usize * SUB + sub
}

/// Lowest value and width of bucket `idx`.
fn bucket_range(idx: usize) -> (f64, f64) {
    let octave = (idx / SUB) as u32;
    let sub = (idx % SUB) as u64;
    if octave == 0 {
        return (sub as f64, 1.0);
    }
    let width = 1u64 << (octave - 1);
    (((SUB as u64 + sub) * width) as f64, width as f64)
}

impl Hist {
    pub fn record(&mut self, v: u64) {
        let b = bucket_of(v);
        self.counts[b] += 1;
        self.lo = self.lo.min(b);
        self.hi = self.hi.max(b);
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn clear(&mut self) {
        if self.n > 0 {
            self.counts[self.lo..=self.hi].fill(0);
        }
        self.n = 0;
        self.lo = BUCKETS;
        self.hi = 0;
    }

    /// The `q` quantile (0..=1), 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = (q * (self.n - 1) as f64).floor() as u64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate().skip(self.lo) {
            if c == 0 {
                continue;
            }
            if seen + c > rank {
                let (low, width) = bucket_range(idx);
                if width <= 1.0 {
                    return low;
                }
                return low + width * ((rank - seen) as f64 + 0.5) / c as f64;
            }
            seen += c;
        }
        unreachable!("rank below total count")
    }
}

/// Latencies split into sub-windows of `SUBWINDOW` consecutive
/// completions. A run reports the median sub-window's quantiles and
/// rate: a host stall hits the few sub-windows it falls in, not the
/// reported figure. Completions must arrive in (roughly) time order.
pub struct Series {
    start_ns: u64,
    cur: Hist,
    all: Hist,
    p50s: Vec<f64>,
    p99s: Vec<f64>,
    rates: Vec<f64>,
}

/// Completions per sub-window: its p99 has twenty samples beyond it.
pub const SUBWINDOW: u64 = 2_000;

impl Default for Series {
    fn default() -> Self {
        Series::new(0)
    }
}

impl Series {
    /// A series whose first sub-window starts at `start_ns`.
    pub fn new(start_ns: u64) -> Series {
        Series {
            start_ns,
            cur: Hist::default(),
            all: Hist::default(),
            p50s: Vec::new(),
            p99s: Vec::new(),
            rates: Vec::new(),
        }
    }

    /// Record latency `v` of a call that completed at `at_ns`. A partial
    /// last sub-window is left out of the medians.
    pub fn record(&mut self, at_ns: u64, v: u64) {
        self.cur.record(v);
        self.all.record(v);
        if self.cur.count() == SUBWINDOW {
            self.p50s.push(self.cur.quantile(0.5));
            self.p99s.push(self.cur.quantile(0.99));
            let secs = at_ns.saturating_sub(self.start_ns).max(1) as f64 / 1e9;
            self.rates.push(SUBWINDOW as f64 / secs);
            self.start_ns = at_ns;
            self.cur.clear();
        }
    }

    /// Every latency of the window.
    pub fn merged(&self) -> &Hist {
        &self.all
    }

    /// Median over the sub-windows of their median.
    pub fn p50(&self) -> f64 {
        median(&self.p50s)
    }

    /// Median over the sub-windows of their 99th percentile.
    pub fn p99(&self) -> f64 {
        median(&self.p99s)
    }

    /// Median over the sub-windows of completions per second.
    pub fn rate(&self) -> f64 {
        median(&self.rates)
    }

    /// Complete sub-windows recorded.
    pub fn subwindows(&self) -> usize {
        self.p99s.len()
    }

    pub fn count(&self) -> u64 {
        self.all.count()
    }
}

/// SplitMix64: the whole input stream of a run derives from the seed
/// through this generator, so the same seed gives the same inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_ba5e_0000_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Exponentially distributed with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * self.unit().ln()
    }
}

/// Nanoseconds since `base`.
pub fn ns_since(base: Instant) -> u64 {
    base.elapsed().as_nanos() as u64
}

/// Process user + system CPU time in seconds (`/proc/self/stat`, fields
/// 14 and 15, in clock ticks of 1/100 s).
pub fn process_cpu_s() -> f64 {
    cpu_s("/proc/self/stat")
}

/// The calling thread's user + system CPU time in seconds.
pub fn thread_cpu_s() -> f64 {
    cpu_s("/proc/thread-self/stat")
}

fn cpu_s(path: &str) -> f64 {
    let stat = std::fs::read_to_string(path).expect("read a /proc stat file");
    // The command name (field 2) may contain spaces; fields restart
    // after its closing parenthesis.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<u64>().expect("numeric tick field");
    // `rest` starts at field 3, so utime (14) and stime (15) are 11, 12.
    (ticks(11) + ticks(12)) as f64 / 100.0
}

/// Peak resident set size in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("VmHWM in /proc/self/status");
    kib as f64 / 1024.0
}

/// Median cost of one `Instant::now()`, in ns.
pub fn clock_read_ns() -> f64 {
    let mut h = Hist::default();
    for _ in 0..20_000 {
        let a = Instant::now();
        let b = Instant::now();
        h.record((b - a).as_nanos() as u64);
    }
    h.quantile(0.5)
}

/// Median of a sample (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_track_exact_values() {
        let mut h = Hist::default();
        for v in 1..=10_000u64 {
            h.record(v * 10);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.005, "p50 {p50}");
        let p99 = h.quantile(0.99);
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.005, "p99 {p99}");
        assert_eq!(h.count(), 10_000);
        let mut small = Hist::default();
        small.record(7);
        assert_eq!(small.quantile(0.5), 7.0);
    }

    #[test]
    fn series_reports_the_median_sub_window() {
        let mut s = Series::new(0);
        let n = SUBWINDOW * 10;
        for i in 0..n {
            let stalled = (3 * SUBWINDOW..4 * SUBWINDOW).contains(&i);
            s.record(i * 100 + 100, if stalled { 1_000_000 } else { 100 });
        }
        assert_eq!(s.p99(), 100.0, "one stalled sub-window moved the median");
        assert_eq!(s.count(), n);
        assert!((s.rate() - 1e7).abs() < 1.0, "rate {}", s.rate());
        let tail = s.merged().quantile(0.95);
        assert!((tail - 1e6).abs() / 1e6 < 0.005, "whole-window tail {tail}");
        let mut h = Hist::default();
        h.record(5_000);
        h.clear();
        h.record(7);
        assert_eq!((h.count(), h.quantile(0.99)), (1, 7.0));
    }

    #[test]
    fn bucket_ranges_contain_their_values() {
        for v in [0u64, 1, 255, 256, 257, 1000, 65_535, 1 << 40, u64::MAX / 3] {
            let (low, width) = bucket_range(bucket_of(v));
            assert!(low <= v as f64 && (v as f64) < low + width, "{v}");
        }
    }
}
