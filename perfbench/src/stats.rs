//! Order statistics and process counters shared by every workload.

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Mean of `values`; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// The tail of a latency sample: the highest percentile that still has
/// at least ten samples above it, i.e. the 11th-largest sample, never
/// reported below the median. Returns `(percentile, value)`.
///
/// With 20 or fewer samples no percentile above the median has ten
/// samples beyond it, so the tail is the median itself.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let n = s.len();
    if n <= 20 {
        return (50.0, median(values));
    }
    let rank = n - 11;
    (100.0 * (rank + 1) as f64 / n as f64, s[rank])
}

/// Process-wide user+system CPU seconds so far, from `/proc/self/stat`
/// (fields 14 and 15, in clock ticks; Linux fixes the tick at 100 Hz for
/// this interface on every mainstream architecture).
pub fn process_cpu_s() -> f64 {
    const TICKS_PER_S: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')' the first field is field 3 (state), so field k is at k-3.
    let tick = |k: usize| -> f64 {
        fields
            .get(k - 3)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    };
    (tick(14) + tick(15)) / TICKS_PER_S
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total size in bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// SplitMix64: the benchmark's own input generator, so inputs depend on
/// `--seed` alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
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

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let few: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&few), (50.0, 10.5));
        let many: Vec<f64> = (1..=100).map(f64::from).collect();
        // 11th largest of 1..=100 is 90: ten samples (91..=100) beyond.
        assert_eq!(tail(&many), (90.0, 90.0));
    }

    #[test]
    fn rng_repeats_per_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
    }
}
