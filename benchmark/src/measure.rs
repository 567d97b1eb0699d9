//! Clocks and order statistics.

use std::time::Instant;

/// Kernel clock ticks per second in `/proc/self/stat`. `sysconf(_SC_CLK_TCK)`
/// needs libc, which this std-only tree does not link; Linux has fixed the
/// user-visible value at 100 on every architecture since 2.6.
pub const CLK_TCK: f64 = 100.0;

/// User + system CPU ticks of the whole process (all threads, including
/// ones that already exited) from a `/proc/<pid>/stat` line.
///
/// The command name (field 2) may itself contain spaces and parentheses,
/// so fields are counted from the last `)`: `utime` and `stime` are fields
/// 14 and 15 of the line, the 12th and 13th after the name.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Process CPU seconds so far; 0 where `/proc` is unavailable.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ticks(&s))
        .map_or(0.0, |t| t as f64 / CLK_TCK)
}

/// The `p`-th percentile (0–100) of `values` by linear interpolation
/// between closest ranks (Python's `numpy.percentile` default). Returns 0
/// for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no work
/// in this workload reports 0, not NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Wall and CPU time of a batch of passes.
#[derive(Debug, Clone, Default)]
pub struct PassTimes {
    /// Wall time of each pass, milliseconds.
    pub wall_ms: Vec<f64>,
    /// Process CPU seconds summed over the passes only (work between
    /// passes, such as output checking, is excluded).
    pub cpu_s: f64,
}

impl PassTimes {
    /// Median pass wall time, milliseconds.
    pub fn median_ms(&self) -> f64 {
        median(&self.wall_ms)
    }
}

/// Times the passes of one [`run_passes`] loop.
#[derive(Debug, Default)]
pub struct Stopwatch {
    times: PassTimes,
}

impl Stopwatch {
    /// Runs `pass` inside the timed window (wall and process CPU).
    pub fn time<R>(&mut self, pass: impl FnOnce() -> R) -> R {
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        let out = pass();
        let dt = t0.elapsed();
        self.times.cpu_s += cpu_seconds() - cpu0;
        self.times.wall_ms.push(dt.as_secs_f64() * 1e3);
        out
    }
}

/// Calls `body` until it has timed at least `min_passes` passes and
/// `min_seconds` have gone by since the first call. `body` times exactly
/// one pass per call with [`Stopwatch::time`]; whatever else it does
/// (checking the pass's output) stays outside the timed window.
pub fn run_passes(
    min_passes: usize,
    min_seconds: f64,
    mut body: impl FnMut(&mut Stopwatch),
) -> PassTimes {
    let mut watch = Stopwatch::default();
    let start = Instant::now();
    while watch.times.wall_ms.len() < min_passes || start.elapsed().as_secs_f64() < min_seconds {
        body(&mut watch);
    }
    watch.times
}

/// Median nanoseconds per call of `f`, over `reps` batches of `calls`
/// calls each.
pub fn ns_per_call(reps: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..calls {
                f();
            }
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&batches)
}

/// Median seconds of `reps` calls of `f`.
pub fn median_seconds(reps: usize, mut f: impl FnMut()) -> f64 {
    let runs: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert_eq!(percentile(&v, 75.0), 3.25);
        assert_eq!(percentile(&[7.0], 75.0), 7.0);
        assert_eq!(percentile(&[], 75.0), 0.0);
    }

    #[test]
    fn stat_line_with_hostile_command_name() {
        // comm contains spaces and a ')' — fields must count from the last.
        let line = "1234 (a b) c) S 1 1234 1234 0 -1 4194304 100 0 0 0 \
                    250 50 0 0 20 0 3 0 100 1000 10 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(line), Some(300));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn live_stat_is_readable_and_monotone() {
        let a = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_seconds() >= a);
    }

    #[test]
    fn run_passes_honours_both_minimums() {
        let mut n = 0;
        let t = run_passes(3, 0.0, |w| w.time(|| n += 1));
        assert_eq!(t.wall_ms.len(), 3);
        assert_eq!(n, 3);
        let nap = || std::thread::sleep(std::time::Duration::from_millis(5));
        let t = run_passes(1, 0.02, |w| w.time(nap));
        assert!(t.wall_ms.len() >= 2);
        assert!(t.median_ms() >= 5.0);
    }
}
