//! A small first-party micro-benchmark harness.
//!
//! The `benches/` targets used to run under Criterion; this module keeps
//! the same `group → bench_function → iter` shape with an in-repo timer
//! so the workspace carries no external dependencies. Each benchmark is
//! calibrated to a target sample duration, then timed over a fixed
//! number of samples; the median ns/iteration is reported, which is
//! robust to scheduler noise on shared machines.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target wall-clock time per measured sample.
const TARGET_SAMPLE: Duration = Duration::from_millis(10);

/// Entry point handed to each registered benchmark function.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> Group {
        let name = name.into();
        eprintln!("\n== {name} ==");
        Group {
            name,
            sample_size: 20,
            throughput: None,
        }
    }
}

/// A named collection of benchmarks sharing sampling configuration.
pub struct Group {
    name: String,
    sample_size: usize,
    throughput: Option<(u64, &'static str)>,
}

impl Group {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(3);
        self
    }

    /// Declares that one iteration of each following benchmark processes
    /// `count` of `unit`, so the report adds a rate (millions per second).
    pub fn throughput(&mut self, count: u64, unit: &'static str) -> &mut Self {
        self.throughput = Some((count, unit));
        self
    }

    /// Runs one benchmark: `f` receives a [`Bencher`] and calls
    /// [`Bencher::iter`] with the workload closure.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher {
            samples: self.sample_size,
            median_ns: 0.0,
        };
        f(&mut b);
        let rate = self.throughput.map_or(String::new(), |(count, unit)| {
            format!("  ({:.1} M {unit}/s)", count as f64 * 1e3 / b.median_ns)
        });
        eprintln!("{}/{id}: {}{rate}", self.name, format_ns(b.median_ns));
        self
    }

    /// Criterion-compatible no-op; the group reports as it goes.
    pub fn finish(self) {}
}

/// Runs and times one workload closure.
pub struct Bencher {
    samples: usize,
    median_ns: f64,
}

impl Bencher {
    /// Times `f`, storing the median ns per call across the samples.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm up and calibrate: how many calls fill the target sample?
        black_box(f());
        let mut iters: u64 = 1;
        loop {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let took = t.elapsed();
            if took >= TARGET_SAMPLE || iters >= 1 << 30 {
                break;
            }
            let scale = TARGET_SAMPLE.as_secs_f64() / took.as_secs_f64().max(1e-9);
            iters = (iters as f64 * scale.clamp(1.5, 100.0)).ceil() as u64;
        }
        let mut per_iter: Vec<f64> = (0..self.samples)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                t.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        per_iter.sort_by(|a, b| a.total_cmp(b));
        self.median_ns = per_iter[per_iter.len() / 2];
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s/iter", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms/iter", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs/iter", ns / 1e3)
    } else {
        format!("{ns:.1} ns/iter")
    }
}

/// Registers a benchmark group function, mirroring Criterion's
/// `criterion_group!`: expands to a `fn $name()` that runs each target
/// against one [`Criterion`] context.
#[macro_export]
macro_rules! bench_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::microbench::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Expands to `fn main()` running the listed groups, mirroring
/// Criterion's `criterion_main!`.
#[macro_export]
macro_rules! bench_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_a_positive_median() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("smoke");
        g.sample_size(3).bench_function("add", |b| {
            b.iter(|| std::hint::black_box(1u64) + std::hint::black_box(2u64))
        });
        g.finish();
    }
}
