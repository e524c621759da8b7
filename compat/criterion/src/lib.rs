//! Offline stand-in for `criterion`, exposing the subset of its API this
//! workspace's benches use: `Criterion`, `benchmark_group`,
//! `bench_function`, `bench_with_input`, `BenchmarkId`, `Throughput`,
//! `Bencher::iter`, and the `criterion_group!`/`criterion_main!` macros.
//!
//! Measurement is deliberately simple: calibrate during warm-up, then
//! time `sample_size` samples of equally many iterations that together
//! fill `measurement_time`, and report the median wall-clock per
//! iteration over the samples with their interquartile range (plus
//! throughput at the median when configured). No outlier analysis,
//! plotting, or baseline storage.
//!
//! Vendored because the build environment has no network access to
//! crates.io; wired in via `[patch.crates-io]` in the workspace root.

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Benchmark driver; collects settings and runs closures.
pub struct Criterion {
    warm_up: Duration,
    measurement: Duration,
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion {
            warm_up: Duration::from_millis(300),
            measurement: Duration::from_secs(1),
            sample_size: 50,
        }
    }
}

impl Criterion {
    pub fn warm_up_time(mut self, d: Duration) -> Criterion {
        self.warm_up = d;
        self
    }

    pub fn measurement_time(mut self, d: Duration) -> Criterion {
        self.measurement = d;
        self
    }

    pub fn sample_size(mut self, n: usize) -> Criterion {
        self.sample_size = n.max(1);
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, f: F) -> &mut Criterion {
        run_one(
            id,
            None,
            self.warm_up,
            self.measurement,
            self.sample_size,
            f,
        );
        self
    }

    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            throughput: None,
            sample_size: None,
        }
    }
}

/// Group of related benchmarks sharing a name prefix and throughput.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.max(1));
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl IntoBenchmarkId,
        f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into_benchmark_id());
        run_one(
            &full,
            self.throughput.clone(),
            self.criterion.warm_up,
            self.criterion.measurement,
            self.sample_size.unwrap_or(self.criterion.sample_size),
            f,
        );
        self
    }

    pub fn bench_with_input<I, F>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.bench_function(id, |b| f(b, input))
    }

    pub fn finish(self) {}
}

/// Identifies one benchmark within a group (`function_name/parameter`).
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> BenchmarkId {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    pub fn from_parameter(parameter: impl Display) -> BenchmarkId {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

/// Conversion accepted by `bench_function`-style APIs (`&str` or
/// [`BenchmarkId`]).
pub trait IntoBenchmarkId {
    fn into_benchmark_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_benchmark_id(self) -> String {
        self.id
    }
}

impl IntoBenchmarkId for &str {
    fn into_benchmark_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_benchmark_id(self) -> String {
        self
    }
}

/// Units processed per iteration, for derived throughput reporting.
#[derive(Debug, Clone)]
pub enum Throughput {
    Bytes(u64),
    Elements(u64),
}

/// Timing harness handed to each benchmark closure.
pub struct Bencher {
    warm_up: Duration,
    measurement: Duration,
    sample_size: usize,
    /// Seconds per iteration of each sample, filled in by `iter`.
    samples: Vec<f64>,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Warm-up + calibration: run until the warm-up budget is spent
        // (at least once).
        let start = Instant::now();
        let mut calib_iters = 0u64;
        while calib_iters == 0 || start.elapsed() < self.warm_up {
            black_box(f());
            calib_iters += 1;
        }
        let per_iter = start.elapsed().as_secs_f64() / calib_iters as f64;
        // Measurement: `sample_size` samples whose iterations together
        // fill the budget, at least one iteration per sample.
        let budget = self.measurement.as_secs_f64();
        let total = ((budget / per_iter.max(1e-9)) as u64).min(10_000_000);
        let per_sample = (total / self.sample_size as u64).max(1);
        self.samples = (0..self.sample_size)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..per_sample {
                    black_box(f());
                }
                t.elapsed().as_secs_f64() / per_sample as f64
            })
            .collect();
    }
}

/// Median and interquartile range of per-iteration sample times, in
/// seconds (linear interpolation between order statistics).
fn median_iqr(samples: &[f64]) -> (f64, f64) {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let q = |p: f64| {
        let x = p * (s.len() - 1) as f64;
        let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
        s[lo] + (s[hi] - s[lo]) * (x - lo as f64)
    };
    (q(0.5), q(0.75) - q(0.25))
}

fn run_one<F: FnMut(&mut Bencher)>(
    id: &str,
    throughput: Option<Throughput>,
    warm_up: Duration,
    measurement: Duration,
    sample_size: usize,
    mut f: F,
) {
    let mut b = Bencher {
        warm_up,
        measurement,
        sample_size,
        samples: Vec::new(),
    };
    f(&mut b);
    if b.samples.is_empty() {
        println!("{id:<40} (no measurement: closure never called iter)");
        return;
    }
    let (median, iqr) = median_iqr(&b.samples);
    let extra = match throughput {
        Some(Throughput::Bytes(n)) => format!("  ({:.1} MB/s)", n as f64 / median / 1e6),
        Some(Throughput::Elements(n)) => format!("  ({:.0} elem/s)", n as f64 / median),
        None => String::new(),
    };
    println!(
        "{id:<40} median {:>10}  IQR {:>10}  ({} samples){extra}",
        format_duration(Duration::from_secs_f64(median)),
        format_duration(Duration::from_secs_f64(iqr)),
        b.samples.len(),
    );
}

fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Declares a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Declares the bench binary's `main`, running each group.
#[macro_export]
macro_rules! criterion_main {
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
    fn bench_function_measures_and_reports() {
        let mut c = Criterion::default()
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5))
            .sample_size(10);
        c.bench_function("smoke", |b| b.iter(|| black_box(1u64 + 1)));
        let mut g = c.benchmark_group("grp");
        g.throughput(Throughput::Bytes(1024));
        g.bench_with_input(BenchmarkId::new("with_input", 4), &4u64, |b, &n| {
            b.iter(|| black_box(n * 2))
        });
        g.finish();
    }

    #[test]
    fn iter_takes_one_sample_per_slot() {
        let mut b = Bencher {
            warm_up: Duration::ZERO,
            measurement: Duration::from_millis(2),
            sample_size: 7,
            samples: Vec::new(),
        };
        b.iter(|| black_box(3u64 * 3));
        assert_eq!(b.samples.len(), 7);
        assert!(b.samples.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn median_and_iqr_interpolate() {
        assert_eq!(median_iqr(&[4.0, 1.0, 3.0, 2.0, 5.0]), (3.0, 2.0));
        assert_eq!(median_iqr(&[2.0, 1.0]), (1.5, 0.5));
        assert_eq!(median_iqr(&[7.0]), (7.0, 0.0));
    }
}
