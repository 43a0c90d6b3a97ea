//! A minimal wall-clock benchmarking harness with a `criterion`-shaped
//! API, so the workspace's benchmarks need no external dependency.
//!
//! The surface mirrors the subset of `criterion` the benches in
//! `benches/` actually use: [`Criterion`] with builder-style
//! configuration, [`BenchmarkGroup`]s, [`BenchmarkId`]s for
//! parameterized cases, and a [`Bencher`] whose `iter` runs the closure
//! in timed batches. Statistics are deliberately simple — median and
//! min/max over fixed-size samples — because the goal is regression
//! *spotting*, not rigorous confidence intervals.
//!
//! ```
//! use sysunc_bench::timing::Criterion;
//! use std::time::Duration;
//!
//! let mut c = Criterion::default()
//!     .warm_up_time(Duration::from_millis(1))
//!     .measurement_time(Duration::from_millis(5))
//!     .sample_size(10);
//! let mut group = c.benchmark_group("doc");
//! group.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
//! group.finish();
//! ```

use std::fmt::Display;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Top-level benchmark driver: holds the timing configuration and prints
/// one result line per benchmark case.
pub struct Criterion {
    warm_up: Duration,
    measurement: Duration,
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            warm_up: Duration::from_millis(300),
            measurement: Duration::from_secs(1),
            sample_size: 30,
        }
    }
}

impl Criterion {
    /// Sets how long each case spins before measurement starts.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up = d;
        self
    }

    /// Sets the total time budget spread over a case's samples.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement = d;
        self
    }

    /// Sets how many timed samples each case collects.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    /// Opens a named group of related benchmark cases.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\n== {name} ==");
        BenchmarkGroup { criterion: self }
    }

    /// Runs a single unparameterized benchmark outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) {
        self.run_case(name, f);
    }

    fn run_case<F: FnMut(&mut Bencher)>(&mut self, label: &str, mut f: F) {
        let mut b = Bencher {
            warm_up: self.warm_up,
            measurement: self.measurement,
            sample_size: self.sample_size,
            samples: Vec::new(),
        };
        f(&mut b);
        report(label, &mut b.samples);
    }
}

/// A named set of benchmark cases sharing the parent's configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Runs one case identified by a name/parameter pair, passing `input`
    /// to the closure alongside the [`Bencher`].
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) {
        self.criterion.run_case(&id.label, |b| f(b, input));
    }

    /// Runs one case identified by a plain name.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, f: F) {
        self.criterion.run_case(name, f);
    }

    /// Ends the group (kept for API parity; prints nothing extra).
    pub fn finish(self) {}
}

/// A benchmark case identifier of the form `name/parameter`.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// Builds an identifier from a case name and a displayable parameter.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        Self { label: format!("{}/{}", name.into(), parameter) }
    }
}

/// Passed to each benchmark closure; [`Bencher::iter`] performs the
/// warm-up and the timed sampling loop.
pub struct Bencher {
    warm_up: Duration,
    measurement: Duration,
    sample_size: usize,
    samples: Vec<f64>,
}

impl Bencher {
    /// Times `f`, black-boxing its result so the optimizer cannot delete
    /// the measured work. Collects `sample_size` samples, each batched to
    /// roughly `measurement / sample_size` wall time.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        // Warm-up, which doubles as the per-iteration time estimate.
        let mut warm_iters: u64 = 0;
        let warm_start = Instant::now();
        loop {
            black_box(f());
            warm_iters += 1;
            if warm_start.elapsed() >= self.warm_up {
                break;
            }
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;

        let per_sample = self.measurement.as_secs_f64() / self.sample_size as f64;
        let batch = ((per_sample / per_iter.max(1e-12)).ceil() as u64).clamp(1, 1 << 24);

        self.samples.clear();
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            self.samples.push(t.elapsed().as_secs_f64() / batch as f64);
        }
    }
}

fn report(label: &str, samples: &mut [f64]) {
    if samples.is_empty() {
        println!("  {label:<40} (no samples — closure never called iter)");
        return;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let min = samples[0];
    let max = samples[samples.len() - 1];
    let median = samples[samples.len() / 2];
    println!(
        "  {label:<40} median {:>12}   [{} .. {}]",
        fmt_time(median),
        fmt_time(min),
        fmt_time(max)
    );
}

/// Formats a duration in seconds with an auto-scaled unit.
fn fmt_time(secs: f64) -> String {
    if secs < 1e-6 {
        format!("{:.2} ns", secs * 1e9)
    } else if secs < 1e-3 {
        format!("{:.2} µs", secs * 1e6)
    } else if secs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else {
        format!("{secs:.3} s")
    }
}

/// Declares a benchmark group function, mirroring `criterion_group!`.
///
/// Both the block form (`name = ...; config = ...; targets = ...`) and the
/// positional form (`criterion_group!(benches, f, g)`) are supported.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::timing::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the benchmark `main` that runs each group, mirroring
/// `criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> Criterion {
        Criterion::default()
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(4))
            .sample_size(4)
    }

    #[test]
    fn bench_function_collects_samples_and_reports() {
        let mut c = fast_config();
        // Goes through the public path end to end; the closure must run.
        let mut ran = false;
        c.bench_function("smoke", |b| {
            ran = true;
            b.iter(|| (0..64u64).product::<u64>());
        });
        assert!(ran);
    }

    #[test]
    fn group_with_input_passes_the_input_through() {
        let mut c = fast_config();
        let mut group = c.benchmark_group("g");
        let data = vec![1.0f64; 256];
        let mut seen_len = 0;
        group.bench_with_input(BenchmarkId::new("sum", data.len()), &data, |b, d| {
            seen_len = d.len();
            b.iter(|| d.iter().sum::<f64>());
        });
        group.finish();
        assert_eq!(seen_len, 256);
    }

    #[test]
    fn benchmark_id_formats_name_slash_parameter() {
        assert_eq!(BenchmarkId::new("combine", 16).label, "combine/16");
    }

    #[test]
    fn time_formatting_scales_units() {
        assert!(fmt_time(5e-9).ends_with("ns"));
        assert!(fmt_time(5e-6).ends_with("µs"));
        assert!(fmt_time(5e-3).ends_with("ms"));
        assert!(fmt_time(5.0).ends_with(" s"));
    }

    #[test]
    fn macros_compile_in_positional_and_block_form() {
        fn target(c: &mut Criterion) {
            c.bench_function("t", |b| b.iter(|| 1u64 + 1));
        }
        criterion_group! {
            name = block_group;
            config = Criterion::default()
                .warm_up_time(Duration::from_millis(1))
                .measurement_time(Duration::from_millis(2))
                .sample_size(2);
            targets = target
        }
        criterion_group!(positional_group, target);
        // Run both to prove the generated fns are callable.
        block_group();
        positional_group();
    }
}
