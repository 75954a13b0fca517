//! Offline stand-in for the `criterion` crate.
//!
//! The build container has no crate registry, so the workspace vendors the
//! subset of criterion its benches use: [`Criterion::bench_function`],
//! benchmark groups with [`BenchmarkGroup::bench_with_input`] /
//! [`BenchmarkGroup::throughput`], [`BenchmarkId`], [`black_box`] and the
//! [`criterion_group!`] / [`criterion_main!`] macros.
//!
//! Measurement is deliberately simple: each benchmark is warmed up once,
//! then timed over `sample_size` samples, and the per-iteration mean and
//! minimum are printed. No statistical analysis, HTML reports, or baseline
//! comparison — enough to compare orders of magnitude between revisions,
//! which is all this workspace's benches are used for.

use std::time::{Duration, Instant};

/// Opaque value barrier preventing the optimizer from deleting benched code.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Throughput annotation for a benchmark group (printed alongside timings).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A benchmark identifier of the form `function_name/parameter`.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// Identifier combining a function name and a displayed parameter.
    pub fn new(function_name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            name: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// Identifier made of the displayed parameter alone (the group names
    /// the function).
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            name: parameter.to_string(),
        }
    }
}

/// The timing loop handed to every benchmark closure.
pub struct Bencher {
    samples: usize,
    /// Per-sample durations of the most recent [`Bencher::iter`] run.
    results: Vec<Duration>,
}

impl Bencher {
    /// Time `f`, running it once as warm-up and then `sample_size` times.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        black_box(f());
        self.results.clear();
        for _ in 0..self.samples {
            let t0 = Instant::now();
            black_box(f());
            self.results.push(t0.elapsed());
        }
    }
}

fn report(name: &str, results: &[Duration], throughput: Option<Throughput>) {
    if results.is_empty() {
        println!("{name:<48} (no samples)");
        return;
    }
    let total: Duration = results.iter().sum();
    let mean = total / results.len() as u32;
    let min = results.iter().min().copied().unwrap_or_default();
    let rate = match throughput {
        Some(Throughput::Elements(n)) => {
            format!("  {:>10.1} Melem/s", n as f64 / mean.as_secs_f64() / 1e6)
        }
        Some(Throughput::Bytes(n)) => {
            format!("  {:>10.1} MiB/s", n as f64 / mean.as_secs_f64() / (1 << 20) as f64)
        }
        None => String::new(),
    };
    println!(
        "{name:<48} mean {:>12?}  min {:>12?}{rate}",
        mean, min
    );
}

/// Top-level benchmark driver (shim for `criterion::Criterion`).
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 10 }
    }
}

impl Criterion {
    /// Set the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Run one named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) {
        let mut b = Bencher { samples: self.sample_size, results: Vec::new() };
        f(&mut b);
        report(name, &b.results, None);
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            throughput: None,
            _parent: std::marker::PhantomData,
        }
    }
}

/// A group of related benchmarks sharing sample-size and throughput
/// settings.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
    _parent: std::marker::PhantomData<&'a mut Criterion>,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed samples for benchmarks in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Annotate subsequent benchmarks with a throughput.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Run one named benchmark within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) {
        let mut b = Bencher { samples: self.sample_size, results: Vec::new() };
        f(&mut b);
        report(&format!("{}/{}", self.name, name), &b.results, self.throughput);
    }

    /// Run one parameterized benchmark within the group.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) {
        let mut b = Bencher { samples: self.sample_size, results: Vec::new() };
        f(&mut b, input);
        report(&format!("{}/{}", self.name, id.name), &b.results, self.throughput);
    }

    /// Close the group (provided for API compatibility).
    pub fn finish(self) {}
}

/// Collect benchmark functions into one named runner function.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            $(
                let mut c: $crate::Criterion = $config;
                $target(&mut c);
            )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = <$crate::Criterion as ::core::default::Default>::default();
            targets = $($target),+
        );
    };
}

/// Generate `main` running the given [`criterion_group!`] runners.
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

    fn quick(c: &mut Criterion) {
        c.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
        let mut g = c.benchmark_group("grp");
        g.sample_size(3);
        g.throughput(Throughput::Elements(10));
        g.bench_with_input(BenchmarkId::new("param", 4), &4u64, |b, &x| {
            b.iter(|| black_box(x * 2))
        });
        g.finish();
    }

    criterion_group!(benches, quick);

    #[test]
    fn group_runner_runs() {
        benches();
    }

    criterion_group! {
        name = configured;
        config = Criterion::default().sample_size(2);
        targets = quick
    }

    #[test]
    fn configured_group_runs() {
        configured();
    }
}
