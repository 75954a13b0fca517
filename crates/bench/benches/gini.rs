//! Micro-benchmarks of the gini machinery: the index itself, the weighted
//! split score, and the SSE concave-relaxation lower bound.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use pdc_clouds::gini::{gini, interval_gini_lower_bound, split_gini};

fn bench_gini(c: &mut Criterion) {
    let counts = vec![12_345u64, 67_890];
    c.bench_function("gini/two_class", |b| {
        b.iter(|| gini(black_box(&counts)))
    });

    let left = vec![10_000u64, 2_000];
    let right = vec![3_000u64, 15_000];
    c.bench_function("gini/weighted_split", |b| {
        b.iter(|| split_gini(black_box(&left), black_box(&right)))
    });

    let cum = vec![500u64, 700];
    let interior = vec![120u64, 80];
    let total = vec![5_000u64, 5_000];
    c.bench_function("gini/sse_lower_bound", |b| {
        b.iter(|| {
            interval_gini_lower_bound(black_box(&cum), black_box(&interior), black_box(&total))
        })
    });
}

fn bench_boundary_sweep(c: &mut Criterion) {
    use pdc_clouds::{AttrAccumulator, IntervalSet};
    // 10,000 intervals (the paper's q_root) over synthetic frequencies.
    let boundaries: Vec<f64> = (1..10_000).map(|i| i as f64).collect();
    let intervals = IntervalSet::from_boundaries(boundaries);
    let mut stats = AttrAccumulator::new(0, intervals);
    for i in 0..1_000_000u64 {
        let v = (i % 10_000) as f64 + 0.5;
        stats.add_value(v, (i % 2) as u8);
    }
    let stats = stats.finish();
    let total = stats.totals();
    c.bench_function("gini/boundary_sweep_q10000", |b| {
        b.iter(|| stats.best_boundary(black_box(&total)))
    });
    c.bench_function("gini/alive_determination_q10000", |b| {
        b.iter(|| stats.alive_intervals(black_box(&total), 0.45))
    });
}

/// The large-node statistics pass on resident records: q = 10,000 intervals
/// from a 10 % sample, every attribute of every record accumulated through
/// the batched (attribute-major) kernel.
fn bench_accumulate(c: &mut Criterion) {
    use pdc_clouds::accumulate_stats;
    use pdc_datagen::{generate, ClassifyFn, GeneratorConfig};
    let config = GeneratorConfig {
        function: ClassifyFn::F6,
        ..GeneratorConfig::default()
    };
    let records = generate(200_000, config);
    let mut group = c.benchmark_group("stats");
    group.throughput(Throughput::Elements(records.len() as u64));
    group.bench_function("accumulate_q10000", |b| {
        b.iter(|| accumulate_stats(black_box(&records), &records[..20_000], 10_000))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_gini, bench_boundary_sweep, bench_accumulate
}
criterion_main!(benches);
