//! Throughput of the synthetic data generator, of the fixed record layout
//! the simulated disks and network move records through, and of splitting
//! a sorted sample against sorting each child from scratch.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use pdc_cgm::Wire;
use pdc_clouds::{IntervalSet, SortedSample, Splitter};
use pdc_datagen::{generate, GeneratorConfig, Record, RecordBatch, NUM_NUMERIC};
use pdc_pario::{Rec, RecBuf};

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("datagen");
    group.sample_size(10);
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("generate_100k", |b| {
        b.iter(|| generate(100_000, black_box(GeneratorConfig::default())))
    });
    group.finish();
}

fn bench_record_layout(c: &mut Criterion) {
    let records = generate(1_000_000, GeneratorConfig::default());
    let page = RecBuf::from_records(&records);
    let mut group = c.benchmark_group("record");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(
        (records.len() * Record::ENCODED_BYTES) as u64,
    ));
    group.bench_function("store_batch", |b| {
        b.iter(|| RecBuf::from_records(black_box(&records)))
    });
    group.bench_function("view_column_walk", |b| {
        b.iter(|| {
            let view = black_box(&page).view();
            (0..view.len()).map(|i| view.num(i, 2)).sum::<f64>()
        })
    });
    group.bench_function("to_vec", |b| b.iter(|| black_box(&page).view().to_vec()));
    group.bench_function("single_roundtrip", |b| {
        b.iter(|| Record::from_bytes(&black_box(&records[0]).to_bytes()))
    });
    group.finish();
}

/// One node's worth of sample work at the root of `train_mem_p4` (90 k
/// points, q = 10 000): route the sample on a split and place both
/// children's interval boundaries on every numeric attribute.
fn bench_sample_split(c: &mut Criterion) {
    let records = generate(90_000, GeneratorConfig::default());
    let splitter = Splitter::Numeric {
        attr: 2,
        threshold: 50.0,
    };
    let q = 10_000;
    let sorted = SortedSample::new(records.clone());
    let mut group = c.benchmark_group("sample");
    group.sample_size(10);
    group.throughput(Throughput::Elements(records.len() as u64));
    group.bench_function("split_sorted", |b| {
        b.iter(|| {
            let (left, right) = black_box(&sorted).clone().split(&splitter);
            (0..NUM_NUMERIC)
                .map(|a| (left.intervals(a, q), right.intervals(a, q)))
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("sort_from_scratch", |b| {
        b.iter(|| {
            let (left, right): (Vec<Record>, Vec<Record>) = black_box(&records)
                .clone()
                .into_iter()
                .partition(|r| splitter.goes_left(r));
            let intervals = |side: &[Record], a: usize| {
                let values: Vec<f64> = side.iter().map(|r| r.num(a)).collect();
                IntervalSet::from_sample(&values, q)
            };
            (0..NUM_NUMERIC)
                .map(|a| (intervals(&left, a), intervals(&right, a)))
                .collect::<Vec<_>>()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_generation,
    bench_record_layout,
    bench_sample_split
);
criterion_main!(benches);
