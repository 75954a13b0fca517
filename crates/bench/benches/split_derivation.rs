//! Micro-benchmarks of whole-node split derivation: SS vs SSE vs the
//! direct method, and SPRINT's attribute-list evaluation, at several node
//! sizes. This is the computational heart of every classifier compared in
//! the paper. Below them, the two per-record loops of pCLOUDS' large-node
//! phase on page-sized byte views: the histogram kernel and the routing of
//! records to alive intervals.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pdc_baselines::build_tree_sprint;
use pdc_clouds::{
    build_tree, derive_split_in_memory, direct_best_split, draw_sample, AliveInterval,
    AliveRouter, CloudsParams, NodeAccumulator, SortedSample, SplitMethod,
};
use pdc_datagen::{generate, ClassifyFn, GeneratorConfig, Record, RecordBatch};
use pdc_pario::RecBuf;

fn params() -> CloudsParams {
    CloudsParams {
        q_root: 500,
        sample_size: 5_000,
        ..CloudsParams::default()
    }
}

fn bench_single_split(c: &mut Criterion) {
    let mut group = c.benchmark_group("derive_split");
    group.sample_size(10);
    for n in [10_000usize, 50_000] {
        let records = generate(n, GeneratorConfig::default());
        let sample = SortedSample::new(draw_sample(&records, 2_000, 7));
        for (name, method) in [
            ("ss", SplitMethod::SS),
            ("sse", SplitMethod::SSE),
        ] {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                let p = CloudsParams {
                    method,
                    ..params()
                };
                b.iter(|| derive_split_in_memory(black_box(&records), &sample, 200, &p))
            });
        }
        group.bench_with_input(BenchmarkId::new("direct", n), &n, |b, _| {
            b.iter(|| direct_best_split(black_box(&records), &params()))
        });
    }
    group.finish();
}

fn bench_full_tree(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_tree_20k");
    group.sample_size(10);
    let records = generate(20_000, GeneratorConfig::default());
    group.bench_function("clouds_sse", |b| {
        b.iter(|| build_tree(black_box(&records), &params()))
    });
    group.bench_function("sprint", |b| {
        b.iter(|| build_tree_sprint(black_box(&records), &params()))
    });
    group.finish();
}

/// Records per page: pCLOUDS' streaming chunk in the host benchmark's
/// training configuration.
const PAGE_RECORDS: usize = 6_049;

/// 450 k F6 records, and the same as page-sized views of their file bytes.
fn records_and_pages() -> (Vec<Record>, Vec<RecBuf<Record>>) {
    let config = GeneratorConfig {
        function: ClassifyFn::F6,
        ..GeneratorConfig::default()
    };
    let records = generate(450_000, config);
    let pages = records.chunks(PAGE_RECORDS).map(RecBuf::from_records).collect();
    (records, pages)
}

/// A sorted sample with nine points per interval at `q` intervals — the
/// ratio pCLOUDS' `q` schedule keeps from the root down (1 record in 20
/// sampled, 1 interval per 180 records).
fn sample_for(records: &[Record], q: usize) -> SortedSample {
    SortedSample::new(draw_sample(records, 9 * q, 7))
}

/// One node's statistics pass at the root's, a mid-tree and a near-leaf
/// interval count.
fn bench_kernel(c: &mut Criterion) {
    let (records, pages) = records_and_pages();
    let mut group = c.benchmark_group("kernel/add_records");
    group.sample_size(10);
    group.throughput(Throughput::Elements(records.len() as u64));
    for q in [10_000usize, 600, 40] {
        let sample = sample_for(&records, q);
        group.bench_function(&format!("q{q}"), |b| {
            b.iter(|| {
                let mut stats = NodeAccumulator::from_sample(&sample, q);
                for page in &pages {
                    stats.add_records(&page.view());
                }
                stats.finish()
            })
        });
    }
    group.finish();
}

/// `count` alive intervals spread over `attrs`: every seventh interval of
/// the sample's 600-interval sets, so most records hit none.
fn alive_list(sample: &SortedSample, attrs: &[usize], count: usize) -> Vec<AliveInterval> {
    let mut alive = Vec::new();
    for (a, &attr) in attrs.iter().enumerate() {
        let set = sample.intervals(attr, 600);
        let share = count / attrs.len() + usize::from(a < count % attrs.len());
        for index in (0..share).map(|i| (40 + 7 * i) % set.num_intervals()) {
            alive.push(AliveInterval {
                attr,
                index,
                lower: set.lower_edge(index),
                upper: set.upper_edge(index),
                cum_before: vec![0; 2],
                est: 0.0,
                count: 0,
            });
        }
    }
    alive.sort_by_key(|a| (a.attr, a.index));
    alive
}

/// The scan `AliveRouter` replaced, kept here as its reference: every
/// record against every alive interval.
fn nested_contains(
    alive: &[AliveInterval],
    batch: &impl RecordBatch,
    mut hit: impl FnMut(usize, f64, u8),
) {
    for i in 0..batch.len() {
        for (k, interval) in alive.iter().enumerate() {
            let v = batch.num(i, interval.attr);
            if interval.contains(v) {
                hit(k, v, batch.class(i));
            }
        }
    }
}

/// The SSE second pass's routing loop: the common node (one attribute with
/// alive intervals) and a hard one (three attributes, 40 intervals).
fn bench_alive_route(c: &mut Criterion) {
    let (records, pages) = records_and_pages();
    let sample = sample_for(&records, 600);
    let mut group = c.benchmark_group("alive/route");
    group.sample_size(10);
    group.throughput(Throughput::Elements(records.len() as u64));
    for (name, attrs, count) in [("1attr_13", &[0usize][..], 13), ("3attr_40", &[0, 2, 5][..], 40)] {
        let alive = alive_list(&sample, attrs, count);
        let router = AliveRouter::new(&alive);
        group.bench_function(&format!("{name}/router"), |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for page in &pages {
                    router.for_each_hit(&page.view(), |k, _, _| hits += k);
                }
                hits
            })
        });
        group.bench_function(&format!("{name}/nested"), |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for page in &pages {
                    nested_contains(&alive, &page.view(), |k, _, _| hits += k);
                }
                hits
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_single_split,
    bench_full_tree,
    bench_kernel,
    bench_alive_route
);
criterion_main!(benches);
