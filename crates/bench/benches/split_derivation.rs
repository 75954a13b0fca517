//! Micro-benchmarks of whole-node split derivation: SS vs SSE vs the
//! direct method, and SPRINT's attribute-list evaluation, at several node
//! sizes. This is the computational heart of every classifier compared in
//! the paper.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use pdc_baselines::build_tree_sprint;
use pdc_clouds::{
    build_tree, derive_split_in_memory, direct_best_split, draw_sample, CloudsParams, SortedSample,
    SplitMethod,
};
use pdc_datagen::{generate, GeneratorConfig};

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

criterion_group!(benches, bench_single_split, bench_full_tree);
criterion_main!(benches);
