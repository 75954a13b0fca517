//! Genuinely out-of-core training: the training set is streamed onto
//! **real files** (one scratch file per virtual processor, holding every
//! node file of that processor as a list of extents) and never held in
//! memory; every pass of the algorithm streams it back through a bounded
//! buffer.
//!
//! ```sh
//! cargo run --release --example out_of_core
//! ```

use pdc_cgm::Cluster;
use pdc_clouds::accuracy;
use pdc_datagen::{generate, GeneratorConfig, RecordStream};
use pdc_dnc::Strategy;
use pdc_pario::{BackendKind, DiskFarm};
use pdc_pclouds::{load_dataset_stream, train, PcloudsConfig};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(200_000);
    let p = 4;
    let scratch = std::env::temp_dir().join(format!("pclouds-ooc-{}", std::process::id()));
    println!("streaming {n} records onto real files under {}", scratch.display());

    let farm = DiskFarm::new(p, BackendKind::OnDisk(scratch.clone()));
    let config = PcloudsConfig::paper_scaled(n as u64);
    println!(
        "memory limit: {} KB ({} records per chunk)",
        config.memory_limit_bytes / 1024,
        config.chunk_records(52)
    );

    // The record stream is generated lazily — at no point does the full
    // training set exist in memory.
    let stream = RecordStream::new(GeneratorConfig::default()).take(n);
    let root = load_dataset_stream(&farm, stream, config.clouds.sample_size, config.clouds.sample_seed);
    let data_bytes = farm.used_bytes();
    println!(
        "loaded: {} records, {:.1} MB on disk, class counts {:?}",
        root.n(),
        data_bytes as f64 / 1e6,
        root.counts
    );

    let cluster = Cluster::new(p);
    let out = train(&cluster, &farm, &root, &config, Strategy::Mixed);
    let totals = out.run.total_counters();
    println!(
        "trained in {:.3} simulated seconds; I/O: {:.1} MB read / {:.1} MB written over {} requests",
        out.runtime(),
        totals.disk_read_bytes as f64 / 1e6,
        totals.disk_write_bytes as f64 / 1e6,
        totals.disk_reads + totals.disk_writes,
    );
    println!(
        "tree: {} nodes, {} leaves, depth {}",
        out.tree.num_nodes(),
        out.tree.num_leaves(),
        out.tree.depth()
    );

    // A scratch file never shrinks, so its length is the most the disk ever
    // held: a partition pass consumes its node file while the children grow.
    let scratch_bytes: u64 = std::fs::read_dir(&scratch)
        .expect("scratch directory")
        .map(|entry| entry.and_then(|e| e.metadata()).expect("scratch file").len())
        .sum();
    println!(
        "scratch high-water: {:.1} MB for {:.1} MB of data ({:.2}× the data)",
        scratch_bytes as f64 / 1e6,
        data_bytes as f64 / 1e6,
        scratch_bytes as f64 / data_bytes as f64
    );

    // Spot-check the model on fresh data.
    let test = generate(
        20_000,
        GeneratorConfig {
            seed: 0xfeed,
            ..GeneratorConfig::default()
        },
    );
    println!("holdout accuracy: {:.4}", accuracy(&out.tree, &test));

    // The farm unlinks its scratch files; the directory is ours.
    drop(farm);
    let _ = std::fs::remove_dir_all(&scratch);
}
