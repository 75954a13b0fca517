//! The full production pipeline: **train → compile → serve**.
//!
//! Trains a pCLOUDS tree on a simulated 4-processor machine, compiles it
//! into the two serving layouts, verifies they predict bit-identically,
//! then deploys each by broadcast and scores a 100k-request stream,
//! comparing footprint, throughput and tail latency.
//!
//! ```sh
//! cargo run --release --example serving
//! ```

use pdc_cgm::Cluster;
use pdc_datagen::{generate, GeneratorConfig};
use pdc_pario::{BackendKind, DiskFarm, EngineConfig};
use pdc_pclouds::{train_in_memory, PcloudsConfig};
use pdc_serve::{assert_equivalent, serve, stage_requests, Predictor, ServeConfig, ALL_LAYOUTS};

fn main() {
    let p = 4;

    // 1. Train. (See examples/quickstart.rs for the training story.)
    let train_set = generate(30_000, GeneratorConfig::default());
    let tree = train_in_memory(&train_set, p, &PcloudsConfig::default()).tree;
    println!(
        "trained tree: {} nodes, depth {}",
        tree.num_nodes(),
        tree.depth()
    );

    // 2. Compile into each layout and check the bit-identity contract on
    //    fresh records the model has never seen.
    let probe = generate(5_000, GeneratorConfig { seed: 0xA11CE, ..GeneratorConfig::default() });
    assert_equivalent(&tree, &probe);
    println!("\nall layouts predict bit-identically on {} probe records", probe.len());
    for layout in ALL_LAYOUTS {
        let model = layout.compile(&tree);
        println!(
            "  {:>10}: {:>6} bytes resident, {} nodes",
            layout.name(),
            model.footprint_bytes(),
            model.num_nodes()
        );
    }

    // 3. Serve: broadcast-deploy each compiled model, then stream 100k
    //    requests per layout from the ranks' disks through the prefetching
    //    engine, scoring in 1024-record batches.
    let engine = EngineConfig {
        page_bytes: 16 * 1024,
        budget_bytes: 512 * 1024,
    };
    let cluster = Cluster::new(p);
    let requests = 100_000;
    println!("\nserving {requests} requests on {p} ranks (1024-record batches):");
    for layout in ALL_LAYOUTS {
        // A fresh farm per layout: no run inherits a warm buffer pool.
        let farm = DiskFarm::with_engine(p, BackendKind::InMemory, &engine);
        stage_requests(
            &farm,
            requests,
            GeneratorConfig { seed: 0x5e21e, ..GeneratorConfig::default() },
        );
        let report = serve(
            &cluster,
            &farm,
            &tree,
            &ServeConfig::new(layout, 1_024),
        );
        println!(
            "  {:>10}: {:>9.0} records/s  deploy {:.2} ms  p50 {:.2} ms  p99 {:.2} ms  p999 {:.2} ms",
            layout.name(),
            report.throughput_rps,
            report.deploy_seconds * 1e3,
            report.latency.p50 * 1e3,
            report.latency.p99 * 1e3,
            report.latency.p999 * 1e3,
        );
    }
    println!("\n(fig_serving sweeps layout x batch x engine; DESIGN.md section 12 has the cost story)");
}
