//! End-to-end pCLOUDS training tests: correctness across machine sizes and
//! strategies, equivalence properties, and virtual-time sanity.

use pdc_cgm::Cluster;
use pdc_clouds::{accuracy, build_tree, CloudsParams, SplitMethod};
use pdc_datagen::{generate, train_test_split, ClassifyFn, GeneratorConfig};
use pdc_dnc::Strategy;
use pdc_pario::DiskFarm;
use pdc_pclouds::{load_dataset, train, train_in_memory, PcloudsConfig};

fn test_config() -> PcloudsConfig {
    PcloudsConfig {
        clouds: CloudsParams {
            q_root: 200,
            q_min: 10,
            sample_size: 2_000,
            ..CloudsParams::default()
        },
        memory_limit_bytes: 32 * 1024, // force genuinely chunked streaming
        switch_threshold_intervals: 10,
    }
}

#[test]
fn trains_accurate_tree_on_f2() {
    let records = generate(10_000, GeneratorConfig::default());
    let (train_set, test_set) = train_test_split(records, 0.8);
    for p in [1, 2, 4] {
        let out = train_in_memory(&train_set, p, &test_config());
        let acc = accuracy(&out.tree, &test_set);
        assert!(acc > 0.95, "p={p}: accuracy {acc}");
        assert!(out.runtime() > 0.0);
    }
}

#[test]
fn tree_is_identical_across_machine_sizes() {
    // The split decisions depend only on global statistics, which are
    // combined exactly — so the tree must not depend on p.
    let records = generate(6_000, GeneratorConfig::default());
    let reference = train_in_memory(&records, 1, &test_config()).tree;
    for p in [2, 3, 4, 8] {
        let tree = train_in_memory(&records, p, &test_config()).tree;
        // Compare structure via rendering (ids may differ after grafting).
        assert_eq!(
            tree.render(),
            reference.render(),
            "tree differs between p=1 and p={p}"
        );
    }
}

#[test]
fn runtime_is_deterministic() {
    let records = generate(4_000, GeneratorConfig::default());
    let a = train_in_memory(&records, 4, &test_config());
    let b = train_in_memory(&records, 4, &test_config());
    assert_eq!(a.runtime().to_bits(), b.runtime().to_bits());
    assert_eq!(a.tree, b.tree);
}

#[test]
fn zero_fault_plan_reproduces_fault_free_virtual_times() {
    // Determinism regression for the fault subsystem: compiling fault
    // injection in but leaving it disabled (an inert FaultPlan) must not
    // move a single bit of virtual time relative to the plain machine.
    use pdc_cgm::{FaultPlan, MachineConfig};
    let records = generate(4_000, GeneratorConfig::default());
    let cfg = test_config();
    let build = |machine: MachineConfig| {
        let farm = DiskFarm::in_memory(4);
        let root = load_dataset(&farm, &records, cfg.clouds.sample_size, cfg.clouds.sample_seed);
        let cluster = Cluster::with_config(4, machine);
        train(&cluster, &farm, &root, &cfg, Strategy::Mixed)
    };
    let baseline = build(MachineConfig::default());
    let inert = FaultPlan::with_seed(0xABCD);
    assert!(inert.is_inert());
    let out = build(MachineConfig {
        faults: inert,
        ..MachineConfig::default()
    });
    assert_eq!(out.tree, baseline.tree);
    for (a, b) in baseline.run.stats.iter().zip(&out.run.stats) {
        assert_eq!(
            a.finish_time.to_bits(),
            b.finish_time.to_bits(),
            "virtual times diverged under an inert plan"
        );
    }
}

#[test]
fn speedup_with_more_processors() {
    // More processors must reduce the simulated parallel runtime for a
    // data set large enough to amortize communication.
    let records = generate(20_000, GeneratorConfig::default());
    let t1 = train_in_memory(&records, 1, &test_config()).runtime();
    let t4 = train_in_memory(&records, 4, &test_config()).runtime();
    let t8 = train_in_memory(&records, 8, &test_config()).runtime();
    assert!(t4 < t1, "t1={t1} t4={t4}");
    assert!(t8 < t4, "t4={t4} t8={t8}");
    let speedup4 = t1 / t4;
    assert!(speedup4 > 2.0, "speedup at p=4 only {speedup4:.2}");
}

#[test]
fn matches_sequential_clouds_accuracy() {
    let records = generate(8_000, GeneratorConfig::default());
    let (train_set, test_set) = train_test_split(records, 0.8);
    let cfg = test_config();
    let parallel = train_in_memory(&train_set, 4, &cfg);
    let seq_tree = build_tree(&train_set, &cfg.clouds);
    let (a_par, a_seq) = (
        accuracy(&parallel.tree, &test_set),
        accuracy(&seq_tree, &test_set),
    );
    assert!(
        (a_par - a_seq).abs() < 0.02,
        "parallel {a_par} vs sequential {a_seq}"
    );
}

#[test]
fn all_strategies_produce_working_trees() {
    let records = generate(6_000, GeneratorConfig::default());
    let (train_set, test_set) = train_test_split(records, 0.8);
    let cfg = test_config();
    let farm_for = || {
        let farm = DiskFarm::in_memory(4);
        let root = load_dataset(&farm, &train_set, cfg.clouds.sample_size, cfg.clouds.sample_seed);
        (farm, root)
    };
    for strategy in [
        Strategy::Mixed,
        Strategy::MixedImmediate,
        Strategy::DataParallel,
        Strategy::Concatenated,
        Strategy::TaskParallel,
    ] {
        let (farm, root) = farm_for();
        let cluster = Cluster::new(4);
        let out = train(&cluster, &farm, &root, &cfg, strategy);
        let acc = accuracy(&out.tree, &test_set);
        assert!(acc > 0.94, "{strategy:?}: accuracy {acc}");
    }
}

/// The paper's reason to delay small nodes: one batched redistribution of
/// every small node pays fewer message startups than shipping each node the
/// moment it appears. pCLOUDS moves the whole delayed batch through one
/// chunked sequence of all-to-alls, so the gap is strict.
#[test]
fn delayed_small_tasks_send_fewer_messages_than_immediate() {
    let records = generate(12_000, GeneratorConfig::default());
    let cfg = test_config();
    let messages = |strategy| {
        let farm = DiskFarm::in_memory(4);
        let root = load_dataset(&farm, &records, cfg.clouds.sample_size, cfg.clouds.sample_seed);
        let out = train(&Cluster::new(4), &farm, &root, &cfg, strategy);
        assert!(out.run.results[0].small_tasks > 1, "{strategy:?}: no small-task batch");
        out.run.total_counters().messages_sent
    };
    let delayed = messages(Strategy::Mixed);
    let immediate = messages(Strategy::MixedImmediate);
    assert!(delayed < immediate, "delayed {delayed} >= immediate {immediate}");
}

#[test]
fn mixed_produces_small_tasks_and_grafts_them() {
    let records = generate(12_000, GeneratorConfig::default());
    let out = train_in_memory(&records, 4, &test_config());
    let report = &out.run.results[0];
    assert!(report.small_tasks > 0, "expected small tasks: {report:?}");
    assert!(report.large_tasks > 0);
    let small_solved: usize = out.metrics.iter().map(|m| m.small_solved).sum();
    assert_eq!(small_solved, report.small_tasks);
}

#[test]
fn disks_are_clean_after_training() {
    // Every node file must be consumed: partitioned, redistributed or
    // deleted at leaves.
    let records = generate(5_000, GeneratorConfig::default());
    let cfg = test_config();
    let farm = DiskFarm::in_memory(4);
    let root = load_dataset(&farm, &records, cfg.clouds.sample_size, cfg.clouds.sample_seed);
    let cluster = Cluster::new(4);
    let _ = train(&cluster, &farm, &root, &cfg, Strategy::Mixed);
    for rank in 0..4 {
        let disk = farm.lock(rank);
        assert!(
            disk.file_names().is_empty(),
            "rank {rank} left files: {:?}",
            disk.file_names()
        );
    }
}

/// Task parallelism on the paper's workload at p = 4 and 8: subgroups
/// split by cost, each group of one streams its subtree out-of-core, and
/// the tree is the mixed strategy's. The disks are clean afterwards, and
/// `train` itself asserts that every sample was freed.
#[test]
fn task_parallelism_trains_the_mixed_tree() {
    let records = generate(6_000, GeneratorConfig::default());
    let (train_set, test_set) = train_test_split(records, 0.8);
    let cfg = test_config();
    let mixed = train_in_memory(&train_set, 4, &cfg).tree;
    for p in [4, 8] {
        let farm = DiskFarm::in_memory(p);
        let root = load_dataset(&farm, &train_set, cfg.clouds.sample_size, cfg.clouds.sample_seed);
        let out = train(&Cluster::new(p), &farm, &root, &cfg, Strategy::TaskParallel);
        let acc = accuracy(&out.tree, &test_set);
        assert!(acc > 0.94, "p={p}: accuracy {acc}");
        assert_eq!(out.tree, mixed, "p={p}");
        for rank in 0..p {
            assert!(farm.lock(rank).file_names().is_empty(), "p={p} rank {rank} left files");
        }
        let small_solved: usize = out.metrics.iter().map(|m| m.small_solved).sum();
        let local: usize = out.run.results.iter().map(|r| r.local_small_tasks).sum();
        assert_eq!(small_solved, local, "p={p}");
    }
}

#[test]
fn stopped_children_leave_no_fused_statistics() {
    // A partition fuses a large child's statistics into the parent's pass;
    // a child that then stops takes them along when it retires. At depth
    // limit 1 both of the root's large children stop — on the per-node path
    // (mixed) and among a level's inactive tasks (concatenated).
    use pdc_cgm::Group;
    use pdc_pclouds::{train_in_group, SharedBuild};
    let records = generate(8_000, GeneratorConfig::default());
    let mut cfg = test_config();
    cfg.clouds.max_depth = 1;
    for strategy in [Strategy::Mixed, Strategy::Concatenated] {
        let farm = DiskFarm::in_memory(4);
        let root = load_dataset(&farm, &records, cfg.clouds.sample_size, cfg.clouds.sample_seed);
        let build = SharedBuild::new(4, root.counts.clone(), root.sample.clone());
        let group = Group::world(4);
        Cluster::new(4).run(|proc| {
            train_in_group(proc, &group, &farm, &build, &root, &cfg, strategy)
        });
        for rank in 0..4 {
            let cached: Vec<u64> = build.rank(rank).stats_cache.keys().copied().collect();
            assert!(cached.is_empty(), "{strategy:?} rank {rank}: stats of {cached:?} kept");
        }
        assert_eq!(build.assemble().num_nodes(), 3, "{strategy:?}");
    }
}

#[test]
fn works_on_other_classification_functions() {
    for f in [ClassifyFn::F1, ClassifyFn::F6, ClassifyFn::F7] {
        let records = generate(
            8_000,
            GeneratorConfig {
                function: f,
                ..GeneratorConfig::default()
            },
        );
        let (train_set, test_set) = train_test_split(records, 0.8);
        let out = train_in_memory(&train_set, 4, &test_config());
        let acc = accuracy(&out.tree, &test_set);
        assert!(acc > 0.92, "{f:?}: accuracy {acc}");
    }
}

#[test]
fn noisy_data_still_trains() {
    let records = generate(
        8_000,
        GeneratorConfig {
            noise: 0.1,
            ..GeneratorConfig::default()
        },
    );
    let (train_set, test_set) = train_test_split(records, 0.8);
    let mut out = train_in_memory(&train_set, 4, &test_config());
    let unpruned = accuracy(&out.tree, &test_set);
    // MDL pruning removes the noise-fitted structure.
    pdc_clouds::mdl_prune(&mut out.tree, &pdc_clouds::MdlParams::default());
    let acc = accuracy(&out.tree, &test_set);
    // 10% label noise caps achievable accuracy near 90%.
    assert!(acc > 0.82, "accuracy {acc} (unpruned {unpruned})");
    assert!(acc >= unpruned - 0.01, "pruning should not hurt: {unpruned} -> {acc}");
}

#[test]
fn tiny_dataset_single_leaf_or_small_tree() {
    let records = generate(50, GeneratorConfig::default());
    let out = train_in_memory(&records, 4, &test_config());
    assert!(out.tree.num_nodes() >= 1);
    // Must classify its own training data reasonably.
    assert!(accuracy(&out.tree, &records) > 0.7);
}

#[test]
fn pure_dataset_yields_single_leaf() {
    let mut records = generate(2_000, GeneratorConfig::default());
    for r in &mut records {
        r.class = 0;
    }
    let out = train_in_memory(&records, 4, &test_config());
    assert_eq!(out.tree.num_nodes(), 1);
}

#[test]
fn survival_ratio_stays_low() {
    let records = generate(20_000, GeneratorConfig::default());
    let out = train_in_memory(&records, 4, &test_config());
    // At the root — where a full scan would be most expensive — the SSE
    // bound must prune almost everything (the CLOUDS claim).
    let root_ratio = out
        .metrics
        .iter()
        .map(|m| m.root_survival_ratio)
        .fold(0.0, f64::max);
    assert!(
        root_ratio < 0.25,
        "root survival ratio {root_ratio} — SSE pruning ineffective"
    );
}

#[test]
fn concatenated_level_batching_matches_per_node_processing() {
    // The batched (concatenated) path must derive the same splits as the
    // per-node data-parallel path — only the communication schedule and
    // memory budget differ — under both sampling methods. The second input
    // holds every categorical attribute constant and draws an 8-record
    // sample, so some large nodes get an empty sample slice and have no SS
    // candidate at all: SS makes them leaves on both paths.
    let plain = generate(8_000, GeneratorConfig::default());
    let mut no_categorical = plain.clone();
    for r in &mut no_categorical {
        r.categorical = [0; pdc_datagen::NUM_CATEGORICAL];
    }
    for method in [SplitMethod::SSE, SplitMethod::SS] {
        for (records, sample_size) in [(&plain, 2_000), (&no_categorical, 8)] {
            let mut cfg = test_config();
            cfg.clouds.method = method;
            cfg.clouds.sample_size = sample_size;
            let build = |strategy| {
                let farm = DiskFarm::in_memory(4);
                let root = load_dataset(&farm, records, sample_size, cfg.clouds.sample_seed);
                train(&Cluster::new(4), &farm, &root, &cfg, strategy)
            };
            let per_node = build(Strategy::DataParallel);
            let batched = build(Strategy::Concatenated);
            assert_eq!(
                per_node.tree.render(),
                batched.tree.render(),
                "{method:?}, sample {sample_size}: concatenated processing changed the tree"
            );
            // The level shares one memory budget under concatenated
            // processing, so chunks shrink and I/O request counts grow — the
            // paper's objection to concatenated parallelism for out-of-core
            // work.
            let io_per_node = per_node.run.total_counters().disk_reads;
            let io_batched = batched.run.total_counters().disk_reads;
            assert!(
                io_batched >= io_per_node,
                "{method:?}, sample {sample_size}: batched reads {io_batched} < per-node reads {io_per_node}"
            );
        }
    }
}

#[test]
fn spans_do_not_perturb_virtual_time() {
    // Observability must be free: enabling spans and event recording cannot
    // move a single bit of any rank's virtual clock.
    use pdc_cgm::MachineConfig;
    let records = generate(5_000, GeneratorConfig::default());
    let cfg = test_config();
    let build = |machine: MachineConfig| {
        let farm = DiskFarm::in_memory(4);
        let root = load_dataset(&farm, &records, cfg.clouds.sample_size, cfg.clouds.sample_seed);
        let cluster = Cluster::with_config(4, machine);
        train(&cluster, &farm, &root, &cfg, Strategy::Mixed)
    };
    let baseline = build(MachineConfig::default());
    let observed = build(MachineConfig {
        spans: true,
        record: true,
        ..MachineConfig::default()
    });
    assert_eq!(baseline.tree, observed.tree);
    for (a, b) in baseline.run.stats.iter().zip(&observed.run.stats) {
        assert!(a.spans.is_empty());
        assert!(!b.spans.is_empty());
        assert_eq!(
            a.finish_time.to_bits(),
            b.finish_time.to_bits(),
            "rank {}: finish time diverged with spans/record enabled",
            a.rank
        );
    }
}

#[test]
fn span_rollups_sum_to_finish_time() {
    // The whole run sits inside one "dnc.run" root span, and the clock
    // only advances inside its phase spans — so per-rank span rollups must
    // reconstruct the rank's finish time exactly.
    use pdc_cgm::MachineConfig;
    let records = generate(8_000, GeneratorConfig::default());
    let cfg = test_config();
    for strategy in [
        Strategy::Mixed,
        Strategy::DataParallel,
        Strategy::Concatenated,
        Strategy::TaskParallel,
    ] {
        let farm = DiskFarm::in_memory(4);
        let root = load_dataset(&farm, &records, cfg.clouds.sample_size, cfg.clouds.sample_seed);
        let machine = MachineConfig {
            spans: true,
            ..MachineConfig::default()
        };
        let cluster = Cluster::with_config(4, machine);
        let out = train(&cluster, &farm, &root, &cfg, strategy);
        let reg = out.span_metrics();
        for s in &out.run.stats {
            // The root span covers the rank's whole timeline.
            let top = reg.top_level_seconds(s.rank);
            assert!(
                (top - s.finish_time).abs() < 1e-9,
                "{strategy:?} rank {}: top-level spans {top} != finish {}",
                s.rank,
                s.finish_time
            );
            // Depth-1 phase spans partition the root span: the clock never
            // advances between them.
            let root_row = reg
                .rank_rows(s.rank)
                .find(|r| r.name == "dnc.run")
                .expect("dnc.run span");
            let depth1: f64 = reg
                .rank_rows(s.rank)
                .filter(|r| r.depth == 1)
                .map(|r| r.seconds())
                .sum();
            assert!(
                (depth1 - root_row.seconds()).abs() < 1e-9,
                "{strategy:?} rank {}: phase spans {depth1} != dnc.run {}",
                s.rank,
                root_row.seconds()
            );
        }
    }
}

#[test]
fn engine_disabled_farm_is_bit_identical() {
    // A farm built through the engine constructor with the engine disabled
    // must reproduce the plain farm's virtual times and counters exactly.
    use pdc_pario::{BackendKind, EngineConfig};
    let records = generate(4_000, GeneratorConfig::default());
    let cfg = test_config();
    let build = |farm: DiskFarm| {
        let root = load_dataset(&farm, &records, cfg.clouds.sample_size, cfg.clouds.sample_seed);
        let cluster = Cluster::new(4);
        train(&cluster, &farm, &root, &cfg, Strategy::Mixed)
    };
    let baseline = build(DiskFarm::in_memory(4));
    let disabled = build(DiskFarm::with_engine(
        4,
        BackendKind::InMemory,
        &EngineConfig::disabled(),
    ));
    assert_eq!(baseline.tree, disabled.tree);
    for (a, b) in baseline.run.stats.iter().zip(&disabled.run.stats) {
        assert_eq!(
            a.finish_time.to_bits(),
            b.finish_time.to_bits(),
            "rank {}: disabled engine perturbed the clock",
            a.rank
        );
        assert_eq!(a.counters, b.counters, "rank {}: counters diverged", a.rank);
    }
}

#[test]
fn engine_enabled_trains_the_same_tree_with_exact_accounting() {
    // The asynchronous engine changes *when* I/O time is paid, never what
    // is computed: the tree is identical, and every rank's time budget
    // still partitions exactly into the five accounted categories.
    use pdc_pario::{BackendKind, EngineConfig};
    let records = generate(6_000, GeneratorConfig::default());
    let cfg = test_config();
    let build = |farm: DiskFarm| {
        let root = load_dataset(&farm, &records, cfg.clouds.sample_size, cfg.clouds.sample_seed);
        let cluster = Cluster::new(4);
        train(&cluster, &farm, &root, &cfg, Strategy::Mixed)
    };
    let baseline = build(DiskFarm::in_memory(4));
    let engine_cfg = EngineConfig::new(1024 * 1024);
    let engined = build(DiskFarm::with_engine(4, BackendKind::InMemory, &engine_cfg));
    assert_eq!(baseline.tree, engined.tree, "engine must not change the tree");
    let mut cache_traffic = 0u64;
    for s in &engined.run.stats {
        let c = &s.counters;
        cache_traffic += c.cache_hits + c.cache_misses;
        let sum = c.compute_time
            + c.comm_time
            + c.io_time
            + c.fault_time
            + c.io_stall_time
            + s.idle_time();
        assert!(
            (sum - s.finish_time).abs() < 1e-9,
            "rank {}: accounting identity broke: {sum} vs {}",
            s.rank,
            s.finish_time
        );
    }
    assert!(cache_traffic > 0, "the engine must actually see the reads");
}

#[test]
fn engine_span_rollups_still_partition_the_run() {
    // With the engine (and its pario.cache.sync span) enabled, depth-1
    // phase spans must still partition dnc.run exactly — stalls are always
    // charged inside some span.
    use pdc_cgm::MachineConfig;
    use pdc_pario::{BackendKind, EngineConfig};
    let records = generate(6_000, GeneratorConfig::default());
    let cfg = test_config();
    let farm = DiskFarm::with_engine(
        4,
        BackendKind::InMemory,
        &EngineConfig::new(512 * 1024),
    );
    let root = load_dataset(&farm, &records, cfg.clouds.sample_size, cfg.clouds.sample_seed);
    let machine = MachineConfig {
        spans: true,
        ..MachineConfig::default()
    };
    let cluster = Cluster::with_config(4, machine);
    let out = train(&cluster, &farm, &root, &cfg, Strategy::Mixed);
    let reg = out.span_metrics();
    for s in &out.run.stats {
        let top = reg.top_level_seconds(s.rank);
        assert!(
            (top - s.finish_time).abs() < 1e-9,
            "rank {}: top-level spans {top} != finish {}",
            s.rank,
            s.finish_time
        );
        let root_row = reg
            .rank_rows(s.rank)
            .find(|r| r.name == "dnc.run")
            .expect("dnc.run span");
        let depth1: f64 = reg
            .rank_rows(s.rank)
            .filter(|r| r.depth == 1)
            .map(|r| r.seconds())
            .sum();
        assert!(
            (depth1 - root_row.seconds()).abs() < 1e-9,
            "rank {}: phase spans {depth1} != dnc.run {}",
            s.rank,
            root_row.seconds()
        );
    }
}

#[test]
fn gauges_do_not_perturb_virtual_time() {
    // The full observability stack — spans, event DAG and resource gauges —
    // must stay pure observation end to end: identical tree, identical
    // finish-time bits, identical counters.
    use pdc_cgm::MachineConfig;
    let records = generate(5_000, GeneratorConfig::default());
    let cfg = test_config();
    let build = |machine: MachineConfig| {
        let farm = DiskFarm::in_memory(4);
        let root = load_dataset(&farm, &records, cfg.clouds.sample_size, cfg.clouds.sample_seed);
        let cluster = Cluster::with_config(4, machine);
        train(&cluster, &farm, &root, &cfg, Strategy::Mixed)
    };
    let baseline = build(MachineConfig::default());
    let observed = build(MachineConfig {
        spans: true,
        record: true,
        gauges: true,
        ..MachineConfig::default()
    });
    assert_eq!(baseline.tree, observed.tree);
    for (a, b) in baseline.run.stats.iter().zip(&observed.run.stats) {
        assert!(a.gauges.is_empty());
        assert!(!b.gauges.is_empty(), "rank {}: no gauges recorded", b.rank);
        assert_eq!(
            a.finish_time.to_bits(),
            b.finish_time.to_bits(),
            "rank {}: finish time diverged with gauges enabled",
            a.rank
        );
        assert_eq!(a.counters, b.counters, "rank {}: counters diverged", a.rank);
    }
}

#[test]
fn build_report_levels_reconcile_with_span_rollups() {
    // The per-level attribution of the build report must reconstruct the
    // same seconds as summing the node-attributed spans directly: for the
    // mixed strategy those are the `dnc.task` spans (data-parallel nodes)
    // and the `pclouds.small_solve` spans (locally solved small nodes).
    use pdc_cgm::{BuildReport, MachineConfig};
    use std::collections::BTreeMap;
    let records = generate(8_000, GeneratorConfig::default());
    let cfg = test_config();
    let farm = DiskFarm::in_memory(4);
    let root = load_dataset(&farm, &records, cfg.clouds.sample_size, cfg.clouds.sample_seed);
    let machine = MachineConfig {
        spans: true,
        gauges: true,
        ..MachineConfig::default()
    };
    let cluster = Cluster::with_config(4, machine);
    let out = train(&cluster, &farm, &root, &cfg, Strategy::Mixed);
    let report = BuildReport::from_stats(&out.run.stats);
    assert!(!report.levels.is_empty());

    let reg = out.span_metrics();
    let mut expected: BTreeMap<usize, f64> = BTreeMap::new();
    for row in reg.rows() {
        if row.name != "dnc.task" && row.name != "pclouds.small_solve" {
            continue;
        }
        let id = row
            .attrs
            .iter()
            .find(|(k, _)| *k == "task")
            .map(|&(_, v)| v as u64)
            .expect("node-attributed span");
        let depth = (63 - id.leading_zeros()) as usize;
        *expected.entry(depth).or_default() += row.seconds();
    }
    let got: Vec<usize> = report.levels.iter().map(|l| l.depth).collect();
    let want: Vec<usize> = expected.keys().copied().collect();
    assert_eq!(got, want, "level set mismatch");
    for level in &report.levels {
        let want = expected[&level.depth];
        assert!(
            (level.seconds - want).abs() < 1e-9,
            "depth {}: report {} != span rollup {}",
            level.depth,
            level.seconds,
            want
        );
        assert!(level.imbalance >= 1.0 - 1e-12);
    }
}

#[test]
fn resident_task_bytes_respect_the_small_task_bound() {
    // The `dnc.resident_bytes` gauge tracks the data a rank holds for the
    // small task it is solving; its high-water mark can never exceed the
    // largest node the q schedule lets the mixed strategy treat as small.
    use pdc_cgm::{resolve_series, MachineConfig};
    use pdc_datagen::Record;
    use pdc_pario::Rec;
    let records = generate(8_000, GeneratorConfig::default());
    let cfg = test_config();
    let farm = DiskFarm::in_memory(4);
    let root = load_dataset(&farm, &records, cfg.clouds.sample_size, cfg.clouds.sample_seed);
    let machine = MachineConfig {
        gauges: true,
        ..MachineConfig::default()
    };
    let cluster = Cluster::with_config(4, machine);
    let out = train(&cluster, &farm, &root, &cfg, Strategy::Mixed);

    let n_root = records.len() as u64;
    let bound = (cfg.small_task_max_records(n_root) * Record::ENCODED_BYTES as u64) as f64;
    assert!(bound > 0.0);
    let mut solved_somewhere = false;
    for s in &out.run.stats {
        let series = resolve_series(&s.gauges);
        let Some(resident) = series.iter().find(|g| g.name == "dnc.resident_bytes") else {
            continue;
        };
        let peak = resident.peak();
        assert!(
            peak <= bound,
            "rank {}: resident {peak} bytes exceeds the small-task bound {bound}",
            s.rank
        );
        solved_somewhere |= peak > 0.0;
        let (_, last) = *resident.points.last().unwrap();
        assert_eq!(last, 0.0, "rank {}: resident bytes did not drain", s.rank);
    }
    assert!(solved_somewhere, "no rank ever held a small task resident");
}
