//! Split aggregation runs on one communication path — the batched,
//! sparse-encoded histogram reduce-scatter. These tests pin what that path
//! must keep true: the trained tree is byte-for-byte the tree the
//! per-attribute combines built, every node (or concatenated level) spends
//! exactly one collective on its statistics, the time accounting closes on
//! every rank, and the exact pass behind it moves no rank's clock.

use pdc_cgm::{Cluster, MachineConfig, Wire};
use pdc_clouds::{CloudsParams, SplitMethod};
use pdc_datagen::{generate, GeneratorConfig};
use pdc_dnc::Strategy;
use pdc_pario::DiskFarm;
use pdc_pclouds::{load_dataset, train, PcloudsConfig, TrainOutput};

fn test_config() -> PcloudsConfig {
    PcloudsConfig {
        clouds: CloudsParams {
            q_root: 200,
            q_min: 10,
            sample_size: 2_000,
            ..CloudsParams::default()
        },
        memory_limit_bytes: 32 * 1024,
        switch_threshold_intervals: 10,
    }
}

fn build(records: &[pdc_datagen::Record], p: usize, strategy: Strategy) -> TrainOutput {
    build_with(&test_config(), records, p, strategy)
}

fn build_with(
    cfg: &PcloudsConfig,
    records: &[pdc_datagen::Record],
    p: usize,
    strategy: Strategy,
) -> TrainOutput {
    let farm = DiskFarm::in_memory(p);
    let root = load_dataset(&farm, records, cfg.clouds.sample_size, cfg.clouds.sample_seed);
    let machine = MachineConfig {
        spans: true,
        ..MachineConfig::default()
    };
    train(&Cluster::with_config(p, machine), &farm, &root, cfg, strategy)
}

/// Per-rank accounting identity: the five time counters plus idle cover the
/// finish time exactly, whatever communication schedule ran.
fn assert_counters_partition(out: &TrainOutput) {
    for s in &out.run.stats {
        let c = &s.counters;
        let sum = c.compute_time
            + c.comm_time
            + c.io_time
            + c.fault_time
            + c.io_stall_time
            + s.idle_time();
        assert!(
            (sum - s.finish_time).abs() < 1e-9 * s.finish_time.max(1.0),
            "rank {}: counters {sum} != finish {}",
            s.rank,
            s.finish_time
        );
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a of the trained tree's `Wire` bytes, computed at commit fade3b8
/// with the per-attribute combines that this path replaced (6 000 default
/// records, `test_config`; 407 nodes, 17 086 bytes).
const GOLDEN_TREE_HASH: [(Strategy, u64); 2] = [
    (Strategy::Mixed, 0x92a6_c5fb_15b4_98f0),
    (Strategy::Concatenated, 0x395b_e22d_3292_c68c),
];

/// What the same runs put on the wire and on the clock: `(strategy, p,
/// bytes sent, alive intervals evaluated, alive points scanned, finish-time
/// bits)`, the counters summed over the ranks. The Mixed rows date from
/// commit 40351fa, when the SSE second pass tested every record against
/// every alive interval. A concatenated level evaluates more intervals and
/// points than Mixed, whose small nodes are solved in memory, and the same
/// at every `p`. The Concatenated bytes and finish bits at p > 1 were
/// re-pinned when one large-node body (`process_batch`) replaced
/// `process_large` and `process_level`: a level sends the same messages
/// with fewer bytes because (1) each election contribution is one
/// `Option<Candidate>` per task instead of one `(u64, Candidate)` per owned
/// attribute, (2) each rank reduces its exact candidates before electing,
/// (3) alive intervals travel grouped by task instead of each tagged with a
/// `u64`, and (4) under SS a level no longer all-gathers an empty alive
/// list. The trees, the alive counters and every Mixed row did not move.
const GOLDEN_ALIVE_PASS: [(Strategy, usize, u64, usize, u64, u64); 9] = [
    (Strategy::Mixed, 1, 0, 612, 20_333, 0x3fe5_20d3_02e0_9ee0),
    (Strategy::Mixed, 3, 820_832, 612, 20_333, 0x3fd0_35e4_ffe7_be5d),
    (Strategy::Mixed, 4, 981_495, 612, 20_333, 0x3fc8_e7cc_fcfc_5afc),
    (Strategy::Mixed, 8, 1_971_778, 612, 20_333, 0x3fc0_63e5_5bca_41b7),
    (Strategy::Mixed, 64, 18_842_887, 612, 20_333, 0x3fc1_9b9b_15fb_8dc7),
    (Strategy::Concatenated, 1, 0, 1_952, 35_517, 0x3ff4_633b_6e6b_18cb),
    (Strategy::Concatenated, 3, 1_783_160, 1_952, 35_517, 0x3fdf_f3bd_2294_94dd),
    (Strategy::Concatenated, 4, 2_188_245, 1_952, 35_517, 0x3fd9_1472_1826_163f),
    (Strategy::Concatenated, 8, 4_888_221, 1_952, 35_517, 0x3fd1_6b58_a808_b784),
];

#[test]
fn trained_tree_bytes_match_the_golden_hash() {
    // p = 3 keeps the fan-in schedule, p ∈ {4, 8, 64} take recursive
    // halving, p = 1 has no communication at all: the bytes must not
    // notice.
    let records = generate(6_000, GeneratorConfig::default());
    for (strategy, p, bytes_sent, intervals, points, finish_bits) in GOLDEN_ALIVE_PASS {
        let golden = GOLDEN_TREE_HASH.iter().find(|g| g.0 == strategy).expect("strategy").1;
        let out = build(&records, p, strategy);
        assert_eq!(
            fnv1a(&out.tree.to_bytes()),
            golden,
            "{strategy:?} p={p}: trained tree bytes changed"
        );
        assert_counters_partition(&out);
        let observed = (
            out.run.stats.iter().map(|s| s.counters.bytes_sent).sum::<u64>(),
            out.metrics.iter().map(|m| m.alive_intervals_evaluated).sum::<usize>(),
            out.metrics.iter().map(|m| m.alive_points_scanned).sum::<u64>(),
            out.runtime().to_bits(),
        );
        assert_eq!(
            observed,
            (bytes_sent, intervals, points, finish_bits),
            "{strategy:?} p={p}: wire bytes, alive counters or finish time moved"
        );
    }
}

/// Every rank's finish-time bits and the tree hash for 7 000 records of
/// generator seed 22 under a 4 KiB memory limit (73-record chunks), SSE,
/// p = 4. On this input the concatenated levels hold up to 23 tasks with
/// alive intervals at once, and under `Mixed` nine large nodes (4, 5, 10,
/// 21, 22, 85, 171, 684, 1368) leave a rank with no records to read before
/// the last chunk round. Both hashes and the Mixed bits date from commit
/// 2b4fe2d, the last with a second copy of the exact pass. The
/// Concatenated bits were re-pinned when one large-node body
/// (`process_batch`) replaced `process_level`: its elections and alive
/// exchange carry fewer bytes (see `GOLDEN_ALIVE_PASS`), nothing else moved.
const GOLDEN_EXACT_PASS: [(Strategy, u64, [u64; 4]); 2] = [
    (
        Strategy::Mixed,
        0xe806_0cec_3302_b319,
        [0x3fce_172c_08a1_06ab, 0x3fce_a182_ea47_b689, 0x3fce_9f1d_aca2_b1cf, 0x3fce_6643_e57e_338a],
    ),
    (
        Strategy::Concatenated,
        0x6f31_e484_3435_7fc7,
        [0x3fe4_e656_049e_c3d0, 0x3fe4_e643_56e3_d1bd, 0x3fe4_e630_a928_dfac, 0x3fe4_e643_56e3_d1bd],
    ),
];

#[test]
fn exact_pass_finish_bits_are_pinned_on_every_rank() {
    let records = generate(7_000, GeneratorConfig { seed: 22, ..GeneratorConfig::default() });
    let cfg = PcloudsConfig {
        memory_limit_bytes: 4096,
        ..test_config()
    };
    for (strategy, tree_hash, finish_bits) in GOLDEN_EXACT_PASS {
        let farm = DiskFarm::in_memory(4);
        let root = load_dataset(&farm, &records, cfg.clouds.sample_size, cfg.clouds.sample_seed);
        let out = train(&Cluster::new(4), &farm, &root, &cfg, strategy);
        assert_eq!(
            fnv1a(&out.tree.to_bytes()),
            tree_hash,
            "{strategy:?}: trained tree bytes changed"
        );
        let observed: Vec<u64> = out.run.stats.iter().map(|s| s.finish_time.to_bits()).collect();
        assert_eq!(observed, finish_bits, "{strategy:?}: a rank's finish time moved");
    }
}

#[test]
fn every_derive_phase_issues_exactly_one_reduce_scatter() {
    // Under each `pclouds.derive` span (one per large node, or one per
    // concatenated level) the statistics travel in exactly one
    // `cgm.reduce_scatter.*` and never in a per-attribute `cgm.reduce`;
    // the schedule is the one that `p` fixes.
    let records = generate(6_000, GeneratorConfig::default());
    for (p, schedule) in [(3usize, "cgm.reduce_scatter.fanin"), (4, "cgm.reduce_scatter.halving")] {
        for strategy in [Strategy::Mixed, Strategy::Concatenated] {
            let out = build(&records, p, strategy);
            for s in &out.run.stats {
                let mut derives = 0;
                for (d, derive) in s.spans.iter().enumerate() {
                    if derive.name != "pclouds.derive" {
                        continue;
                    }
                    derives += 1;
                    let children: Vec<&str> = s
                        .spans
                        .iter()
                        .filter(|c| c.parent == Some(d as u32))
                        .map(|c| c.name)
                        .collect();
                    let scatters: Vec<&&str> = children
                        .iter()
                        .filter(|n| n.starts_with("cgm.reduce_scatter"))
                        .collect();
                    assert_eq!(
                        scatters,
                        [&schedule],
                        "p={p} {strategy:?} rank {}: derive span {d} children {children:?}",
                        s.rank
                    );
                    assert!(
                        !children.iter().any(|n| *n == "cgm.reduce" || n.starts_with("cgm.reduce.")),
                        "p={p} {strategy:?} rank {}: per-attribute combine under derive: {children:?}",
                        s.rank
                    );
                }
                assert!(derives > 0, "p={p} {strategy:?} rank {}: no derive span", s.rank);
            }
        }
    }
}

#[test]
fn every_derive_phase_all_gathers_once_per_exchange_whatever_its_batch() {
    // A derive span, whether it covers one node or a concatenated level,
    // all-gathers once for the boundary election; under SSE once more for
    // the alive intervals and, when any survive, once for the exact
    // election. Under SS nothing else is exchanged.
    let records = generate(6_000, GeneratorConfig::default());
    for (method, allowed) in [(SplitMethod::SS, 1..=1), (SplitMethod::SSE, 2..=3)] {
        let cfg = PcloudsConfig {
            clouds: CloudsParams { method, ..test_config().clouds },
            ..test_config()
        };
        for strategy in [Strategy::Mixed, Strategy::Concatenated] {
            let out = build_with(&cfg, &records, 4, strategy);
            for s in &out.run.stats {
                let mut derives = 0;
                for (d, derive) in s.spans.iter().enumerate() {
                    if derive.name != "pclouds.derive" {
                        continue;
                    }
                    let gathers = s
                        .spans
                        .iter()
                        .filter(|c| c.parent == Some(d as u32) && c.name == "cgm.all_gather")
                        .count();
                    assert!(
                        allowed.contains(&gathers),
                        "{method:?} {strategy:?} rank {}: derive span {d} all-gathers {gathers}x",
                        s.rank
                    );
                    derives += 1;
                }
                assert!(derives > 0, "{method:?} {strategy:?} rank {}: no derive span", s.rank);
            }
        }
    }
}
