//! End-to-end tests of the divide-and-conquer framework via the
//! out-of-core distribution sort, across all strategies and machine sizes.

use pdc_cgm::Cluster;
use pdc_dnc::problems::sort::{OocSort, SortMeta};
use pdc_dnc::{run, Strategy, Task};
use pdc_pario::DiskFarm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn keys(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.random_range(0..1_000_000)).collect()
}

fn sort_with(strategy: Strategy, p: usize, input: &[u64]) -> (Vec<u64>, f64) {
    let farm = DiskFarm::in_memory(p);
    let meta = OocSort::scatter_input(&farm, input);
    let cluster = Cluster::new(p);
    let out = cluster.run(|proc| {
        let problem = OocSort {
            farm: &farm,
            chunk_records: 256,
            small_threshold: 200,
            sample_per_proc: 32,
        };
        run(proc, &problem, meta, strategy)
    });
    let sorted = OocSort::collect_sorted(&farm);
    (sorted, out.makespan())
}

fn expect_sorted(input: &[u64], output: &[u64]) {
    assert_eq!(output.len(), input.len(), "keys lost or duplicated");
    let mut expected = input.to_vec();
    expected.sort_unstable();
    assert_eq!(output, &expected[..], "output not globally sorted");
}

#[test]
fn mixed_strategy_sorts_correctly() {
    for p in [1, 2, 4, 5, 8] {
        let input = keys(3_000, 42);
        let (sorted, makespan) = sort_with(Strategy::Mixed, p, &input);
        expect_sorted(&input, &sorted);
        assert!(makespan > 0.0);
    }
}

#[test]
fn all_strategies_agree() {
    let input = keys(2_000, 7);
    for strategy in [
        Strategy::DataParallel,
        Strategy::Mixed,
        Strategy::MixedImmediate,
        Strategy::Concatenated,
        Strategy::TaskParallel,
    ] {
        let (sorted, _) = sort_with(strategy, 4, &input);
        expect_sorted(&input, &sorted);
    }
}

#[test]
fn duplicate_heavy_input() {
    let mut input = keys(1_000, 3);
    for k in input.iter_mut().skip(200) {
        *k = 77; // 80% duplicates
    }
    let (sorted, _) = sort_with(Strategy::Mixed, 4, &input);
    expect_sorted(&input, &sorted);
}

#[test]
fn all_equal_input_is_a_single_leaf() {
    let input = vec![5u64; 2_000];
    let (sorted, _) = sort_with(Strategy::Mixed, 3, &input);
    expect_sorted(&input, &sorted);
}

#[test]
fn small_root_goes_straight_to_task_parallelism() {
    let input = keys(100, 9); // below small_threshold
    let (sorted, _) = sort_with(Strategy::Mixed, 4, &input);
    expect_sorted(&input, &sorted);
}

#[test]
fn empty_input() {
    let input: Vec<u64> = Vec::new();
    let (sorted, _) = sort_with(Strategy::Mixed, 2, &input);
    assert!(sorted.is_empty());
}

#[test]
fn already_sorted_and_reversed_inputs() {
    let asc: Vec<u64> = (0..2_500).collect();
    let (sorted, _) = sort_with(Strategy::Mixed, 4, &asc);
    expect_sorted(&asc, &sorted);
    let desc: Vec<u64> = (0..2_500).rev().collect();
    let (sorted, _) = sort_with(Strategy::Mixed, 4, &desc);
    expect_sorted(&desc, &sorted);
}

#[test]
fn delayed_beats_immediate_on_message_startups() {
    // The paper's motivation for *delayed* task parallelism: batching the
    // small-node redistribution reduces message startups. The delayed batch
    // moves through one chunked sequence of all-to-alls, so with the same
    // input the immediate variant sends strictly more messages.
    let input = keys(4_000, 11);
    let count_messages = |strategy| {
        let farm = DiskFarm::in_memory(4);
        let meta = OocSort::scatter_input(&farm, &input);
        let cluster = Cluster::new(4);
        let out = cluster.run(|proc| {
            let problem = OocSort {
                farm: &farm,
                chunk_records: 256,
                small_threshold: 400,
                sample_per_proc: 32,
            };
            run(proc, &problem, meta, strategy)
        });
        out.total_counters().messages_sent
    };
    let delayed = count_messages(Strategy::Mixed);
    let immediate = count_messages(Strategy::MixedImmediate);
    assert!(delayed < immediate, "delayed {delayed} >= immediate {immediate}");
}

#[test]
fn report_counts_are_consistent() {
    let farm = DiskFarm::in_memory(4);
    let input = keys(3_000, 13);
    let meta = OocSort::scatter_input(&farm, &input);
    let cluster = Cluster::new(4);
    let out = cluster.run(|proc| {
        let problem = OocSort {
            farm: &farm,
            chunk_records: 256,
            small_threshold: 300,
            sample_per_proc: 32,
        };
        run(proc, &problem, meta, Strategy::Mixed)
    });
    let reports = out.results;
    // All processors see the same global task counts.
    for r in &reports {
        assert_eq!(r.large_tasks, reports[0].large_tasks);
        assert_eq!(r.small_tasks, reports[0].small_tasks);
    }
    // Every small task is solved by exactly one processor.
    let local_total: usize = reports.iter().map(|r| r.local_small_tasks).sum();
    assert_eq!(local_total, reports[0].small_tasks);
    assert!(reports[0].small_tasks > 0, "workload should produce small tasks");
    assert!(reports[0].large_tasks > 0);
}

#[test]
fn lpt_distributes_small_tasks_across_processors() {
    let farm = DiskFarm::in_memory(4);
    let input = keys(6_000, 17);
    let meta = OocSort::scatter_input(&farm, &input);
    let cluster = Cluster::new(4);
    let out = cluster.run(|proc| {
        let problem = OocSort {
            farm: &farm,
            chunk_records: 256,
            small_threshold: 200,
            sample_per_proc: 32,
        };
        run(proc, &problem, meta, Strategy::Mixed)
    });
    let solved: Vec<usize> = out.results.iter().map(|r| r.local_small_tasks).collect();
    let busy = solved.iter().filter(|&&s| s > 0).count();
    assert!(busy >= 2, "small tasks all piled on one processor: {solved:?}");
}

#[test]
fn root_task_metadata() {
    let t = Task::root(SortMeta { count: 10 });
    assert_eq!(t.meta.count, 10);
}

#[test]
fn task_parallel_strategy_sorts_correctly() {
    for p in [1, 2, 3, 4, 8] {
        let input = keys(3_000, 21);
        let (sorted, makespan) = sort_with(Strategy::TaskParallel, p, &input);
        expect_sorted(&input, &sorted);
        assert!(makespan > 0.0);
    }
}

#[test]
fn task_parallel_handles_duplicates_and_sorted_input() {
    let mut input = keys(1_500, 23);
    for k in input.iter_mut().skip(500) {
        *k = 42;
    }
    let (sorted, _) = sort_with(Strategy::TaskParallel, 4, &input);
    expect_sorted(&input, &sorted);
    let asc: Vec<u64> = (0..2_000).collect();
    let (sorted, _) = sort_with(Strategy::TaskParallel, 4, &asc);
    expect_sorted(&asc, &sorted);
}

#[test]
fn task_parallel_tradeoffs_match_the_paper() {
    // Section 3's characterization: once subtasks are assigned to
    // subgroups, "task parallelism involves no further communication
    // overhead" (few messages), but it pays a full redistribution of the
    // data at the upper splits and — tasks being uneven — suffers load
    // imbalance that data parallelism avoids.
    let input = keys(6_000, 29);
    let stats = |strategy| {
        let farm = DiskFarm::in_memory(4);
        let meta = OocSort::scatter_input(&farm, &input);
        let cluster = Cluster::new(4);
        let out = cluster.run(|proc| {
            let problem = OocSort {
                farm: &farm,
                chunk_records: 256,
                small_threshold: 400,
                sample_per_proc: 32,
            };
            run(proc, &problem, meta, strategy)
        });
        let sorted = OocSort::collect_sorted(&farm);
        expect_sorted(&input, &sorted);
        let totals = out.total_counters();
        (totals.messages_sent, totals.bytes_sent, out.imbalance())
    };
    let (m_msgs, _m_bytes, m_imb) = stats(Strategy::Mixed);
    let (t_msgs, t_bytes, t_imb) = stats(Strategy::TaskParallel);
    assert!(
        t_msgs < m_msgs,
        "task parallelism should need far fewer messages: {t_msgs} vs {m_msgs}"
    );
    assert!(
        t_imb > m_imb,
        "task parallelism should be less balanced: {t_imb} vs {m_imb}"
    );
    // The upper-level redistributions move at least the whole data set
    // once (8 bytes per key plus tagging).
    assert!(
        t_bytes as usize >= input.len() * 8,
        "redistribution volume {t_bytes} below data size"
    );
}

#[test]
fn task_parallel_finish_bits_are_pinned() {
    // Subgroups of 5, 3 and 2 ranks: every subgroup collective of the sort
    // (all-reduce, sample all-gather, the split's all-to-all) runs at a
    // non-trivial size. Literals computed at e37eb52, re-pinned when task
    // parallelism moved onto the frontier driver: a group of one streams
    // its tasks out-of-core until they are small instead of sorting its
    // whole subtask in memory, and the step's collectives are the plain
    // scoped `allreduce` and `all_gather`.
    const FINISH_BITS: [u64; 5] = [
        0x3f8a55a817cb1ebd,
        0x3f8ab9575b61be17,
        0x3f90370fcd2ba7bb,
        0x3f8ab6d839947e71,
        0x3f8e9de9f2c12207,
    ];
    let input = keys(3_000, 21);
    let farm = DiskFarm::in_memory(5);
    let meta = OocSort::scatter_input(&farm, &input);
    let out = Cluster::new(5).run(|proc| {
        let problem = OocSort {
            farm: &farm,
            chunk_records: 256,
            small_threshold: 200,
            sample_per_proc: 32,
        };
        run(proc, &problem, meta, Strategy::TaskParallel)
    });
    expect_sorted(&input, &OocSort::collect_sorted(&farm));
    let bits: Vec<u64> = out.stats.iter().map(|s| s.finish_time.to_bits()).collect();
    assert_eq!(bits, FINISH_BITS, "got {bits:#x?}");
    let totals = out.total_counters();
    assert_eq!((totals.messages_sent, totals.bytes_sent), (198, 65_916));
}
