//! Task-to-processor assignment for the (delayed) task-parallel phase.

/// Longest-processing-time-first assignment of tasks to `p` processors:
/// tasks are taken in decreasing cost order and each goes to the currently
/// least-loaded processor. Deterministic (ties broken by task index, then
/// by processor rank). Returns the owner of each task, indexed like
/// `costs`.
pub fn lpt_assign(costs: &[f64], p: usize) -> Vec<usize> {
    assert!(p >= 1);
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| {
        costs[b]
            .partial_cmp(&costs[a])
            .expect("NaN task cost")
            .then(a.cmp(&b))
    });
    let mut load = vec![0.0f64; p];
    let mut owner = vec![0usize; costs.len()];
    for idx in order {
        let target = (0..p)
            .min_by(|&a, &b| load[a].partial_cmp(&load[b]).unwrap().then(a.cmp(&b)))
            .unwrap();
        owner[idx] = target;
        load[target] += costs[idx];
    }
    owner
}

/// Speed-aware LPT for heterogeneous (straggling or failed) processors:
/// tasks are taken in decreasing cost order and each goes to the processor
/// whose *completion time* `(load + cost) / speed` is smallest. A speed of
/// `0.0` (or less) marks a failed processor, which receives no tasks; if
/// every speed is non-positive the assignment falls back to uniform-speed
/// [`lpt_assign`] so the schedule still covers all tasks. With all speeds
/// equal this reproduces `lpt_assign` exactly (same tie-breaking), which is
/// why the small-task phase can call it unconditionally: on a healthy
/// machine it is the paper's schedule.
pub fn lpt_assign_weighted(costs: &[f64], speeds: &[f64]) -> Vec<usize> {
    let p = speeds.len();
    assert!(p >= 1);
    if speeds.iter().all(|&s| s <= 0.0) {
        return lpt_assign(costs, p);
    }
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by(|&a, &b| {
        costs[b]
            .partial_cmp(&costs[a])
            .expect("NaN task cost")
            .then(a.cmp(&b))
    });
    let mut load = vec![0.0f64; p];
    let mut owner = vec![0usize; costs.len()];
    for idx in order {
        let target = (0..p)
            .filter(|&r| speeds[r] > 0.0)
            .min_by(|&a, &b| {
                let fa = (load[a] + costs[idx]) / speeds[a];
                let fb = (load[b] + costs[idx]) / speeds[b];
                fa.partial_cmp(&fb).expect("NaN completion time").then(a.cmp(&b))
            })
            .expect("at least one live processor");
        owner[idx] = target;
        load[target] += costs[idx];
    }
    owner
}

/// Maximum over minimum processor load for an assignment (1.0 = perfectly
/// balanced). Useful for diagnostics and tests.
pub fn assignment_imbalance(costs: &[f64], owners: &[usize], p: usize) -> f64 {
    let mut load = vec![0.0f64; p];
    for (c, &o) in costs.iter().zip(owners) {
        load[o] += c;
    }
    let max = load.iter().cloned().fold(0.0f64, f64::max);
    let mean = load.iter().sum::<f64>() / p as f64;
    if mean == 0.0 {
        1.0
    } else {
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_processor_takes_everything() {
        let owners = lpt_assign(&[3.0, 1.0, 2.0], 1);
        assert_eq!(owners, vec![0, 0, 0]);
    }

    #[test]
    fn equal_costs_spread_evenly() {
        let costs = vec![1.0; 8];
        let owners = lpt_assign(&costs, 4);
        let mut count = [0usize; 4];
        for &o in &owners {
            count[o] += 1;
        }
        assert_eq!(count, [2, 2, 2, 2]);
    }

    #[test]
    fn big_task_gets_its_own_processor() {
        // One task of cost 10 and six of cost 2 on 2 procs: LPT puts the
        // big one alone-ish.
        let costs = vec![10.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0];
        let owners = lpt_assign(&costs, 2);
        let big_owner = owners[0];
        let big_load: f64 = costs
            .iter()
            .zip(&owners)
            .filter(|&(_, &o)| o == big_owner)
            .map(|(c, _)| c)
            .sum();
        assert!((big_load - 12.0).abs() < 1e-9, "load {big_load}");
        assert!(assignment_imbalance(&costs, &owners, 2) < 1.1);
    }

    #[test]
    fn deterministic_under_ties() {
        let costs = vec![1.0, 1.0, 1.0, 1.0];
        assert_eq!(lpt_assign(&costs, 2), lpt_assign(&costs, 2));
    }

    #[test]
    fn empty_task_list() {
        assert!(lpt_assign(&[], 4).is_empty());
        assert_eq!(assignment_imbalance(&[], &[], 4), 1.0);
    }

    #[test]
    fn weighted_matches_uniform_when_speeds_equal() {
        let costs = vec![10.0, 2.0, 2.0, 5.0, 7.0, 1.0, 2.0];
        assert_eq!(
            lpt_assign_weighted(&costs, &[1.0; 3]),
            lpt_assign(&costs, 3)
        );
        assert_eq!(
            lpt_assign_weighted(&costs, &[2.5; 3]),
            lpt_assign(&costs, 3),
            "uniform scaling of speeds must not change the schedule"
        );
    }

    #[test]
    fn failed_processor_receives_nothing() {
        let costs = vec![4.0, 3.0, 2.0, 1.0, 5.0];
        let owners = lpt_assign_weighted(&costs, &[1.0, 0.0, 1.0]);
        assert!(owners.iter().all(|&o| o != 1), "{owners:?}");
    }

    #[test]
    fn slow_processor_gets_less_work() {
        // Rank 1 runs at quarter speed: it should carry roughly a quarter
        // of the work a full-speed rank carries.
        let costs = vec![1.0; 40];
        let speeds = [1.0, 0.25, 1.0, 1.0];
        let owners = lpt_assign_weighted(&costs, &speeds);
        let mut load = [0.0f64; 4];
        for (c, &o) in costs.iter().zip(&owners) {
            load[o] += c;
        }
        assert!(
            load[1] < load[0] / 2.0,
            "straggler must be relieved: {load:?}"
        );
        // Completion times (load / speed) should be close to balanced.
        let finish: Vec<f64> = load.iter().zip(&speeds).map(|(l, s)| l / s).collect();
        let max = finish.iter().cloned().fold(0.0f64, f64::max);
        let min = finish.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min < 1.5, "finish times {finish:?}");
    }

    /// The small tasks `tests/recovery.rs` dispatches: 400 split 2 : 1 until
    /// a side drops below 40, in breadth-first order.
    fn recovery_costs() -> Vec<f64> {
        let mut queue = std::collections::VecDeque::from([400u64]);
        let mut small = Vec::new();
        while let Some(n) = queue.pop_front() {
            let left = n * 2 / 3;
            for child in [left, n - left] {
                if child < 40 {
                    small.push(child as f64);
                } else {
                    queue.push_back(child);
                }
            }
        }
        small
    }

    /// Finish time of the slowest rank: `max(load / speed)`.
    fn finish(costs: &[f64], owners: &[usize], speeds: &[f64]) -> f64 {
        let mut load = vec![0.0f64; speeds.len()];
        for (c, &o) in costs.iter().zip(owners) {
            load[o] += c;
        }
        load.iter().zip(speeds).map(|(l, s)| l / s).fold(0.0, f64::max)
    }

    #[test]
    fn regrouping_beats_oblivious_lpt_under_straggler_skew() {
        let costs = recovery_costs();
        let speeds = [1.0, 1.0 / 6.0, 1.0, 1.0];
        let weighted = finish(&costs, &lpt_assign_weighted(&costs, &speeds), &speeds);
        let oblivious = finish(&costs, &lpt_assign(&costs, 4), &speeds);
        assert!(
            weighted < oblivious,
            "weighted LPT must relieve the straggler: {weighted} !< {oblivious}"
        );
    }

    #[test]
    fn regrouping_beats_oblivious_lpt_around_a_failed_rank() {
        // A failed rank is scheduled around (speed 0) but, were it given
        // work, would run it at the fault plan's `failed_skew` of 64.
        let costs = recovery_costs();
        let actual = [1.0, 1.0, 1.0 / 64.0, 1.0];
        let weighted = finish(
            &costs,
            &lpt_assign_weighted(&costs, &[1.0, 1.0, 0.0, 1.0]),
            &actual,
        );
        let oblivious = finish(&costs, &lpt_assign(&costs, 4), &actual);
        assert!(
            weighted < oblivious / 2.0,
            "a failed rank must dominate the oblivious schedule: {weighted} vs {oblivious}"
        );
    }

    #[test]
    fn all_failed_falls_back_to_uniform() {
        let costs = vec![3.0, 1.0];
        assert_eq!(
            lpt_assign_weighted(&costs, &[0.0, 0.0]),
            lpt_assign(&costs, 2)
        );
    }

    #[test]
    fn lpt_is_near_optimal_on_random_costs() {
        // LPT guarantees max load <= (4/3 - 1/3p) * OPT; against the trivial
        // lower bound mean load this means imbalance modest for many tasks.
        let costs: Vec<f64> = (0..100)
            .map(|i| 1.0 + ((i * 2654435761u64 as usize) % 97) as f64 / 10.0)
            .collect();
        let owners = lpt_assign(&costs, 8);
        assert!(assignment_imbalance(&costs, &owners, 8) < 1.15);
    }
}
