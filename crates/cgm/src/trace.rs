//! ASCII utilization timeline of one rank — a coarse Gantt chart that shows
//! at a glance where a run's load imbalance lives. Like every timestamped
//! rendering it is a view of the recorded event DAG: run with
//! [`crate::MachineConfig::record`], assemble the
//! [`crate::EventGraph`], [`crate::replay()`] it, and pass both here.

use crate::evg::{Ev, EventGraph, FAULT_DISK};
use crate::replay::ReplayOutput;

/// Summarize rank `rank`'s replayed timeline into `buckets` equal slices
/// of `[0, horizon]`, reporting the dominant activity per slice: `C`
/// compute, `M` message (send cost, receive wait, link-fault penalty), `D`
/// disk (synchronous request, device stall, disk-fault penalty), `.` idle.
pub fn timeline(
    graph: &EventGraph,
    view: &ReplayOutput,
    rank: usize,
    horizon: f64,
    buckets: usize,
) -> String {
    assert!(buckets > 0);
    if horizon <= 0.0 {
        return ".".repeat(buckets);
    }
    // Accumulate attributed seconds per bucket per class.
    let mut acc = vec![[0.0f64; 3]; buckets]; // [compute, comm, io]
    let width = horizon / buckets as f64;
    for (i, ev) in graph.ranks[rank].iter().enumerate() {
        let class = match ev {
            Ev::Compute { .. } => 0,
            Ev::Push { .. } | Ev::Recv { .. } => 1,
            Ev::Disk { .. } | Ev::Wait { .. } | Ev::SyncDev => 2,
            Ev::Fault { kind, .. } => {
                if *kind == FAULT_DISK {
                    2
                } else {
                    1
                }
            }
            // Off the rank's timeline.
            Ev::Submit { .. } | Ev::Enter { .. } | Ev::Exit => continue,
        };
        let (start, end) = (view.start(rank, i).max(0.0), view.end[rank][i].min(horizon));
        if end <= start {
            continue;
        }
        let first = ((start / width) as usize).min(buckets - 1);
        let last = ((end / width) as usize).min(buckets - 1);
        for (b, slot) in acc.iter_mut().enumerate().take(last + 1).skip(first) {
            let b_start = b as f64 * width;
            let b_end = b_start + width;
            let overlap = end.min(b_end) - start.max(b_start);
            if overlap > 0.0 {
                slot[class] += overlap;
            }
        }
    }
    acc.iter()
        .map(|slot| {
            let busy = slot[0] + slot[1] + slot[2];
            if busy < width * 0.05 {
                '.'
            } else if slot[0] >= slot[1] && slot[0] >= slot[2] {
                'C'
            } else if slot[1] >= slot[2] {
                'M'
            } else {
                'D'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evg::{Breakdown, FAULT_LINK};
    use crate::replay::{replay, CostOverride};

    /// Render rank 0 of a hand-built graph.
    fn line(ranks: Vec<Vec<Ev>>, horizon: f64, buckets: usize) -> String {
        let p = ranks.len();
        let graph = EventGraph {
            nprocs: p,
            names: vec![],
            ranks,
            finish: vec![0.0; p],
            recorded: vec![Breakdown::default(); p],
        };
        timeline(
            &graph,
            &replay(&graph, &CostOverride::identity()),
            0,
            horizon,
            buckets,
        )
    }

    fn push(dst: u32, seconds: f64) -> Ev {
        Ev::Push {
            dst,
            tag: 0,
            bytes: 8,
            seconds,
            lat: 0.0,
            delay: 0.0,
            poison: false,
        }
    }

    #[test]
    fn timeline_classifies_dominant_activity() {
        // Rank 0 computes, reads, then waits for rank 1's push to land at
        // t=3; the last bucket is end-of-run idle.
        let rank0 = vec![
            Ev::Compute {
                kind: 6,
                seconds: 1.0,
            },
            Ev::Disk {
                read: true,
                bytes: 100,
                seconds: 1.0,
                seek: 0.0,
            },
            Ev::Recv { src: 1, tag: 0 },
        ];
        let rank1 = vec![
            Ev::Compute {
                kind: 6,
                seconds: 2.5,
            },
            push(0, 0.5),
        ];
        assert_eq!(line(vec![rank0, rank1], 4.0, 4), "CDM.");
    }

    #[test]
    fn send_events_fill_their_full_duration() {
        // One send that spans the whole first bucket must dominate it,
        // not register as a sliver.
        assert_eq!(line(vec![vec![push(1, 1.0)], vec![]], 2.0, 2), "M.");
    }

    #[test]
    fn timeline_classifies_fault_events() {
        // Disk faults count as I/O, link faults as communication.
        let evs = vec![
            Ev::Fault {
                kind: FAULT_DISK,
                seconds: 1.0,
            },
            Ev::Fault {
                kind: FAULT_LINK,
                seconds: 1.0,
            },
        ];
        assert_eq!(line(vec![evs], 2.0, 2), "DM");
    }

    #[test]
    fn device_service_is_off_the_timeline_and_stalls_count_as_io() {
        // The device serves [0, 2] in the background: bucket 0 is the
        // overlapped compute, and only the exposed stall [1, 2] shows up
        // as disk activity.
        let evs = vec![
            Ev::Submit {
                read: true,
                bytes: 4096,
                service: 2.0,
                seek: 0.0,
                fault: 0.0,
                retries: 0,
            },
            Ev::Compute {
                kind: 6,
                seconds: 1.0,
            },
            Ev::Wait {
                req: 0,
                service: 2.0,
            },
        ];
        assert_eq!(line(vec![evs], 2.0, 2), "CD");
    }

    #[test]
    fn empty_run_is_idle() {
        assert_eq!(line(vec![vec![]], 10.0, 5), ".....");
        assert_eq!(line(vec![vec![]], 0.0, 3), "...");
    }
}
