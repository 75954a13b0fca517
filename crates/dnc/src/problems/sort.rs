//! Demonstration problem: **parallel out-of-core distribution sort**.
//!
//! A classical divide-and-conquer over disk-resident data: partition the
//! keys around a sampled pivot (one streaming pass, local I/O only), recurse
//! on both halves, and sort small tasks in memory on a single processor.
//! The leaves of the divide-and-conquer tree, read in in-order (heap id)
//! order, form the globally sorted output.
//!
//! Exercises every part of the framework the way pCLOUDS does: sampling via
//! a collective, data-parallel streaming partition, delayed task
//! parallelism with compute-dependent parallel I/O for small tasks.

use pdc_cgm::{Group, OpKind, Proc};
use pdc_pario::DiskFarm;

use crate::problem::{Outcome, OocProblem, Task};

/// Task description: the global number of keys in the task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortMeta {
    /// Total keys across all processors' partitions of this task.
    pub count: u64,
}

/// The out-of-core distribution sort problem over a disk farm.
pub struct OocSort<'a> {
    /// Per-processor disks holding the task files.
    pub farm: &'a DiskFarm,
    /// Streaming chunk size (records) — the memory budget.
    pub chunk_records: usize,
    /// Tasks with at most this many keys go to the task-parallel path.
    pub small_threshold: u64,
    /// Keys each processor contributes to the pivot sample.
    pub sample_per_proc: usize,
}

impl OocSort<'_> {
    /// Name of the distributed file of task `id`.
    pub fn dist_file(id: u64) -> String {
        format!("sort-d{id}")
    }

    /// Name of the single-owner file of a small task `id`.
    pub fn owned_file(id: u64) -> String {
        format!("sort-o{id}")
    }

    /// Name of the sorted leaf output file of task `id`.
    pub fn leaf_file(id: u64) -> String {
        format!("sort-leaf{id}")
    }

    /// Create the root task's distributed input: slice `keys` round-robin
    /// across the farm (call once, outside the cluster).
    pub fn scatter_input(farm: &DiskFarm, keys: &[u64]) -> SortMeta {
        let p = farm.nprocs();
        for rank in 0..p {
            let mut disk = farm.lock(rank);
            let f = disk.create::<u64>(&Self::dist_file(1));
            let local: Vec<u64> = keys
                .iter()
                .copied()
                .skip(rank)
                .step_by(p)
                .collect();
            // Outside a cluster run there is no processor to charge, so the
            // initial load is free — matching the paper's assumption that
            // the data is already resident on the disks.
            disk.append_uncharged(&f, &local);
        }
        SortMeta {
            count: keys.len() as u64,
        }
    }

    /// Gather the sorted output after a run: leaves in in-order (ascending
    /// heap-id interval) order, each leaf's data concatenated over ranks.
    pub fn collect_sorted(farm: &DiskFarm) -> Vec<u64> {
        let mut leaf_ids: Vec<u64> = Vec::new();
        for rank in 0..farm.nprocs() {
            let disk = farm.lock(rank);
            for name in disk.file_names() {
                if let Some(id) = name.strip_prefix("sort-leaf") {
                    leaf_ids.push(id.parse().expect("leaf id"));
                }
            }
        }
        leaf_ids.sort_unstable();
        leaf_ids.dedup();
        // In-order position of a heap id: visit left subtree, node, right.
        // Leaves partition the key space by construction; ordering leaves by
        // their in-order rank equals ordering their key ranges.
        let mut ordered = leaf_ids.clone();
        ordered.sort_by_key(|&id| in_order_key(id));
        let mut out = Vec::new();
        for id in ordered {
            for rank in 0..farm.nprocs() {
                let mut disk = farm.lock(rank);
                if disk.exists(&Self::leaf_file(id)) {
                    let f = disk.open::<u64>(&Self::leaf_file(id));
                    out.extend(disk.read_all_uncharged(&f));
                }
            }
        }
        out
    }
}

/// In-order sort key of a heap-numbered node: the path from the root,
/// left = 0, right = 1, padded so shorter paths sort between their
/// subtrees. Encodes the path as a binary fraction plus depth tiebreak.
fn in_order_key(id: u64) -> (u128, u32) {
    let depth = 63 - id.leading_zeros();
    let path = id - (1u64 << depth); // bits of the root-to-node path
    // Scale the path to a fixed 64-bit fraction: each left/right choice
    // halves the interval.
    let frac = (path as u128) << (64 - depth as u128);
    // Center of the node's interval: add half of its width.
    let center = frac + (1u128 << (63 - depth as u128));
    (center, depth)
}

impl OocProblem for OocSort<'_> {
    type Meta = SortMeta;

    fn cost(&self, meta: &SortMeta) -> f64 {
        let n = meta.count.max(1) as f64;
        n * n.log2().max(1.0)
    }

    fn is_small(&self, meta: &SortMeta) -> bool {
        meta.count <= self.small_threshold
    }

    fn process(&self, proc: &mut Proc, tasks: &[Task<SortMeta>]) -> Vec<Outcome<SortMeta>> {
        tasks
            .iter()
            .map(|task| {
                // A group that does not dispatch small tasks (data and
                // concatenated parallelism, a task-parallel group of two or
                // more) hands them here: ship the task to a deterministic
                // owner and sort it there. This is what makes plain data
                // parallelism pay one redistribution + solve per tiny node —
                // the overhead the mixed strategy's delaying avoids.
                if self.is_small(&task.meta) {
                    let owner = (task.id % proc.nprocs() as u64) as usize;
                    self.redistribute(proc, &[(task.clone(), Group::new(vec![owner]))]);
                    if proc.rank() == owner {
                        self.solve_small_local(proc, task);
                    }
                    return Outcome::Solved;
                }
                self.step(proc, task)
            })
            .collect()
    }

    /// Compute-dependent parallel I/O for the whole list in one chunked
    /// sequence of personalized all-to-alls: every member streams its local
    /// files in assignment order and deals each task's keys round-robin
    /// over the task's group. A small task bound for one member lands in
    /// its owned file; any other task's keys replace its distributed file.
    fn redistribute(&self, proc: &mut Proc, assignments: &[(Task<SortMeta>, Group)]) {
        let me = proc.rank();
        let chunk = self.chunk_records;
        let sources: Vec<String> = assignments.iter().map(|(t, _)| Self::dist_file(t.id)).collect();
        let tmps: Vec<String> =
            assignments.iter().map(|(t, _)| format!("sort-tmp{}", t.id)).collect();
        let local_records: usize = {
            let mut disk = self.farm.lock(proc.world_rank());
            for ((_, group), tmp) in assignments.iter().zip(&tmps) {
                if group.contains(me) {
                    disk.create::<u64>(tmp);
                }
            }
            sources
                .iter()
                .map(|name| disk.num_records(&disk.open::<u64>(name)))
                .sum()
        };
        let rounds = proc.allreduce(local_records.div_ceil(chunk) as u64, u64::max) as usize;
        let (mut task_idx, mut cursor) = (0usize, 0usize);
        // Round-robin deal counters, one per task, staggered by member.
        let mut deal = vec![me; assignments.len()];
        for _ in 0..rounds {
            let mut parts: Vec<Vec<(u32, u64)>> = vec![Vec::new(); proc.nprocs()];
            let mut budget = chunk;
            {
                let mut disk = self.farm.lock(proc.world_rank());
                while budget > 0 && task_idx < assignments.len() {
                    let f = disk.open::<u64>(&sources[task_idx]);
                    let remaining = disk.num_records(&f) - cursor;
                    if remaining == 0 {
                        task_idx += 1;
                        cursor = 0;
                        continue;
                    }
                    let take = budget.min(remaining);
                    let keys = disk.read_range(proc, &f, cursor, take);
                    cursor += take;
                    budget -= take;
                    let (members, deal) = (assignments[task_idx].1.members(), &mut deal[task_idx]);
                    for k in keys {
                        parts[members[*deal % members.len()]].push((task_idx as u32, k));
                        *deal += 1;
                    }
                }
            }
            let received = proc.all_to_all(parts);
            let mut buffers: Vec<Vec<u64>> = vec![Vec::new(); assignments.len()];
            for (i, k) in received.into_iter().flatten() {
                buffers[i as usize].push(k);
            }
            let mut disk = self.farm.lock(proc.world_rank());
            for (buf, tmp) in buffers.iter().zip(&tmps) {
                if !buf.is_empty() {
                    let f = disk.open::<u64>(tmp);
                    disk.append(proc, &f, buf);
                }
            }
        }
        // Swap the moved keys in for the old distributed files.
        let mut disk = self.farm.lock(proc.world_rank());
        for (((task, group), source), tmp) in assignments.iter().zip(&sources).zip(&tmps) {
            disk.delete(source);
            if group.contains(me) {
                let owned = group.size() == 1 && self.is_small(&task.meta);
                let dest = if owned { Self::owned_file(task.id) } else { source.clone() };
                disk.rename(tmp, &dest);
            }
        }
    }

    fn solve_small_local(&self, proc: &mut Proc, task: &Task<SortMeta>) {
        let mut disk = self.farm.lock(proc.world_rank());
        let f = disk.open::<u64>(&Self::owned_file(task.id));
        let mut keys = disk.read_all(proc, &f);
        proc.charge(
            OpKind::Compare,
            (keys.len() as u64) * (keys.len().max(2) as f64).log2() as u64,
        );
        keys.sort_unstable();
        let leaf = disk.create::<u64>(&Self::leaf_file(task.id));
        disk.append(proc, &leaf, &keys);
        disk.delete(&Self::owned_file(task.id));
    }
}

impl OocSort<'_> {
    /// One divide step over the communicator it runs in: sample, pick a
    /// pivot, partition the members' local files.
    fn step(&self, proc: &mut Proc, task: &Task<SortMeta>) -> Outcome<SortMeta> {
        let src_name = Self::dist_file(task.id);
        // --- Pass 1: stream the local partition once, collecting the true
        // local min/max plus an evenly strided sample (no extra seeks).
        let (local_sample, local_min, local_max) = {
            let mut disk = self.farm.lock(proc.world_rank());
            let f = disk.open::<u64>(&src_name);
            let n = disk.num_records(&f);
            let stride = (n / self.sample_per_proc.max(1)).max(1);
            let mut sample = Vec::new();
            let (mut lo, mut hi) = (u64::MAX, u64::MIN);
            let mut reader = disk.reader(&f, self.chunk_records);
            let mut idx = 0usize;
            while let Some(chunk) = reader.next_chunk(&mut disk, proc) {
                proc.charge(OpKind::Misc, chunk.len() as u64);
                for k in chunk {
                    lo = lo.min(k);
                    hi = hi.max(k);
                    if idx.is_multiple_of(stride) {
                        sample.push(k);
                    }
                    idx += 1;
                }
            }
            (sample, lo, hi)
        };
        let gmin = proc.allreduce(local_min, u64::min);
        let gmax = proc.allreduce(local_max, u64::max);
        if gmin >= gmax {
            // Every key is identical (or the task is empty): already sorted.
            self.promote_to_leaf(proc, task.id);
            return Outcome::Solved;
        }
        let mut merged: Vec<u64> =
            proc.all_gather(local_sample).iter().flatten().copied().collect();
        proc.charge(
            OpKind::Compare,
            (merged.len() as u64) * (merged.len().max(2) as f64).log2() as u64,
        );
        merged.sort_unstable();
        let mut pivot = merged[merged.len() / 2];
        if pivot >= gmax {
            pivot = gmax - 1; // both sides stay non-empty: min <= pivot < max
        }
        // --- Streaming partition: local I/O only. ---
        let (left_name, right_name) = (Self::dist_file(2 * task.id), Self::dist_file(2 * task.id + 1));
        let (mut nl, mut nr) = (0u64, 0u64);
        {
            let mut disk = self.farm.lock(proc.world_rank());
            let src = disk.open::<u64>(&src_name);
            let left = disk.create::<u64>(&left_name);
            let right = disk.create::<u64>(&right_name);
            let mut reader = disk.reader(&src, self.chunk_records);
            let mut lbuf = Vec::new();
            let mut rbuf = Vec::new();
            let mut consumed = 0;
            while let Some(chunk) = reader.next_chunk(&mut disk, proc) {
                // Read for the last time: the source's extents go to the sides.
                consumed += chunk.len();
                disk.release_read(&src, consumed);
                proc.charge(OpKind::SplitTest, chunk.len() as u64);
                for k in chunk {
                    if k <= pivot {
                        lbuf.push(k);
                    } else {
                        rbuf.push(k);
                    }
                }
                disk.append(proc, &left, &lbuf);
                disk.append(proc, &right, &rbuf);
                nl += lbuf.len() as u64;
                nr += rbuf.len() as u64;
                lbuf.clear();
                rbuf.clear();
            }
            disk.delete(&src_name);
        }
        let (gl, gr) = (proc.allreduce(nl, |a, b| a + b), proc.allreduce(nr, |a, b| a + b));
        debug_assert!(gl > 0 && gr > 0, "pivot {pivot} failed to partition");
        Outcome::Split(SortMeta { count: gl }, SortMeta { count: gr })
    }

    /// A large task whose keys are all equal is already sorted: rename its
    /// distributed file into the leaf file.
    fn promote_to_leaf(&self, proc: &mut Proc, id: u64) {
        let mut disk = self.farm.lock(proc.world_rank());
        let src = disk.open::<u64>(&Self::dist_file(id));
        let keys = disk.read_all(proc, &src);
        let leaf = disk.create::<u64>(&Self::leaf_file(id));
        disk.append(proc, &leaf, &keys);
        disk.delete(&Self::dist_file(id));
    }
}
