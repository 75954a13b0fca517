//! pCLOUDS as an instance of the generic out-of-core divide-and-conquer
//! framework (Section 5 of the paper).
//!
//! **Large nodes** (data parallelism, all I/O local):
//!
//! 1. *Statistics* — each processor accumulates interval class frequencies
//!    and categorical count matrices over its local partition (one
//!    streaming pass, or for free when the parent's partition pass fused
//!    them in).
//! 2. *Deriving the splitting point* — the **replication method** with the
//!    **attribute-based approach**: all attributes' statistics are
//!    combined to their owning processors in one batched reduce-scatter
//!    (see [`crate::comm`]); owners prefix-sum the frequency vectors and
//!    evaluate gini at the interval boundaries;
//!    a min-loc reduction yields `gini_min`; owners determine the **alive
//!    intervals** (SSE lower bound) and the statuses are broadcast
//!    (all-gather); alive intervals are LPT-assigned, their points shipped
//!    with one personalized all-to-all (**single-assignment approach**),
//!    sorted and scanned exactly; a final min-loc + broadcast fixes the
//!    splitter.
//! 3. *Partitioning* — sample points are split first (giving the child
//!    interval sets), then each processor streams its local partition into
//!    local left/right files while fusing the children's statistics —
//!    no communication, near-perfect balance by Lemma 2.
//!
//! **Small nodes** (delayed task parallelism) are LPT-assigned to single
//! processors, their data is moved with batched compute-dependent parallel
//! I/O, and each owner builds the subtree in memory with the direct method.

use pdc_cgm::{OpKind, Proc};
use pdc_clouds::derive::{NodeAccumulator, NodeStats};
use pdc_clouds::gini::total;
use pdc_clouds::{
    build_tree_with_stats, exact_interval_scan, AliveInterval, AliveRouter, Candidate,
    ClassCounts, CloudsParams, SplitMethod,
};
use pdc_datagen::{Record, NUM_CATEGORICAL, NUM_NUMERIC};
use pdc_dnc::{lpt_assign, Outcome, OocProblem, Task};
use pdc_pario::{DiskFarm, Rec, RecBuf};

use crate::comm::HistMsg;
use crate::config::PcloudsConfig;
use crate::state::SharedBuild;

/// Move a numeric attribute's statistics out of `stats` for the
/// contributing path of a combine, leaving a cheap placeholder — the
/// statistics are consumed by the collective, so cloning them would only
/// duplicate the allocation.
fn take_numeric(stats: &mut NodeStats, a: usize) -> pdc_clouds::AttrIntervalStats {
    std::mem::replace(
        &mut stats.numeric[a],
        pdc_clouds::AttrIntervalStats::new(
            a,
            pdc_clouds::IntervalSet::from_boundaries(Vec::new()),
            0,
        ),
    )
}

/// Move a categorical attribute's count matrix out of `stats` (see
/// [`take_numeric`]).
fn take_categorical(stats: &mut NodeStats, a: usize) -> pdc_clouds::CountMatrix {
    std::mem::replace(
        &mut stats.categorical[a],
        pdc_clouds::CountMatrix::new(a, 0, 0),
    )
}

/// The better of the boundary (SS) candidate and the exact-pass candidate,
/// either of which may be absent.
fn better_of(ss: Option<Candidate>, exact: Option<Candidate>) -> Option<Candidate> {
    match exact {
        Some(exact) => Candidate::better(ss, exact),
        None => ss,
    }
}

/// Task description: the node's global class distribution.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct NodeMeta {
    /// Global class counts of the node.
    pub(crate) counts: ClassCounts,
}

impl NodeMeta {
    /// Number of records in the node.
    pub(crate) fn n(&self) -> u64 {
        total(&self.counts)
    }
}

/// The pCLOUDS divide-and-conquer problem.
pub(crate) struct PcloudsProblem<'a> {
    /// Per-processor local disks holding the node files.
    pub(crate) farm: &'a DiskFarm,
    /// Run configuration.
    pub(crate) config: &'a PcloudsConfig,
    /// Per-processor build state (tree replicas, samples, caches).
    pub(crate) build: &'a SharedBuild,
    /// Training-set size (drives the q schedule).
    pub(crate) n_root: u64,
}

impl PcloudsProblem<'_> {
    /// Name of the distributed data file of node `id`.
    pub(crate) fn node_file(id: u64) -> String {
        format!("node-{id}")
    }

    /// Name of the single-owner file of a small node `id`.
    pub(crate) fn owned_file(id: u64) -> String {
        format!("owned-{id}")
    }

    fn chunk(&self) -> usize {
        self.config.chunk_records(Record::ENCODED_BYTES)
    }

    fn params(&self) -> &CloudsParams {
        &self.config.clouds
    }

    /// One streaming pass accumulating this processor's node statistics,
    /// over the intervals the node's sample gives.
    fn local_stats_pass(&self, proc: &mut Proc, id: u64, q: usize, chunk: usize) -> NodeStats {
        let span = proc.span("pclouds.attr_scan", &[("node", id as i64)]);
        let mut stats = NodeAccumulator::from_sample(&self.build.sample(id), q);
        let mut disk = self.farm.lock(proc.rank());
        let f = disk.open::<Record>(&Self::node_file(id));
        let local_bytes = disk.num_records(&f) * Record::ENCODED_BYTES;
        let mut reader = disk.reader(&f, chunk);
        while let Some(chunk) = reader.next_chunk(&mut disk, proc) {
            proc.charge_ws(OpKind::RecordScan, chunk.len() as u64, local_bytes);
            stats.add_records(&chunk);
        }
        proc.span_end(span);
        stats.finish()
    }

    /// Phase 2a, communication: the replication method (attribute-based).
    /// Every attribute's statistics of every node in `stats` travel in
    /// **one** reduce-scatter — destination `a % p` (numeric) /
    /// `(A_num + a) % p` (categorical) gets one block with all its
    /// attributes. Returns this rank's block: its owned attributes in
    /// ascending global order, `stats.len()` consecutive entries per
    /// attribute, in `stats` order.
    fn combine_statistics(&self, proc: &mut Proc, stats: &mut [NodeStats]) -> Vec<HistMsg> {
        let p = proc.nprocs();
        let mut blocks: Vec<Vec<HistMsg>> = vec![Vec::new(); p];
        for a in 0..NUM_NUMERIC {
            for s in stats.iter_mut() {
                blocks[a % p].push(HistMsg::Numeric(take_numeric(s, a)));
            }
        }
        for a in 0..NUM_CATEGORICAL {
            for s in stats.iter_mut() {
                blocks[(NUM_NUMERIC + a) % p].push(HistMsg::Categorical(take_categorical(s, a)));
            }
        }
        proc.reduce_scatter_blocks(blocks, HistMsg::merged)
    }

    /// Phase 2a, owner side: evaluate boundary (numeric) or subset
    /// (categorical) ginis of one combined attribute — "completely local to
    /// the processor". Returns the attribute's best candidate and, for a
    /// numeric attribute, its statistics (for alive-interval determination).
    fn evaluate_owned(
        &self,
        proc: &mut Proc,
        msg: HistMsg,
        node_total: &ClassCounts,
    ) -> (Option<Candidate>, Option<pdc_clouds::AttrIntervalStats>) {
        match msg {
            HistMsg::Numeric(attr_stats) => {
                // Prefix sums over the boundary frequency vectors + one
                // gini evaluation per boundary.
                let nb = attr_stats.intervals().boundaries().len() as u64;
                proc.charge(OpKind::HistUpdate, nb * node_total.len() as u64);
                proc.charge(OpKind::GiniEval, nb);
                (attr_stats.best_boundary(node_total), Some(attr_stats))
            }
            HistMsg::Categorical(matrix) => {
                proc.charge(OpKind::GiniEval, matrix.counts().rows() as u64);
                let cand = matrix.best_split(node_total, self.params().cat_exhaustive_limit);
                (cand, None)
            }
        }
    }

    /// Phase 2a for one node: returns this processor's best owned candidate
    /// and the attribute statistics it owns.
    fn derive_boundary_candidates(
        &self,
        proc: &mut Proc,
        stats: &mut NodeStats,
        node_total: &ClassCounts,
    ) -> (Option<Candidate>, Vec<pdc_clouds::AttrIntervalStats>) {
        let mut local_best: Option<Candidate> = None;
        let mut owned = Vec::new();
        for msg in self.combine_statistics(proc, std::slice::from_mut(stats)) {
            let (cand, attr_stats) = self.evaluate_owned(proc, msg, node_total);
            if let Some(cand) = cand {
                local_best = Candidate::better(local_best, cand);
            }
            owned.extend(attr_stats);
        }
        (local_best, owned)
    }

    /// Share locally-held best candidates: one all-to-all broadcast of the
    /// per-processor winners, after which every rank deterministically
    /// keeps the canonically smallest (the paper's min-reduction on local
    /// minimum ginis, made canonical so ties never depend on ranks).
    fn elect_candidate(
        &self,
        proc: &mut Proc,
        local: Option<Candidate>,
    ) -> Option<Candidate> {
        let gathered = proc.all_gather(local);
        let mut best: Option<Candidate> = None;
        for cand in gathered.into_iter().flatten() {
            best = Candidate::better(best, cand);
        }
        best
    }

    /// Phase 2b: determine alive intervals on the owners and replicate the
    /// statuses everywhere (all-to-all broadcast of the interval statuses).
    fn determine_alive(
        &self,
        proc: &mut Proc,
        owned: &[pdc_clouds::AttrIntervalStats],
        node_total: &ClassCounts,
        gini_min: f64,
    ) -> Vec<AliveInterval> {
        let mut local_alive = Vec::new();
        for attr_stats in owned {
            proc.charge(
                OpKind::GiniEval,
                attr_stats.intervals().num_intervals() as u64,
            );
            local_alive.extend(attr_stats.alive_intervals(node_total, gini_min));
        }
        let mut all: Vec<AliveInterval> =
            proc.all_gather(local_alive).into_iter().flatten().collect();
        // Deterministic global order (owners may interleave attributes).
        all.sort_by_key(|a| (a.attr, a.index));
        all
    }

    /// Phase 2c: single-assignment evaluation of alive intervals — the one
    /// body of the exact pass, for one node or a whole concatenated level.
    /// `alive` holds `(task index, interval)` sorted by task, so each task's
    /// intervals form one run; `scanned` lists the tasks whose node files are
    /// streamed, in order, `chunk` records per round. Each interval is
    /// LPT-assigned to one processor; the streaming pass routes each alive
    /// point to its interval's owner (one personalized all-to-all per chunk
    /// round); owners sort and scan exactly. Returns this rank's
    /// `(task index, candidate)` list, for the caller's election.
    fn evaluate_alive(
        &self,
        proc: &mut Proc,
        tasks: &[Task<NodeMeta>],
        scanned: &[usize],
        alive: &[(u64, AliveInterval)],
        chunk: usize,
    ) -> Vec<(u64, Candidate)> {
        let p = proc.nprocs();
        let costs: Vec<f64> = alive
            .iter()
            .map(|(_, a)| {
                let n = a.count.max(2) as f64;
                n * n.log2()
            })
            .collect();
        let owners = lpt_assign(&costs, p);
        let rounds = {
            let disk = self.farm.lock(proc.rank());
            let total_chunks: usize = scanned
                .iter()
                .map(|&i| {
                    let f = disk.open::<Record>(&Self::node_file(tasks[i].id));
                    disk.num_records(&f).div_ceil(chunk)
                })
                .sum();
            proc.allreduce(total_chunks as u64, u64::max)
        };
        // One router per task: over the task's run of `alive`, with the
        // position where that run starts.
        let mut routers: Vec<Option<(usize, AliveRouter)>> = vec![None; tasks.len()];
        let mut base = 0usize;
        for run in alive.chunk_by(|a, b| a.0 == b.0) {
            let router = AliveRouter::new(run.iter().map(|(_, interval)| interval));
            routers[run[0].0 as usize] = Some((base, router));
            base += run.len();
        }
        // The points this rank owns, by position in `alive`.
        let mut mine: Vec<Vec<(f64, u8)>> = vec![Vec::new(); alive.len()];
        let mut task_pos = 0usize;
        let mut cursor = 0usize;
        let mut page = RecBuf::new();
        for _ in 0..rounds {
            // Up to `chunk` records from the scanned files, each piece
            // routed through its task's router as it is read. A rank whose
            // files are exhausted reads nothing and pays nothing.
            let mut buckets: Vec<Vec<(u64, f64, u8)>> = vec![Vec::new(); p];
            let mut records = 0usize;
            {
                let mut disk = self.farm.lock(proc.rank());
                let mut budget = chunk;
                while budget > 0 && task_pos < scanned.len() {
                    let i = scanned[task_pos];
                    let f = disk.open::<Record>(&Self::node_file(tasks[i].id));
                    let remaining = disk.num_records(&f) - cursor;
                    if remaining == 0 {
                        task_pos += 1;
                        cursor = 0;
                        continue;
                    }
                    let take = budget.min(remaining);
                    let piece = disk.read_range_into(proc, &f, cursor, take, &mut page);
                    if let Some((base, router)) = &routers[i] {
                        router.for_each_hit(&piece, |k, v, class| {
                            let k = base + k;
                            buckets[owners[k]].push((k as u64, v, class));
                        });
                    }
                    records += piece.len();
                    cursor += take;
                    budget -= take;
                }
            }
            // The modelled machine tests every record against every
            // interval; the host asks the router once per attribute.
            proc.charge(OpKind::SplitTest, (records * alive.len()) as u64);
            for batch in proc.all_to_all(buckets) {
                for (k, v, class) in batch {
                    mine[k as usize].push((v, class));
                }
            }
        }

        // Exact scans of the intervals this processor owns.
        let mut local_best: Vec<(u64, Candidate)> = Vec::new();
        let mut metrics_points = 0u64;
        let mut metrics_intervals = 0usize;
        for (k, (t, interval)) in alive.iter().enumerate() {
            if owners[k] != proc.rank() {
                continue;
            }
            let points = &mut mine[k];
            metrics_points += points.len() as u64;
            metrics_intervals += 1;
            let n = points.len().max(2) as u64;
            let ws = points.len() * 16;
            proc.charge_ws(OpKind::Compare, n * (n as f64).log2().ceil() as u64, ws);
            proc.charge_ws(OpKind::GiniEval, n, ws);
            let node_total = &tasks[*t as usize].meta.counts;
            if let Some(c) = exact_interval_scan(points, interval, node_total) {
                local_best.push((*t, c));
            }
        }
        let mut st = self.build.rank(proc.rank());
        st.metrics.alive_intervals_evaluated += metrics_intervals;
        st.metrics.alive_points_scanned += metrics_points;
        local_best
    }

    /// Phase 3: partition data and sample points; fuse the children's
    /// statistics into the same pass. Pure local I/O — "this step does not
    /// require any communication, and gives almost perfect load balance".
    #[allow(clippy::too_many_arguments)]
    fn partition(
        &self,
        proc: &mut Proc,
        task: &Task<NodeMeta>,
        cand: &Candidate,
        left_counts: &ClassCounts,
        right_counts: &ClassCounts,
        chunk: usize,
    ) {
        let id = task.id;
        let (lid, rid) = (2 * id, 2 * id + 1);
        let n_left = total(left_counts);
        let n_right = total(right_counts);
        let q_left = self.params().q_for_node(n_left, self.n_root);
        let q_right = self.params().q_for_node(n_right, self.n_root);

        // Fused child statistics only pay off for children that will be
        // processed as large nodes; small children go to the direct method.
        let fuse_left = !self.is_small_n(n_left);
        let fuse_right = !self.is_small_n(n_right);
        // Split the sample first: the children's interval boundaries come
        // from their sample slices, which lets the data pass below fuse the
        // children's statistics. Every modelled processor splits its own
        // replica and is charged for it; the host splits once.
        let (ls, rs) = self.build.split_sample(id, &cand.splitter);
        proc.charge(OpKind::SplitTest, (ls.len() + rs.len()) as u64);
        let mut stats_left = fuse_left.then(|| NodeAccumulator::from_sample(&ls, q_left));
        let mut stats_right = fuse_right.then(|| NodeAccumulator::from_sample(&rs, q_right));

        {
            let mut disk = self.farm.lock(proc.rank());
            let src = disk.open::<Record>(&Self::node_file(id));
            let left = disk.create::<Record>(&Self::node_file(lid));
            let right = disk.create::<Record>(&Self::node_file(rid));
            let local_bytes = disk.num_records(&src) * Record::ENCODED_BYTES;
            let mut reader = disk.reader(&src, chunk);
            let (mut lbuf, mut rbuf) = (RecBuf::new(), RecBuf::new());
            let mut consumed = 0;
            while let Some(chunk) = reader.next_chunk(&mut disk, proc) {
                // The node is read for the last time: its extents become
                // the children's as they grow.
                consumed += chunk.len();
                disk.release_read(&src, consumed);
                proc.charge_ws(OpKind::SplitTest, chunk.len() as u64, local_bytes);
                // Route first — whole records, as bytes — and accumulate per
                // side afterwards: each child's statistics see one
                // contiguous batch (attribute-major).
                for i in 0..chunk.len() {
                    if cand.splitter.goes_left_at(&chunk, i) {
                        lbuf.push_from(&chunk, i);
                    } else {
                        rbuf.push_from(&chunk, i);
                    }
                }
                if let Some(stats) = stats_left.as_mut() {
                    stats.add_records(&lbuf.view());
                }
                if let Some(stats) = stats_right.as_mut() {
                    stats.add_records(&rbuf.view());
                }
                // The fused statistics update is the cost the separate pass
                // would have paid.
                let fused = lbuf.len() as u64 * u64::from(fuse_left)
                    + rbuf.len() as u64 * u64::from(fuse_right);
                proc.charge_ws(OpKind::RecordScan, fused, local_bytes);
                disk.append_chunk(proc, &left, lbuf.view());
                disk.append_chunk(proc, &right, rbuf.view());
                lbuf.clear();
                rbuf.clear();
            }
            disk.delete(&Self::node_file(id));
        }

        // Update the skeleton replica and the statistics cache.
        let mut st = self.build.rank(proc.rank());
        let node = *st.node_of.get(&id).expect("skeleton node for split");
        let tree = st.tree.as_mut().expect("skeleton");
        let (l, r) = tree.split_leaf(
            node,
            cand.splitter.clone(),
            left_counts.clone(),
            right_counts.clone(),
        );
        st.node_of.insert(lid, l);
        st.node_of.insert(rid, r);
        if let Some(stats) = stats_left {
            st.stats_cache.insert(lid, stats.finish());
        }
        if let Some(stats) = stats_right {
            st.stats_cache.insert(rid, stats.finish());
        }
    }

    /// Node `id` is a leaf on this processor: drop its data file, the
    /// statistics its parent's partition fused for it, and this processor's
    /// hold on its sample.
    fn retire(&self, proc: &Proc, id: u64) {
        self.farm.lock(proc.rank()).delete(&Self::node_file(id));
        self.build.rank(proc.rank()).stats_cache.remove(&id);
        self.build.release_sample(id);
    }

    fn is_small_n(&self, n: u64) -> bool {
        self.params().q_for_node(n, self.n_root) <= self.config.switch_threshold_intervals
    }

    /// Batched election: every processor contributes its `(task, candidate)`
    /// pairs to one all-gather; everyone deterministically keeps the lowest
    /// gini per task (ties to the earliest contributor in rank order).
    fn elect_batch(
        &self,
        proc: &mut Proc,
        local: &[(u64, Candidate)],
    ) -> std::collections::HashMap<u64, Candidate> {
        let gathered = proc.all_gather(local.to_vec());
        let mut best: std::collections::HashMap<u64, Candidate> = std::collections::HashMap::new();
        for list in gathered {
            for (t, c) in list {
                let merged = Candidate::better(best.remove(&t), c).unwrap();
                best.insert(t, merged);
            }
        }
        best
    }

    /// Phase 3: partition on the elected candidate, or conclude the node is
    /// a leaf. Shared by the per-node and the batched (concatenated) paths.
    fn conclude(
        &self,
        proc: &mut Proc,
        task: &Task<NodeMeta>,
        best: Option<Candidate>,
        chunk: usize,
    ) -> Outcome<NodeMeta> {
        let id = task.id;
        let node_total = &task.meta.counts;
        let Some(cand) = best else {
            self.retire(proc, id);
            return Outcome::Solved;
        };
        let left_counts = cand.left_counts.clone();
        let right_counts = pdc_clouds::gini::sub(node_total, &left_counts);
        if total(&left_counts) == 0 || total(&right_counts) == 0 {
            self.retire(proc, id);
            return Outcome::Solved;
        }
        self.partition(proc, task, &cand, &left_counts, &right_counts, chunk);
        Outcome::Split(
            NodeMeta {
                counts: left_counts,
            },
            NodeMeta {
                counts: right_counts,
            },
        )
    }
}

impl OocProblem for PcloudsProblem<'_> {
    type Meta = NodeMeta;

    fn cost(&self, meta: &NodeMeta) -> f64 {
        let n = meta.n().max(2) as f64;
        n * n.log2()
    }

    fn is_small(&self, meta: &NodeMeta) -> bool {
        self.is_small_n(meta.n())
    }

    fn task_bytes(&self, meta: &NodeMeta) -> u64 {
        meta.n() * Record::ENCODED_BYTES as u64
    }

    fn process_large(&self, proc: &mut Proc, task: &Task<NodeMeta>) -> Outcome<NodeMeta> {
        let id = task.id;
        let node_total = task.meta.counts.clone();
        let n = task.meta.n();

        // Stopping criteria are evaluated on global counts — identical on
        // every rank, no communication needed.
        if self.params().should_stop(&node_total, task.depth) {
            self.retire(proc, id);
            return Outcome::Solved;
        }

        let q = self.params().q_for_node(n, self.n_root);

        // Phase 1: local statistics (fused from the parent when possible).
        let stats_span =
            proc.span("pclouds.stats", &[("node", id as i64), ("records", n as i64)]);
        let cached = {
            let mut st = self.build.rank(proc.rank());
            st.stats_cache.remove(&id)
        };
        let mut local_stats = match cached {
            Some(stats) => stats,
            None => self.local_stats_pass(proc, id, q, self.chunk()),
        };
        proc.span_end(stats_span);
        let derive_span = proc.span("pclouds.derive", &[("node", id as i64)]);

        // Phase 2: derive the splitting point (replication method,
        // attribute-based); the exact pass runs iff the method is SSE, so
        // under SS a node without a boundary candidate is a leaf.
        let (local_best, owned) =
            self.derive_boundary_candidates(proc, &mut local_stats, &node_total);
        let ss_candidate = self.elect_candidate(proc, local_best);
        let alive = if self.params().method == SplitMethod::SSE {
            let gini_min = ss_candidate.as_ref().map_or(f64::INFINITY, |c| c.gini);
            self.determine_alive(proc, &owned, &node_total, gini_min)
        } else {
            Vec::new()
        };
        if id == 1 {
            let alive_records: u64 = alive.iter().map(|a| a.count).sum();
            let ratio = alive_records as f64 / n.max(1) as f64;
            self.build.rank(proc.rank()).metrics.root_survival_ratio = ratio;
        }
        let best = if alive.is_empty() {
            ss_candidate
        } else {
            let alive: Vec<(u64, AliveInterval)> = alive.into_iter().map(|a| (0, a)).collect();
            let mine =
                self.evaluate_alive(proc, std::slice::from_ref(task), &[0], &alive, self.chunk());
            let local_best = mine.into_iter().fold(None, |best, (_, c)| Candidate::better(best, c));
            let exact = self.elect_candidate(proc, local_best);
            better_of(ss_candidate, exact)
        };

        proc.span_end(derive_span);
        proc.in_span("pclouds.partition", &[("node", id as i64)], |proc| {
            self.conclude(proc, task, best, self.chunk())
        })
    }

    /// Batched compute-dependent parallel I/O: all small nodes' data moves
    /// in one chunked sequence of personalized all-to-alls ("the assigning
    /// and processing of small nodes are delayed ... to reduce the number
    /// of message startups").
    fn redistribute_small(&self, proc: &mut Proc, assignments: &[(Task<NodeMeta>, usize)]) {
        let span = proc.span(
            "pclouds.small_redistribute",
            &[("tasks", assignments.len() as i64)],
        );
        let p = proc.nprocs();
        let chunk = self.chunk();
        // Create the destination files on their owners.
        {
            let mut disk = self.farm.lock(proc.rank());
            for (task, owner) in assignments {
                if *owner == proc.rank() {
                    disk.create::<Record>(&Self::owned_file(task.id));
                }
                // Small tasks are solved exactly: no sample needed.
                self.build.release_sample(task.id);
            }
        }
        // Total local records across all small files fixes the round count.
        let local_total: usize = {
            let disk = self.farm.lock(proc.rank());
            assignments
                .iter()
                .map(|(t, _)| {
                    let f = disk.open::<Record>(&Self::node_file(t.id));
                    disk.num_records(&f)
                })
                .sum()
        };
        let rounds = proc.allreduce(local_total.div_ceil(chunk) as u64, u64::max) as usize;
        let mut task_idx = 0usize;
        let mut offset = 0usize;
        let mut page = RecBuf::new();
        for _ in 0..rounds {
            // Fill up to `chunk` records from the concatenated small files.
            let mut buckets: Vec<Vec<(u64, Record)>> = vec![Vec::new(); p];
            let mut budget = chunk;
            {
                let mut disk = self.farm.lock(proc.rank());
                while budget > 0 && task_idx < assignments.len() {
                    let (task, owner) = &assignments[task_idx];
                    let f = disk.open::<Record>(&Self::node_file(task.id));
                    let remaining = disk.num_records(&f) - offset;
                    if remaining == 0 {
                        task_idx += 1;
                        offset = 0;
                        continue;
                    }
                    let take = budget.min(remaining);
                    let recs = disk.read_range_into(proc, &f, offset, take, &mut page);
                    offset += take;
                    disk.release_read(&f, offset);
                    budget -= take;
                    buckets[*owner].extend(recs.iter().map(|r| (task.id, r)));
                }
            }
            let received = proc.all_to_all(buckets);
            let mut disk = self.farm.lock(proc.rank());
            // Group arrivals by task to write few, large requests.
            let mut by_task: std::collections::HashMap<u64, RecBuf<Record>> =
                std::collections::HashMap::new();
            for batch in received {
                for (tid, rec) in batch {
                    by_task.entry(tid).or_default().push(&rec);
                }
            }
            let mut tids: Vec<u64> = by_task.keys().copied().collect();
            tids.sort_unstable();
            for tid in tids {
                let f = disk.open::<Record>(&Self::owned_file(tid));
                disk.append_chunk(proc, &f, by_task[&tid].view());
            }
        }
        // Drop the source files.
        {
            let mut disk = self.farm.lock(proc.rank());
            for (task, _) in assignments {
                disk.delete(&Self::node_file(task.id));
            }
        }
        proc.span_end(span);
    }

    fn redistribute_one(&self, proc: &mut Proc, task: &Task<NodeMeta>, owner: usize) {
        let pair = [(task.clone(), owner)];
        self.redistribute_small(proc, &pair);
    }

    fn solve_small_local(&self, proc: &mut Proc, task: &Task<NodeMeta>) {
        let span = proc.span(
            "pclouds.small_solve",
            &[("task", task.id as i64), ("records", task.meta.n() as i64)],
        );
        let records = {
            let mut disk = self.farm.lock(proc.rank());
            let f = disk.open::<Record>(&Self::owned_file(task.id));
            let recs = disk.read_all(proc, &f);
            disk.delete(&Self::owned_file(task.id));
            recs
        };
        // "In the direct method we sort the points along every numeric
        // attribute and compute the gini index at each point. Further,
        // these small nodes are processed in-memory."
        let params = CloudsParams {
            method: SplitMethod::Direct,
            max_depth: self.params().max_depth.saturating_sub(task.depth),
            ..self.params().clone()
        };
        let (subtree, stats) = build_tree_with_stats(&records, &params);
        let n = records.len().max(2) as u64;
        let ws = records.len() * Record::ENCODED_BYTES;
        let attrs = (NUM_NUMERIC + NUM_CATEGORICAL) as u64;
        proc.charge_ws(OpKind::RecordScan, stats.record_visits, ws);
        proc.charge_ws(
            OpKind::Compare,
            stats.record_visits * attrs * (n as f64).log2().ceil() as u64,
            ws,
        );
        proc.span_end(span);
        let mut st = self.build.rank(proc.rank());
        st.metrics.small_solved += 1;
        st.local_subtrees.push((task.id, subtree));
    }

    /// Task-queue lookahead from the framework: issue asynchronous prefetch
    /// reads for the next task's data file so the transfer rides under the
    /// current task's compute. Small tasks read their single-owner file;
    /// everything else reads the distributed node file. The engine reads the
    /// file ahead only when all of it fits beside the current task's dirty
    /// pages; free (and silent) when the disk farm has no engine.
    fn prefetch_task(&self, proc: &mut Proc, task: &Task<NodeMeta>) {
        let mut disk = self.farm.lock(proc.rank());
        let owned = Self::owned_file(task.id);
        if disk.exists(&owned) {
            disk.prefetch_file_by_name(proc, &owned);
        } else {
            disk.prefetch_file_by_name(proc, &Self::node_file(task.id));
        }
    }

    /// End of the run: flush dirty write-back pages and drain the I/O
    /// device timeline so the tree build's accounting closes exactly.
    fn finish(&self, proc: &mut Proc) {
        let mut disk = self.farm.lock(proc.rank());
        disk.sync_engine(proc);
    }

    /// **Concatenated parallelism** (Section 3.3): process a whole tree
    /// level together, spooling the level's communication into batched
    /// collectives (one attribute-statistics combine for *all* nodes, one
    /// candidate election, one alive-interval exchange) — at the price the
    /// paper calls out: "the available memory has to be shared by the many
    /// tasks that are solved together", so every streaming pass runs with
    /// `memory_limit / level_size`.
    fn process_level(
        &self,
        proc: &mut Proc,
        tasks: &[Task<NodeMeta>],
    ) -> Vec<Outcome<NodeMeta>> {
        use std::collections::HashMap;
        let level = tasks.len();
        if level <= 1 {
            return tasks.iter().map(|t| self.process_large(proc, t)).collect();
        }
        let chunk = (self.chunk() / level).max(1);

        // Tasks that stop become leaves immediately (global counts, no
        // communication).
        let active: Vec<usize> = (0..level)
            .filter(|&i| !self.params().should_stop(&tasks[i].meta.counts, tasks[i].depth))
            .collect();
        for (i, task) in tasks.iter().enumerate() {
            if !active.contains(&i) {
                self.retire(proc, task.id);
            }
        }
        if active.is_empty() {
            return vec![Outcome::Solved; level];
        }

        // --- Phase 1: per-task local statistics under the shared budget.
        let stats_span = proc.span("pclouds.stats", &[("tasks", active.len() as i64)]);
        let mut level_stats: Vec<NodeStats> = Vec::with_capacity(active.len());
        for &i in &active {
            let id = tasks[i].id;
            let q = self.params().q_for_node(tasks[i].meta.n(), self.n_root);
            let cached = {
                let mut st = self.build.rank(proc.rank());
                st.stats_cache.remove(&id)
            };
            let stats = match cached {
                Some(s) => s,
                None => self.local_stats_pass(proc, id, q, chunk),
            };
            level_stats.push(stats);
        }
        proc.span_end(stats_span);

        // --- Phase 2a: ONE reduce-scatter for the whole level; this rank's
        // block holds `active.len()` consecutive entries per owned
        // attribute, in `active` order.
        let derive_span = proc.span("pclouds.derive", &[("tasks", active.len() as i64)]);
        let mut my_candidates: Vec<(u64, Candidate)> = Vec::new();
        let mut owned_stats: Vec<(usize, pdc_clouds::AttrIntervalStats)> = Vec::new();
        let mine = self.combine_statistics(proc, &mut level_stats);
        for (k, msg) in mine.into_iter().enumerate() {
            let i = active[k % active.len()];
            let (cand, attr_stats) = self.evaluate_owned(proc, msg, &tasks[i].meta.counts);
            my_candidates.extend(cand.map(|c| (i as u64, c)));
            owned_stats.extend(attr_stats.map(|s| (i, s)));
        }
        // ONE election for the whole level.
        let ss_best = self.elect_batch(proc, &my_candidates);

        // --- Phase 2b: alive determination, exchanged in ONE all-gather.
        let mut local_alive: Vec<(u64, AliveInterval)> = Vec::new();
        if self.params().method == SplitMethod::SSE {
            for (i, attr_stats) in &owned_stats {
                let gini_min = ss_best.get(&(*i as u64)).map_or(f64::INFINITY, |c| c.gini);
                proc.charge(OpKind::GiniEval, attr_stats.intervals().num_intervals() as u64);
                for alive in attr_stats.alive_intervals(&tasks[*i].meta.counts, gini_min) {
                    local_alive.push((*i as u64, alive));
                }
            }
        }
        let mut all_alive: Vec<(u64, AliveInterval)> = proc
            .all_gather(local_alive)
            .into_iter()
            .flatten()
            .collect();
        all_alive.sort_by_key(|a| (a.0, a.1.attr, a.1.index));

        // --- Phase 2c: single-assignment evaluation, batched across the
        // level: one chunked all-to-all stream covering every task's file.
        let exact_best = if all_alive.is_empty() {
            HashMap::new()
        } else {
            let local_exact = self.evaluate_alive(proc, tasks, &active, &all_alive, chunk);
            self.elect_batch(proc, &local_exact)
        };
        proc.span_end(derive_span);

        // --- Phase 3: conclude every task (partition passes are local).
        let partition_span =
            proc.span("pclouds.partition", &[("tasks", active.len() as i64)]);
        let outcomes = (0..level)
            .map(|i| {
                if !active.contains(&i) {
                    return Outcome::Solved;
                }
                let ss = ss_best.get(&(i as u64)).cloned();
                let exact = exact_best.get(&(i as u64)).cloned();
                self.conclude(proc, &tasks[i], better_of(ss, exact), chunk)
            })
            .collect();
        proc.span_end(partition_span);
        outcomes
    }
}
