//! Serving a bagged ensemble: majority vote over compiled per-tree
//! layouts.
//!
//! An [`EnsemblePredictor`] compiles each member tree into one chosen
//! [`Layout`] and classifies by majority vote (ties toward the lower class
//! id, matching training-side voting). It implements [`Predictor`] and
//! [`Wire`], so the ordinary harness pipeline — broadcast deploy, shard
//! streaming, batch scoring — serves ensembles through
//! [`crate::harness::serve_model`] unchanged.

use pdc_cgm::wire::{DecodeError, DecodeResult, Wire};
use pdc_cgm::{OpKind, Proc};
use pdc_clouds::DecisionTree;
use pdc_datagen::{Record, RecordBatch, NUM_CLASSES};

use crate::model::{CompiledModel, Layout};
use crate::predictor::Predictor;

/// A compiled bagged ensemble: every member tree in the same serving
/// layout, classified by majority vote.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsemblePredictor {
    members: Vec<CompiledModel>,
}

impl EnsemblePredictor {
    /// Compile every member tree into `layout`.
    pub fn compile(trees: &[DecisionTree], layout: Layout) -> Self {
        assert!(!trees.is_empty(), "an ensemble needs at least one member");
        EnsemblePredictor {
            members: trees.iter().map(|t| layout.compile(t)).collect(),
        }
    }

    /// The compiled member models, in tree-id order.
    pub fn members(&self) -> &[CompiledModel] {
        &self.members
    }

    /// Winning class of a vote tally, ties toward the lower class id.
    fn majority(votes: &[u32; NUM_CLASSES]) -> u8 {
        let mut best = 0usize;
        for c in 1..NUM_CLASSES {
            if votes[c] > votes[best] {
                best = c;
            }
        }
        best as u8
    }
}

impl Predictor for EnsemblePredictor {
    fn layout_name(&self) -> &'static str {
        self.members[0].layout_name()
    }

    fn predict(&self, r: &Record) -> u8 {
        let mut votes = [0u32; NUM_CLASSES];
        for m in &self.members {
            votes[m.predict(r) as usize] += 1;
        }
        Self::majority(&votes)
    }

    fn num_nodes(&self) -> usize {
        self.members.iter().map(Predictor::num_nodes).sum()
    }

    fn footprint_bytes(&self) -> usize {
        self.members.iter().map(Predictor::footprint_bytes).sum()
    }

    fn score_batch(
        &self,
        proc: &mut Proc,
        records: &(impl RecordBatch + ?Sized),
        out: &mut Vec<u8>,
    ) {
        // Tree-at-a-time batch scoring: each member sweeps the whole batch
        // (charging its own traversal cost), then the votes are folded —
        // one accumulate per (record, member) against the vote table.
        let mut per_member: Vec<u8> = Vec::with_capacity(records.len());
        let mut votes = vec![[0u32; NUM_CLASSES]; records.len()];
        for m in &self.members {
            per_member.clear();
            m.score_batch(proc, records, &mut per_member);
            for (v, &class) in votes.iter_mut().zip(&per_member) {
                v[class as usize] += 1;
            }
        }
        proc.charge_ws(
            OpKind::Misc,
            (records.len() * self.members.len()) as u64,
            votes.len() * std::mem::size_of::<[u32; NUM_CLASSES]>(),
        );
        out.extend(votes.iter().map(Self::majority));
    }
}

impl Wire for EnsemblePredictor {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.members.encode(buf);
    }

    /// Refuses a zero-member list: [`EnsemblePredictor::compile`] never
    /// builds one, and it has no layout to report.
    fn decode(buf: &mut &[u8]) -> DecodeResult<Self> {
        let members = Vec::<CompiledModel>::decode(buf)?;
        if members.is_empty() {
            return Err(DecodeError::malformed("ensemble without members", buf));
        }
        Ok(EnsemblePredictor { members })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_cgm::Cluster;
    use pdc_clouds::Splitter;
    use pdc_datagen::{generate, GeneratorConfig};

    fn stump(attr: usize, threshold: f64) -> DecisionTree {
        let mut t = DecisionTree::single_leaf(vec![5, 5]);
        t.split_leaf(
            0,
            Splitter::Numeric { attr, threshold },
            vec![5, 0],
            vec![0, 5],
        );
        t
    }

    #[test]
    fn vote_matches_member_majority() {
        let trees = vec![stump(0, 40_000.0), stump(0, 60_000.0), stump(2, 50.0)];
        let ens = EnsemblePredictor::compile(&trees, Layout::Flat);
        for r in generate(300, GeneratorConfig::default()) {
            let mut votes = [0u32; NUM_CLASSES];
            for t in &trees {
                votes[t.predict(&r) as usize] += 1;
            }
            let expect = if votes[1] > votes[0] { 1 } else { 0 };
            assert_eq!(ens.predict(&r), expect);
        }
    }

    #[test]
    fn every_layout_serves_the_same_votes() {
        let trees = vec![stump(0, 40_000.0), stump(1, 50_000.0)];
        let records = generate(200, GeneratorConfig::default());
        let reference = EnsemblePredictor::compile(&trees, Layout::Pointer).predict_all(&records);
        let got = EnsemblePredictor::compile(&trees, Layout::Flat).predict_all(&records);
        assert_eq!(got, reference, "flat layout diverges");
    }

    #[test]
    fn wire_round_trip() {
        let ens =
            EnsemblePredictor::compile(&[stump(0, 40_000.0), stump(2, 50.0)], Layout::Flat);
        let back = EnsemblePredictor::from_bytes(&ens.to_bytes()).unwrap();
        assert_eq!(ens, back);
    }

    #[test]
    fn score_batch_charges_every_member() {
        let records = generate(128, GeneratorConfig::default());
        let one = EnsemblePredictor::compile(&[stump(0, 40_000.0)], Layout::Flat);
        let three = EnsemblePredictor::compile(
            &[stump(0, 40_000.0), stump(0, 40_000.0), stump(0, 40_000.0)],
            Layout::Flat,
        );
        let cost = |ens: &EnsemblePredictor| {
            Cluster::new(1)
                .run(|proc| {
                    let mut out = Vec::new();
                    ens.score_batch(proc, records.as_slice(), &mut out);
                    out
                })
                .makespan()
        };
        assert!(cost(&three) > cost(&one), "three members must cost more");
    }
}
