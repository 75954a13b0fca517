//! Layout selection and the broadcastable [`CompiledModel`].

use pdc_cgm::wire::{DecodeError, DecodeResult, Wire};
use pdc_cgm::{Cluster, Proc};
use pdc_clouds::DecisionTree;
use pdc_datagen::{Record, RecordBatch};
use pdc_pario::RecBuf;

use crate::flat::FlatTree;
use crate::predictor::{PointerPredictor, Predictor};

/// The serving layouts, in ascending order of compilation effort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layout {
    /// Serve from the training-time arena (baseline).
    Pointer,
    /// Breadth-first contiguous node array, `u32` children.
    Flat,
}

/// Every layout, for sweeps.
pub const ALL_LAYOUTS: [Layout; 2] = [Layout::Pointer, Layout::Flat];

impl Layout {
    /// Short name used in span attributes, CSV columns and reports.
    pub fn name(self) -> &'static str {
        match self {
            Layout::Pointer => "pointer",
            Layout::Flat => "flat",
        }
    }

    /// Compile a built tree into this layout.
    pub fn compile(self, tree: &DecisionTree) -> CompiledModel {
        match self {
            Layout::Pointer => CompiledModel::Pointer(PointerPredictor::new(tree.clone())),
            Layout::Flat => CompiledModel::Flat(FlatTree::compile(tree)),
        }
    }
}

/// A compiled model in one of the serving layouts.
///
/// The enum (rather than a trait object) keeps the model [`Wire`]-encodable
/// so the harness can broadcast it to every rank with the ordinary `cgm`
/// collectives, and makes "every layout implements [`Predictor`]" a
/// compile-time fact: adding a variant without the delegation below is a
/// build error.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledModel {
    /// The pointer-tree baseline.
    Pointer(PointerPredictor),
    /// The flat array.
    Flat(FlatTree),
}

impl CompiledModel {
    /// Which layout this model is compiled into.
    pub fn layout(&self) -> Layout {
        match self {
            CompiledModel::Pointer(_) => Layout::Pointer,
            CompiledModel::Flat(_) => Layout::Flat,
        }
    }

    fn inner(&self) -> &dyn Predictor {
        match self {
            CompiledModel::Pointer(p) => p,
            CompiledModel::Flat(f) => f,
        }
    }
}

impl Predictor for CompiledModel {
    fn layout_name(&self) -> &'static str {
        self.inner().layout_name()
    }

    fn predict(&self, r: &Record) -> u8 {
        self.inner().predict(r)
    }

    fn num_nodes(&self) -> usize {
        self.inner().num_nodes()
    }

    fn footprint_bytes(&self) -> usize {
        self.inner().footprint_bytes()
    }

    fn score_batch(
        &self,
        proc: &mut Proc,
        records: &(impl RecordBatch + ?Sized),
        out: &mut Vec<u8>,
    ) {
        match self {
            CompiledModel::Pointer(p) => p.score_batch(proc, records, out),
            CompiledModel::Flat(f) => f.score_batch(proc, records, out),
        }
    }
}

impl Wire for CompiledModel {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            CompiledModel::Pointer(p) => {
                buf.push(0);
                p.tree().encode(buf);
            }
            CompiledModel::Flat(f) => {
                buf.push(1);
                f.encode(buf);
            }
        }
    }

    fn decode(bytes: &mut &[u8]) -> DecodeResult<Self> {
        match u8::decode(bytes)? {
            0 => Ok(CompiledModel::Pointer(PointerPredictor::new(
                DecisionTree::decode(bytes)?,
            ))),
            1 => Ok(CompiledModel::Flat(FlatTree::decode(bytes)?)),
            _ => Err(DecodeError {
                what: "compiled-model layout tag out of range",
                remaining: bytes.len(),
                trailing: false,
            }),
        }
    }
}

/// Assert that every layout predicts **byte-identically** to the source
/// tree on every record of `records` — one record at a time through
/// [`Predictor::predict`], and as the served path does, through
/// [`Predictor::score_batch`] on a 1-rank machine over the records both
/// resident and as a byte view of a page. Panics with the offending layout,
/// path and record index otherwise. This is the equivalence contract the
/// parity tests and the `fig_serving` harness both lean on.
pub fn assert_equivalent(tree: &DecisionTree, records: &[Record]) {
    let reference: Vec<u8> = records.iter().map(|r| tree.predict(r)).collect();
    let page = RecBuf::from_records(records);
    for layout in ALL_LAYOUTS {
        let model = layout.compile(tree);
        let (resident, viewed) = Cluster::new(1)
            .run(|proc| {
                let mut resident = Vec::new();
                model.score_batch(proc, records, &mut resident);
                let mut viewed = Vec::new();
                model.score_batch(proc, &page.view(), &mut viewed);
                (resident, viewed)
            })
            .results
            .pop()
            .expect("one rank");
        let predicted: Vec<u8> = records.iter().map(|r| model.predict(r)).collect();
        for (path, got) in [
            ("predict", predicted),
            ("score_batch over [Record]", resident),
            ("score_batch over a RecChunk", viewed),
        ] {
            assert_eq!(got.len(), reference.len(), "layout {} {path}", layout.name());
            for (i, (got, want)) in got.iter().zip(&reference).enumerate() {
                assert_eq!(
                    got,
                    want,
                    "layout {} {path} diverges from the pointer tree on record {i}",
                    layout.name()
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_clouds::Splitter;
    use pdc_datagen::{generate, GeneratorConfig};

    fn tree() -> DecisionTree {
        let mut t = DecisionTree::single_leaf(vec![7, 7]);
        t.split_leaf(
            0,
            Splitter::Numeric {
                attr: 5,
                threshold: 250_000.0,
            },
            vec![7, 0],
            vec![0, 7],
        );
        t
    }

    #[test]
    fn every_layout_roundtrips_on_the_wire() {
        let tree = tree();
        let records = generate(100, GeneratorConfig::default());
        for layout in ALL_LAYOUTS {
            let model = layout.compile(&tree);
            assert_eq!(model.layout(), layout);
            assert_eq!(model.layout_name(), layout.name());
            let decoded = CompiledModel::from_bytes(&model.to_bytes()).unwrap();
            assert_eq!(decoded, model);
            for r in &records {
                assert_eq!(decoded.predict(r), tree.predict(r));
            }
        }
    }

    #[test]
    fn bad_tag_is_a_decode_error() {
        assert!(CompiledModel::from_bytes(&[9]).is_err());
    }

    #[test]
    fn assert_equivalent_accepts_the_layouts() {
        let records = generate(200, GeneratorConfig::default());
        assert_equivalent(&tree(), &records);
    }

    #[test]
    fn footprints_shrink_from_pointer_to_flat() {
        let tree = tree();
        let pointer = Layout::Pointer.compile(&tree);
        let flat = Layout::Flat.compile(&tree);
        assert!(flat.footprint_bytes() < pointer.footprint_bytes());
        assert_eq!(pointer.num_nodes(), flat.num_nodes());
    }
}
