//! Batched histogram messages for the replication method (§5.1.1).
//!
//! The stats phase of pCLOUDS combines every attribute's statistics to an
//! owning processor. All attributes of a node (or of a whole concatenated
//! level) travel in **one** batched reduce-scatter of [`HistMsg`] entries:
//! each destination's attributes form one block, the collective merges
//! blocks element-wise, and every owner receives the combined statistics of
//! the attributes it owns.
//!
//! On the wire the interval count arrays are stored **sparsely** (varint
//! gap/value pairs over the non-zero entries): local partitions of deep
//! nodes leave most interval × class cells at zero, so the sparse form
//! shrinks `beta * m` without changing any decoded value. Encoded sizes
//! then differ between ranks; nothing depends on them, because the
//! collective's schedule is a function of the machine size alone.
//!
//! The elections and the alive-interval exchange that follow travel as
//! `PerTask` values: one entry per task of the batch, so a batch of one
//! puts exactly the bare entry's bytes on the wire.

use pdc_cgm::wire::{decode_varint, encode_varint, varint_len, DecodeError, DecodeResult, Wire};
use pdc_clouds::{AttrIntervalStats, CountMatrix, CountTable, IntervalSet};

/// One attribute's statistics inside a batched histogram message.
#[derive(Debug, Clone, PartialEq)]
pub enum HistMsg {
    /// Interval class frequencies of a numeric attribute.
    Numeric(AttrIntervalStats),
    /// Count matrix of a categorical attribute.
    Categorical(CountMatrix),
}

const TAG_NUMERIC: u8 = 0;
const TAG_CATEGORICAL: u8 = 1;

/// Largest count table (rows, and rows × columns) the decoder will
/// allocate for. The paper's largest table is `q_root = 10,000` intervals ×
/// 2 classes; a header claiming more than fifty times that is corrupt, and
/// is rejected before any allocation is sized from it.
const MAX_SPARSE_CELLS: usize = 1 << 20;

impl HistMsg {
    /// Merge two entries for the same attribute (element-wise sum), the
    /// combine function of the batched reduce-scatter. Panics when the two
    /// entries describe different attributes — that would mean the batched
    /// blocks were assembled in different orders on different ranks.
    pub fn merged(mut a: HistMsg, b: HistMsg) -> HistMsg {
        match (&mut a, &b) {
            (HistMsg::Numeric(x), HistMsg::Numeric(y)) => x.merge(y),
            (HistMsg::Categorical(x), HistMsg::Categorical(y)) => x.merge(y),
            _ => panic!("batched histogram blocks misaligned: numeric/categorical mismatch"),
        }
        a
    }
}

/// Encode a count table sparsely: dimensions, then varint (gap, value)
/// pairs over the non-zero cells in row-major order.
fn encode_sparse_counts(buf: &mut Vec<u8>, counts: &CountTable) {
    encode_varint(buf, counts.rows() as u64);
    encode_varint(buf, counts.cols() as u64);
    let nonzero = counts.cells().iter().filter(|&&v| v != 0).count();
    encode_varint(buf, nonzero as u64);
    let mut prev = 0u64;
    for (idx, &v) in counts.cells().iter().enumerate() {
        if v != 0 {
            encode_varint(buf, idx as u64 - prev);
            encode_varint(buf, v);
            prev = idx as u64 + 1;
        }
    }
}

/// The number of bytes [`encode_sparse_counts`] appends, from the same scan
/// of the cells without writing them.
fn sparse_counts_len(counts: &CountTable) -> usize {
    let mut len = varint_len(counts.rows() as u64) + varint_len(counts.cols() as u64);
    let (mut nonzero, mut prev) = (0u64, 0u64);
    for (idx, &v) in counts.cells().iter().enumerate() {
        if v != 0 {
            len += varint_len(idx as u64 - prev) + varint_len(v);
            nonzero += 1;
            prev = idx as u64 + 1;
        }
    }
    len + varint_len(nonzero)
}

/// Decode the sparse count table back into its exact dense form.
fn decode_sparse_counts(buf: &mut &[u8]) -> DecodeResult<CountTable> {
    let rows = usize::try_from(decode_varint(buf)?).unwrap_or(usize::MAX);
    let cols = usize::try_from(decode_varint(buf)?).unwrap_or(usize::MAX);
    // Bound both what is allocated (`rows × cols` counts) and what is
    // indexed, before allocating anything.
    let cells = rows
        .checked_mul(cols)
        .filter(|&cells| cells.max(rows) <= MAX_SPARSE_CELLS)
        .ok_or_else(|| DecodeError::malformed("sparse histogram shape out of range", buf))?;
    // A corrupt length cannot claim more cells than one varint byte each
    // could have produced non-zeros for.
    let nonzero = decode_varint(buf)?;
    if nonzero > cells as u64 || nonzero > buf.len() as u64 {
        return Err(DecodeError::malformed("sparse histogram non-zero count out of range", buf));
    }
    let mut counts = CountTable::new(rows, cols);
    let mut next = 0u64;
    for _ in 0..nonzero {
        let idx = next
            .checked_add(decode_varint(buf)?)
            .filter(|&idx| idx < cells as u64)
            .ok_or_else(|| DecodeError::malformed("sparse histogram index out of range", buf))?;
        counts.cells_mut()[idx as usize] = decode_varint(buf)?;
        next = idx + 1;
    }
    Ok(counts)
}

impl Wire for HistMsg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            HistMsg::Numeric(s) => {
                buf.push(TAG_NUMERIC);
                encode_varint(buf, s.attr as u64);
                s.intervals().encode(buf);
                encode_sparse_counts(buf, s.counts());
                s.encode_ranges(buf);
            }
            HistMsg::Categorical(m) => {
                buf.push(TAG_CATEGORICAL);
                encode_varint(buf, m.attr as u64);
                encode_sparse_counts(buf, m.counts());
            }
        }
    }

    fn encoded_len(&self) -> usize {
        match self {
            HistMsg::Numeric(s) => {
                1 + varint_len(s.attr as u64)
                    + s.intervals().encoded_len()
                    + sparse_counts_len(s.counts())
                    + s.ranges_encoded_len()
            }
            HistMsg::Categorical(m) => {
                1 + varint_len(m.attr as u64) + sparse_counts_len(m.counts())
            }
        }
    }

    fn decode(bytes: &mut &[u8]) -> DecodeResult<Self> {
        match u8::decode(bytes)? {
            TAG_NUMERIC => {
                let attr = decode_varint(bytes)? as usize;
                let intervals = IntervalSet::decode(bytes)?;
                let counts = decode_sparse_counts(bytes)?;
                let ranges = Vec::<Option<(f64, f64)>>::decode(bytes)?;
                AttrIntervalStats::from_parts(attr, intervals, counts, &ranges)
                    .map(HistMsg::Numeric)
                    .map_err(|what| DecodeError::malformed(what, bytes))
            }
            TAG_CATEGORICAL => {
                let attr = decode_varint(bytes)? as usize;
                CountMatrix::from_table(attr, decode_sparse_counts(bytes)?)
                    .map(HistMsg::Categorical)
                    .map_err(|what| DecodeError::malformed(what, bytes))
            }
            _ => Err(DecodeError::malformed("histogram message tag out of range", bytes)),
        }
    }
}

/// One value per task of a batch, in batch order. The encoding is the
/// values back to back with no count: decoding reads to the end of the
/// payload, so a `PerTask` is only ever a whole message, and a batch of one
/// task encodes to exactly its value's bytes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PerTask<T>(pub(crate) Vec<T>);

impl<T: Wire> Wire for PerTask<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        for value in &self.0 {
            value.encode(buf);
        }
    }

    fn encoded_len(&self) -> usize {
        self.0.iter().map(Wire::encoded_len).sum()
    }

    fn decode(bytes: &mut &[u8]) -> DecodeResult<Self> {
        let mut values = Vec::new();
        while !bytes.is_empty() {
            values.push(T::decode(bytes)?);
        }
        Ok(PerTask(values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_clouds::{AliveInterval, Candidate, Splitter};

    fn table(rows: &[[u64; 2]]) -> CountTable {
        CountTable::from_rows(rows).unwrap()
    }

    fn sample_numeric() -> AttrIntervalStats {
        AttrIntervalStats::from_parts(
            3,
            IntervalSet::from_boundaries(vec![1.0, 2.5, 7.0]),
            table(&[[0, 5], [0, 0], [12, 0], [0, 1]]),
            &[Some((0.1, 0.9)), None, Some((3.0, 6.0)), Some((9.0, 9.0))],
        )
        .unwrap()
    }

    fn sample_categorical() -> CountMatrix {
        CountMatrix::from_table(1, table(&[[0, 0], [7, 0], [0, 0], [0, 300]])).unwrap()
    }

    #[test]
    fn sparse_wire_decodes_to_identical_values() {
        for msg in [
            HistMsg::Numeric(sample_numeric()),
            HistMsg::Categorical(sample_categorical()),
        ] {
            assert_eq!(HistMsg::from_bytes(&msg.to_bytes()).unwrap(), msg);
        }
    }

    #[test]
    fn sparse_encoding_is_smaller_for_sparse_counts() {
        // A mostly-zero table: the sparse form must beat the dense form.
        let mut counts = CountTable::new(64, 2);
        counts.cells_mut()[5 * 2 + 1] = 3;
        counts.cells_mut()[40 * 2] = 17;
        let stats = AttrIntervalStats::from_parts(
            0,
            IntervalSet::from_boundaries((1..64).map(f64::from).collect()),
            counts,
            &[None; 64],
        )
        .unwrap();
        let dense = stats.to_bytes();
        let sparse = HistMsg::Numeric(stats).to_bytes();
        assert!(
            sparse.len() < dense.len() / 2,
            "sparse {} vs dense {}",
            sparse.len(),
            dense.len()
        );
    }

    #[test]
    fn merged_matches_per_attribute_merge() {
        let mut a = sample_numeric();
        let b = sample_numeric();
        let merged = HistMsg::merged(HistMsg::Numeric(a.clone()), HistMsg::Numeric(b.clone()));
        a.merge(&b);
        assert_eq!(merged, HistMsg::Numeric(a));
        let mut x = sample_categorical();
        let y = sample_categorical();
        let merged =
            HistMsg::merged(HistMsg::Categorical(x.clone()), HistMsg::Categorical(y.clone()));
        x.merge(&y);
        assert_eq!(merged, HistMsg::Categorical(x));
    }

    /// A categorical message with the given table header and (gap, value)
    /// varints — the shortest frame around `decode_sparse_counts`.
    fn categorical_frame(rows: u64, cols: u64, nnz: u64, pairs: &[(u64, u64)]) -> Vec<u8> {
        let mut buf = vec![TAG_CATEGORICAL];
        encode_varint(&mut buf, 0); // attr
        encode_varint(&mut buf, rows);
        encode_varint(&mut buf, cols);
        encode_varint(&mut buf, nnz);
        for &(gap, value) in pairs {
            encode_varint(&mut buf, gap);
            encode_varint(&mut buf, value);
        }
        buf
    }

    #[test]
    fn corrupt_sparse_payloads_error_instead_of_panicking() {
        // Index beyond the table.
        assert!(HistMsg::from_bytes(&categorical_frame(2, 2, 1, &[(9, 1)])).is_err());
        // Non-zero count larger than the table.
        assert!(HistMsg::from_bytes(&categorical_frame(1, 1, 1000, &[])).is_err());
        // Unknown tag.
        assert!(HistMsg::from_bytes(&[99]).is_err());
        // A gap that overflows the running index after one valid entry.
        let overflow = categorical_frame(2, 2, 2, &[(0, 1), (u64::MAX, 1)]);
        assert!(HistMsg::from_bytes(&overflow).is_err());
        // A header asking for terabytes with no entries to back it, by
        // rows alone, by columns alone and by their product.
        for (rows, cols) in [(1 << 40, 1), (1, 1 << 40), (1 << 40, 0), (1 << 11, 1 << 11)] {
            assert!(
                HistMsg::from_bytes(&categorical_frame(rows, cols, 0, &[])).is_err(),
                "rows={rows} cols={cols}"
            );
        }
        // The documented bound itself is accepted by the table decoder
        // (a categorical message still refuses more than 64 values).
        let mut at_bound = Vec::new();
        for v in [MAX_SPARSE_CELLS as u64 / 2, 2, 0] {
            encode_varint(&mut at_bound, v);
        }
        assert!(decode_sparse_counts(&mut &at_bound[..]).is_ok());
        assert!(HistMsg::from_bytes(&categorical_frame(65, 2, 0, &[])).is_err());
    }

    fn candidate(attr: usize, gini: f64) -> Candidate {
        Candidate {
            gini,
            splitter: Splitter::Numeric { attr, threshold: 2.5 },
            left_counts: vec![3, 4],
        }
    }

    fn alive(attr: usize, index: usize) -> AliveInterval {
        AliveInterval {
            attr,
            index,
            lower: Some(1.0),
            upper: None,
            cum_before: vec![5, 0],
            est: 0.25,
            count: 9,
        }
    }

    #[test]
    fn one_task_encodes_to_the_bare_value() {
        for value in [None, Some(candidate(2, 0.4))] {
            assert_eq!(PerTask(vec![value.clone()]).to_bytes(), value.to_bytes());
        }
        for value in [Vec::new(), vec![alive(0, 3), alive(4, 1)]] {
            assert_eq!(PerTask(vec![value.clone()]).to_bytes(), value.to_bytes());
        }
    }

    #[test]
    fn k_tasks_round_trip() {
        let elected = PerTask(vec![Some(candidate(1, 0.3)), None, Some(candidate(5, 0.1))]);
        assert_eq!(PerTask::from_bytes(&elected.to_bytes()).unwrap(), elected);
        let alive = PerTask(vec![vec![alive(0, 1)], Vec::new(), vec![alive(2, 0), alive(2, 4)]]);
        assert_eq!(PerTask::from_bytes(&alive.to_bytes()).unwrap(), alive);
    }

    #[test]
    fn truncated_per_task_payloads_error_instead_of_panicking() {
        // Every cut of a two-task payload errs, except the one at the end of
        // the first value, which decodes to that task alone.
        fn check<T: Wire + PartialEq + std::fmt::Debug>(first: T, second: T) {
            let boundary = first.to_bytes().len();
            let bytes = PerTask(vec![first, second]).to_bytes();
            for cut in 1..bytes.len() {
                let decoded = PerTask::<T>::from_bytes(&bytes[..cut]);
                assert_eq!(decoded.is_ok(), cut == boundary, "cut {cut} of {}", bytes.len());
            }
        }
        check(Some(candidate(1, 0.3)), Some(candidate(5, 0.1)));
        check(vec![alive(0, 1)], vec![alive(2, 0), alive(2, 4)]);
    }

    mod encoded_len {
        use super::*;
        use pdc_datagen::{Record, NUM_CATEGORICAL, NUM_NUMERIC};
        use pdc_pario::RecBuf;
        use proptest::prelude::*;

        /// The `encoded_len` contract: exactly the bytes `encode` writes.
        fn assert_encoded_len<T: Wire>(v: &T) {
            prop_assert_eq!(v.encoded_len(), v.to_bytes().len(), "{}", std::any::type_name::<T>());
        }

        /// A cell of each kind: zero, small, at least 2^63, anything.
        fn cell(kind: u8, x: u64) -> u64 {
            match kind {
                0 => 0,
                1 => x % 300,
                2 => x | 1 << 63,
                _ => x,
            }
        }

        fn table(cells: &[(u8, u64)], cols: usize) -> CountTable {
            let mut counts = CountTable::new(cells.len() / cols, cols);
            for (c, &(kind, x)) in counts.cells_mut().iter_mut().zip(cells) {
                *c = cell(kind, x);
            }
            counts
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn encoded_len_is_the_encoding_length_of_every_message_type(
                attr in any::<usize>(),
                cells in proptest::collection::vec((0u8..4, any::<u64>()), 0..24),
                ranges in proptest::collection::vec(
                    (any::<bool>(), 0.0f64..100.0, 0.0f64..5.0),
                    12,
                ),
                x in any::<u64>(),
            ) {
                // Numeric: q intervals (at least one), two classes, empty
                // and non-empty ranges.
                let q = (cells.len() / 2).max(1);
                let mut cells = cells;
                cells.resize(2 * q, (0, 0));
                let intervals = IntervalSet::from_boundaries((1..q).map(|b| b as f64).collect());
                let ranges: Vec<Option<(f64, f64)>> = (0..q)
                    .map(|i| {
                        let (full, lo, width) = ranges[i % ranges.len()];
                        full.then_some((lo, lo + width))
                    })
                    .collect();
                assert_encoded_len(&intervals);
                let counts = table(&cells, 2);
                assert_encoded_len(&counts);
                let stats =
                    AttrIntervalStats::from_parts(attr, intervals, counts, &ranges).unwrap();
                assert_encoded_len(&stats);
                assert_encoded_len(&HistMsg::Numeric(stats));
                // Categorical: up to 12 values, none at all included.
                let rows = cells.len() / 2 % 13;
                let matrix = CountMatrix::from_table(attr, table(&cells[..2 * rows], 2)).unwrap();
                assert_encoded_len(&matrix);
                assert_encoded_len(&HistMsg::Categorical(matrix));
                // What the elections and the alive exchange send.
                let splitters = [
                    Splitter::Numeric { attr: attr % NUM_NUMERIC, threshold: x as f64 },
                    Splitter::Categorical { attr: attr % NUM_CATEGORICAL, left_values: x },
                ];
                let elected: Vec<Option<Candidate>> = splitters
                    .iter()
                    .map(|splitter| {
                        let splitter = splitter.clone();
                        Some(Candidate { gini: 0.25, splitter, left_counts: vec![x, cell(2, x)] })
                    })
                    .chain([None])
                    .collect();
                for splitter in &splitters {
                    assert_encoded_len(splitter);
                }
                assert_encoded_len(&elected[0]);
                assert_encoded_len(&PerTask(elected));
                assert_encoded_len(&PerTask(Vec::<Option<Candidate>>::new()));
                let alive: Vec<Vec<AliveInterval>> = (0..3)
                    .map(|k| {
                        (0..k)
                            .map(|i| AliveInterval {
                                lower: (i % 2 == 0).then_some(i as f64),
                                upper: (k % 2 == 0).then_some(10.0 + i as f64),
                                ..alive(i, k)
                            })
                            .collect()
                    })
                    .collect();
                assert_encoded_len(&alive[2][1]);
                assert_encoded_len(&PerTask(alive));
                // What the redistribution sends.
                let record = Record {
                    numeric: [x as f64; NUM_NUMERIC],
                    categorical: [x as u8; NUM_CATEGORICAL],
                    class: (x % 2) as u8,
                };
                assert_encoded_len(&record);
                assert_encoded_len(&vec![(x, record); q]);
                assert_encoded_len(&RecBuf::from_records(&vec![record; q - 1]));
            }
        }
    }
}
