//! The benchmark record: 6 numeric + 3 categorical attributes + class label,
//! exactly the schema the paper generates with "the data generator proposed
//! in \[SLIQ\]" (Agrawal et al.'s synthetic household/credit data).

use pdc_cgm::wire::{DecodeError, DecodeResult, Wire};
use pdc_pario::{Rec, RecChunk};

/// Number of numeric attributes.
pub const NUM_NUMERIC: usize = 6;
/// Number of categorical attributes.
pub const NUM_CATEGORICAL: usize = 3;

/// Indices of the numeric attributes.
pub mod numeric {
    /// Yearly salary, 20,000..150,000.
    pub const SALARY: usize = 0;
    /// Commission: 0 if salary ≥ 75,000, else 10,000..75,000.
    pub const COMMISSION: usize = 1;
    /// Age in years, 20..80.
    pub const AGE: usize = 2;
    /// House value, depends on zipcode.
    pub const HVALUE: usize = 3;
    /// Years the house has been owned, 1..30.
    pub const HYEARS: usize = 4;
    /// Total loan amount, 0..500,000.
    pub const LOAN: usize = 5;
}

/// Indices of the categorical attributes.
pub mod categorical {
    /// Education level, 0..=4.
    pub const ELEVEL: usize = 0;
    /// Make of car, 0..=19 (the paper's 1..=20 shifted to zero-based).
    pub const CAR: usize = 1;
    /// Zipcode of the town, 0..=8.
    pub const ZIPCODE: usize = 2;
}

/// Cardinality (number of distinct values) of each categorical attribute.
pub const CATEGORICAL_CARDINALITY: [usize; NUM_CATEGORICAL] = [5, 20, 9];

/// Human-readable attribute names, numeric then categorical.
pub const NUMERIC_NAMES: [&str; NUM_NUMERIC] =
    ["salary", "commission", "age", "hvalue", "hyears", "loan"];
/// Names of the categorical attributes.
pub const CATEGORICAL_NAMES: [&str; NUM_CATEGORICAL] = ["elevel", "car", "zipcode"];

/// Number of classes produced by every classification function.
pub const NUM_CLASSES: usize = 2;

/// One training/test example.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Record {
    /// Numeric attribute values, indexed by [`numeric`] constants.
    pub numeric: [f64; NUM_NUMERIC],
    /// Categorical attribute values, indexed by [`categorical`] constants.
    pub categorical: [u8; NUM_CATEGORICAL],
    /// Class label, `0` = group A, `1` = group B.
    pub class: u8,
}

impl Record {
    /// Value of numeric attribute `idx`.
    pub fn num(&self, idx: usize) -> f64 {
        self.numeric[idx]
    }

    /// Value of categorical attribute `idx`.
    pub fn cat(&self, idx: usize) -> u8 {
        self.categorical[idx]
    }
}

/// Byte offset of the categorical attributes in the encoded record.
const CAT_OFFSET: usize = NUM_NUMERIC * 8;
/// Byte offset of the class label in the encoded record.
const CLASS_OFFSET: usize = CAT_OFFSET + NUM_CATEGORICAL;

impl Rec for Record {
    /// Numeric attributes as little-endian `f64`, then one byte per
    /// categorical attribute, then the class byte.
    const ENCODED_BYTES: usize = CLASS_OFFSET + 1;

    #[inline]
    fn load(bytes: &[u8]) -> Self {
        let bytes: &[u8; Self::ENCODED_BYTES] = bytes[..Self::ENCODED_BYTES]
            .try_into()
            .expect("sliced to the exact length");
        let mut numeric = [0.0; NUM_NUMERIC];
        for (v, le) in numeric.iter_mut().zip(bytes.chunks_exact(8)) {
            *v = f64::from_le_bytes(le.try_into().expect("chunks_exact(8)"));
        }
        let mut categorical = [0u8; NUM_CATEGORICAL];
        categorical.copy_from_slice(&bytes[CAT_OFFSET..CLASS_OFFSET]);
        Record {
            numeric,
            categorical,
            class: bytes[CLASS_OFFSET],
        }
    }

    #[inline]
    fn store(&self, out: &mut [u8]) {
        let out: &mut [u8; Self::ENCODED_BYTES] = (&mut out[..Self::ENCODED_BYTES])
            .try_into()
            .expect("sliced to the exact length");
        for (v, le) in self.numeric.iter().zip(out.chunks_exact_mut(8)) {
            le.copy_from_slice(&v.to_le_bytes());
        }
        out[CAT_OFFSET..CLASS_OFFSET].copy_from_slice(&self.categorical);
        out[CLASS_OFFSET] = self.class;
    }
}

/// The message form of a record is its file form: [`Rec::store`] /
/// [`Rec::load`] behind one length check, so the bytes cannot drift apart.
impl Wire for Record {
    fn encode(&self, buf: &mut Vec<u8>) {
        let at = buf.len();
        buf.resize(at + Self::ENCODED_BYTES, 0);
        self.store(&mut buf[at..]);
    }

    fn encoded_len(&self) -> usize {
        Self::ENCODED_BYTES
    }

    fn decode(bytes: &mut &[u8]) -> DecodeResult<Self> {
        let Some((head, tail)) = bytes.split_at_checked(Self::ENCODED_BYTES) else {
            return Err(DecodeError::malformed("Record", bytes));
        };
        *bytes = tail;
        Ok(Record::load(head))
    }
}

/// A batch of records read by row index and attribute: a resident
/// `[Record]`, or a [`RecChunk`] viewing a page of a record file, where each
/// accessor is a `from_le_bytes` at a fixed offset. The CLOUDS kernels and
/// the scorers are written once against this.
pub trait RecordBatch {
    /// Number of records.
    fn len(&self) -> usize;
    /// Whether the batch holds no record.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// `f(record)` for every record, whole, in order.
    fn for_each(&self, f: impl FnMut(&Record));
    /// Numeric attribute `attr` of record `i`.
    fn num(&self, i: usize, attr: usize) -> f64;
    /// Categorical attribute `attr` of record `i`.
    fn cat(&self, i: usize, attr: usize) -> u8;
    /// Class label of record `i`.
    fn class(&self, i: usize) -> u8;
    /// `f(value, class)` for numeric attribute `attr` of every record, in
    /// order — one attribute-major pass of a histogram kernel.
    #[inline]
    fn for_each_num(&self, attr: usize, mut f: impl FnMut(f64, u8)) {
        for i in 0..self.len() {
            f(self.num(i, attr), self.class(i));
        }
    }
    /// `f(value, class)` for categorical attribute `attr` of every record,
    /// in order.
    #[inline]
    fn for_each_cat(&self, attr: usize, mut f: impl FnMut(u8, u8)) {
        for i in 0..self.len() {
            f(self.cat(i, attr), self.class(i));
        }
    }
}

impl RecordBatch for [Record] {
    #[inline]
    fn len(&self) -> usize {
        <[Record]>::len(self)
    }
    #[inline]
    fn for_each(&self, mut f: impl FnMut(&Record)) {
        for r in self {
            f(r);
        }
    }
    #[inline]
    fn num(&self, i: usize, attr: usize) -> f64 {
        self[i].numeric[attr]
    }
    #[inline]
    fn cat(&self, i: usize, attr: usize) -> u8 {
        self[i].categorical[attr]
    }
    #[inline]
    fn class(&self, i: usize) -> u8 {
        self[i].class
    }
}

impl RecordBatch for RecChunk<'_, Record> {
    #[inline]
    fn len(&self) -> usize {
        RecChunk::len(self)
    }
    #[inline]
    fn for_each(&self, mut f: impl FnMut(&Record)) {
        for r in self.iter() {
            f(&r);
        }
    }
    #[inline]
    fn num(&self, i: usize, attr: usize) -> f64 {
        assert!(attr < NUM_NUMERIC, "numeric attribute {attr} out of range");
        f64::from_le_bytes(self.field(i, attr * 8))
    }
    #[inline]
    fn cat(&self, i: usize, attr: usize) -> u8 {
        assert!(attr < NUM_CATEGORICAL, "categorical attribute {attr} out of range");
        self.field::<1>(i, CAT_OFFSET + attr)[0]
    }
    #[inline]
    fn class(&self, i: usize) -> u8 {
        self.field::<1>(i, CLASS_OFFSET)[0]
    }
    // The walks cut the page into whole records once, so the field reads
    // inside need no per-record bounds check.
    #[inline]
    fn for_each_num(&self, attr: usize, mut f: impl FnMut(f64, u8)) {
        assert!(attr < NUM_NUMERIC, "numeric attribute {attr} out of range");
        for rec in self.bytes().chunks_exact(Record::ENCODED_BYTES) {
            let le = rec[attr * 8..][..8].try_into().expect("eight bytes");
            f(f64::from_le_bytes(le), rec[CLASS_OFFSET]);
        }
    }
    #[inline]
    fn for_each_cat(&self, attr: usize, mut f: impl FnMut(u8, u8)) {
        assert!(attr < NUM_CATEGORICAL, "categorical attribute {attr} out of range");
        for rec in self.bytes().chunks_exact(Record::ENCODED_BYTES) {
            f(rec[CAT_OFFSET + attr], rec[CLASS_OFFSET]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_roundtrip_and_size() {
        let r = Record {
            numeric: [1.5, 0.0, 42.0, 123456.0, 7.0, 99999.0],
            categorical: [3, 17, 8],
            class: 1,
        };
        let bytes = r.to_bytes();
        assert_eq!(bytes.len(), Record::ENCODED_BYTES);
        assert_eq!(Record::ENCODED_BYTES, 52);
        assert_eq!(Record::from_bytes(&bytes).unwrap(), r);
    }

    #[test]
    fn fixed_layout_is_the_wire_form_and_views_read_it_in_place() {
        let r = Record {
            numeric: [1.5, -0.0, 42.0, 123456.0, f64::INFINITY, 99999.0],
            categorical: [3, 17, 8],
            class: 1,
        };
        // The bytes the per-field `Wire` codec wrote: six little-endian
        // `f64`, three category bytes, the class byte.
        #[rustfmt::skip]
        let pinned: [u8; 52] = [
            0, 0, 0, 0, 0, 0, 0xF8, 0x3F,   0, 0, 0, 0, 0, 0, 0, 0x80,
            0, 0, 0, 0, 0, 0, 0x45, 0x40,   0, 0, 0, 0, 0, 0x24, 0xFE, 0x40,
            0, 0, 0, 0, 0, 0, 0xF0, 0x7F,   0, 0, 0, 0, 0xF0, 0x69, 0xF8, 0x40,
            3, 17, 8, 1,
        ];
        let mut stored = [0xAAu8; 52];
        r.store(&mut stored);
        assert_eq!(stored, pinned);
        assert_eq!(r.to_bytes(), pinned);
        assert_eq!(Record::load(&pinned).to_bytes(), pinned);
        // A view of two records reads each field where it lies.
        let two = [pinned, pinned].concat();
        let view = RecChunk::<Record>::new(&two).unwrap();
        assert_eq!(RecordBatch::len(&view), 2);
        view.for_each(|r| assert_eq!(r.to_bytes(), pinned));
        for i in 0..2 {
            for a in 0..NUM_NUMERIC {
                assert_eq!(view.num(i, a).to_bits(), r.numeric[a].to_bits());
            }
            for a in 0..NUM_CATEGORICAL {
                assert_eq!(view.cat(i, a), r.categorical[a]);
            }
            assert_eq!(view.class(i), r.class);
        }
        // One byte short: an error from the view and from the message codec.
        assert!(RecChunk::<Record>::new(&two[..103]).is_err());
        assert!(Record::from_bytes(&pinned[..51]).is_err());
        assert!(Vec::<Record>::from_bytes(&two).is_err());
    }

    #[test]
    fn cardinalities_match_schema() {
        assert_eq!(CATEGORICAL_CARDINALITY.len(), NUM_CATEGORICAL);
        assert_eq!(NUMERIC_NAMES.len(), NUM_NUMERIC);
    }
}
