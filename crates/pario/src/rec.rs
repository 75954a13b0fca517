//! Fixed-layout records: the [`Rec`] trait, the borrowed [`RecChunk`] view
//! of a page of them and the owned [`RecBuf`] it is cut from.
//!
//! Out-of-core files store records back to back; a fixed encoded size makes
//! every chunk boundary a record boundary and lets readers seek by index,
//! exactly like the attribute/record files of the paper's implementation.
//! The same fixed size makes a chunk *addressable without decoding it*: a
//! page of bytes is already the records, field `f` of record `i` sits at
//! `i * ENCODED_BYTES + offset(f)`, and a pass over one attribute is a
//! strided walk over the page.

use std::marker::PhantomData;

use pdc_cgm::wire::{DecodeError, DecodeResult, Wire};

/// A record with a fixed byte layout. [`Rec::store`] writes exactly
/// `ENCODED_BYTES` bytes, [`Rec::load`] reads them back, and the bytes equal
/// `Wire::to_bytes()` of the value — file bytes and message bytes are the
/// same bytes.
pub trait Rec: Wire + Clone + Send + 'static {
    /// Exact encoded size in bytes of every value of this type.
    const ENCODED_BYTES: usize;

    /// Read a record from the first `ENCODED_BYTES` bytes of `bytes`.
    /// Panics if `bytes` is shorter: lengths are checked once per batch
    /// ([`RecChunk::new`]), not once per field.
    fn load(bytes: &[u8]) -> Self;

    /// Write this record to the first `ENCODED_BYTES` bytes of `out`.
    /// Panics if `out` is shorter.
    fn store(&self, out: &mut [u8]);
}

macro_rules! impl_rec_le {
    ($($t:ty),*) => {$(
        impl Rec for $t {
            const ENCODED_BYTES: usize = std::mem::size_of::<$t>();
            #[inline]
            fn load(bytes: &[u8]) -> Self {
                let (head, _) = bytes.split_at(Self::ENCODED_BYTES);
                <$t>::from_le_bytes(head.try_into().expect("split_at gave the exact length"))
            }
            #[inline]
            fn store(&self, out: &mut [u8]) {
                out[..Self::ENCODED_BYTES].copy_from_slice(&self.to_le_bytes());
            }
        }
    )*};
}

impl_rec_le!(u8, u32, u64, i64, f64);

impl<A: Rec, B: Rec> Rec for (A, B) {
    const ENCODED_BYTES: usize = A::ENCODED_BYTES + B::ENCODED_BYTES;
    #[inline]
    fn load(bytes: &[u8]) -> Self {
        (A::load(bytes), B::load(&bytes[A::ENCODED_BYTES..]))
    }
    #[inline]
    fn store(&self, out: &mut [u8]) {
        self.0.store(out);
        self.1.store(&mut out[A::ENCODED_BYTES..]);
    }
}

impl<A: Rec, B: Rec, C: Rec> Rec for (A, B, C) {
    const ENCODED_BYTES: usize = A::ENCODED_BYTES + B::ENCODED_BYTES + C::ENCODED_BYTES;
    #[inline]
    fn load(bytes: &[u8]) -> Self {
        let (a, rest) = bytes.split_at(A::ENCODED_BYTES);
        (
            A::load(a),
            B::load(rest),
            C::load(&rest[B::ENCODED_BYTES..]),
        )
    }
    #[inline]
    fn store(&self, out: &mut [u8]) {
        let (a, rest) = out.split_at_mut(A::ENCODED_BYTES);
        self.0.store(a);
        self.1.store(rest);
        self.2.store(&mut rest[B::ENCODED_BYTES..]);
    }
}

/// A byte buffer that is not a whole number of records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaggedChunk {
    /// Length of the offending buffer in bytes.
    pub len: usize,
    /// Record size it was to be cut into.
    pub stride: usize,
}

impl std::fmt::Display for RaggedChunk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "buffer of {} bytes is not a whole number of {}-byte records",
            self.len, self.stride
        )
    }
}

impl std::error::Error for RaggedChunk {}

/// Borrowed view of back-to-back records in a byte buffer — a page straight
/// from a file, or a [`RecBuf`]. The length was checked when the view was
/// made, so every accessor is a fixed-offset load; nothing is decoded until
/// asked for. The view borrows the buffer it was cut from: it cannot outlive
/// the next read into that buffer.
pub struct RecChunk<'a, R> {
    bytes: &'a [u8],
    _marker: PhantomData<fn() -> R>,
}

impl<R> Clone for RecChunk<'_, R> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<R> Copy for RecChunk<'_, R> {}

impl<R: Rec> std::fmt::Debug for RecChunk<'_, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RecChunk({} records)", self.len())
    }
}

impl<'a, R: Rec> RecChunk<'a, R> {
    /// View `bytes` as records; errors unless it is a whole number of them.
    pub fn new(bytes: &'a [u8]) -> Result<Self, RaggedChunk> {
        if R::ENCODED_BYTES == 0 || !bytes.len().is_multiple_of(R::ENCODED_BYTES) {
            return Err(RaggedChunk {
                len: bytes.len(),
                stride: R::ENCODED_BYTES,
            });
        }
        Ok(RecChunk {
            bytes,
            _marker: PhantomData,
        })
    }

    /// Number of records.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes.len() / R::ENCODED_BYTES
    }

    /// Whether the view holds no record.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// All the bytes, record after record.
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// The bytes of record `i`.
    #[inline]
    pub fn record_bytes(&self, i: usize) -> &'a [u8] {
        &self.bytes[i * R::ENCODED_BYTES..][..R::ENCODED_BYTES]
    }

    /// `N` bytes at `offset` inside record `i` — a fixed-layout field, for
    /// `from_le_bytes`.
    #[inline]
    pub fn field<const N: usize>(&self, i: usize, offset: usize) -> [u8; N] {
        assert!(offset + N <= R::ENCODED_BYTES, "field outside the record");
        let at = i * R::ENCODED_BYTES + offset;
        self.bytes[at..at + N]
            .try_into()
            .expect("the range is N bytes long")
    }

    /// Decode record `i`.
    #[inline]
    pub fn get(&self, i: usize) -> R {
        R::load(self.record_bytes(i))
    }

    /// Decode the records one by one, in order.
    pub fn iter(&self) -> <Self as IntoIterator>::IntoIter {
        self.into_iter()
    }

    /// Decode every record.
    pub fn to_vec(&self) -> Vec<R> {
        self.iter().collect()
    }
}

impl<'a, R: Rec> IntoIterator for RecChunk<'a, R> {
    type Item = R;
    type IntoIter = std::iter::Map<std::slice::ChunksExact<'a, u8>, fn(&[u8]) -> R>;

    fn into_iter(self) -> Self::IntoIter {
        self.bytes.chunks_exact(R::ENCODED_BYTES).map(R::load)
    }
}

/// Owned buffer of back-to-back records: what a [`RecChunk`] is cut from.
/// Holds a whole number of records by construction. Its wire form is that
/// of a `Vec<R>` (count, then the records), so a bucket of records travels
/// and lands on disk without being decoded.
pub struct RecBuf<R> {
    bytes: Vec<u8>,
    _marker: PhantomData<fn() -> R>,
}

impl<R> Default for RecBuf<R> {
    fn default() -> Self {
        RecBuf {
            bytes: Vec::new(),
            _marker: PhantomData,
        }
    }
}

impl<R> Clone for RecBuf<R> {
    fn clone(&self) -> Self {
        RecBuf {
            bytes: self.bytes.clone(),
            _marker: PhantomData,
        }
    }
}

impl<R: Rec> RecBuf<R> {
    /// Empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty buffer with room for `records` records.
    pub(crate) fn with_capacity(records: usize) -> Self {
        RecBuf {
            bytes: Vec::with_capacity(records * R::ENCODED_BYTES),
            _marker: PhantomData,
        }
    }

    /// Buffer holding the encoding of `records`.
    pub fn from_records(records: &[R]) -> Self {
        let mut bytes = vec![0; records.len() * R::ENCODED_BYTES];
        for (r, out) in records.iter().zip(bytes.chunks_exact_mut(R::ENCODED_BYTES)) {
            r.store(out);
        }
        RecBuf {
            bytes,
            _marker: PhantomData,
        }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.bytes.len() / R::ENCODED_BYTES
    }

    /// Whether the buffer holds no record.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Drop the records, keep the allocation.
    pub fn clear(&mut self) {
        self.bytes.clear();
    }

    /// Append one record.
    #[inline]
    pub fn push(&mut self, record: &R) {
        let at = self.bytes.len();
        self.bytes.resize(at + R::ENCODED_BYTES, 0);
        record.store(&mut self.bytes[at..]);
    }

    /// Append record `i` of `chunk` — its bytes, as they are.
    #[inline]
    pub fn push_from(&mut self, chunk: &RecChunk<'_, R>, i: usize) {
        self.bytes.extend_from_slice(chunk.record_bytes(i));
    }

    /// The records as a view.
    #[inline]
    pub fn view(&self) -> RecChunk<'_, R> {
        RecChunk {
            bytes: &self.bytes,
            _marker: PhantomData,
        }
    }

    /// Make the buffer exactly `records` records long and hand out its
    /// bytes for a backend to fill.
    pub(crate) fn fill_target(&mut self, records: usize) -> &mut [u8] {
        self.bytes.resize(records * R::ENCODED_BYTES, 0);
        &mut self.bytes
    }
}

impl<R: Rec> Wire for RecBuf<R> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u64).encode(buf);
        buf.extend_from_slice(&self.bytes);
    }

    fn encoded_len(&self) -> usize {
        8 + self.bytes.len()
    }

    fn decode(buf: &mut &[u8]) -> DecodeResult<Self> {
        let count = u64::decode(buf)?;
        let nbytes = usize::try_from(count)
            .ok()
            .and_then(|n| n.checked_mul(R::ENCODED_BYTES))
            .filter(|&n| n <= buf.len())
            .ok_or_else(|| DecodeError::malformed("record batch longer than its message", buf))?;
        let (head, tail) = buf.split_at(nbytes);
        *buf = tail;
        Ok(RecBuf {
            bytes: head.to_vec(),
            _marker: PhantomData,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_roundtrip_and_wire_form_of_a_vec() {
        let recs: Vec<(u64, f64)> = (0..100).map(|i| (i, i as f64 * 0.5)).collect();
        let buf = RecBuf::from_records(&recs);
        assert_eq!(buf.len(), recs.len());
        assert_eq!(
            buf.view().bytes().len(),
            recs.len() * <(u64, f64)>::ENCODED_BYTES
        );
        assert_eq!(buf.view().to_vec(), recs);
        assert_eq!(buf.view().get(7), recs[7]);
        assert_eq!(buf.to_bytes(), recs.to_bytes());
        let back = RecBuf::<(u64, f64)>::from_bytes(&recs.to_bytes()).unwrap();
        assert_eq!(back.view().to_vec(), recs);
    }

    #[test]
    fn push_paths_agree() {
        let recs: Vec<(u8, u32, i64)> = (0..10).map(|i| (i as u8, i * 3, -(i as i64))).collect();
        let whole = RecBuf::from_records(&recs);
        let (mut pushed, mut copied) = (RecBuf::new(), RecBuf::new());
        for (i, r) in recs.iter().enumerate() {
            pushed.push(r);
            copied.push_from(&whole.view(), i);
        }
        assert_eq!(pushed.view().bytes(), whole.view().bytes());
        assert_eq!(copied.view().bytes(), whole.view().bytes());
        copied.clear();
        assert!(copied.is_empty() && copied.view().is_empty());
    }

    #[test]
    fn ragged_buffer_is_an_error_naming_length_and_stride() {
        let err = RecChunk::<u32>::new(&[0, 1, 2]).unwrap_err();
        assert_eq!(err, RaggedChunk { len: 3, stride: 4 });
        assert_eq!(
            err.to_string(),
            "buffer of 3 bytes is not a whole number of 4-byte records"
        );
        assert!(RecChunk::<u32>::new(&[]).unwrap().is_empty());
    }

    #[test]
    fn hostile_batch_length_is_refused_before_allocating() {
        let mut bytes = u64::MAX.to_bytes();
        bytes.extend_from_slice(&[0; 16]);
        assert!(RecBuf::<u64>::from_bytes(&bytes).is_err());
        let mut bytes = 3u64.to_bytes();
        bytes.extend_from_slice(&[0; 23]); // one byte short of three records
        assert!(RecBuf::<u64>::from_bytes(&bytes).is_err());
    }
}
