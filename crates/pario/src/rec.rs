//! Fixed-size record trait.
//!
//! Out-of-core files store records back to back; a fixed encoded size makes
//! every chunk boundary a record boundary and lets readers seek by index,
//! exactly like the attribute/record files of the paper's implementation.

use pdc_cgm::Wire;

/// A record with a fixed wire size. `ENCODED_BYTES` must equal the length of
/// `Wire::to_bytes()` for every value of the type (checked in debug builds
/// by the file layer).
pub trait Rec: Wire + Clone + Send + 'static {
    /// Exact encoded size in bytes of every value of this type.
    const ENCODED_BYTES: usize;
}

impl Rec for u8 {
    const ENCODED_BYTES: usize = 1;
}
impl Rec for u32 {
    const ENCODED_BYTES: usize = 4;
}
impl Rec for u64 {
    const ENCODED_BYTES: usize = 8;
}
impl Rec for i64 {
    const ENCODED_BYTES: usize = 8;
}
impl Rec for f64 {
    const ENCODED_BYTES: usize = 8;
}
impl<A: Rec, B: Rec> Rec for (A, B) {
    const ENCODED_BYTES: usize = A::ENCODED_BYTES + B::ENCODED_BYTES;
}
impl<A: Rec, B: Rec, C: Rec> Rec for (A, B, C) {
    const ENCODED_BYTES: usize = A::ENCODED_BYTES + B::ENCODED_BYTES + C::ENCODED_BYTES;
}

/// Encode a batch of records into one contiguous buffer.
pub fn encode_batch<R: Rec>(records: &[R]) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_batch_into(records, &mut buf);
    buf
}

/// Append the encoding of a batch of records to `buf` (callers that encode
/// chunk after chunk reuse one buffer).
pub fn encode_batch_into<R: Rec>(records: &[R], buf: &mut Vec<u8>) {
    buf.reserve(records.len() * R::ENCODED_BYTES);
    for r in records {
        let before = buf.len();
        r.encode(buf);
        debug_assert_eq!(
            buf.len() - before,
            R::ENCODED_BYTES,
            "record type violated its fixed ENCODED_BYTES contract"
        );
    }
}

/// Decode a contiguous buffer of back-to-back records.
pub fn decode_batch<R: Rec>(mut bytes: &[u8]) -> Vec<R> {
    assert_eq!(
        bytes.len() % R::ENCODED_BYTES,
        0,
        "buffer is not a whole number of records"
    );
    let n = bytes.len() / R::ENCODED_BYTES;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(R::decode(&mut bytes).expect("fixed-size record decode"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_roundtrip() {
        let recs: Vec<(u64, f64)> = (0..100).map(|i| (i, i as f64 * 0.5)).collect();
        let bytes = encode_batch(&recs);
        assert_eq!(bytes.len(), recs.len() * <(u64, f64)>::ENCODED_BYTES);
        let back: Vec<(u64, f64)> = decode_batch(&bytes);
        assert_eq!(back, recs);
    }

    #[test]
    fn empty_batch() {
        let bytes = encode_batch::<u32>(&[]);
        assert!(bytes.is_empty());
        assert!(decode_batch::<u32>(&bytes).is_empty());
    }

    #[test]
    #[should_panic(expected = "whole number of records")]
    fn ragged_buffer_panics() {
        decode_batch::<u32>(&[0, 1, 2]);
    }
}
