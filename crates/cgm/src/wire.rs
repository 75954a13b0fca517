//! Binary wire encoding for messages exchanged between virtual processors.
//!
//! The paper's pCLOUDS implementation uses raw MPI buffers; we keep the same
//! spirit with an explicit, hand-rolled little-endian encoding instead of a
//! general serialization framework. Every type that crosses a processor
//! boundary implements [`Wire`]. Encodings are self-delimiting, so tuples and
//! nested containers compose without extra framing.

use std::fmt;

/// Error produced when decoding a malformed or truncated message payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Human-readable description of what failed to decode. For the
    /// trailing-bytes error raised by [`Wire::from_bytes`] this is the
    /// decoded type's name (via [`std::any::type_name`]).
    pub what: &'static str,
    /// Number of *unconsumed* input bytes at the point the failure was
    /// detected (byte offsets are not tracked). For a truncation error this
    /// is how much input was left when more was needed; for the
    /// trailing-bytes error it is the count of extra bytes left over after
    /// a complete, successful decode.
    pub remaining: usize,
    /// True when the value itself decoded fine but the input had leftover
    /// bytes (the [`Wire::from_bytes`] whole-buffer contract was violated);
    /// false for truncated or malformed input.
    pub trailing: bool,
}

impl DecodeError {
    /// Malformed (not merely trailing) input, detected with `buf` left.
    pub fn malformed(what: &'static str, buf: &[u8]) -> Self {
        DecodeError {
            what,
            remaining: buf.len(),
            trailing: false,
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.trailing {
            write!(
                f,
                "wire decode error: {} trailing byte(s) after a complete {}",
                self.remaining, self.what
            )
        } else {
            write!(
                f,
                "wire decode error: {} ({} bytes remaining)",
                self.what, self.remaining
            )
        }
    }
}

impl std::error::Error for DecodeError {}

/// Result alias for decode operations.
pub type DecodeResult<T> = Result<T, DecodeError>;

/// Types that can be sent over the simulated network.
///
/// Implementations must be *self-delimiting*: `decode` consumes exactly the
/// bytes produced by `encode` and leaves the rest of the buffer untouched.
///
/// A message's virtual cost depends on its length alone. The collectives
/// that meet on a board (see [`crate::collectives`]) move typed values
/// between ranks and never encode them: they size each message with
/// [`Wire::encoded_len`], so a type that crosses the network often should
/// compute that length without writing the bytes.
pub trait Wire: Sized {
    /// Append this value's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);
    /// Decode a value from the front of `buf`, advancing the slice.
    fn decode(buf: &mut &[u8]) -> DecodeResult<Self>;

    /// The number of bytes [`Wire::encode`] appends, which an override
    /// must equal exactly: it is what a board collective charges for the
    /// message. The default encodes the value to count them.
    fn encoded_len(&self) -> usize {
        self.to_bytes().len()
    }

    /// Convenience: encode into a fresh byte vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }

    /// Convenience: decode from a complete byte slice, requiring that every
    /// byte is consumed.
    fn from_bytes(mut bytes: &[u8]) -> DecodeResult<Self> {
        let v = Self::decode(&mut bytes)?;
        if !bytes.is_empty() {
            return Err(DecodeError {
                what: std::any::type_name::<Self>(),
                remaining: bytes.len(),
                trailing: true,
            });
        }
        Ok(v)
    }
}

fn take<'a>(buf: &mut &'a [u8], n: usize, what: &'static str) -> DecodeResult<&'a [u8]> {
    if buf.len() < n {
        return Err(DecodeError {
            what,
            remaining: buf.len(),
            trailing: false,
        });
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

/// Append `v` to `buf` as an LEB128 variable-length integer: seven value
/// bits per byte, high bit set on every byte but the last. Values below 128
/// take a single byte; a `u64` never takes more than ten. This is the
/// building block of the sparse histogram encoding — interval class counts
/// are mostly zero or small, so varints shrink the `beta * m` term of every
/// histogram reduction without changing the decoded values.
pub fn encode_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Decode an LEB128 varint from the front of `buf`, advancing the slice.
/// Rejects truncated input and encodings longer than ten bytes (the `u64`
/// maximum), so a corrupt high-bit run cannot loop past the value.
pub fn decode_varint(buf: &mut &[u8]) -> DecodeResult<u64> {
    let mut v: u64 = 0;
    for shift in 0..10u32 {
        let byte = take(buf, 1, "varint")?[0];
        v |= u64::from(byte & 0x7f) << (7 * shift);
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(DecodeError {
        what: "varint longer than 10 bytes",
        remaining: buf.len(),
        trailing: false,
    })
}

/// The number of bytes [`encode_varint`] produces for `v`.
pub fn varint_len(v: u64) -> usize {
    (((64 - v.leading_zeros()).max(1) as usize) + 6) / 7
}

macro_rules! impl_wire_le {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(buf: &mut &[u8]) -> DecodeResult<Self> {
                let bytes = take(buf, std::mem::size_of::<$t>(), stringify!($t))?;
                Ok(<$t>::from_le_bytes(bytes.try_into().unwrap()))
            }
            fn encoded_len(&self) -> usize {
                std::mem::size_of::<$t>()
            }
        }
    )*};
}

impl_wire_le!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl Wire for usize {
    fn encode(&self, buf: &mut Vec<u8>) {
        (*self as u64).encode(buf);
    }
    fn decode(buf: &mut &[u8]) -> DecodeResult<Self> {
        Ok(u64::decode(buf)? as usize)
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Wire for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
    fn decode(buf: &mut &[u8]) -> DecodeResult<Self> {
        let b = take(buf, 1, "bool")?;
        match b[0] {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError {
                what: "bool out of range",
                remaining: buf.len(),
                trailing: false,
            }),
        }
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Wire for () {
    fn encode(&self, _buf: &mut Vec<u8>) {}
    fn decode(_buf: &mut &[u8]) -> DecodeResult<Self> {
        Ok(())
    }
    fn encoded_len(&self) -> usize {
        0
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u64).encode(buf);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(buf: &mut &[u8]) -> DecodeResult<Self> {
        let len = u64::decode(buf)? as usize;
        // Guard against absurd lengths from corrupt payloads: each element
        // costs at least one byte except unit-like types, so the remaining
        // bytes cap the reservation — and, for a unit-like element, which
        // gives the loop below nothing to run out of, the count itself.
        let backed = buf.len().max(16);
        if std::mem::size_of::<T>() == 0 && len > backed {
            return Err(DecodeError::malformed("vec count exceeds input", buf));
        }
        let mut out = Vec::with_capacity(len.min(backed));
        for _ in 0..len {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }
    fn encoded_len(&self) -> usize {
        8 + self.iter().map(Wire::encoded_len).sum::<usize>()
    }
}

impl Wire for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u64).encode(buf);
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(buf: &mut &[u8]) -> DecodeResult<Self> {
        let len = u64::decode(buf)? as usize;
        let bytes = take(buf, len, "string body")?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError {
            what: "string not utf-8",
            remaining: buf.len(),
            trailing: false,
        })
    }
    fn encoded_len(&self) -> usize {
        8 + self.len()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(buf: &mut &[u8]) -> DecodeResult<Self> {
        let tag = take(buf, 1, "option tag")?[0];
        match tag {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            _ => Err(DecodeError {
                what: "option tag out of range",
                remaining: buf.len(),
                trailing: false,
            }),
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Wire::encoded_len)
    }
}

macro_rules! impl_wire_tuple {
    ($($name:ident),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            fn encode(&self, buf: &mut Vec<u8>) {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                $($name.encode(buf);)+
            }
            fn decode(buf: &mut &[u8]) -> DecodeResult<Self> {
                Ok(($($name::decode(buf)?,)+))
            }
            fn encoded_len(&self) -> usize {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                0 $(+ $name.encoded_len())+
            }
        }
    };
}

impl_wire_tuple!(A);
impl_wire_tuple!(A, B);
impl_wire_tuple!(A, B, C);
impl_wire_tuple!(A, B, C, D);
impl_wire_tuple!(A, B, C, D, E);

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        let back = T::from_bytes(&bytes).expect("decode");
        assert_eq!(v, back);
    }

    #[test]
    fn roundtrip_integers() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(u16::MAX);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX);
        roundtrip(-1i64);
        roundtrip(i32::MIN);
        roundtrip(usize::MAX);
    }

    #[test]
    fn roundtrip_floats() {
        roundtrip(0.0f64);
        roundtrip(-1.5f64);
        roundtrip(f64::INFINITY);
        roundtrip(3.25f32);
    }

    #[test]
    fn roundtrip_compound() {
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip("hello pclouds".to_string());
        roundtrip(Some(vec![(1u32, 2.5f64), (3, 4.5)]));
        roundtrip(Option::<u8>::None);
        roundtrip((true, 7u64, "x".to_string()));
    }

    #[test]
    fn nested_vectors() {
        roundtrip(vec![vec![1u8, 2], vec![], vec![3]]);
    }

    #[test]
    fn truncated_input_errors() {
        let bytes = 12345u64.to_bytes();
        assert!(u64::from_bytes(&bytes[..4]).is_err());
        let v = vec![1u32, 2, 3].to_bytes();
        assert!(Vec::<u32>::from_bytes(&v[..v.len() - 1]).is_err());
    }

    #[test]
    fn trailing_bytes_error() {
        let mut bytes = 1u32.to_bytes();
        bytes.push(0);
        let err = u32::from_bytes(&bytes).unwrap_err();
        assert!(err.trailing);
        assert_eq!(err.remaining, 1);
        assert_eq!(err.what, std::any::type_name::<u32>(), "what names the decoded type");
        let msg = err.to_string();
        assert!(msg.contains("trailing"), "display mentions trailing bytes: {msg}");
        assert!(msg.contains("u32"), "display names the type: {msg}");
        // Truncated input is *not* a trailing error.
        let err = u64::from_bytes(&1u64.to_bytes()[..3]).unwrap_err();
        assert!(!err.trailing);
    }

    #[test]
    fn varint_roundtrip_and_lengths() {
        let mut buf = Vec::new();
        let samples = [
            0u64, 1, 99, 127, 128, 300, 16_383, 16_384, 1 << 35, u64::MAX,
        ];
        for &v in &samples {
            let start = buf.len();
            encode_varint(&mut buf, v);
            assert_eq!(buf.len() - start, varint_len(v), "length of {v}");
        }
        let mut slice = buf.as_slice();
        for &v in &samples {
            assert_eq!(decode_varint(&mut slice).unwrap(), v);
        }
        assert!(slice.is_empty());
        assert_eq!(varint_len(0), 1);
        assert_eq!(varint_len(127), 1);
        assert_eq!(varint_len(128), 2);
        assert_eq!(varint_len(u64::MAX), 10);
    }

    #[test]
    fn varint_never_longer_than_fixed_u64_below_2_pow_63() {
        for shift in 0..63 {
            assert!(varint_len(1u64 << shift) <= 9);
        }
        // Small counts — the common histogram case — shrink 8x.
        assert_eq!(varint_len(0), 1);
    }

    #[test]
    fn varint_rejects_truncation_and_overlong_runs() {
        let mut buf = Vec::new();
        encode_varint(&mut buf, u64::MAX);
        let mut short = &buf[..buf.len() - 1];
        assert!(decode_varint(&mut short).is_err());
        let overlong = [0x80u8; 11];
        assert!(decode_varint(&mut &overlong[..]).is_err());
    }

    #[test]
    fn bad_bool_and_option_tags() {
        assert!(bool::from_bytes(&[2]).is_err());
        assert!(Option::<u8>::from_bytes(&[9, 0]).is_err());
    }

    #[test]
    fn unit_vec_count_is_bounded_by_the_input() {
        roundtrip(vec![(); 3]);
        // No element byte ever runs out: the count alone must be refused.
        assert!(Vec::<()>::from_bytes(&u64::MAX.to_bytes()).is_err());
        assert!(Vec::<((), ())>::from_bytes(&(1u64 << 40).to_bytes()).is_err());
    }

    #[test]
    fn vec_is_self_delimiting() {
        let mut buf = Vec::new();
        vec![1u16, 2].encode(&mut buf);
        42u32.encode(&mut buf);
        let mut slice = buf.as_slice();
        assert_eq!(Vec::<u16>::decode(&mut slice).unwrap(), vec![1, 2]);
        assert_eq!(u32::decode(&mut slice).unwrap(), 42);
        assert!(slice.is_empty());
    }
}
