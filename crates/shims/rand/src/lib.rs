//! Offline stand-in for the `rand` crate (0.9-era API subset).
//!
//! The build container has no crate registry, so the workspace vendors the
//! small slice of `rand` it uses: [`rngs::StdRng`] seeded via
//! [`SeedableRng::seed_from_u64`], the [`Rng`] extension methods
//! `random_range` / `random_bool`, and [`seq::index::sample`] (uniform
//! index sampling without replacement).
//!
//! The generator is **xoshiro256\*\*** seeded through SplitMix64 — not the
//! ChaCha12 core of the real `StdRng`, so *sequences differ from upstream
//! rand*, but every consumer in this workspace only requires determinism
//! for a fixed seed, which this shim guarantees (it is pure integer
//! arithmetic, identical on every platform).
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::{Rng, SeedableRng};
//!
//! let mut a = StdRng::seed_from_u64(7);
//! let mut b = StdRng::seed_from_u64(7);
//! let xs: Vec<u64> = (0..4).map(|_| a.random_range(0..100)).collect();
//! let ys: Vec<u64> = (0..4).map(|_| b.random_range(0..100)).collect();
//! assert_eq!(xs, ys);
//! assert!(xs.iter().all(|&x| x < 100));
//! ```

/// Core pseudo-random generator interface: a source of `u64` words.
pub trait RngCore {
    /// Next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

/// Construction of a generator from seed material.
pub trait SeedableRng: Sized {
    /// Build a generator from a 64-bit seed (expanded through SplitMix64).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Ranges that [`Rng::random_range`] can sample from.
pub trait SampleRange<T> {
    /// Draw one uniform value from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                // One 64-bit draw reduced modulo the span; the modulo bias
                // is < 2^-32 for all spans used here.
                let draw = rng.next_u64() % span;
                (self.start as u64 + draw) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "empty range");
                // Only `0..=u64::MAX` has a span of 2^64, past `u64`.
                match (end as u64).wrapping_sub(start as u64).checked_add(1) {
                    Some(span) => (start as u64 + rng.next_u64() % span) as $t,
                    None => (start as u128 + rng.next_u64() as u128 % (1u128 << 64)) as $t,
                }
            }
        }
    )*};
}

impl_int_range!(u8, u16, u32, u64, usize);

macro_rules! impl_float_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                // 53 uniform mantissa bits in [0, 1).
                let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                (self.start as f64 + unit * (self.end as f64 - self.start as f64)) as $t
            }
        }
    )*};
}

impl_float_range!(f32, f64);

/// Convenience extension methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform draw from `range` (half-open or inclusive).
    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// Bernoulli draw: `true` with probability `p`.
    fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Named generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256\*\* (Blackman &
    /// Vigna), seeded through SplitMix64. Deterministic and portable.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

/// Sequence-related helpers.
pub mod seq {
    /// Index sampling.
    pub mod index {
        use crate::{Rng, RngCore};

        /// Indices drawn by [`sample`]; iterate to consume them.
        #[derive(Debug, Clone)]
        pub struct IndexVec(Vec<usize>);

        impl IndexVec {
            /// Number of sampled indices.
            pub fn len(&self) -> usize {
                self.0.len()
            }

            /// Whether no indices were sampled.
            pub fn is_empty(&self) -> bool {
                self.0.is_empty()
            }

            /// The indices as a vector.
            pub fn into_vec(self) -> Vec<usize> {
                self.0
            }
        }

        impl IntoIterator for IndexVec {
            type Item = usize;
            type IntoIter = std::vec::IntoIter<usize>;
            fn into_iter(self) -> Self::IntoIter {
                self.0.into_iter()
            }
        }

        /// Sample `amount` distinct indices uniformly from `0..length`
        /// (partial Fisher–Yates; order is the draw order, as in `rand`).
        pub fn sample<R: RngCore + ?Sized>(
            rng: &mut R,
            length: usize,
            amount: usize,
        ) -> IndexVec {
            assert!(
                amount <= length,
                "cannot sample {amount} of {length} without replacement"
            );
            let mut pool: Vec<usize> = (0..length).collect();
            let mut out = Vec::with_capacity(amount);
            for i in 0..amount {
                let j = rng.random_range(i..length);
                pool.swap(i, j);
                out.push(pool[i]);
            }
            IndexVec(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }

        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    use super::RngCore;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let v: u8 = rng.random_range(0..5);
            assert!(v < 5);
            let f = rng.random_range(-2.0..3.0f64);
            assert!((-2.0..3.0).contains(&f));
            let i = rng.random_range(10..=10u64);
            assert_eq!(i, 10);
        }
    }

    #[test]
    fn random_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!((0..100).all(|_| !rng.random_bool(0.0)));
        assert!((0..100).all(|_| rng.random_bool(1.0)));
    }

    #[test]
    fn sample_without_replacement_is_distinct() {
        let mut rng = StdRng::seed_from_u64(3);
        let idx = crate::seq::index::sample(&mut rng, 50, 20).into_vec();
        assert_eq!(idx.len(), 20);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 20, "duplicates drawn");
        assert!(idx.iter().all(|&i| i < 50));
    }

    #[test]
    fn roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut buckets = [0u32; 10];
        for _ in 0..10_000 {
            buckets[rng.random_range(0..10usize)] += 1;
        }
        assert!(buckets.iter().all(|&b| (800..1200).contains(&b)), "{buckets:?}");
    }
}
