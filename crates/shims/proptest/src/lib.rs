//! Offline stand-in for the `proptest` crate.
//!
//! The build container has no crate registry, so the workspace vendors the
//! subset of proptest its property tests use: the [`proptest!`] macro over
//! `arg in strategy` bindings, [`ProptestConfig::with_cases`], integer /
//! float range strategies, [`any`], [`collection::vec`], tuple strategies,
//! and the `prop_assert*` macros.
//!
//! Differences from the real crate, acceptable for this workspace:
//!
//! * **No shrinking** — a failing case panics with the generated inputs
//!   printed, but is not minimized.
//! * **Deterministic seeding** — each test function derives its RNG seed
//!   from its own name, so failures reproduce exactly across runs (the real
//!   proptest persists failure seeds to a regression file instead).
//!
//! ```
//! use proptest::prelude::*;
//!
//! proptest! {
//!     #![proptest_config(ProptestConfig::with_cases(16))]
//!     fn addition_commutes(a in 0u64..1000, b in 0u64..1000) {
//!         prop_assert_eq!(a + b, b + a);
//!     }
//! }
//! # addition_commutes();
//! ```

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Configuration accepted by `#![proptest_config(...)]`.
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of random cases to run per property.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A configuration running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// The RNG handed to strategies by the [`proptest!`] runner.
pub struct TestRng(StdRng);

impl TestRng {
    /// Deterministic RNG for the named test (seed = FNV-1a of the name).
    pub fn for_test(name: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        TestRng(StdRng::seed_from_u64(h))
    }

    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

/// A generator of random values of one type.
pub trait Strategy {
    /// The generated type.
    type Value: std::fmt::Debug;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.0.random_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.0.random_range(self.clone())
            }
        }
    )*};
}

impl_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        rng.0.random_range(self.clone())
    }
}

/// String strategies are regexes in the real proptest. The shim supports the
/// one shape this workspace uses — `\PC{lo,hi}`, i.e. `lo..=hi` printable
/// characters — and rejects anything else loudly.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let body = self
            .strip_prefix("\\PC{")
            .and_then(|s| s.strip_suffix('}'))
            .unwrap_or_else(|| panic!("unsupported string strategy regex {self:?}"));
        let (lo, hi) = body
            .split_once(',')
            .and_then(|(a, b)| Some((a.parse::<usize>().ok()?, b.parse::<usize>().ok()?)))
            .unwrap_or_else(|| panic!("unsupported repetition in string strategy {self:?}"));
        let n = rng.0.random_range(lo..hi + 1);
        (0..n)
            .map(|_| {
                // Mix of printable ASCII and a few multibyte code points so
                // round-trip tests see non-trivial UTF-8.
                match rng.next_u64() % 8 {
                    0 => char::from_u32(0xA1 + (rng.next_u64() % 0x500) as u32).unwrap_or('ß'),
                    _ => (0x20 + (rng.next_u64() % 0x5F) as u8) as char,
                }
            })
            .collect()
    }
}

/// Types with a full-domain default strategy (see [`any`]).
pub trait Arbitrary: Sized + std::fmt::Debug {
    /// Draw one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_uint {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_uint!(u8, u16, u32, u64, usize);

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Arbitrary bit patterns: exercises subnormals, infinities and NaN,
        // as the real proptest's full f64 domain does.
        f64::from_bits(rng.next_u64())
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy returned by [`any`].
pub struct Any<T>(std::marker::PhantomData<fn() -> T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The full-domain strategy for `T` (`any::<u64>()` etc.).
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

impl_tuple_strategy! {
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;

    /// Admissible size arguments for [`vec()`]: an exact `usize` or a range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        lo: usize,
        hi_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi_exclusive: n + 1 }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { lo: r.start, hi_exclusive: r.end }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange { lo: *r.start(), hi_exclusive: *r.end() + 1 }
        }
    }

    /// Strategy for vectors of `element` values with a size in `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// `vec(element, size)` — the `proptest::collection::vec` entry point.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { element, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.rng_mut().random_range(self.size.lo..self.size.hi_exclusive);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }

    impl TestRng {
        pub(crate) fn rng_mut(&mut self) -> &mut rand::rngs::StdRng {
            &mut self.0
        }
    }
}

/// Everything a property-test file needs in scope.
pub mod prelude {
    pub use crate::{any, prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};
}

/// Assert inside a property body (panics with the message on failure; the
/// runner prints the generated inputs).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        assert!($cond)
    };
    ($cond:expr, $($fmt:tt)*) => {
        assert!($cond, $($fmt)*)
    };
}

/// Equality assert inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {
        assert_eq!($a, $b)
    };
    ($a:expr, $b:expr, $($fmt:tt)*) => {
        assert_eq!($a, $b, $($fmt)*)
    };
}

/// Define property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a plain `fn name()` running the body over `cases` generated
/// inputs, carrying the attributes written above it (`#[test]`, usually).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { (<$crate::ProptestConfig as ::core::default::Default>::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr); $($(#[$meta:meta])* fn $name:ident($($arg:pat in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let mut rng = $crate::TestRng::for_test(concat!(module_path!(), "::", stringify!($name)));
                for case in 0..config.cases {
                    // Failures reproduce exactly: the RNG is seeded from the
                    // test name, so `case` identifies the failing inputs.
                    let _ = case;
                    $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)*
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_bounded(x in 3u64..17, y in 0usize..4) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y < 4);
        }

        #[test]
        fn vec_sizes(v in crate::collection::vec(any::<u8>(), 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
        }

        #[test]
        fn exact_vec_size(v in crate::collection::vec(0u64..5, 3)) {
            prop_assert_eq!(v.len(), 3);
            prop_assert!(v.iter().all(|&x| x < 5));
        }

        #[test]
        fn tuples_compose(t in (any::<u32>(), crate::collection::vec(any::<u8>(), 0..3))) {
            let (_a, v) = t;
            prop_assert!(v.len() < 3);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let mut a = crate::TestRng::for_test("t");
        let mut b = crate::TestRng::for_test("t");
        let s = crate::collection::vec(crate::any::<u64>(), 0..9);
        for _ in 0..20 {
            assert_eq!(
                crate::Strategy::generate(&s, &mut a),
                crate::Strategy::generate(&s, &mut b)
            );
        }
    }
}
