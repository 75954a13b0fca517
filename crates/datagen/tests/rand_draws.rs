//! Every data set, sample and bootstrap here is a function of the `rand`
//! shim's integer draws. The shim reduces one 64-bit draw modulo the span
//! in `u64`, and keeps `u128` arithmetic only for `0..=u64::MAX`, whose
//! span does not fit. Its draws must equal the `u128` formula
//! `start + draw % span` they were first computed with: for every integer
//! type, both kinds of range, and the spans at the edges of `u64`.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// `start + draw % span` in `u128`, `span` = `end - start` (+ 1 if
/// inclusive).
fn wide(draw: u64, start: u64, end: u64, inclusive: bool) -> u64 {
    let span = end as u128 - start as u128 + u128::from(inclusive);
    (start as u128 + draw as u128 % span) as u64
}

macro_rules! check_type {
    ($t:ty, $seed:expr, $a:expr, $b:expr) => {{
        let (a, b) = ($a as $t, $b as $t);
        let (lo, hi) = (a.min(b), a.max(b));
        let mut rng = StdRng::seed_from_u64($seed);
        let mut twin = StdRng::seed_from_u64($seed);
        for _ in 0..4 {
            let got: $t = rng.random_range(lo..=hi);
            prop_assert_eq!(got as u64, wide(twin.next_u64(), lo as u64, hi as u64, true));
            if lo < hi {
                let got: $t = rng.random_range(lo..hi);
                prop_assert_eq!(got as u64, wide(twin.next_u64(), lo as u64, hi as u64, false));
            }
        }
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn integer_draws_equal_the_u128_formula(seed in any::<u64>(), a in any::<u64>(), b in any::<u64>()) {
        check_type!(u8, seed, a, b);
        check_type!(u16, seed, a, b);
        check_type!(u32, seed, a, b);
        check_type!(usize, seed, a, b);
        check_type!(u64, seed, a, b);
        // Small spans, where the generator's draws live.
        check_type!(u64, seed, a % 1_000, b % 1_000);
        // The spans at the edges of `u64`, the full inclusive range among them.
        for (lo, hi) in [(0, u64::MAX), (1, u64::MAX), (0, u64::MAX - 1), (a, a)] {
            check_type!(u64, seed, lo, hi);
        }
    }
}
