//! Hypercube topology helpers.
//!
//! The paper analyzes its collectives on a p-processor hypercube with
//! cut-through routing (and notes the analysis carries over to permutation
//! networks like the IBM SP series). These helpers pick hypercube algorithms
//! when `p` is a power of two and let callers fall back to tree/ring
//! algorithms otherwise.

/// Is `p` a power of two (and nonzero)?
pub fn is_pow2(p: usize) -> bool {
    p != 0 && p & (p - 1) == 0
}

/// Number of hypercube dimensions needed to host `p` processors:
/// `ceil(log2(p))`, with `log2ceil(1) == 0`.
pub fn log2ceil(p: usize) -> u32 {
    assert!(p > 0, "log2ceil of zero");
    usize::BITS - (p - 1).leading_zeros()
}

/// The hypercube neighbour of `rank` along dimension `dim`.
pub fn partner(rank: usize, dim: u32) -> usize {
    rank ^ (1usize << dim)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pow2_detection() {
        assert!(is_pow2(1));
        assert!(is_pow2(2));
        assert!(is_pow2(16));
        assert!(!is_pow2(0));
        assert!(!is_pow2(3));
        assert!(!is_pow2(12));
    }

    #[test]
    fn log2ceil_values() {
        assert_eq!(log2ceil(1), 0);
        assert_eq!(log2ceil(2), 1);
        assert_eq!(log2ceil(3), 2);
        assert_eq!(log2ceil(4), 2);
        assert_eq!(log2ceil(5), 3);
        assert_eq!(log2ceil(16), 4);
        assert_eq!(log2ceil(17), 5);
    }

    #[test]
    fn partner_is_involution() {
        for rank in 0..16 {
            for dim in 0..4 {
                assert_eq!(partner(partner(rank, dim), dim), rank);
                assert_ne!(partner(rank, dim), rank);
            }
        }
    }
}
