//! Split predicates ("splitter points" in the paper's terminology).

use pdc_cgm::wire::{DecodeError, DecodeResult, Wire};
use pdc_datagen::{Record, RecordBatch, NUM_CATEGORICAL, NUM_CLASSES, NUM_NUMERIC};

/// A binary split test stored at an internal tree node.
#[derive(Debug, Clone, PartialEq)]
pub enum Splitter {
    /// Numeric test: records with `numeric[attr] <= threshold` go left.
    Numeric {
        /// Numeric attribute index.
        attr: usize,
        /// Split threshold (left side inclusive).
        threshold: f64,
    },
    /// Categorical test: records whose value's bit is set in `left_values`
    /// go left. Cardinalities up to 64 are supported.
    Categorical {
        /// Categorical attribute index.
        attr: usize,
        /// Bitmask over attribute values for the left branch.
        left_values: u64,
    },
}

impl Splitter {
    /// Apply the test to a record.
    pub fn goes_left(&self, r: &Record) -> bool {
        match *self {
            Splitter::Numeric { attr, threshold } => r.num(attr) <= threshold,
            Splitter::Categorical { attr, left_values } => {
                left_values & (1u64 << r.cat(attr)) != 0
            }
        }
    }

    /// [`Splitter::goes_left`] for record `i` of a batch, reading only the
    /// tested attribute.
    #[inline]
    pub fn goes_left_at(&self, records: &(impl RecordBatch + ?Sized), i: usize) -> bool {
        match *self {
            Splitter::Numeric { attr, threshold } => records.num(i, attr) <= threshold,
            Splitter::Categorical { attr, left_values } => {
                left_values & (1u64 << records.cat(i, attr)) != 0
            }
        }
    }

    /// Short human-readable description.
    pub fn describe(&self) -> String {
        match *self {
            Splitter::Numeric { attr, threshold } => {
                format!(
                    "{} <= {:.3}",
                    pdc_datagen::NUMERIC_NAMES.get(attr).copied().unwrap_or("num?"),
                    threshold
                )
            }
            Splitter::Categorical { attr, left_values } => {
                let name = pdc_datagen::CATEGORICAL_NAMES
                    .get(attr)
                    .copied()
                    .unwrap_or("cat?");
                let values: Vec<String> = (0..64)
                    .filter(|v| left_values & (1u64 << v) != 0)
                    .map(|v| v.to_string())
                    .collect();
                format!("{name} in {{{}}}", values.join(","))
            }
        }
    }
}

impl Wire for Splitter {
    fn encode(&self, buf: &mut Vec<u8>) {
        match *self {
            Splitter::Numeric { attr, threshold } => {
                buf.push(0);
                attr.encode(buf);
                threshold.encode(buf);
            }
            Splitter::Categorical { attr, left_values } => {
                buf.push(1);
                attr.encode(buf);
                left_values.encode(buf);
            }
        }
    }

    /// Both variants: a tag byte, the attribute, then eight bytes.
    fn encoded_len(&self) -> usize {
        17
    }

    fn decode(bytes: &mut &[u8]) -> DecodeResult<Self> {
        match u8::decode(bytes)? {
            0 => {
                let (attr, threshold) = (usize::decode(bytes)?, f64::decode(bytes)?);
                if attr >= NUM_NUMERIC || threshold.is_nan() {
                    return Err(DecodeError::malformed("numeric splitter attribute or threshold out of range", bytes));
                }
                Ok(Splitter::Numeric { attr, threshold })
            }
            1 => {
                let (attr, left_values) = (usize::decode(bytes)?, u64::decode(bytes)?);
                if attr >= NUM_CATEGORICAL {
                    return Err(DecodeError::malformed("categorical splitter attribute out of range", bytes));
                }
                Ok(Splitter::Categorical { attr, left_values })
            }
            _ => Err(DecodeError::malformed("splitter tag out of range", bytes)),
        }
    }
}

/// A scored candidate split. Ordering favors lower gini (ties to whatever
/// came first).
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Weighted gini of the split.
    pub gini: f64,
    /// The split test.
    pub splitter: Splitter,
    /// Class counts of the left side. Carrying these lets builders derive
    /// child statistics (counts, interval sets) without re-scanning the
    /// data — the paper's "avoids a separate additional pass" optimization.
    pub left_counts: Vec<u64>,
}

impl Wire for Candidate {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.gini.encode(buf);
        self.splitter.encode(buf);
        self.left_counts.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        self.gini.encoded_len() + self.splitter.encoded_len() + self.left_counts.encoded_len()
    }

    fn decode(bytes: &mut &[u8]) -> DecodeResult<Self> {
        let candidate = Candidate {
            gini: f64::decode(bytes)?,
            splitter: Splitter::decode(bytes)?,
            left_counts: Vec::<u64>::decode(bytes)?,
        };
        if candidate.gini.is_nan() {
            Err(DecodeError::malformed("candidate gini is NaN", bytes))
        } else if candidate.left_counts.len() != NUM_CLASSES {
            Err(DecodeError::malformed("candidate class counts of the wrong length", bytes))
        } else {
            Ok(candidate)
        }
    }
}

impl Candidate {
    /// Canonical total-order key: gini first, then a deterministic splitter
    /// order (numeric before categorical, then attribute, then value). Using
    /// this key everywhere makes the winning split independent of the order
    /// candidates are examined in — and therefore independent of processor
    /// counts, interval-owner assignments and batching schedules.
    fn key(&self) -> (u64, u8, usize, u64) {
        // total_cmp-compatible encoding of a non-negative f64.
        let gini_bits = self.gini.to_bits();
        match self.splitter {
            Splitter::Numeric { attr, threshold } => {
                // Map f64 to a monotone u64 (handles negatives).
                let t = threshold.to_bits();
                let t = if threshold >= 0.0 { t ^ (1 << 63) } else { !t };
                (gini_bits, 0, attr, t)
            }
            Splitter::Categorical { attr, left_values } => (gini_bits, 1, attr, left_values),
        }
    }

    /// Whether `self` wins against `other`: its canonical key is strictly
    /// smaller (see `Candidate::key`).
    pub fn beats(&self, other: &Candidate) -> bool {
        self.key() < other.key()
    }

    /// Keep the better of `current` and `challenger` (canonically smaller
    /// key wins; see `Candidate::key`).
    pub fn better(current: Option<Candidate>, challenger: Candidate) -> Option<Candidate> {
        match current {
            Some(c) if !challenger.beats(&c) => Some(c),
            _ => Some(challenger),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdc_datagen::{generate, GeneratorConfig};

    #[test]
    fn numeric_splitter_threshold_is_inclusive_left() {
        let records = generate(1, GeneratorConfig::default());
        let mut r = records[0];
        r.numeric[2] = 40.0;
        let s = Splitter::Numeric {
            attr: 2,
            threshold: 40.0,
        };
        assert!(s.goes_left(&r));
        r.numeric[2] = 40.0001;
        assert!(!s.goes_left(&r));
    }

    #[test]
    fn categorical_splitter_uses_bitmask() {
        let records = generate(1, GeneratorConfig::default());
        let mut r = records[0];
        r.categorical[0] = 3;
        let s = Splitter::Categorical {
            attr: 0,
            left_values: (1 << 3) | (1 << 1),
        };
        assert!(s.goes_left(&r));
        r.categorical[0] = 2;
        assert!(!s.goes_left(&r));
    }

    #[test]
    fn wire_roundtrip() {
        for s in [
            Splitter::Numeric {
                attr: 4,
                threshold: -1.25,
            },
            Splitter::Categorical {
                attr: 1,
                left_values: 0b1011,
            },
        ] {
            let bytes = s.to_bytes();
            assert_eq!(Splitter::from_bytes(&bytes).unwrap(), s);
        }
        assert!(Splitter::from_bytes(&[7]).is_err());
    }

    #[test]
    fn candidate_better_prefers_lower_gini() {
        let a = Candidate {
            gini: 0.3,
            splitter: Splitter::Numeric {
                attr: 0,
                threshold: 1.0,
            },
            left_counts: vec![1, 0],
        };
        let b = Candidate {
            gini: 0.2,
            splitter: Splitter::Numeric {
                attr: 1,
                threshold: 2.0,
            },
            left_counts: vec![0, 1],
        };
        let best = Candidate::better(Some(a.clone()), b.clone()).unwrap();
        assert_eq!(best, b);
        let kept = Candidate::better(Some(b.clone()), a).unwrap();
        assert_eq!(kept, b);
        assert!(Candidate::better(None, b.clone()).is_some());
    }

    #[test]
    fn describe_mentions_attribute_names() {
        let s = Splitter::Numeric {
            attr: 0,
            threshold: 50_000.0,
        };
        assert!(s.describe().contains("salary"));
        let s = Splitter::Categorical {
            attr: 2,
            left_values: 0b101,
        };
        let d = s.describe();
        assert!(d.contains("zipcode") && d.contains("0,2"), "{d}");
    }
}
