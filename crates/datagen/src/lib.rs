//! # pdc-datagen — the synthetic classification benchmark workload
//!
//! The paper generates its training sets with "the data generator proposed
//! in \[SLIQ\]" — the Agrawal et al. synthetic household/credit schema with
//! six numeric attributes (salary, commission, age, hvalue, hyears, loan),
//! three categorical attributes (elevel, car, zipcode), two classes, and a
//! family of ten classification functions; the experiments use function 2.
//!
//! ```
//! use pdc_datagen::{generate, GeneratorConfig, ClassifyFn};
//!
//! let cfg = GeneratorConfig { function: ClassifyFn::F2, ..Default::default() };
//! let records = generate(1_000, cfg);
//! assert_eq!(records.len(), 1_000);
//! assert!(records.iter().all(|r| r.class <= 1));
//! ```

#![warn(missing_docs)]

pub mod functions;
pub mod generator;
pub mod record;

pub use functions::{ClassifyFn, ALL_FUNCTIONS};
pub use generator::{
    class_histogram, generate, train_test_split, GeneratorConfig, RecordStream,
};
pub use record::{
    categorical, numeric, Record, RecordBatch, CATEGORICAL_CARDINALITY, CATEGORICAL_NAMES,
    NUM_CATEGORICAL,
    NUM_CLASSES, NUM_NUMERIC, NUMERIC_NAMES,
};
