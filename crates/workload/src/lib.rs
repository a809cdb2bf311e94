//! `imadg-workload`: the paper's synthetic OLTAP workload (§IV).
//!
//! The 101-column wide table with an identity index, the Q1/Q2 analytic
//! queries of Table 1 and the update-only / update+insert / scan-only
//! operation mixes. `benchmark/` drives them against the public API.

pub mod mix;
pub mod oltap;
pub mod queries;

pub use mix::{OpKind, OpMix};
pub use oltap::{generate_row, load_wide_table, wide_schema, wide_table_spec};
pub use queries::{build, q1, q2, QueryId};
