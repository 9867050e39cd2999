//! Statistics and reporting utilities for the experiment harness.
//!
//! The paper's figures are 2-D series plots (cost vs. number of spare
//! nodes `N`). Rust has no canonical plotting stack suitable for a
//! dependency-light reproduction, so this crate renders figures three
//! ways, all deterministic:
//!
//! * [`plot::AsciiPlot`] — terminal line/scatter plots (what
//!   `wsn-bench`'s `figures` binary prints),
//! * [`csv`] — CSV files for any external plotting tool,
//! * [`table::TextTable`] — aligned tables for terminal reports.
//!
//! Plus the numeric machinery: [`Summary`] (Welford online moments),
//! [`ci`] (normal-approximation confidence intervals), [`Series`]
//! (labelled x/y data with per-x aggregation over Monte-Carlo trials),
//! and [`stream::StreamingStat`] (Welford + online histogram, the
//! per-cell accumulator behind `wsn-bench`'s campaign engine).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ci;
pub mod csv;
pub mod histogram;
pub mod json;
pub mod plot;
mod series;
pub mod stream;
mod summary;
pub mod table;

pub use ci::ConfidenceInterval;
pub use histogram::Histogram;
pub use json::{JsonParseError, JsonValue};
pub use series::Series;
pub use stream::StreamingStat;
pub use summary::{percentile_sorted, Summary};
