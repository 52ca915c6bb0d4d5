//! Statistical substrate for edgeperf.
//!
//! Implements the statistical machinery §3.3–3.4 of the paper relies on:
//!
//! - [`TDigest`]: the streaming quantile sketch the paper cites (Dunning &
//!   Ertl) for production use in near-real-time comparisons.
//! - [`median_ci`](mod@median_ci): distribution-free confidence intervals for a median and
//!   for the *difference* of two medians (Price & Bonett 2002), used to
//!   separate measurement noise from statistically significant degradation
//!   or routing opportunity.
//! - [`quantile`]: exact quantiles on finite samples, and exact ranks read
//!   in place off a sample source too large to copy.
//! - [`cdf`]: traffic-weighted empirical CDFs used to render the paper's
//!   figures.
//! - [`dist`]: the normal/binomial helper functions the above need.

pub mod cdf;
pub mod dist;
pub mod median_ci;
pub mod quantile;
pub mod tdigest;

pub use cdf::WeightedCdf;
pub use median_ci::{
    diff_of_medians_ci, median_ci, median_variance_from_order_stats, order_stat_c, DiffCi, MedianCi,
};
pub use quantile::{
    keyed_quantiles_in_place, quantile_sorted, quantile_unsorted, quantiles_in_place, Ranks,
};
pub use tdigest::{Centroid, DigestParts, TDigest};
