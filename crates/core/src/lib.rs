//! # pla-core — online piece-wise linear approximation with precision guarantees
//!
//! Faithful implementation of
//!
//! > H. Elmeleegy, A. K. Elmagarmid, E. Cecchet, W. G. Aref,
//! > W. Zwaenepoel. *Online Piece-wise Linear Approximation of Numerical
//! > Streams with Precision Guarantees.* VLDB 2009.
//!
//! The crate compresses a multi-dimensional numerical stream `(t_j, X_j)`
//! into line segments such that **every** original point stays within a
//! per-dimension L∞ bound `εᵢ` of the approximation — the dual of classic
//! time-series compression: the error is guaranteed, the compression ratio
//! is maximized best-effort.
//!
//! Five filters are provided (see [`filters`]):
//!
//! * [`filters::CacheFilter`] — piece-wise constant baseline (§2.2);
//! * [`filters::LinearFilter`] — fixed-slope linear baseline (§2.2);
//! * [`filters::SwingFilter`] — the paper's swing filter (§3): connected
//!   segments, O(d) per point;
//! * [`filters::SlideFilter`] — the paper's slide filter (§4): mostly
//!   disconnected segments chosen from sliding envelopes, convex-hull
//!   optimized, the best compressor of the four the paper evaluates;
//! * [`filters::KalmanFilter`] — extension: Kalman-predictive filter
//!   for the overhead comparison.
//!
//! Supporting types: [`Signal`] (columnar sample storage), [`Segment`] /
//! [`SegmentSink`] (output model with the paper's recording accounting),
//! [`Polyline`] (receiver-side reconstruction), and [`metrics`] (the §5.1
//! compression-ratio / average-error measurements).
//!
//! ## Example
//!
//! ```
//! use pla_core::filters::SlideFilter;
//! use pla_core::{metrics, Signal};
//!
//! // A noisy ramp, 1-D.
//! let values: Vec<f64> = (0..500)
//!     .map(|j| 0.3 * j as f64 + if j % 2 == 0 { 0.05 } else { -0.05 })
//!     .collect();
//! let signal = Signal::from_values(&values);
//!
//! let mut slide = SlideFilter::new(&[0.5]).unwrap();
//! let report = metrics::evaluate(&mut slide, &signal).unwrap();
//!
//! // The guarantee: no sample is more than ε from the approximation.
//! assert!(report.error.max_abs_overall() <= 0.5 + 1e-9);
//! // A near-linear signal compresses into a single segment.
//! assert_eq!(report.n_segments, 1);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
#![forbid(unsafe_code)]

mod dimvec;
mod error;
pub mod filters;
pub mod kern;
pub mod metrics;
mod mse;
pub mod offline;
mod reconstruct;
mod sample;
mod segment;
pub mod stream;

pub use dimvec::{DimVec, INLINE_DIMS};
pub use error::{BatchError, FilterError};
pub use mse::RegressionSums;
pub use reconstruct::{GapPolicy, Polyline};
pub use sample::Signal;
pub use segment::{validate_epsilons, CollectingSink, ProvisionalUpdate, Segment, SegmentSink};
