//! Fixed-width f64 lane kernels for the filter hot path.
//!
//! Every filter spends its per-point budget in a handful of tiny
//! per-dimension loops: the fused fits-check + cone clamp of the swing
//! filter, the envelope evaluation of the slide filter, the min/max
//! range update of the cache filter, the affine residual tests of the
//! linear and Kalman filters, and the regression-sum accumulation they
//! share. For `2 ≤ d ≤ INLINE_DIMS` those loops run over [`DimVec`]'s
//! inline block — a fixed `[f64; 4]` — so each becomes a loop of
//! constant trip count with no bounds checks, which the compiler is free
//! to unroll or vectorize.
//!
//! This module provides each of those loops as a *lane operation*: one
//! portable function over all [`LANES`] lanes. A filter picks its
//! [`Dispatch`] once at construction; there is no per-point branching
//! beyond a single enum match.
//!
//! ## Byte-identity contract
//!
//! Every lane op evaluates the *same expression tree* in the same order
//! as the generic per-dimension loop it replaces: same associativity, no
//! FMA contraction, conditional updates that leave untouched values
//! bit-for-bit alone. Inputs are pre-validated finite (`validate_push`
//! rejects NaN/±inf before any kernel runs), so the `Lanes` dispatch is
//! bit-equal to `Generic`. The proptests in `batch_proptests.rs` pin
//! this: `Segment`/`ProvisionalUpdate` streams must be identical under
//! every dispatch.
//!
//! ## Padding lanes
//!
//! Lane ops always process all `INLINE_DIMS` lanes. For `d < 4` the
//! tail lanes hold `0.0` (the `DimVec` inline block is always fully
//! `Default`-initialized, and every mutating kernel writes `0.0` back).
//! All-zero lanes are constructed to be neutral: they pass every fits
//! test (`0 ∈ [0, 0]`) and absorb every update as a no-op, so no
//! masking by `d` is needed.
//!
//! [`DimVec`]: crate::DimVec

use crate::dimvec::INLINE_DIMS;

/// Number of f64 lanes each kernel processes — [`INLINE_DIMS`].
pub const LANES: usize = INLINE_DIMS;

/// The lane backend in use. There is one: the portable lane ops of this
/// module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Portable loops over all [`LANES`] lanes.
    Scalar,
}

impl Kernel {
    /// Reports the lane backend (always [`Kernel::Scalar`]). Kept so the
    /// pipeline benchmark can name the backend in its log line.
    pub fn detect() -> Self {
        Kernel::Scalar
    }
}

/// How a filter iterates its per-dimension state, fixed at construction.
///
/// Exposed (doc-hidden on the filters) so tests can pin byte-identity
/// across all three modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// The monomorphized `d == 1` scalar fast path.
    Scalar1,
    /// `2 ≤ d ≤ INLINE_DIMS`: fixed-width lane kernels operating on the
    /// `DimVec` inline block directly.
    Lanes,
    /// Per-dimension loop over slices — the only dispatch valid at
    /// every `d`, and the reference semantics the others must match.
    Generic,
}

impl Dispatch {
    /// The dispatch a fresh filter of dimension `dims` should use.
    ///
    /// `scalar1` says whether the filter has a monomorphized `d == 1`
    /// path (swing and slide do; cache/linear/kalman run their generic
    /// loop at `d == 1`, which is already a single iteration).
    pub fn auto(dims: usize, scalar1: bool) -> Self {
        match dims {
            1 if scalar1 => Dispatch::Scalar1,
            2..=LANES => Dispatch::Lanes,
            _ => Dispatch::Generic,
        }
    }

    /// `self` if it is valid for `dims`, otherwise [`Dispatch::auto`].
    ///
    /// Guards the doc-hidden test overrides: `Scalar1` requires
    /// `d == 1`, `Lanes` requires `2 ≤ d ≤ INLINE_DIMS`.
    pub fn sanitized(self, dims: usize, scalar1: bool) -> Self {
        let valid = match self {
            Dispatch::Scalar1 => dims == 1 && scalar1,
            Dispatch::Lanes => (2..=LANES).contains(&dims),
            Dispatch::Generic => true,
        };
        if valid {
            self
        } else {
            Dispatch::auto(dims, scalar1)
        }
    }
}

/// Copies `x` (length ≤ [`LANES`]) into a zero-padded lane block.
#[inline(always)]
fn pad4(x: &[f64]) -> [f64; LANES] {
    debug_assert!(x.len() <= LANES);
    let mut a = [0.0; LANES];
    a[..x.len()].copy_from_slice(x);
    a
}

/// Borrowed structure-of-arrays view of one envelope (`u` or `l`) of
/// the slide filter: per-lane anchor time, anchor value, and slope of
/// the line `x(t) = x0 + slope · (t − t0)`.
pub(crate) struct EnvView<'a> {
    pub t0: &'a [f64; LANES],
    pub x0: &'a [f64; LANES],
    pub slope: &'a [f64; LANES],
}

/// Result of [`slide_step`]: the fused fits test plus, when the point
/// fits, which lanes need their lower/upper envelope re-derived from a
/// hull tangent (bit `i` set ⇔ dimension `i`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlideStep {
    pub fits: bool,
    pub needs_l: u32,
    pub needs_u: u32,
}

/// Fused swing-filter step: the band fits test, and — when the point
/// fits — the conditional upper/lower slope clamps, in one pass.
///
/// Mirrors `SwingFilter::fits` + `SwingFilter::swing` exactly:
/// `hi = (origin + u·dt) + ε`, `lo = (origin + l·dt) − ε`, the point
/// fits iff `lo ≤ v ≤ hi` in every dimension; on a fit each slope is
/// tightened iff the point's ε-band edge clears the current envelope
/// value. Returns whether the point fit (no mutation on a miss).
#[inline(always)]
pub(crate) fn swing_step(
    origin: &[f64; LANES],
    eps: &[f64; LANES],
    dt: f64,
    x: &[f64],
    l: &mut [f64; LANES],
    u: &mut [f64; LANES],
) -> bool {
    let x = &pad4(x);
    let mut lo_val = [0.0; LANES];
    let mut hi_val = [0.0; LANES];
    let mut ok = true;
    for d in 0..LANES {
        lo_val[d] = origin[d] + l[d] * dt;
        hi_val[d] = origin[d] + u[d] * dt;
        ok &= x[d] >= lo_val[d] - eps[d] && x[d] <= hi_val[d] + eps[d];
    }
    if !ok {
        return false;
    }
    for d in 0..LANES {
        if x[d] - eps[d] > lo_val[d] {
            l[d] = (x[d] - eps[d] - origin[d]) / dt;
        }
        if x[d] + eps[d] < hi_val[d] {
            u[d] = (x[d] + eps[d] - origin[d]) / dt;
        }
    }
    true
}

/// Affine residual fits test: `|v − (anchor + slope·dt)| ≤ ε` in every
/// dimension. Serves the swing filter's frozen intervals, the linear
/// filter (shared anchor time), and the Kalman filter's intervals.
#[inline(always)]
pub(crate) fn fits_affine(
    anchor: &[f64; LANES],
    slope: &[f64; LANES],
    eps: &[f64; LANES],
    dt: f64,
    x: &[f64],
) -> bool {
    let x = &pad4(x);
    let mut ok = true;
    for d in 0..LANES {
        ok &= (x[d] - (anchor[d] + slope[d] * dt)).abs() <= eps[d];
    }
    ok
}

/// Constant-prediction fits test: `|v − c| ≤ ε` in every dimension
/// (the cache filter's first-value acceptance).
#[inline(always)]
pub(crate) fn fits_const(center: &[f64; LANES], eps: &[f64; LANES], x: &[f64]) -> bool {
    let x = &pad4(x);
    let mut ok = true;
    for d in 0..LANES {
        ok &= (x[d] - center[d]).abs() <= eps[d];
    }
    ok
}

/// Fused slide-filter step: evaluates both envelopes once, runs the
/// fits test (`l(t) − ε ≤ v ≤ u(t) + ε`), and — when the point fits —
/// reports per-lane whether the point pierces an envelope
/// (`v > l(t) + ε` / `v < u(t) − ε`) and so needs a hull-tangent
/// rebuild. Pure: the caller applies the rebuilds.
#[inline(always)]
pub(crate) fn slide_step(
    u: EnvView<'_>,
    l: EnvView<'_>,
    eps: &[f64; LANES],
    t: f64,
    x: &[f64],
) -> SlideStep {
    let x = &pad4(x);
    let mut ue = [0.0; LANES];
    let mut le = [0.0; LANES];
    let mut ok = true;
    for d in 0..LANES {
        ue[d] = u.x0[d] + u.slope[d] * (t - u.t0[d]);
        le[d] = l.x0[d] + l.slope[d] * (t - l.t0[d]);
        ok &= x[d] <= ue[d] + eps[d] && x[d] >= le[d] - eps[d];
    }
    if !ok {
        return SlideStep { fits: false, needs_l: 0, needs_u: 0 };
    }
    let mut needs_l = 0u32;
    let mut needs_u = 0u32;
    for d in 0..LANES {
        needs_l |= u32::from(x[d] > le[d] + eps[d]) << d;
        needs_u |= u32::from(x[d] < ue[d] - eps[d]) << d;
    }
    SlideStep { fits: true, needs_l, needs_u }
}

/// Fused cache-filter range step: extends the running min/max with the
/// point, accepts iff `max' − min' ≤ 2ε` in every dimension, and on
/// acceptance commits the extended range and `sum += v`. Returns
/// whether the point was accepted (no mutation on a miss).
///
/// Min/max use compare-and-select (`a < b ? a : b`) semantics — for the
/// validated (non-NaN) inputs filters see, value-identical to
/// `f64::min`/`f64::max`.
#[inline(always)]
pub(crate) fn range_step(
    min: &mut [f64; LANES],
    max: &mut [f64; LANES],
    sum: &mut [f64; LANES],
    eps: &[f64; LANES],
    x: &[f64],
) -> bool {
    let x = &pad4(x);
    let mut lo = [0.0; LANES];
    let mut hi = [0.0; LANES];
    let mut ok = true;
    for d in 0..LANES {
        // Compare-and-select min/max: see the doc comment above.
        lo[d] = if min[d] < x[d] { min[d] } else { x[d] };
        hi[d] = if max[d] > x[d] { max[d] } else { x[d] };
        ok &= hi[d] - lo[d] <= 2.0 * eps[d];
    }
    if !ok {
        return false;
    }
    *min = lo;
    *max = hi;
    for d in 0..LANES {
        sum[d] += x[d];
    }
    true
}

/// Unconditional min/max/sum absorb (the cache filter's first-value
/// variant, whose acceptance test doesn't involve the range).
#[inline(always)]
pub(crate) fn minmax_sum(
    min: &mut [f64; LANES],
    max: &mut [f64; LANES],
    sum: &mut [f64; LANES],
    x: &[f64],
) {
    let x = &pad4(x);
    for d in 0..LANES {
        min[d] = if min[d] < x[d] { min[d] } else { x[d] };
        max[d] = if max[d] > x[d] { max[d] } else { x[d] };
        sum[d] += x[d];
    }
}

/// Per-dimension regression-sum accumulation (`RegressionSums::push`):
/// `v = x − x_ref`, `sv += v`, `suv += u·v`.
#[inline(always)]
pub(crate) fn sums_push(
    x_ref: &[f64; LANES],
    sv: &mut [f64; LANES],
    suv: &mut [f64; LANES],
    u: f64,
    x: &[f64],
) {
    let x = &pad4(x);
    for d in 0..LANES {
        let v = x[d] - x_ref[d];
        sv[d] += v;
        suv[d] += u * v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_auto_and_sanitize() {
        assert_eq!(Dispatch::auto(1, true), Dispatch::Scalar1);
        assert_eq!(Dispatch::auto(1, false), Dispatch::Generic);
        assert_eq!(Dispatch::auto(3, true), Dispatch::Lanes);
        assert_eq!(Dispatch::auto(8, true), Dispatch::Generic);
        // Invalid overrides snap back to auto.
        assert_eq!(Dispatch::Scalar1.sanitized(4, true), Dispatch::auto(4, true));
        assert_eq!(Dispatch::Lanes.sanitized(8, true), Dispatch::Generic);
        assert_eq!(Dispatch::Lanes.sanitized(2, false), Dispatch::Lanes);
    }

    /// Zero padding lanes pass every fits test, absorb every update as a
    /// no-op, and stay exactly 0.0 through mutating kernels.
    #[test]
    fn padding_lanes_are_neutral() {
        let origin = [1.0, -2.0, 0.0, 0.0];
        let eps = [0.5, 0.5, 0.0, 0.0];
        let mut l = [-1.0, -1.0, 0.0, 0.0];
        let mut u = [1.0, 1.0, 0.0, 0.0];
        let fit = swing_step(&origin, &eps, 2.0, &[1.4, -1.7], &mut l, &mut u);
        assert!(fit, "active lanes fit");
        assert_eq!(&l[2..], &[0.0, 0.0], "l padding disturbed");
        assert_eq!(&u[2..], &[0.0, 0.0], "u padding disturbed");

        let zeros = [0.0; LANES];
        assert!(fits_affine(&zeros, &zeros, &zeros, 123.0, &[]));
        assert!(fits_const(&zeros, &zeros, &[]));
        let s = slide_step(
            EnvView { t0: &zeros, x0: &zeros, slope: &zeros },
            EnvView { t0: &zeros, x0: &zeros, slope: &zeros },
            &zeros,
            7.5,
            &[],
        );
        assert!(s.fits && s.needs_l == 0 && s.needs_u == 0, "padding not neutral");

        let (mut mn, mut mx, mut sm) = (zeros, zeros, zeros);
        assert!(range_step(&mut mn, &mut mx, &mut sm, &zeros, &[]));
        assert_eq!([mn, mx, sm], [zeros; 3], "range padding disturbed");
        minmax_sum(&mut mn, &mut mx, &mut sm, &[]);
        assert_eq!([mn, mx, sm], [zeros; 3], "minmax padding disturbed");
        let (mut sv, mut suv) = (zeros, zeros);
        sums_push(&zeros, &mut sv, &mut suv, 3.0, &[]);
        assert_eq!([sv, suv], [zeros; 2], "sums padding disturbed");
    }
}
