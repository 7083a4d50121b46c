//! Linear tap-based stencils and the composite kernel dataflow IR.
//!
//! Two levels of expressiveness:
//!
//! - [`TapStencil`]: a single linear combination of neighbor taps over one
//!   input array — enough for the Jacobi/Helmholtz class and for the loop
//!   transformation equivalence tests.
//! - [`KernelDef`](crate::KernelDef) (see [`crate::suite`]): multi-stage
//!   dataflow over several arrays built from [`Tap`] sums, used to express
//!   the high-FLOP seismic kernels with realistic operation counts.

/// A single stencil tap: a signed offset and its coefficient.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tap {
    /// Offset along x.
    pub dx: i32,
    /// Offset along y.
    pub dy: i32,
    /// Offset along z.
    pub dz: i32,
    /// Multiplicative coefficient.
    pub coeff: f64,
}

impl Tap {
    /// Convenience constructor.
    pub const fn new(dx: i32, dy: i32, dz: i32, coeff: f64) -> Self {
        Tap { dx, dy, dz, coeff }
    }

    /// Chebyshev (max) radius of the tap.
    pub fn radius(&self) -> u32 {
        self.dx.unsigned_abs().max(self.dy.unsigned_abs()).max(self.dz.unsigned_abs())
    }
}

/// A linear stencil: `out(p) = Σ_t coeff_t · in(p + offset_t)`.
#[derive(Debug, Clone, PartialEq)]
pub struct TapStencil {
    taps: Vec<Tap>,
    radius: u32,
}

impl TapStencil {
    /// Build from a tap list.
    ///
    /// # Panics
    /// Panics if the tap list is empty.
    pub fn new(taps: Vec<Tap>) -> Self {
        assert!(!taps.is_empty(), "a stencil needs at least one tap");
        let radius = taps.iter().map(Tap::radius).max().unwrap();
        TapStencil { taps, radius }
    }

    /// The classic 7-point star: `center` weight plus one `side` weight on
    /// each of the six axis neighbors.
    pub fn star7(center: f64, side: f64) -> Self {
        let mut taps = vec![Tap::new(0, 0, 0, center)];
        for (dx, dy, dz) in [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)] {
            taps.push(Tap::new(dx, dy, dz, side));
        }
        TapStencil::new(taps)
    }

    /// A full box stencil of the given radius with per-distance weights
    /// `w[chebyshev distance]`.
    ///
    /// # Panics
    /// Panics if `w.len() != radius + 1`.
    pub fn full_box(radius: i32, w: &[f64]) -> Self {
        assert_eq!(w.len(), radius as usize + 1);
        let mut taps = Vec::new();
        for dz in -radius..=radius {
            for dy in -radius..=radius {
                for dx in -radius..=radius {
                    let d = dx.abs().max(dy.abs()).max(dz.abs()) as usize;
                    taps.push(Tap::new(dx, dy, dz, w[d]));
                }
            }
        }
        TapStencil::new(taps)
    }

    /// Unit-coefficient taps at Chebyshev distance 1 with exactly
    /// `nonzero` non-zero offset components: `1` selects the 6 face
    /// neighbors, `2` the 12 edge neighbors, `3` the 8 corner neighbors.
    ///
    /// # Panics
    /// Panics unless `nonzero` is 1, 2 or 3.
    pub fn box_class(nonzero: u32) -> Self {
        assert!((1..=3).contains(&nonzero), "nonzero must be 1, 2 or 3");
        let mut taps = Vec::new();
        for dz in -1i32..=1 {
            for dy in -1i32..=1 {
                for dx in -1i32..=1 {
                    let n = [dx, dy, dz].iter().filter(|&&d| d != 0).count() as u32;
                    if n == nonzero {
                        taps.push(Tap::new(dx, dy, dz, 1.0));
                    }
                }
            }
        }
        TapStencil::new(taps)
    }

    /// Diagonal "corner" taps in the plane spanned by two axes: offsets
    /// `(±k, ±k)` for `k = 1..=radius` with coefficient `c[k-1]` (sign
    /// `+` when the two offsets agree, `-` when they differ — the pattern
    /// of a mixed second derivative).
    pub fn plane_corners(axis_a: usize, axis_b: usize, c: &[f64]) -> Self {
        assert!(axis_a < 3 && axis_b < 3 && axis_a != axis_b, "need two distinct axes");
        let mut taps = Vec::new();
        for (k, &ck) in c.iter().enumerate() {
            let k = (k + 1) as i32;
            for (sa, sb) in [(1, 1), (-1, -1), (1, -1), (-1, 1)] {
                let mut off = [0i32; 3];
                off[axis_a] = sa * k;
                off[axis_b] = sb * k;
                let sign = if sa == sb { 1.0 } else { -1.0 };
                taps.push(Tap::new(off[0], off[1], off[2], sign * ck));
            }
        }
        TapStencil::new(taps)
    }

    /// Central-difference taps of the given radius along one axis
    /// (0 = x, 1 = y, 2 = z), antisymmetric coefficients `c[k]` applied as
    /// `+c[k]` at `+k` and `-c[k]` at `-k` for `k = 1..=radius`.
    pub fn central_diff(axis: usize, c: &[f64]) -> Self {
        assert!(axis < 3, "axis must be 0, 1 or 2");
        let mut taps = Vec::new();
        for (k, &ck) in c.iter().enumerate() {
            let k = (k + 1) as i32;
            let mut plus = [0i32; 3];
            plus[axis] = k;
            let mut minus = [0i32; 3];
            minus[axis] = -k;
            taps.push(Tap::new(plus[0], plus[1], plus[2], ck));
            taps.push(Tap::new(minus[0], minus[1], minus[2], -ck));
        }
        TapStencil::new(taps)
    }

    /// Symmetric second-derivative-style taps along one axis:
    /// coefficient `c[0]` at the center, `c[k]` at `±k`.
    pub fn sym_axis(axis: usize, c: &[f64]) -> Self {
        assert!(axis < 3, "axis must be 0, 1 or 2");
        assert!(!c.is_empty());
        let mut taps = vec![Tap::new(0, 0, 0, c[0])];
        for (k, &ck) in c.iter().enumerate().skip(1) {
            let k = k as i32;
            let mut plus = [0i32; 3];
            plus[axis] = k;
            let mut minus = [0i32; 3];
            minus[axis] = -k;
            taps.push(Tap::new(plus[0], plus[1], plus[2], ck));
            taps.push(Tap::new(minus[0], minus[1], minus[2], ck));
        }
        TapStencil::new(taps)
    }

    /// The taps.
    pub fn taps(&self) -> &[Tap] {
        &self.taps
    }

    /// Chebyshev radius over all taps (= required halo width).
    pub fn radius(&self) -> u32 {
        self.radius
    }

    /// Number of taps.
    pub fn len(&self) -> usize {
        self.taps.len()
    }

    /// Whether there are no taps (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.taps.is_empty()
    }

    /// Evaluate the stencil at an interior point of `g`.
    #[inline]
    pub fn eval(&self, g: &crate::Grid3, x: usize, y: usize, z: usize) -> f64 {
        let mut acc = 0.0;
        for t in &self.taps {
            acc += t.coeff * g.at(x, y, z, t.dx, t.dy, t.dz);
        }
        acc
    }

    /// FLOPs of one evaluation: one multiply per non-unit coefficient plus
    /// `len - 1` additions (matching how hand-written kernels factor unit
    /// coefficients out of the multiply).
    pub fn flops(&self) -> u32 {
        let muls = self.taps.iter().filter(|t| t.coeff != 1.0 && t.coeff != -1.0).count() as u32;
        muls + (self.taps.len() as u32 - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Grid3;

    #[test]
    fn star7_has_seven_taps_radius_one() {
        let s = TapStencil::star7(0.4, 0.1);
        assert_eq!(s.len(), 7);
        assert_eq!(s.radius(), 1);
    }

    #[test]
    fn full_box_counts() {
        let s = TapStencil::full_box(1, &[1.0, 0.5]);
        assert_eq!(s.len(), 27);
        assert_eq!(s.radius(), 1);
        let s2 = TapStencil::full_box(2, &[1.0, 0.5, 0.25]);
        assert_eq!(s2.len(), 125);
        assert_eq!(s2.radius(), 2);
    }

    #[test]
    fn central_diff_is_antisymmetric() {
        let s = TapStencil::central_diff(1, &[0.8, -0.2]);
        assert_eq!(s.len(), 4);
        assert_eq!(s.radius(), 2);
        // Constant field: derivative must be zero.
        let g = Grid3::from_fn(8, 8, 8, |_, _, _| 3.0);
        assert!(s.eval(&g, 4, 4, 4).abs() < 1e-12);
        // Linear-in-y field: (0.8*1 - 0.2*2) * 2 slope contributions.
        let g = Grid3::from_fn(8, 8, 8, |_, y, _| y as f64);
        let expect = 2.0 * (0.8 * 1.0 + (-0.2) * 2.0);
        assert!((s.eval(&g, 4, 4, 4) - expect).abs() < 1e-12);
    }

    #[test]
    fn sym_axis_taps() {
        let s = TapStencil::sym_axis(2, &[-2.0, 1.0]);
        assert_eq!(s.len(), 3);
        // Discrete Laplacian along z of z^2 field is 2.
        let g = Grid3::from_fn(8, 8, 8, |_, _, z| (z * z) as f64);
        assert!((s.eval(&g, 4, 4, 4) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn eval_matches_hand_computation() {
        let g = Grid3::synthetic(10, 10, 10);
        let s = TapStencil::star7(0.5, 0.1);
        let hand = 0.5 * g.get(5, 5, 5)
            + 0.1
                * (g.get(6, 5, 5)
                    + g.get(4, 5, 5)
                    + g.get(5, 6, 5)
                    + g.get(5, 4, 5)
                    + g.get(5, 5, 6)
                    + g.get(5, 5, 4));
        // Same additions in a different order — allow rounding slack.
        assert!((s.eval(&g, 5, 5, 5) - hand).abs() < 1e-12);
    }

    #[test]
    fn flops_skips_unit_coefficients() {
        let s = TapStencil::new(vec![
            Tap::new(0, 0, 0, 1.0),
            Tap::new(1, 0, 0, -1.0),
            Tap::new(0, 1, 0, 0.5),
        ]);
        // 1 multiply (0.5) + 2 additions.
        assert_eq!(s.flops(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one tap")]
    fn empty_taps_panic() {
        let _ = TapStencil::new(vec![]);
    }

    #[test]
    fn box_classes_partition_the_shell() {
        assert_eq!(TapStencil::box_class(1).len(), 6);
        assert_eq!(TapStencil::box_class(2).len(), 12);
        assert_eq!(TapStencil::box_class(3).len(), 8);
        // Unit coefficients mean zero multiplies.
        assert_eq!(TapStencil::box_class(3).flops(), 7);
    }

    #[test]
    fn plane_corners_mixed_derivative() {
        let s = TapStencil::plane_corners(0, 1, &[0.25]);
        assert_eq!(s.len(), 4);
        assert_eq!(s.radius(), 1);
        // d2/dxdy of x*y is 1 with the (1/4)(++ + -- - +- - -+) formula.
        let g = Grid3::from_fn(8, 8, 8, |x, y, _| (x * y) as f64);
        assert!((s.eval(&g, 4, 4, 4) - 1.0).abs() < 1e-12);
    }
}
