//! Dense 3-D grids with flat storage and halo-aware iteration.

use std::fmt;

/// A dense 3-D grid of `f64` stored in a single flat allocation.
///
/// Storage is x-fastest (`idx = x + nx * (y + ny * z)`), matching both the
/// CUDA layout the paper's kernels use (x is the coalesced dimension) and
/// the cache-friendly CPU sweep order of the reference executor.
#[derive(Clone, PartialEq)]
pub struct Grid3 {
    nx: usize,
    ny: usize,
    nz: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Grid3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Grid3")
            .field("nx", &self.nx)
            .field("ny", &self.ny)
            .field("nz", &self.nz)
            .field("len", &self.data.len())
            .finish()
    }
}

impl Grid3 {
    /// Create a zero-initialized grid of extent `nx × ny × nz`.
    ///
    /// # Panics
    /// Panics if any extent is zero or the total size overflows `usize`.
    pub fn zeros(nx: usize, ny: usize, nz: usize) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "grid extents must be positive");
        let len = nx.checked_mul(ny).and_then(|v| v.checked_mul(nz)).expect("grid size overflow");
        Grid3 { nx, ny, nz, data: vec![0.0; len] }
    }

    /// Create a grid filled with a deterministic smooth function of the
    /// coordinates, useful for reproducible correctness tests.
    pub fn synthetic(nx: usize, ny: usize, nz: usize) -> Self {
        let mut g = Self::zeros(nx, ny, nz);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    // A smooth, non-separable field so transposed or shifted
                    // indexing bugs change the result.
                    let v = (x as f64 * 0.37).sin()
                        + (y as f64 * 0.23).cos() * 1.5
                        + (z as f64 * 0.11).sin() * 0.5
                        + (x as f64 * y as f64 * 1e-3).cos() * 0.25;
                    g.set(x, y, z, v);
                }
            }
        }
        g
    }

    /// Create a grid from an explicit closure over coordinates.
    pub fn from_fn(
        nx: usize,
        ny: usize,
        nz: usize,
        mut f: impl FnMut(usize, usize, usize) -> f64,
    ) -> Self {
        let mut g = Self::zeros(nx, ny, nz);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    g.set(x, y, z, f(x, y, z));
                }
            }
        }
        g
    }

    /// Grid extent along x.
    #[inline]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid extent along y.
    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Grid extent along z.
    #[inline]
    pub fn nz(&self) -> usize {
        self.nz
    }

    /// Extents as a `[nx, ny, nz]` array.
    #[inline]
    pub fn dims(&self) -> [usize; 3] {
        [self.nx, self.ny, self.nz]
    }

    /// Total number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the grid has no points (never true for a constructed grid).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat index of `(x, y, z)`.
    #[inline(always)]
    pub fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.nx && y < self.ny && z < self.nz);
        x + self.nx * (y + self.ny * z)
    }

    /// Read the value at `(x, y, z)`.
    #[inline(always)]
    pub fn get(&self, x: usize, y: usize, z: usize) -> f64 {
        self.data[self.idx(x, y, z)]
    }

    /// Read with signed offsets from `(x, y, z)`; callers must stay in bounds.
    #[inline(always)]
    pub fn at(&self, x: usize, y: usize, z: usize, dx: i32, dy: i32, dz: i32) -> f64 {
        let xi = (x as isize + dx as isize) as usize;
        let yi = (y as isize + dy as isize) as usize;
        let zi = (z as isize + dz as isize) as usize;
        self.data[self.idx(xi, yi, zi)]
    }

    /// Write the value at `(x, y, z)`.
    #[inline(always)]
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: f64) {
        let i = self.idx(x, y, z);
        self.data[i] = v;
    }

    /// Immutable view of the flat data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Sum of all points (useful as a cheap checksum in tests).
    pub fn checksum(&self) -> f64 {
        self.data.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idx_is_x_fastest() {
        let g = Grid3::zeros(4, 3, 2);
        assert_eq!(g.idx(0, 0, 0), 0);
        assert_eq!(g.idx(1, 0, 0), 1);
        assert_eq!(g.idx(0, 1, 0), 4);
        assert_eq!(g.idx(0, 0, 1), 12);
        assert_eq!(g.idx(3, 2, 1), 23);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut g = Grid3::zeros(5, 5, 5);
        g.set(2, 3, 4, 7.5);
        assert_eq!(g.get(2, 3, 4), 7.5);
        assert_eq!(g.get(4, 3, 2), 0.0);
    }

    #[test]
    fn at_applies_signed_offsets() {
        let g = Grid3::synthetic(8, 8, 8);
        assert_eq!(g.at(4, 4, 4, -1, 2, -3), g.get(3, 6, 1));
    }

    #[test]
    fn synthetic_is_deterministic() {
        let a = Grid3::synthetic(6, 7, 8);
        let b = Grid3::synthetic(6, 7, 8);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn synthetic_is_not_constant() {
        let g = Grid3::synthetic(8, 8, 8);
        let first = g.get(0, 0, 0);
        assert!(g.as_slice().iter().any(|&v| v != first));
    }

    #[test]
    #[should_panic(expected = "grid extents must be positive")]
    fn zero_extent_panics() {
        let _ = Grid3::zeros(0, 4, 4);
    }
}
