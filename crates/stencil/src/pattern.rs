//! Static stencil descriptions consumed by the performance model, the
//! parameter space, and the code generator.

/// Geometric shape of the neighbor access pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StencilShape {
    /// Accesses only along the axes (e.g. the 7-point Jacobi).
    Star,
    /// Accesses the full `(2k+1)^3` cube (e.g. the 27-point Jacobi).
    Box,
    /// Mixed axis-dominated pattern with some planar accesses, typical of
    /// the high-order seismic kernels (hypterm, addsgd*, rhs4center).
    Hybrid,
}

/// Broad computational class, used by the Artemis-style baseline to decide
/// which optimizations are "high impact" for a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StencilClass {
    /// Low-FLOP, bandwidth-bound smoothers (j3d7pt, j3d27pt, helmholtz, cheby).
    MemoryBound,
    /// Hundreds of FLOPs per point, register-pressure dominated
    /// (hypterm, addsgd4, addsgd6, rhs4center).
    ComputeBound,
}

/// Static description of a 3-D stencil kernel: everything the auto-tuner
/// needs to know about the workload without executing it.
///
/// Mirrors Table III of the paper plus the per-point access counts the
/// GPU performance model requires.
#[derive(Debug, Clone, PartialEq)]
pub struct StencilSpec {
    /// Kernel name as used throughout the paper (e.g. `"j3d7pt"`).
    pub name: &'static str,
    /// Input grid extents `[M1, M2, M3]` (x, y, z).
    pub grid: [usize; 3],
    /// Stencil order: neighbor extent along each dimension.
    pub order: u32,
    /// Double-precision floating point operations per output point.
    pub flops: u32,
    /// Total number of input + output arrays touched per sweep.
    pub io_arrays: u32,
    /// Number of arrays read per sweep.
    pub read_arrays: u32,
    /// Number of arrays written per sweep.
    pub write_arrays: u32,
    /// Distinct grid points read per output point (across all read arrays).
    pub reads_per_point: u32,
    /// Scalar coefficients referenced by the kernel (candidates for
    /// constant memory).
    pub coefficients: u32,
    /// Neighbor geometry.
    pub shape: StencilShape,
    /// Bandwidth- vs. compute-bound classification.
    pub class: StencilClass,
}

impl StencilSpec {
    /// Total points of the full grid.
    pub fn total_points(&self) -> usize {
        self.grid.iter().product()
    }

    /// Halo width in points along each dimension.
    pub fn halo(&self) -> usize {
        self.order as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> StencilSpec {
        StencilSpec {
            name: "t",
            grid: [16, 16, 16],
            order: 1,
            flops: 10,
            io_arrays: 2,
            read_arrays: 1,
            write_arrays: 1,
            reads_per_point: 7,
            coefficients: 2,
            shape: StencilShape::Star,
            class: StencilClass::MemoryBound,
        }
    }

    #[test]
    fn total_points_include_the_halo() {
        let s = spec();
        assert_eq!(s.total_points(), 16 * 16 * 16);
        assert_eq!(s.halo(), 1);
    }
}
