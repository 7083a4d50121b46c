//! Extension kernels beyond the paper's Table III suite.
//!
//! The paper positions csTuner as *scalable*: new stencil patterns plug
//! into the same pipeline without touching the tuner (§IV-A "the csTuner
//! pipeline can be extended to incorporate more optimization parameters
//! capturing future stencil optimizations"). These kernels exercise that
//! claim — different shapes, array arities and FLOP intensities, all
//! expressed in the same [`KernelDef`] IR and therefore tunable, simulable
//! and code-generatable with zero tuner changes.

use crate::compose::{ArrayRef, KernelDef, Stage, Term};
use crate::pattern::{StencilClass, StencilShape, StencilSpec};
use crate::suite::{KernelTable, StencilKernel};
use crate::tap::TapStencil;

const A: fn(usize) -> ArrayRef = ArrayRef::Input;
const O: fn(usize) -> ArrayRef = ArrayRef::Output;

fn taps(a: ArrayRef, s: TapStencil) -> crate::compose::Factor {
    crate::compose::Factor::Taps(a, s)
}

fn pt(a: ArrayRef) -> crate::compose::Factor {
    crate::compose::Factor::Point(a)
}

/// `j3d13pt`: order-2 star Jacobi — the classic high-order Laplacian
/// smoother (axis taps at ±1 and ±2).
pub fn j3d13pt() -> StencilKernel {
    let ring = |k: i32, w: f64| {
        let mut t = Vec::new();
        for ax in 0..3usize {
            for s in [k, -k] {
                let mut o = [0i32; 3];
                o[ax] = s;
                t.push(crate::tap::Tap::new(o[0], o[1], o[2], w));
            }
        }
        TapStencil::new(t)
    };
    let def = KernelDef::new(
        1,
        0,
        1,
        vec![Stage::new(
            O(0),
            vec![
                Term::scaled(0.5, vec![pt(A(0))]),
                Term::of(vec![taps(A(0), ring(1, 0.0667))]),
                Term::of(vec![taps(A(0), ring(2, 0.0167))]),
            ],
        )],
    );
    StencilKernel {
        spec: StencilSpec {
            name: "j3d13pt",
            grid: [512, 512, 512],
            order: 2,
            flops: 26,
            io_arrays: 2,
            read_arrays: 1,
            write_arrays: 1,
            reads_per_point: 13,
            coefficients: 3,
            shape: StencilShape::Star,
            class: StencilClass::MemoryBound,
        },
        def,
    }
}

/// `poisson`: one weighted-Jacobi iteration of the 3-D Poisson equation
/// with an explicit right-hand side (`u_new = ω/6·(Σ neighbors − h²·f) +
/// (1−ω)·u`).
pub fn poisson() -> StencilKernel {
    let def = KernelDef::new(
        2,
        0,
        1,
        vec![Stage::new(
            O(0),
            vec![
                Term::scaled(0.1333, vec![pt(A(0))]),
                Term::scaled(0.1444, vec![taps(A(0), TapStencil::box_class(1))]),
                Term::scaled(-0.1444, vec![pt(A(1))]),
            ],
        )],
    );
    StencilKernel {
        spec: StencilSpec {
            name: "poisson",
            grid: [512, 512, 512],
            order: 1,
            flops: 12,
            io_arrays: 3,
            read_arrays: 2,
            write_arrays: 1,
            reads_per_point: 8,
            coefficients: 3,
            shape: StencilShape::Star,
            class: StencilClass::MemoryBound,
        },
        def,
    }
}

/// `gradient3d`: central-difference gradient — one input field, three
/// output components. Exercises multi-output bandwidth-bound codegen.
pub fn gradient3d() -> StencilKernel {
    let stages = (0..3)
        .map(|ax| {
            Stage::new(
                O(ax),
                vec![Term::of(vec![taps(A(0), TapStencil::central_diff(ax, &[0.5]))])],
            )
        })
        .collect();
    let def = KernelDef::new(1, 0, 3, stages);
    StencilKernel {
        spec: StencilSpec {
            name: "gradient3d",
            grid: [512, 512, 512],
            order: 1,
            flops: 9,
            io_arrays: 4,
            read_arrays: 1,
            write_arrays: 3,
            reads_per_point: 6,
            coefficients: 3,
            shape: StencilShape::Star,
            class: StencilClass::MemoryBound,
        },
        def,
    }
}

/// `fdtd3d`: a Yee-style update of the three H components from the three
/// E components (curl with one-sided differences) — six I/O arrays,
/// order 1, the canonical electromagnetic kernel family.
pub fn fdtd3d() -> StencilKernel {
    // H_x -= c·(dE_z/dy − dE_y/dz), cyclic in the components.
    let one_sided = |ax: usize| {
        let mut o_plus = [0i32; 3];
        o_plus[ax] = 1;
        TapStencil::new(vec![
            crate::tap::Tap::new(o_plus[0], o_plus[1], o_plus[2], 1.0),
            crate::tap::Tap::new(0, 0, 0, -1.0),
        ])
    };
    let c = 0.45;
    let mut stages = Vec::new();
    for hx in 0..3usize {
        let e_a = (hx + 2) % 3; // E component differentiated along axis (hx+1)%3
        let e_b = (hx + 1) % 3;
        stages.push(Stage::new(
            O(hx),
            vec![
                Term::of(vec![pt(A(3 + hx))]), // previous H
                Term::scaled(-c, vec![taps(A(e_a), one_sided((hx + 1) % 3))]),
                Term::scaled(c, vec![taps(A(e_b), one_sided((hx + 2) % 3))]),
            ],
        ));
    }
    let def = KernelDef::new(6, 0, 3, stages);
    StencilKernel {
        spec: StencilSpec {
            name: "fdtd3d",
            grid: [384, 384, 384],
            order: 1,
            flops: 24,
            io_arrays: 9,
            read_arrays: 6,
            write_arrays: 3,
            reads_per_point: 15,
            coefficients: 6,
            shape: StencilShape::Star,
            class: StencilClass::MemoryBound,
        },
        def,
    }
}

/// `biharmonic`: order-2 operator applied as a cascade of two Laplacians
/// (∇⁴u via an intermediate field) — exercises cascaded-stage margins and
/// device-helper code generation.
pub fn biharmonic() -> StencilKernel {
    use ArrayRef::Temp;
    let lap = || TapStencil::star7(-6.0, 1.0);
    let def = KernelDef::new(
        1,
        1,
        1,
        vec![
            Stage::new(Temp(0), vec![Term::of(vec![taps(A(0), lap())])]),
            Stage::new(O(0), vec![Term::scaled(0.01, vec![taps(Temp(0), lap())])]),
        ],
    );
    StencilKernel {
        spec: StencilSpec {
            name: "biharmonic",
            grid: [384, 384, 384],
            order: 1,
            flops: 30,
            io_arrays: 2,
            read_arrays: 1,
            write_arrays: 1,
            reads_per_point: 13,
            coefficients: 3,
            shape: StencilShape::Star,
            class: StencilClass::MemoryBound,
        },
        def,
    }
}

/// The extension kernels by name.
pub const KERNELS: &KernelTable = &[
    ("j3d13pt", j3d13pt),
    ("poisson", poisson),
    ("gradient3d", gradient3d),
    ("fdtd3d", fdtd3d),
    ("biharmonic", biharmonic),
];

/// All extension kernels.
pub fn extension_kernels() -> Vec<StencilKernel> {
    KERNELS.iter().map(|(_, build)| build()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{max_diff_on_valid, run_reference, run_transformed, TransformCfg};
    use crate::grid::Grid3;

    #[test]
    fn table_names_match_kernel_names() {
        for (name, build) in KERNELS {
            assert_eq!(*name, build().spec.name);
        }
    }

    #[test]
    fn extensions_have_distinct_names() {
        let mut names: Vec<_> = extension_kernels().iter().map(|k| k.spec.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
        // None shadow the paper suite.
        for n in names {
            let paper = crate::suite::KERNELS.iter().any(|(p, _)| *p == n);
            assert!(!paper, "{n} collides with Table III");
        }
    }

    #[test]
    fn extension_radii_match_declared_order() {
        for k in extension_kernels() {
            assert_eq!(k.def.max_tap_radius(), k.spec.order, "{}", k.spec.name);
            assert_eq!(k.def.n_outputs as u32, k.spec.write_arrays, "{}", k.spec.name);
        }
    }

    #[test]
    fn extensions_execute_and_transform_equivalently() {
        let cfg = TransformCfg { bm: [2, 1, 2], uf: [2, 1, 1], ..Default::default() };
        for k in extension_kernels() {
            let n = (2 * k.def.valid_margin() as usize + 6).max(12);
            let inputs: Vec<Grid3> = (0..k.def.n_inputs)
                .map(|i| {
                    Grid3::from_fn(n, n, n, |x, y, z| ((x + 2 * y + 3 * z + i) as f64 * 0.05).cos())
                })
                .collect();
            let mut a = vec![Grid3::zeros(n, n, n); k.def.n_outputs];
            let mut b = a.clone();
            run_reference(&k.def, &inputs, &mut a);
            run_transformed(&k.def, &inputs, &mut b, &cfg);
            assert_eq!(max_diff_on_valid(&k.def, &a, &b), 0.0, "{}", k.spec.name);
        }
    }

    #[test]
    fn gradient_of_linear_field_is_constant() {
        let k = gradient3d();
        let n = 12;
        let input = Grid3::from_fn(n, n, n, |x, y, z| 2.0 * x as f64 - y as f64 + 0.5 * z as f64);
        let mut out = vec![Grid3::zeros(n, n, n); 3];
        run_reference(&k.def, &[input], &mut out);
        assert!((out[0].get(5, 5, 5) - 2.0).abs() < 1e-12);
        assert!((out[1].get(5, 5, 5) + 1.0).abs() < 1e-12);
        assert!((out[2].get(5, 5, 5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn biharmonic_annihilates_linear_fields() {
        let k = biharmonic();
        let n = 14;
        let input = Grid3::from_fn(n, n, n, |x, y, z| 3.0 * x as f64 + y as f64 - z as f64);
        let mut out = vec![Grid3::zeros(n, n, n)];
        run_reference(&k.def, &[input], &mut out);
        let m = k.def.valid_margin() as usize;
        for z in m..n - m {
            for y in m..n - m {
                for x in m..n - m {
                    assert!(out[0].get(x, y, z).abs() < 1e-9, "({x},{y},{z})");
                }
            }
        }
    }

    #[test]
    fn fdtd_curl_of_constant_field_is_identity() {
        let k = fdtd3d();
        let n = 10;
        // Constant E: curl = 0 → H_new = H_old.
        let inputs: Vec<Grid3> =
            (0..6).map(|i| Grid3::from_fn(n, n, n, |_, _, _| 1.0 + i as f64)).collect();
        let mut out = vec![Grid3::zeros(n, n, n); 3];
        run_reference(&k.def, &inputs, &mut out);
        for (c, o) in out.iter().enumerate() {
            assert!((o.get(4, 4, 4) - (4.0 + c as f64)).abs() < 1e-12);
        }
    }
}
