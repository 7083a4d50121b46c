//! The eight 3-D double-precision evaluation stencils of Table III.
//!
//! Every kernel is stated as a [`KernelDef`] dataflow whose derived
//! properties (tap radius = stencil order, FLOPs per point, array counts)
//! track the figures the paper reports. The numeric coefficients are
//! representative, not lifted from the original applications — the tuner
//! never looks at them; it only sees the structural [`StencilSpec`] and the
//! runtime behaviour the GPU model derives from it. What matters for the
//! reproduction is that each kernel really *computes* (the CPU executor
//! runs it and the transformation-equivalence tests hold) and that its
//! resource profile matches the paper's description.

use crate::compose::{ArrayRef, Factor, KernelDef, Stage, Term};
use crate::pattern::{StencilClass, StencilShape, StencilSpec};
use crate::tap::TapStencil;

/// A named stencil kernel: the paper-facing spec plus the executable
/// definition.
#[derive(Debug, Clone)]
pub struct StencilKernel {
    /// Static description (Table III row).
    pub spec: StencilSpec,
    /// Executable dataflow definition.
    pub def: KernelDef,
}

const A: fn(usize) -> ArrayRef = ArrayRef::Input;
const T: fn(usize) -> ArrayRef = ArrayRef::Temp;
const O: fn(usize) -> ArrayRef = ArrayRef::Output;

fn taps(a: ArrayRef, s: TapStencil) -> Factor {
    Factor::Taps(a, s)
}

fn pt(a: ArrayRef) -> Factor {
    Factor::Point(a)
}

/// `j3d7pt`: order-1 7-point Jacobi, the canonical bandwidth-bound stencil.
pub fn j3d7pt() -> StencilKernel {
    let def = KernelDef::new(
        1,
        0,
        1,
        vec![Stage::new(
            O(0),
            vec![Term::of(vec![taps(A(0), TapStencil::star7(0.75, 1.0 / 24.0))])],
        )],
    );
    StencilKernel {
        spec: StencilSpec {
            name: "j3d7pt",
            grid: [512, 512, 512],
            order: 1,
            flops: 10,
            io_arrays: 2,
            read_arrays: 1,
            write_arrays: 1,
            reads_per_point: 7,
            coefficients: 2,
            shape: StencilShape::Star,
            class: StencilClass::MemoryBound,
        },
        def,
    }
}

/// `j3d27pt`: order-1 27-point box Jacobi, coefficients factored by
/// Chebyshev distance class (center / face / edge / corner) as hand-written
/// implementations do.
pub fn j3d27pt() -> StencilKernel {
    let def = KernelDef::new(
        1,
        0,
        1,
        vec![Stage::new(
            O(0),
            vec![
                Term::scaled(0.50, vec![pt(A(0))]),
                Term::scaled(0.40 / 6.0, vec![taps(A(0), TapStencil::box_class(1))]),
                Term::scaled(0.08 / 12.0, vec![taps(A(0), TapStencil::box_class(2))]),
                Term::scaled(0.02 / 8.0, vec![taps(A(0), TapStencil::box_class(3))]),
            ],
        )],
    );
    StencilKernel {
        spec: StencilSpec {
            name: "j3d27pt",
            grid: [512, 512, 512],
            order: 1,
            flops: 32,
            io_arrays: 2,
            read_arrays: 1,
            write_arrays: 1,
            reads_per_point: 27,
            coefficients: 4,
            shape: StencilShape::Box,
            class: StencilClass::MemoryBound,
        },
        def,
    }
}

/// `helmholtz`: order-2 13-point star, `(αI − βΔh)` with a two-ring
/// discrete Laplacian.
pub fn helmholtz() -> StencilKernel {
    let def = KernelDef::new(
        1,
        0,
        1,
        vec![Stage::new(
            O(0),
            vec![
                Term::scaled(1.6, vec![pt(A(0))]),
                Term::scaled(-0.0833, vec![taps(A(0), TapStencil::box_class(1))]),
                Term::scaled(
                    0.0052,
                    vec![{
                        // Second ring: the six ±2 axis neighbors.
                        let mut t = Vec::new();
                        for ax in 0..3usize {
                            for s in [2i32, -2] {
                                let mut o = [0i32; 3];
                                o[ax] = s;
                                t.push(crate::tap::Tap::new(o[0], o[1], o[2], 1.0));
                            }
                        }
                        taps(A(0), TapStencil::new(t))
                    }],
                ),
            ],
        )],
    );
    StencilKernel {
        spec: StencilSpec {
            name: "helmholtz",
            grid: [512, 512, 512],
            order: 2,
            flops: 17,
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

/// `cheby`: one step of a Chebyshev-accelerated Jacobi smoother.
/// Arrays: `u`, `u_prev`, `rhs`, `diag_inv` in; `u_new` out (5 I/O arrays).
pub fn cheby() -> StencilKernel {
    let (u, uprev, rhs, dinv) = (A(0), A(1), A(2), A(3));
    // temp0 = A·u with a grouped 27-point operator (order stays 1).
    let apply_a = Stage::new(
        T(0),
        vec![
            Term::scaled(2.4, vec![pt(u)]),
            Term::scaled(-0.3, vec![taps(u, TapStencil::box_class(1))]),
            Term::scaled(-0.05, vec![taps(u, TapStencil::box_class(2))]),
            Term::scaled(-0.0125, vec![taps(u, TapStencil::box_class(3))]),
        ],
    );
    // u_new = u + ω(u − u_prev) + δ·D⁻¹·(rhs − A·u)
    let update = Stage::new(
        O(0),
        vec![
            Term::scaled(1.82, vec![pt(u)]),
            Term::scaled(-0.82, vec![pt(uprev)]),
            Term::scaled(0.91, vec![pt(dinv), pt(rhs)]),
            Term::scaled(-0.91, vec![pt(dinv), pt(T(0))]),
        ],
    );
    let def = KernelDef::new(4, 1, 1, vec![apply_a, update]);
    StencilKernel {
        spec: StencilSpec {
            name: "cheby",
            grid: [512, 512, 512],
            order: 1,
            flops: 38,
            io_arrays: 5,
            read_arrays: 4,
            write_arrays: 1,
            reads_per_point: 31,
            coefficients: 8,
            shape: StencilShape::Box,
            class: StencilClass::MemoryBound,
        },
        def,
    }
}

/// Eighth-order central-difference coefficients (radius 4), the classic
/// CNS/hypterm discretization.
fn d8(scale: f64) -> [f64; 4] {
    [0.8 * scale, -0.2 * scale, 0.038_095 * scale, -0.003_571 * scale]
}

/// `hypterm`: the hyperbolic flux term of a compressible Navier–Stokes
/// code. Inputs: ρ, u, v, w, p, E, plus staged pressure-velocity products;
/// outputs: five flux components. Order 4, hybrid pattern, ~360 FLOPs.
pub fn hypterm() -> StencilKernel {
    let (rho, u, v, w, p, e) = (A(0), A(1), A(2), A(3), A(4), A(5));
    let (q4x, q4y, q4z) = (A(6), A(7), A(8)); // precomputed ρ·vel products
    let vel = [u, v, w];
    let cons = [q4x, q4y, q4z];
    let mut stages = Vec::new();
    // temp_ax = p * vel_ax (pressure work terms for the energy flux).
    for (ax, &va) in vel.iter().enumerate() {
        stages.push(Stage::new(T(ax), vec![Term::of(vec![pt(p), pt(va)])]));
    }
    // Continuity: f0 = Σ_ax D8_ax(ρ·vel_ax).
    stages.push(Stage::new(
        O(0),
        (0..3)
            .map(|ax| Term::of(vec![taps(cons[ax], TapStencil::central_diff(ax, &d8(1.0)))]))
            .collect(),
    ));
    // Momentum: f_c = Σ_ax vel_ax · D8_ax(ρ·vel_c) + D8_c(p).
    for (c, &qc) in cons.iter().enumerate() {
        let mut terms: Vec<Term> = (0..3)
            .map(|ax| Term::of(vec![pt(vel[ax]), taps(qc, TapStencil::central_diff(ax, &d8(1.0)))]))
            .collect();
        terms.push(Term::of(vec![taps(p, TapStencil::central_diff(c, &d8(1.0)))]));
        stages.push(Stage::new(O(1 + c), terms));
    }
    // Energy: f4 = Σ_ax vel_ax · D8_ax(E) + Σ_ax D8_ax(p·vel_ax)
    //            + ρ · Σ_ax D8_ax(vel_ax)   (dilatation coupling term).
    let mut e_terms: Vec<Term> = (0..3)
        .map(|ax| Term::of(vec![pt(vel[ax]), taps(e, TapStencil::central_diff(ax, &d8(1.0)))]))
        .collect();
    for ax in 0..3 {
        e_terms.push(Term::of(vec![taps(T(ax), TapStencil::central_diff(ax, &d8(1.0)))]));
    }
    for (ax, &va) in vel.iter().enumerate() {
        e_terms.push(Term::of(vec![pt(rho), taps(va, TapStencil::central_diff(ax, &d8(0.4)))]));
    }
    stages.push(Stage::new(O(4), e_terms));
    let def = KernelDef::new(9, 3, 5, stages);
    StencilKernel {
        spec: StencilSpec {
            name: "hypterm",
            grid: [320, 320, 320],
            order: 4,
            flops: 358,
            io_arrays: 13,
            read_arrays: 8,
            write_arrays: 5,
            reads_per_point: 120,
            coefficients: 40,
            shape: StencilShape::Hybrid,
            class: StencilClass::ComputeBound,
        },
        def,
    }
}

/// Shared structure of the SW4 super-grid artificial dissipation kernels:
/// `up_c += ρ · Σ_ax Dᵣ(u_c − um_c)`-style terms with axis and plane
/// coupling, at dissipation radius `r`.
fn addsgd(radius: usize, name: &'static str, order: u32, flops: u32) -> StencilKernel {
    let r = radius;
    // Inputs: u1,u2,u3 (0-2), um1,um2,um3 (3-5), rho (6).
    let rho = A(6);
    let mut stages = Vec::new();
    // temp_c = u_c − um_c (predictor difference).
    for c in 0..3 {
        stages.push(Stage::new(
            T(c),
            vec![Term::of(vec![pt(A(c))]), Term::scaled(-1.0, vec![pt(A(3 + c))])],
        ));
    }
    // Symmetric dissipation operator coefficients, alternating-sign
    // binomial-like profile typical of D+D− compositions.
    let sym: Vec<f64> = (0..=r)
        .map(|k| {
            let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
            sign * (2.0 - k as f64 * 0.5) / (1 << k) as f64
        })
        .collect();
    let inner: Vec<f64> = vec![-2.0, 1.0];
    let corner: Vec<f64> = (0..r).map(|k| 0.25 / (k + 1) as f64).collect();
    for c in 0..3 {
        let uc = A(c);
        let umc = A(3 + c);
        let tc = T(c);
        let mut terms = Vec::new();
        for ax in 0..3 {
            // ρ · Dsym_r(u−um) · Dsym_1(u) — variable-coefficient dissipation.
            terms.push(Term::of(vec![
                pt(rho),
                taps(tc, TapStencil::sym_axis(ax, &sym)),
                taps(uc, TapStencil::sym_axis(ax, &inner)),
            ]));
            // ρ · Dsym_r(um) restoring term.
            terms.push(Term::scaled(0.5, vec![pt(rho), taps(umc, TapStencil::sym_axis(ax, &sym))]));
        }
        // Plane-diagonal coupling (xy, yz, xz).
        for (a, b) in [(0usize, 1usize), (1, 2), (0, 2)] {
            terms.push(Term::scaled(
                0.125,
                vec![pt(rho), taps(uc, TapStencil::plane_corners(a, b, &corner))],
            ));
        }
        stages.push(Stage::new(O(c), terms));
    }
    let def = KernelDef::new(7, 3, 3, stages);
    StencilKernel {
        spec: StencilSpec {
            name,
            grid: [320, 320, 320],
            order,
            flops,
            io_arrays: 10,
            read_arrays: 7,
            write_arrays: 3,
            reads_per_point: def.reads_per_point(),
            coefficients: def.coefficient_count(),
            shape: StencilShape::Hybrid,
            class: StencilClass::ComputeBound,
        },
        def,
    }
}

/// `addsgd4`: fourth-order SW4 super-grid dissipation (radius 2).
pub fn addsgd4() -> StencilKernel {
    addsgd(2, "addsgd4", 2, 373)
}

/// `addsgd6`: sixth-order SW4 super-grid dissipation (radius 3).
pub fn addsgd6() -> StencilKernel {
    addsgd(3, "addsgd6", 3, 626)
}

/// `rhs4center`: the interior right-hand-side operator of SW4's
/// elastic-wave solver: `L(u)_c = Σ_ax D_ax(μ D_ax u_c) + cross terms with
/// λ`, discretized at fourth-order accuracy (radius-2 taps, order 2).
pub fn rhs4center() -> StencilKernel {
    // Inputs: u1,u2,u3 (0-2), mu (3), la (4). Outputs: lu1..lu3.
    let mu = A(3);
    let la = A(4);
    let d4 = [2.0 / 3.0, -1.0 / 12.0];
    let sym4 = [-2.5, 4.0 / 3.0, -1.0 / 12.0];
    let corner = [0.25, -0.015_625];
    let mut stages = Vec::new();
    // temp(c*3+ax)   = μ · D4_ax(u_c)
    // temp(9+c*3+ax) = λ · D4_ax(u_c)
    for c in 0..3 {
        for ax in 0..3 {
            stages.push(Stage::new(
                T(c * 3 + ax),
                vec![Term::of(vec![pt(mu), taps(A(c), TapStencil::central_diff(ax, &d4))])],
            ));
            stages.push(Stage::new(
                T(9 + c * 3 + ax),
                vec![Term::of(vec![pt(la), taps(A(c), TapStencil::central_diff(ax, &d4))])],
            ));
        }
    }
    for c in 0..3 {
        let mut terms = Vec::new();
        // Divergence of the μ-scaled gradients.
        for ax in 0..3 {
            terms.push(Term::of(vec![taps(T(c * 3 + ax), TapStencil::central_diff(ax, &d4))]));
            terms.push(Term::scaled(
                0.5,
                vec![taps(T(9 + c * 3 + ax), TapStencil::central_diff(ax, &d4))],
            ));
        }
        // (λ+μ) grad-div coupling against the other components.
        for other in 0..3 {
            if other != c {
                terms.push(Term::of(vec![taps(
                    T(9 + other * 3 + c),
                    TapStencil::central_diff(other, &d4),
                )]));
            }
        }
        // Direct second-derivative terms with point-wise moduli.
        for ax in 0..3 {
            terms.push(Term::of(vec![pt(mu), taps(A(c), TapStencil::sym_axis(ax, &sym4))]));
        }
        // Mixed-derivative plane terms.
        for (a, b) in [(0usize, 1usize), (1, 2), (0, 2)] {
            terms
                .push(Term::of(vec![pt(la), taps(A(c), TapStencil::plane_corners(a, b, &corner))]));
        }
        stages.push(Stage::new(O(c), terms));
    }
    let def = KernelDef::new(5, 18, 3, stages);
    StencilKernel {
        spec: StencilSpec {
            name: "rhs4center",
            grid: [320, 320, 320],
            order: 2,
            flops: 666,
            io_arrays: 8,
            read_arrays: 5,
            write_arrays: 3,
            reads_per_point: def.reads_per_point(),
            coefficients: def.coefficient_count(),
            shape: StencilShape::Hybrid,
            class: StencilClass::ComputeBound,
        },
        def,
    }
}

/// Kernel constructors by name, so a lookup builds only the kernel it
/// returns.
pub type KernelTable = [(&'static str, fn() -> StencilKernel)];

/// The eight evaluation kernels in the paper's Table III order.
pub const KERNELS: &KernelTable = &[
    ("j3d7pt", j3d7pt),
    ("j3d27pt", j3d27pt),
    ("helmholtz", helmholtz),
    ("cheby", cheby),
    ("hypterm", hypterm),
    ("addsgd4", addsgd4),
    ("addsgd6", addsgd6),
    ("rhs4center", rhs4center),
];

/// All eight evaluation kernels in the paper's Table III order.
pub fn all_kernels() -> Vec<StencilKernel> {
    KERNELS.iter().map(|(_, build)| build()).collect()
}

/// All eight specs (no executable definitions).
pub fn all_specs() -> Vec<StencilSpec> {
    all_kernels().into_iter().map(|k| k.spec).collect()
}

/// The constructor of the kernel named `name`, looked up in the paper's
/// suite and then in the extension kernels ([`crate::suite_ext`]).
pub fn kernel_builder(name: &str) -> Option<fn() -> StencilKernel> {
    KERNELS.iter().chain(crate::suite_ext::KERNELS).find(|(n, _)| *n == name).map(|&(_, b)| b)
}

/// Look up a kernel (paper suite or extension) by name, building only
/// that kernel.
pub fn kernel_by_name(name: &str) -> Option<StencilKernel> {
    kernel_builder(name).map(|build| build())
}

/// Look up a spec (paper suite or extension) by name.
pub fn spec_by_name(name: &str) -> Option<StencilSpec> {
    kernel_by_name(name).map(|k| k.spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_eight_kernels_in_table_order() {
        let names: Vec<_> = all_kernels().iter().map(|k| k.spec.name).collect();
        assert_eq!(
            names,
            [
                "j3d7pt",
                "j3d27pt",
                "helmholtz",
                "cheby",
                "hypterm",
                "addsgd4",
                "addsgd6",
                "rhs4center"
            ]
        );
    }

    #[test]
    fn orders_match_table_iii() {
        let orders: Vec<_> = all_kernels().iter().map(|k| k.spec.order).collect();
        assert_eq!(orders, [1, 1, 2, 1, 4, 2, 3, 2]);
    }

    #[test]
    fn grids_match_table_iii() {
        for k in all_kernels() {
            let expect = if k.spec.class == StencilClass::MemoryBound {
                [512, 512, 512]
            } else {
                [320, 320, 320]
            };
            assert_eq!(k.spec.grid, expect, "{}", k.spec.name);
        }
    }

    #[test]
    fn io_arrays_match_table_iii() {
        let io: Vec<_> = all_kernels().iter().map(|k| k.spec.io_arrays).collect();
        assert_eq!(io, vec![2, 2, 2, 5, 13, 10, 10, 8]);
    }

    #[test]
    fn def_radius_equals_declared_order() {
        for k in all_kernels() {
            assert_eq!(k.def.max_tap_radius(), k.spec.order, "order mismatch for {}", k.spec.name);
        }
    }

    #[test]
    fn def_array_counts_match_spec() {
        for k in all_kernels() {
            assert_eq!(k.def.n_outputs as u32, k.spec.write_arrays, "{}", k.spec.name);
        }
    }

    #[test]
    fn def_flops_track_paper_figures() {
        for k in all_kernels() {
            let derived = k.def.flops_per_point() as f64;
            let paper = k.spec.flops as f64;
            let ratio = derived / paper;
            assert!(
                (0.6..=1.6).contains(&ratio),
                "{}: derived {derived} vs paper {paper} (ratio {ratio:.2})",
                k.spec.name
            );
        }
    }

    #[test]
    fn table_names_match_kernel_names() {
        for (name, build) in KERNELS {
            assert_eq!(*name, build().spec.name);
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(kernel_by_name("hypterm").is_some());
        assert_eq!(kernel_by_name("poisson").unwrap().spec.name, "poisson");
        assert!(kernel_by_name("nonexistent").is_none());
        assert_eq!(spec_by_name("cheby").unwrap().io_arrays, 5);
    }

    #[test]
    fn flops_ordering_matches_complexity() {
        // The paper's ordering: rhs4center > addsgd6 > addsgd4 ≈ hypterm ≫ j3d7pt.
        let f = |n: &str| kernel_by_name(n).unwrap().def.flops_per_point();
        assert!(f("rhs4center") > f("addsgd6"));
        assert!(f("addsgd6") > f("addsgd4"));
        assert!(f("addsgd4") > f("j3d27pt"));
        assert!(f("j3d27pt") > f("j3d7pt"));
    }
}
