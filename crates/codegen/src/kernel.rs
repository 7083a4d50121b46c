//! CUDA kernel source emission.

use crate::launch::LaunchConfig;
use cst_space::Setting;
use cst_stencil::{ArrayRef, Factor, KernelDef, StencilKernel, TapStencil, Term};
use std::fmt::Write as _;

/// A generated CUDA translation unit plus its launch configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CudaSource {
    /// Full CUDA C source text.
    pub code: String,
    /// Matching launch configuration.
    pub launch: LaunchConfig,
    /// Kernel function name.
    pub kernel_name: String,
}

/// Emission context threaded through expression generation.
#[derive(Clone, Copy)]
struct Ctx {
    /// Shared-memory staging enabled (kernel body only).
    staged: bool,
    /// Streaming window indexing for the staged tile.
    streaming: bool,
    /// Coefficients come from the `__constant__` table.
    const_mem: bool,
    /// Emitting inside a `__device__` recompute helper (no shared tile,
    /// no temp registers — temps call their helper).
    in_device: bool,
}

/// An array's identifier: `in{i}`, `t{i}` or `out{i}`.
struct Ident(ArrayRef);

impl Ident {
    /// The identifier's prefix and index.
    fn parts(&self) -> (&'static str, usize) {
        match self.0 {
            ArrayRef::Input(i) => ("in", i),
            ArrayRef::Temp(i) => ("t", i),
            ArrayRef::Output(i) => ("out", i),
        }
    }

    fn push(&self, w: &mut String) {
        let (prefix, i) = self.parts();
        w.push_str(prefix);
        push_int(w, i as i64);
    }
}

impl std::fmt::Display for Ident {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (prefix, i) = self.parts();
        write!(f, "{prefix}{i}")
    }
}

/// Append `v` in decimal, as `{v}` would. Tap offsets and coefficient
/// slots are written once per tap, so they skip `fmt`'s machinery.
fn push_int(w: &mut String, v: i64) {
    if v < 0 {
        w.push('-');
    }
    let mut n = v.unsigned_abs();
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    for &d in &digits[start..] {
        w.push(d as char);
    }
}

/// Write the read expression for one grid point of an array at offsets
/// (dx, dy, dz).
///
/// Temporaries with a zero offset in the kernel body come from the local
/// register; any offset (or any use inside a device helper) re-computes the
/// producing stage through its `t{i}_at` helper, exactly as an inlining
/// code generator would.
fn write_point(w: &mut String, r: ArrayRef, dx: i32, dy: i32, dz: i32, ctx: Ctx) {
    // `x + (dx), y + (dy), z + (dz)`: a helper call's or `IDX`'s point.
    let xyz = |w: &mut String| {
        w.push_str("x + (");
        push_int(w, dx.into());
        w.push_str("), y + (");
        push_int(w, dy.into());
        w.push_str("), z + (");
        push_int(w, dz.into());
        w.push(')');
    };
    match r {
        ArrayRef::Temp(_) if dx == 0 && dy == 0 && dz == 0 && !ctx.in_device => Ident(r).push(w),
        ArrayRef::Temp(_) => {
            Ident(r).push(w);
            w.push_str("_at(PASS_ARGS, ");
            xyz(w);
            w.push(')');
        }
        // Staged tile; under streaming the z offset selects the plane
        // window slot.
        ArrayRef::Input(_) if ctx.staged && !ctx.in_device => {
            w.push_str("s_");
            Ident(r).push(w);
            w.push_str(if ctx.streaming { "[W(" } else { "[lz + (" });
            push_int(w, dz.into());
            w.push_str(")][ly + (");
            push_int(w, dy.into());
            w.push_str(")][lx + (");
            push_int(w, dx.into());
            w.push_str(")]");
        }
        _ => {
            Ident(r).push(w);
            w.push_str("[IDX(");
            xyz(w);
            w.push_str(")]");
        }
    }
}

/// Write a coefficient that is neither 1 nor -1, followed by ` * `: the
/// `c_coeff` slot `slot` under constant memory, the literal otherwise.
/// Returns the number of slots used.
fn write_coeff(w: &mut String, coeff: f64, ctx: Ctx, slot: usize) -> usize {
    if ctx.const_mem {
        w.push_str("c_coeff[");
        push_int(w, slot as i64);
        w.push_str("] * ");
        1
    } else {
        write!(w, "{coeff:?} * ").unwrap();
        0
    }
}

/// Whether a coefficient is written out (and, under constant memory,
/// takes a `c_coeff` slot): every value but 1 and -1.
fn scaled(coeff: f64) -> bool {
    coeff != 1.0 && coeff != -1.0
}

fn write_taps(w: &mut String, r: ArrayRef, taps: &TapStencil, ctx: Ctx, coeff_idx: &mut usize) {
    for (n, t) in taps.taps().iter().enumerate() {
        if n > 0 {
            w.push_str(" + ");
        }
        if t.coeff == -1.0 {
            w.push('-');
        } else if scaled(t.coeff) {
            *coeff_idx += write_coeff(w, t.coeff, ctx, *coeff_idx);
        }
        write_point(w, r, t.dx, t.dy, t.dz, ctx);
    }
}

/// Write one term: its coefficient, then the product of its factors.
fn write_term(w: &mut String, t: &Term, ctx: Ctx, coeff_idx: &mut usize) {
    let mut own_slots = 0;
    if t.coeff == -1.0 {
        w.push_str("-(");
    } else if scaled(t.coeff) {
        // The term's own slot follows the slots of its factors' taps.
        let inner: usize = t
            .factors
            .iter()
            .map(|f| match f {
                Factor::Taps(_, taps) => taps.taps().iter().filter(|t| scaled(t.coeff)).count(),
                Factor::Point(_) => 0,
            })
            .sum();
        own_slots = write_coeff(w, t.coeff, ctx, *coeff_idx + inner);
        w.push('(');
    }
    for (n, f) in t.factors.iter().enumerate() {
        if n > 0 {
            w.push_str(" * ");
        }
        match f {
            Factor::Point(a) => write_point(w, *a, 0, 0, 0, ctx),
            Factor::Taps(a, taps) => {
                w.push('(');
                write_taps(w, *a, taps, ctx, coeff_idx);
                w.push(')');
            }
        }
    }
    if t.coeff != 1.0 {
        w.push(')');
    }
    *coeff_idx += own_slots;
}

/// Write a stage's terms joined by `sep`.
fn write_terms(w: &mut String, terms: &[Term], sep: &str, ctx: Ctx, coeff_idx: &mut usize) {
    for (n, t) in terms.iter().enumerate() {
        if n > 0 {
            w.push_str(sep);
        }
        write_term(w, t, ctx, coeff_idx);
    }
}

fn input_params(def: &KernelDef) -> String {
    (0..def.n_inputs)
        .map(|i| format!("const double* __restrict__ in{i}"))
        .collect::<Vec<_>>()
        .join(", ")
}

fn input_args(def: &KernelDef) -> String {
    (0..def.n_inputs).map(|i| format!("in{i}")).collect::<Vec<_>>().join(", ")
}

/// Generate a complete CUDA kernel for `kernel` under setting `s`.
///
/// The emitted source reflects every tuning decision:
/// - thread-block shape and merging/streaming index arithmetic,
/// - `__shared__` tiles with halo loads and `__syncthreads()`,
/// - the streaming loop over the chosen dimension with optional
///   prefetch double-buffering,
/// - `#pragma unroll` factors on the per-thread loops,
/// - a `__constant__` coefficient table when constant memory is on,
/// - retiming: each term accumulated as a separate sub-computation,
/// - cascaded stages inlined through `__device__` recompute helpers.
pub fn generate_cuda(kernel: &StencilKernel, s: &Setting) -> CudaSource {
    let spec = &kernel.spec;
    let def = &kernel.def;
    let launch = LaunchConfig::for_setting(spec, s);
    let kernel_name = format!("{}_kernel", spec.name);
    let streaming = s.use_streaming();
    let sd = s.sd_axis();
    let ctx_body =
        Ctx { staged: s.use_shared(), streaming, const_mem: s.use_constant(), in_device: false };
    let ctx_dev =
        Ctx { staged: false, streaming: false, const_mem: s.use_constant(), in_device: true };
    let uf = s.uf();
    let [nx, ny, nz] = spec.grid;
    let h = spec.halo();

    let mut c = String::with_capacity(16 * 1024);
    let w = &mut c;
    writeln!(w, "// Auto-generated by csTuner codegen").unwrap();
    writeln!(w, "// stencil: {} (order {}, {} flops/pt)", spec.name, spec.order, spec.flops)
        .unwrap();
    writeln!(w, "// setting: {s}").unwrap();
    writeln!(w, "#include <cuda_runtime.h>").unwrap();
    writeln!(w).unwrap();
    writeln!(w, "#define NX {nx}").unwrap();
    writeln!(w, "#define NY {ny}").unwrap();
    writeln!(w, "#define NZ {nz}").unwrap();
    writeln!(w, "#define IDX(x, y, z) ((x) + NX * ((y) + NY * (z)))").unwrap();
    writeln!(w, "#define PASS_ARGS {}", input_args(def)).unwrap();
    if ctx_body.staged && streaming {
        writeln!(w, "#define W(dz) (((wz) + (dz) + {0}) % {0})", 2 * h + 1).unwrap();
    }
    writeln!(w).unwrap();
    if ctx_body.const_mem {
        writeln!(w, "__constant__ double c_coeff[{}];", spec.coefficients.max(1)).unwrap();
        writeln!(w).unwrap();
    }

    // Device recompute helpers for temporaries (cascaded-stage inlining).
    let mut dev_coeff_idx = 0usize;
    for st in &def.stages {
        if let ArrayRef::Temp(i) = st.out {
            writeln!(
                w,
                "__device__ __forceinline__ double t{i}_at({}, int x, int y, int z) {{",
                input_params(def)
            )
            .unwrap();
            w.push_str("    return ");
            write_terms(w, &st.terms, "\n         + ", ctx_dev, &mut dev_coeff_idx);
            w.push_str(";\n}\n\n");
        }
    }

    // Kernel signature.
    let outs: Vec<String> =
        (0..def.n_outputs).map(|i| format!("double* __restrict__ out{i}")).collect();
    writeln!(
        w,
        "extern \"C\" __global__ void __launch_bounds__({}) {kernel_name}(\n    {},\n    {}) {{",
        s.tb_size(),
        input_params(def),
        outs.join(", ")
    )
    .unwrap();

    // Base coordinates with merging arithmetic.
    let dims = ["x", "y", "z"];
    let tdim = ["threadIdx.x", "threadIdx.y", "threadIdx.z"];
    let bdim = ["blockIdx.x", "blockIdx.y", "blockIdx.z"];
    let blk = ["blockDim.x", "blockDim.y", "blockDim.z"];
    for d in 0..3 {
        let v = dims[d];
        let cov = launch.coverage[d];
        if streaming && d == sd {
            writeln!(
                w,
                "    int {v}0 = ({bdim} * {blk2} + {tdim}) * {cov};  // streaming tile base",
                bdim = bdim[d],
                blk2 = blk[d],
                tdim = tdim[d]
            )
            .unwrap();
        } else if s.cm()[d] > 1 {
            // Cyclic merging: stride between a thread's points is the
            // number of threads along the dimension.
            writeln!(w, "    int {v}0 = {bdim} * {blk2} + {tdim};  // cyclic base (stride = gridDim.{v} * {blk2})",
                bdim = bdim[d], blk2 = blk[d], tdim = tdim[d]).unwrap();
        } else {
            writeln!(
                w,
                "    int {v}0 = ({bdim} * {blk2} + {tdim}) * {cov};  // block-merged base",
                bdim = bdim[d],
                blk2 = blk[d],
                tdim = tdim[d]
            )
            .unwrap();
        }
    }
    if ctx_body.staged {
        writeln!(
            w,
            "    int lx = threadIdx.x + {h}, ly = threadIdx.y + {h}, lz = threadIdx.z + {h};"
        )
        .unwrap();
        let n_stage = spec.read_arrays.min(3) as usize;
        for i in 0..n_stage {
            let zdim = if streaming {
                format!("{}", 2 * h + 1)
            } else {
                format!("{}", s.tb()[2] as usize * launch.coverage[2] as usize + 2 * h)
            };
            writeln!(
                w,
                "    __shared__ double s_in{i}[{zdim}][{}][{}];",
                s.tb()[1] as usize * launch.coverage[1] as usize + 2 * h,
                s.tb()[0] as usize * launch.coverage[0] as usize + 2 * h
            )
            .unwrap();
        }
    }
    if s.use_prefetching() {
        writeln!(w, "    double pf[{}];  // prefetch double buffer", spec.read_arrays.min(3))
            .unwrap();
    }

    // Streaming loop opening.
    let mut indent = String::from("    ");
    if streaming {
        let v = dims[sd];
        writeln!(w, "    int wz = 0;  // rotating shared-window cursor").unwrap();
        writeln!(w, "    for (int {v}s = 0; {v}s < {}; ++{v}s) {{", launch.coverage[sd]).unwrap();
        writeln!(w, "        int {v} = {v}0 + {v}s;").unwrap();
        if s.use_prefetching() {
            writeln!(w, "        // prefetch next plane while computing this one").unwrap();
            writeln!(
                w,
                "        if ({v}s + 1 < {}) {{ pf[0] = in0[IDX(x0, y0, {v} + 1)]; }}",
                launch.coverage[sd]
            )
            .unwrap();
        }
        if ctx_body.staged {
            writeln!(w, "        s_in0[W(0)][ly][lx] = in0[IDX(x0, y0, {v})];").unwrap();
            writeln!(w, "        __syncthreads();").unwrap();
        }
        indent.push_str("    ");
    }

    // Per-thread merged loops (non-streaming dimensions).
    let mut loop_depth = 0;
    for d in (0..3).rev() {
        if streaming && d == sd {
            continue;
        }
        let v = dims[d];
        let cov = launch.coverage[d];
        if cov > 1 {
            if uf[d] > 1 {
                writeln!(w, "{indent}#pragma unroll {}", uf[d].min(cov)).unwrap();
            }
            if s.cm()[d] > 1 {
                writeln!(w, "{indent}for (int {v}m = 0; {v}m < {cov}; ++{v}m) {{").unwrap();
                writeln!(w, "{indent}    int {v} = {v}0 + {v}m * (gridDim.{v} * {});", blk[d])
                    .unwrap();
            } else {
                writeln!(w, "{indent}for (int {v}m = 0; {v}m < {cov}; ++{v}m) {{").unwrap();
                writeln!(w, "{indent}    int {v} = {v}0 + {v}m;").unwrap();
            }
            indent.push_str("    ");
            loop_depth += 1;
        } else {
            writeln!(w, "{indent}int {v} = {v}0;").unwrap();
            if uf[d] > 1 {
                writeln!(w, "{indent}// unroll factor {} folded into straight-line code", uf[d])
                    .unwrap();
            }
        }
    }

    // Bounds guard.
    writeln!(
        w,
        "{indent}if (x >= {h} && x < NX - {h} && y >= {h} && y < NY - {h} && z >= {h} && z < NZ - {h}) {{",
    )
    .unwrap();
    indent.push_str("    ");

    // Body: stages in order; zero-offset temps become registers.
    let retiming = s.use_retiming();
    let mut coeff_idx = 0usize;
    for st in &def.stages {
        let dst = Ident(st.out);
        let temp = match st.out {
            ArrayRef::Temp(_) => true,
            ArrayRef::Output(_) => false,
            ArrayRef::Input(_) => unreachable!("KernelDef forbids writing inputs"),
        };
        if retiming {
            let acc = if temp {
                writeln!(w, "{indent}double {dst} = 0.0;  // retimed sub-computation").unwrap();
                dst.to_string()
            } else {
                writeln!(w, "{indent}double acc_{dst} = 0.0;  // retimed accumulation").unwrap();
                format!("acc_{dst}")
            };
            for t in &st.terms {
                write!(w, "{indent}{acc} += ").unwrap();
                write_term(w, t, ctx_body, &mut coeff_idx);
                w.push_str(";\n");
            }
            if !temp {
                writeln!(w, "{indent}{dst}[IDX(x, y, z)] = {acc};").unwrap();
            }
        } else {
            if temp {
                write!(w, "{indent}double {dst} = ").unwrap();
            } else {
                write!(w, "{indent}{dst}[IDX(x, y, z)] = ").unwrap();
            }
            write_terms(w, &st.terms, " + ", ctx_body, &mut coeff_idx);
            w.push_str(";\n");
        }
    }

    // Close bounds guard.
    indent.truncate(indent.len() - 4);
    writeln!(w, "{indent}}}").unwrap();

    // Close merged loops.
    for _ in 0..loop_depth {
        indent.truncate(indent.len() - 4);
        writeln!(w, "{indent}}}").unwrap();
    }

    // Close streaming loop.
    if streaming {
        if ctx_body.staged {
            writeln!(w, "        __syncthreads();  // window shift barrier").unwrap();
            writeln!(w, "        wz = (wz + 1) % {};", 2 * h + 1).unwrap();
        }
        writeln!(w, "    }}").unwrap();
    }
    writeln!(w, "}}").unwrap();

    // Host-side launch helper.
    writeln!(w).unwrap();
    let args: Vec<String> = (0..def.n_inputs)
        .map(|i| format!("in{i}"))
        .chain((0..def.n_outputs).map(|i| format!("out{i}")))
        .collect();
    writeln!(w, "// launch: {}", launch.launch_stmt(&kernel_name, &args.join(", "))).unwrap();

    CudaSource { code: c, launch, kernel_name }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_space::ParamId;
    use cst_stencil::suite;

    fn gen(name: &str, s: &Setting) -> CudaSource {
        generate_cuda(&suite::kernel_by_name(name).unwrap(), s)
    }

    fn brace_balanced(code: &str) -> bool {
        let mut depth = 0i32;
        for ch in code.chars() {
            match ch {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
            if depth < 0 {
                return false;
            }
        }
        depth == 0
    }

    #[test]
    fn baseline_source_is_wellformed() {
        for k in suite::all_kernels() {
            let src = gen(k.spec.name, &Setting::baseline());
            assert!(brace_balanced(&src.code), "{} braces", k.spec.name);
            assert!(src.code.contains("__global__ void"));
            assert!(src.code.contains(&src.kernel_name));
            for i in 0..k.def.n_inputs {
                assert!(src.code.contains(&format!("in{i}")), "{} missing in{i}", k.spec.name);
            }
            for i in 0..k.def.n_outputs {
                assert!(
                    src.code.contains(&format!("out{i}[IDX(")),
                    "{} missing out{i} store",
                    k.spec.name
                );
            }
        }
    }

    #[test]
    fn cascaded_temps_get_device_helpers() {
        let src = gen("rhs4center", &Setting::baseline());
        assert!(src.code.contains("__device__ __forceinline__ double t0_at"));
        assert!(src.code.contains("t0_at(PASS_ARGS, x + "));
    }

    #[test]
    fn flat_kernels_have_no_helpers() {
        let src = gen("j3d7pt", &Setting::baseline());
        assert!(!src.code.contains("__device__ __forceinline__"));
    }

    #[test]
    fn shared_setting_emits_tile_and_sync() {
        let s = Setting::baseline()
            .with(ParamId::UseShared, 2)
            .with(ParamId::UseStreaming, 2)
            .with(ParamId::SD, 3)
            .with(ParamId::TBz, 1)
            .with(ParamId::SB, 64);
        let src = gen("j3d7pt", &s);
        assert!(src.code.contains("__shared__ double s_in0"));
        assert!(src.code.contains("__syncthreads()"));
        assert!(src.code.contains("for (int zs = 0; zs < 64;"));
    }

    #[test]
    fn plain_setting_has_no_sync() {
        let src = gen("j3d7pt", &Setting::baseline());
        assert!(!src.code.contains("__syncthreads()"));
        assert!(!src.code.contains("__shared__"));
    }

    #[test]
    fn unroll_pragma_matches_setting() {
        let s = Setting::baseline().with(ParamId::BMy, 8).with(ParamId::UFy, 4);
        let src = gen("helmholtz", &s);
        assert!(src.code.contains("#pragma unroll 4"), "{}", src.code);
    }

    #[test]
    fn constant_memory_declares_table() {
        let on = gen("j3d27pt", &Setting::baseline().with(ParamId::UseConstant, 2));
        assert!(on.code.contains("__constant__ double c_coeff"));
        assert!(on.code.contains("c_coeff["));
        let off = gen("j3d27pt", &Setting::baseline());
        assert!(!off.code.contains("__constant__"));
    }

    #[test]
    fn retiming_splits_accumulations() {
        let on = gen("rhs4center", &Setting::baseline().with(ParamId::UseRetiming, 2));
        assert!(on.code.contains("retimed"));
        assert!(on.code.matches("+=").count() > 10);
    }

    #[test]
    fn prefetch_emits_double_buffer() {
        let s = Setting::baseline()
            .with(ParamId::UseStreaming, 2)
            .with(ParamId::SD, 3)
            .with(ParamId::TBz, 1)
            .with(ParamId::SB, 32)
            .with(ParamId::UsePrefetching, 2);
        let src = gen("cheby", &s);
        assert!(src.code.contains("prefetch"));
        assert!(src.code.contains("pf["));
    }

    #[test]
    fn cyclic_merging_uses_grid_stride() {
        let s = Setting::baseline().with(ParamId::CMy, 4);
        let src = gen("j3d7pt", &s);
        assert!(src.code.contains("ym * (gridDim.y * blockDim.y)"), "{}", src.code);
    }

    #[test]
    fn code_size_scales_with_kernel_complexity() {
        let small = gen("j3d7pt", &Setting::baseline()).code.len();
        let big = gen("rhs4center", &Setting::baseline()).code.len();
        assert!(big > 3 * small, "{big} vs {small}");
    }

    #[test]
    fn deterministic_output() {
        let s = Setting::baseline().with(ParamId::UFx, 2);
        assert_eq!(gen("addsgd4", &s).code, gen("addsgd4", &s).code);
    }
}
