//! CPU execution of composite kernels: the semantic ground truth.
//!
//! Two executors over the same [`KernelDef`]:
//!
//! - [`run_reference`]: plain triple-nested interior sweep per stage.
//! - [`run_transformed`]: traverses each sweep in the *transformed* order
//!   implied by a tuning setting — block merging, cyclic merging, loop
//!   unrolling (chunked with remainder handling) and z-streaming tiles —
//!   and must produce bit-identical output, validating that the loop
//!   transformations the tuner explores are semantics-preserving.
//!
//! Every output point is computed by an identical expression tree, so the
//! two agree bitwise, not just within floating-point tolerance.

use crate::compose::{ArrayRef, Arrays, KernelDef, Stage};
use crate::grid::Grid3;

/// Loop-transformation configuration mirroring the merging / unrolling /
/// streaming parameters of the tuning space (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransformCfg {
    /// Block-merging factors `[BMx, BMy, BMz]`: each logical thread
    /// computes a contiguous block of this many points per dimension.
    pub bm: [usize; 3],
    /// Cyclic-merging strides `[CMx, CMy, CMz]`: each logical thread
    /// computes points separated by `extent / cm` along the dimension.
    pub cm: [usize; 3],
    /// Unroll factors `[UFx, UFy, UFz]`: the innermost loops are emitted
    /// in fixed-trip chunks with an explicit remainder loop.
    pub uf: [usize; 3],
    /// Whether to stream over the streaming dimension in tiles.
    pub streaming: bool,
    /// Streaming dimension (0 = x, 1 = y, 2 = z).
    pub sd: usize,
    /// Streaming tile extent (concurrent-streaming block size).
    pub sb: usize,
}

impl Default for TransformCfg {
    fn default() -> Self {
        TransformCfg { bm: [1; 3], cm: [1; 3], uf: [1; 3], streaming: false, sd: 2, sb: 1 }
    }
}

fn alloc_temps(def: &KernelDef, dims: [usize; 3]) -> Vec<Grid3> {
    (0..def.n_temps).map(|_| Grid3::zeros(dims[0], dims[1], dims[2])).collect()
}

fn stage_bounds(margin: u32, dims: [usize; 3]) -> Option<[(usize, usize); 3]> {
    let m = margin as usize;
    let mut b = [(0usize, 0usize); 3];
    for d in 0..3 {
        if dims[d] < 2 * m + 1 {
            return None;
        }
        b[d] = (m, dims[d] - m);
    }
    Some(b)
}

/// Per-stage write margin: the margin of the *destination* array as
/// computed by [`KernelDef::margins`].
fn stage_margins(def: &KernelDef) -> Vec<u32> {
    let (temp_m, out_m) = def.margins();
    def.stages
        .iter()
        .map(|st| match st.out {
            ArrayRef::Temp(i) => temp_m[i],
            ArrayRef::Output(i) => out_m[i],
            ArrayRef::Input(_) => unreachable!("KernelDef validated"),
        })
        .collect()
}

fn run_stage_seq(
    stage: &Stage,
    margin: u32,
    inputs: &[Grid3],
    temps: &mut [Grid3],
    outputs: &mut [Grid3],
    dims: [usize; 3],
) {
    let Some(b) = stage_bounds(margin, dims) else { return };
    // Compute into a scratch vector first so the arrays view stays immutable
    // during evaluation, then commit. The scratch is the destination-sized
    // interior region only.
    let mut vals = Vec::with_capacity((b[0].1 - b[0].0) * (b[1].1 - b[1].0) * (b[2].1 - b[2].0));
    {
        let arrays = Arrays { inputs, temps, outputs };
        for z in b[2].0..b[2].1 {
            for y in b[1].0..b[1].1 {
                for x in b[0].0..b[0].1 {
                    vals.push(stage.eval(&arrays, x, y, z));
                }
            }
        }
    }
    let dst = match stage.out {
        ArrayRef::Temp(i) => &mut temps[i],
        ArrayRef::Output(i) => &mut outputs[i],
        ArrayRef::Input(_) => unreachable!(),
    };
    let mut it = vals.into_iter();
    for z in b[2].0..b[2].1 {
        for y in b[1].0..b[1].1 {
            for x in b[0].0..b[0].1 {
                dst.set(x, y, z, it.next().unwrap());
            }
        }
    }
}

/// Run the kernel sequentially over the interior, allocating temporaries
/// internally. `inputs.len()` must equal `def.n_inputs` and all grids must
/// share the outputs' extents.
///
/// # Panics
/// Panics on arity or shape mismatch.
pub fn run_reference(def: &KernelDef, inputs: &[Grid3], outputs: &mut [Grid3]) {
    check_arity(def, inputs, outputs);
    let dims = outputs[0].dims();
    let mut temps = alloc_temps(def, dims);
    let margins = stage_margins(def);
    for (stage, &m) in def.stages.iter().zip(&margins) {
        run_stage_seq(stage, m, inputs, &mut temps, outputs, dims);
    }
}

fn check_arity(def: &KernelDef, inputs: &[Grid3], outputs: &mut [Grid3]) {
    assert_eq!(inputs.len(), def.n_inputs, "input arity mismatch");
    assert_eq!(outputs.len(), def.n_outputs, "output arity mismatch");
    let dims = outputs[0].dims();
    for g in inputs.iter().chain(outputs.iter()) {
        assert_eq!(g.dims(), dims, "all grids must share extents");
    }
}

/// Enumerate the 1-D interior indices `[lo, hi)` in the order induced by a
/// (block-merge, cyclic-merge) pair along one dimension. Every index is
/// visited exactly once; only the order changes.
fn merged_order(lo: usize, hi: usize, bm: usize, cm: usize) -> Vec<usize> {
    let n = hi - lo;
    let mut order = Vec::with_capacity(n);
    if n == 0 {
        return order;
    }
    // Cyclic merging partitions indices into `ceil(n / cm_stride)` classes
    // at stride `cm_stride`; block merging then walks blocks of `bm` inside
    // each class. cm == 1 and bm == 1 degenerate to the natural order.
    let cm_classes = cm.clamp(1, n);
    let stride = n.div_ceil(cm_classes);
    for start in 0..stride {
        let class: Vec<usize> =
            (0..cm_classes).map(|k| start + k * stride).filter(|&i| i < n).collect();
        for chunk in class.chunks(bm.max(1)) {
            for &i in chunk {
                order.push(lo + i);
            }
        }
    }
    // When cm == 1 the above yields blocks of size bm in natural order
    // interleaved by stride; normalize the degenerate case for clarity.
    if cm <= 1 {
        order.clear();
        let mut i = lo;
        while i < hi {
            let end = (i + bm.max(1)).min(hi);
            order.extend(i..end);
            i = end;
        }
    }
    order
}

/// Run the kernel visiting points in the transformed order of `cfg`.
/// Semantically identical to [`run_reference`]; used by the equivalence
/// tests that justify exploring these transformations at tuning time.
pub fn run_transformed(
    def: &KernelDef,
    inputs: &[Grid3],
    outputs: &mut [Grid3],
    cfg: &TransformCfg,
) {
    check_arity(def, inputs, outputs);
    let dims = outputs[0].dims();
    let mut temps = alloc_temps(def, dims);
    let margins = stage_margins(def);
    for (stage, &m) in def.stages.iter().zip(&margins) {
        let Some(b) = stage_bounds(m, dims) else { continue };
        let xs = merged_order(b[0].0, b[0].1, cfg.bm[0], cfg.cm[0]);
        let ys = merged_order(b[1].0, b[1].1, cfg.bm[1], cfg.cm[1]);
        let zs = merged_order(b[2].0, b[2].1, cfg.bm[2], cfg.cm[2]);
        // Streaming tiles the chosen dimension; tiles execute outermost.
        let (stream_axis, tile) =
            if cfg.streaming { (cfg.sd, cfg.sb.max(1)) } else { (2, usize::MAX) };
        let axes = [&xs, &ys, &zs];
        let stream_len = axes[stream_axis].len();
        let mut vals: Vec<(usize, usize, usize, f64)> =
            Vec::with_capacity(xs.len() * ys.len() * zs.len());
        {
            let arrays = Arrays { inputs, temps: &temps, outputs };
            let mut t0 = 0;
            while t0 < stream_len {
                let t1 = t0.saturating_add(tile).min(stream_len);
                let stream_slice = &axes[stream_axis][t0..t1];
                // Unrolled traversal: fixed-trip chunks plus remainder, as
                // generated code would emit.
                for &zi in if stream_axis == 2 { stream_slice } else { zs.as_slice() } {
                    for &yi in if stream_axis == 1 { stream_slice } else { ys.as_slice() } {
                        let inner: &[usize] =
                            if stream_axis == 0 { stream_slice } else { xs.as_slice() };
                        let ufx = cfg.uf[0].max(1);
                        let mut c = 0;
                        while c + ufx <= inner.len() {
                            // "Unrolled" body: ufx evaluations per trip.
                            for k in 0..ufx {
                                let xi = inner[c + k];
                                vals.push((xi, yi, zi, stage.eval(&arrays, xi, yi, zi)));
                            }
                            c += ufx;
                        }
                        for &xi in &inner[c..] {
                            vals.push((xi, yi, zi, stage.eval(&arrays, xi, yi, zi)));
                        }
                    }
                }
                t0 = t1;
            }
        }
        let dst = match stage.out {
            ArrayRef::Temp(i) => &mut temps[i],
            ArrayRef::Output(i) => &mut outputs[i],
            ArrayRef::Input(_) => unreachable!(),
        };
        for (x, y, z, v) in vals {
            dst.set(x, y, z, v);
        }
    }
}

/// Compare two output sets on the kernel's valid interior, returning the
/// maximum absolute difference.
pub fn max_diff_on_valid(def: &KernelDef, a: &[Grid3], b: &[Grid3]) -> f64 {
    let m = def.valid_margin() as usize;
    let mut worst = 0.0f64;
    for (ga, gb) in a.iter().zip(b) {
        let [nx, ny, nz] = ga.dims();
        if nx < 2 * m + 1 || ny < 2 * m + 1 || nz < 2 * m + 1 {
            continue;
        }
        for z in m..nz - m {
            for y in m..ny - m {
                for x in m..nx - m {
                    worst = worst.max((ga.get(x, y, z) - gb.get(x, y, z)).abs());
                }
            }
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;

    fn small_io(k: &suite::StencilKernel, n: usize) -> (Vec<Grid3>, Vec<Grid3>) {
        let inputs: Vec<Grid3> = (0..k.def.n_inputs)
            .map(|i| {
                Grid3::from_fn(n, n, n, |x, y, z| {
                    Grid3::synthetic(n, n, n).get(x, y, z) * (1.0 + i as f64 * 0.1)
                })
            })
            .collect();
        let outputs = vec![Grid3::zeros(n, n, n); k.def.n_outputs];
        (inputs, outputs)
    }

    #[test]
    fn merged_order_is_a_permutation() {
        for (bm, cm) in [(1, 1), (4, 1), (1, 4), (3, 5), (8, 2)] {
            let order = merged_order(2, 30, bm, cm);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (2..30).collect::<Vec<_>>(), "bm={bm} cm={cm}");
        }
    }

    #[test]
    fn merged_order_blocks_in_natural_order_without_cyclic() {
        assert_eq!(merged_order(0, 6, 2, 1), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn reference_j3d7pt_matches_hand_star() {
        let k = suite::j3d7pt();
        let (inputs, mut out) = small_io(&k, 12);
        run_reference(&k.def, &inputs, &mut out);
        let g = &inputs[0];
        let hand = 0.75 * g.get(5, 6, 7)
            + (1.0 / 24.0)
                * (g.get(6, 6, 7)
                    + g.get(4, 6, 7)
                    + g.get(5, 7, 7)
                    + g.get(5, 5, 7)
                    + g.get(5, 6, 8)
                    + g.get(5, 6, 6));
        assert!((out[0].get(5, 6, 7) - hand).abs() < 1e-12);
    }

    #[test]
    fn transformed_traversals_are_equivalent() {
        let cfgs = [
            TransformCfg { bm: [4, 2, 1], ..Default::default() },
            TransformCfg { cm: [2, 1, 4], ..Default::default() },
            TransformCfg { uf: [4, 1, 1], ..Default::default() },
            TransformCfg { streaming: true, sd: 2, sb: 4, ..Default::default() },
            TransformCfg {
                bm: [2, 2, 2],
                cm: [1, 3, 1],
                uf: [3, 1, 1],
                streaming: true,
                sd: 1,
                sb: 2,
            },
        ];
        for k in [suite::j3d7pt(), suite::helmholtz(), suite::cheby(), suite::addsgd4()] {
            let n = (2 * k.def.valid_margin() as usize + 6).max(14);
            let (inputs, mut base) = small_io(&k, n);
            run_reference(&k.def, &inputs, &mut base);
            for cfg in &cfgs {
                let mut out = vec![Grid3::zeros(n, n, n); k.def.n_outputs];
                run_transformed(&k.def, &inputs, &mut out, cfg);
                assert_eq!(
                    max_diff_on_valid(&k.def, &base, &out),
                    0.0,
                    "{} with {:?}",
                    k.spec.name,
                    cfg
                );
            }
        }
    }

    #[test]
    fn all_kernels_run_and_produce_nonzero_output() {
        for k in suite::all_kernels() {
            let n = (2 * k.def.valid_margin() as usize + 4).max(12);
            let (inputs, mut out) = small_io(&k, n);
            run_reference(&k.def, &inputs, &mut out);
            let m = k.def.valid_margin() as usize;
            let any_nonzero = out.iter().any(|g| {
                let [nx, ny, nz] = g.dims();
                (m..nz - m).any(|z| (m..ny - m).any(|y| (m..nx - m).any(|x| g.get(x, y, z) != 0.0)))
            });
            assert!(any_nonzero, "{} produced all zeros", k.spec.name);
        }
    }

    #[test]
    #[should_panic(expected = "input arity mismatch")]
    fn arity_mismatch_panics() {
        let k = suite::cheby();
        let mut out = vec![Grid3::zeros(8, 8, 8)];
        run_reference(&k.def, &[Grid3::zeros(8, 8, 8)], &mut out);
    }
}
