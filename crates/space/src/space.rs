//! The optimization space: per-parameter value lists, explicit validity
//! constraints, and sampling/enumeration utilities.

use crate::param::{ParamId, N_PARAMS};
use crate::setting::Setting;
use cst_stencil::StencilSpec;
use rand::seq::SliceRandom;
use rand::Rng;

/// An explicit constraint violation (§IV-B), carried in errors so tuners
/// can report *why* a setting is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConstraintViolation {
    /// `TBx·TBy·TBz` exceeds the 1024-thread block limit.
    BlockTooLarge(u32),
    /// The block is smaller than one warp: the remaining lanes are pure
    /// waste, so no code generator emits such a configuration.
    BlockSmallerThanWarp(u32),
    /// An unroll factor exceeds the length of the per-thread loop it
    /// unrolls (the merged points along that dimension).
    UnrollExceedsCoverage { dim: usize, uf: u32, coverage: u32 },
    /// A value is not in the parameter's allowed list.
    ValueOutOfRange(ParamId, u32),
    /// `SD`/`SB` differ from their neutral value while streaming is off.
    StreamingParamsWithoutStreaming,
    /// `SB` exceeds the grid extent of the streaming dimension.
    StreamingBlockTooLarge { sb: u32, extent: u32 },
    /// Concurrent streaming with an unroll factor above `SB` along the
    /// streaming dimension.
    UnrollExceedsStreamingBlock { uf: u32, sb: u32 },
    /// The thread block must be flat (extent 1) along the streaming
    /// dimension for 2.5-D streaming.
    BlockNotFlatAlongStream,
    /// Block and cyclic merging both enabled along the same dimension.
    ConflictingMerge(usize),
    /// Prefetching requires streaming (it overlaps next-tile loads).
    PrefetchWithoutStreaming,
    /// Merged/unrolled points per thread exceed the grid extent.
    MergeExceedsExtent(usize),
}

impl std::fmt::Display for ConstraintViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConstraintViolation::BlockTooLarge(n) => {
                write!(f, "thread block of {n} threads exceeds 1024")
            }
            ConstraintViolation::BlockSmallerThanWarp(n) => {
                write!(f, "thread block of {n} threads is smaller than a warp")
            }
            ConstraintViolation::UnrollExceedsCoverage { dim, uf, coverage } => {
                write!(f, "unroll {uf} exceeds the {coverage}-point per-thread loop along dimension {dim}")
            }
            ConstraintViolation::ValueOutOfRange(p, v) => write!(f, "{p} = {v} outside its range"),
            ConstraintViolation::StreamingParamsWithoutStreaming => {
                write!(f, "SD/SB set while streaming is disabled")
            }
            ConstraintViolation::StreamingBlockTooLarge { sb, extent } => {
                write!(f, "SB = {sb} exceeds streaming extent {extent}")
            }
            ConstraintViolation::UnrollExceedsStreamingBlock { uf, sb } => {
                write!(f, "unroll {uf} exceeds concurrent-streaming block {sb}")
            }
            ConstraintViolation::BlockNotFlatAlongStream => {
                write!(f, "thread block not flat along the streaming dimension")
            }
            ConstraintViolation::ConflictingMerge(d) => {
                write!(f, "block and cyclic merging both enabled along dimension {d}")
            }
            ConstraintViolation::PrefetchWithoutStreaming => {
                write!(f, "prefetching requires streaming")
            }
            ConstraintViolation::MergeExceedsExtent(d) => {
                write!(f, "per-thread points exceed the grid extent along dimension {d}")
            }
        }
    }
}

impl std::error::Error for ConstraintViolation {}

/// The tuning space for one stencil: value lists per parameter plus the
/// explicit constraint checker.
#[derive(Debug, Clone)]
pub struct OptSpace {
    grid: [usize; 3],
    /// Each parameter's list: a prefix of [`POW2`], or [`SD_VALUES`].
    /// Static slices, so building a space allocates nothing.
    values: [&'static [u32]; N_PARAMS],
}

/// Every power of two a `u32` holds, ascending.
const POW2: [u32; 32] = {
    let mut t = [0; 32];
    let mut i = 0;
    while i < 32 {
        t[i] = 1 << i;
        i += 1;
    }
    t
};

/// `SD`'s values: x, y, z.
const SD_VALUES: [u32; 3] = [1, 2, 3];

/// The most threads a block may hold.
const MAX_BLOCK_THREADS: u32 = 1024;

/// One warp: the fewest threads a block may hold.
const WARP_THREADS: u32 = 32;

/// Whether a block of `threads` threads passes `BlockTooLarge` and
/// `BlockSmallerThanWarp`.
fn block_fits(threads: u32) -> bool {
    (WARP_THREADS..=MAX_BLOCK_THREADS).contains(&threads)
}

/// The value a raw draw's word `w` picks from `list`: the index
/// `SliceRandom::choose` takes from that word.
#[inline(always)]
fn pick(list: &[u32], w: u64) -> u32 {
    list[(w % list.len() as u64) as usize]
}

/// A check that a canonicalized setting of in-list values can fail.
/// [`Setting::canonicalize`] repairs everything else
/// [`OptSpace::check_explicit`] tests, the range check included, so
/// these are the only ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Check {
    /// `BlockTooLarge` and `BlockSmallerThanWarp`: the repaired `TB`
    /// product.
    Block,
    /// `StreamingBlockTooLarge`: `SB` against the stream's extent.
    Stream,
    /// `MergeExceedsExtent` along an axis: the repaired `BM·CM·UF`.
    Merge(usize),
}

/// What picks the stream: whether there is one, its axis and its tile.
const STREAM_PARAMS: [ParamId; 3] = [ParamId::UseStreaming, ParamId::SD, ParamId::SB];

/// Every [`Check`] in `check_explicit`'s order, with the parameters it
/// reads: first those no earlier check reads, then those an earlier one
/// does. The sampler decodes a check's first list just before testing
/// it; the group walk tests a check once the group's digits among both
/// lists are set.
const CHECKS: [(Check, &[ParamId], &[ParamId]); 5] = [
    (
        Check::Block,
        &[ParamId::TBx, ParamId::TBy, ParamId::TBz, ParamId::UseStreaming, ParamId::SD],
        &[],
    ),
    (Check::Stream, &[ParamId::SB], &[ParamId::UseStreaming, ParamId::SD]),
    (Check::Merge(0), &[ParamId::BMx, ParamId::CMx, ParamId::UFx], &STREAM_PARAMS),
    (Check::Merge(1), &[ParamId::BMy, ParamId::CMy, ParamId::UFy], &STREAM_PARAMS),
    (Check::Merge(2), &[ParamId::BMz, ParamId::CMz, ParamId::UFz], &STREAM_PARAMS),
];

/// The most combinations a group enumeration returns (this tree's
/// choice): csTuner's sampling cut and Garvey's group sampling both
/// start from at most this many.
pub const ENUM_LIMIT: usize = 8192;

/// The lists that do not depend on the grid: the thread block's, `SD`'s
/// and the booleans'. Inlined, so a draw decoding a value from one of
/// them divides by a constant length.
#[inline(always)]
fn fixed_values(p: ParamId) -> Option<&'static [u32]> {
    match p {
        ParamId::TBx | ParamId::TBy => Some(pow2_up_to(1024)),
        ParamId::TBz => Some(pow2_up_to(64)),
        ParamId::SD => Some(&SD_VALUES),
        ParamId::UseShared
        | ParamId::UseConstant
        | ParamId::UseStreaming
        | ParamId::UseRetiming
        | ParamId::UsePrefetching => Some(pow2_up_to(2)),
        _ => None,
    }
}

/// The powers of two up to `max`, ascending.
#[inline(always)]
fn pow2_up_to(max: u32) -> &'static [u32] {
    &POW2[..(u32::BITS - max.leading_zeros()) as usize]
}

impl OptSpace {
    /// Build the Table I space for a stencil's grid extents.
    pub fn for_stencil(spec: &StencilSpec) -> Self {
        Self::for_grid(spec.grid)
    }

    /// Build the space for explicit grid extents `[M1, M2, M3]`.
    pub fn for_grid(grid: [usize; 3]) -> Self {
        let m = [grid[0] as u32, grid[1] as u32, grid[2] as u32];
        let max_m = *m.iter().max().unwrap();
        let values = ParamId::ALL.map(|p| match p {
            ParamId::SB => pow2_up_to(max_m),
            ParamId::UFx | ParamId::CMx | ParamId::BMx => pow2_up_to(m[0]),
            ParamId::UFy | ParamId::CMy | ParamId::BMy => pow2_up_to(m[1]),
            ParamId::UFz | ParamId::CMz | ParamId::BMz => pow2_up_to(m[2]),
            _ => fixed_values(p).expect("every other list is fixed"),
        });
        OptSpace { grid, values }
    }

    /// Grid extents the space was built for.
    pub fn grid(&self) -> [usize; 3] {
        self.grid
    }

    /// Allowed values of a parameter, ascending.
    pub fn values(&self, p: ParamId) -> &[u32] {
        self.values[p.index()]
    }

    /// Index of a value in the parameter's list, if present. O(1): `SD`'s
    /// list is 1, 2, 3 and every other list is the powers of two from 1
    /// up, so `v` can only sit at `v - 1` or at `log2 v`.
    pub fn value_index(&self, p: ParamId, v: u32) -> Option<usize> {
        let i = if p == ParamId::SD {
            v.wrapping_sub(1) as usize
        } else if v.is_power_of_two() {
            v.trailing_zeros() as usize
        } else {
            return None;
        };
        (self.values(p).get(i) == Some(&v)).then_some(i)
    }

    /// Size of the unconstrained cartesian space (log10), for reporting.
    /// The paper quotes >10⁸ settings after explicit constraints.
    pub fn log10_unconstrained_size(&self) -> f64 {
        self.values.iter().map(|v| (v.len() as f64).log10()).sum()
    }

    /// Check the explicit constraints of §IV-B.
    pub fn check_explicit(&self, s: &Setting) -> Result<(), ConstraintViolation> {
        for p in ParamId::ALL {
            let v = s.get(p);
            if self.value_index(p, v).is_none() {
                return Err(ConstraintViolation::ValueOutOfRange(p, v));
            }
        }
        let threads = s.tb_size();
        if !block_fits(threads) {
            return Err(if threads > MAX_BLOCK_THREADS {
                ConstraintViolation::BlockTooLarge(threads)
            } else {
                ConstraintViolation::BlockSmallerThanWarp(threads)
            });
        }
        let sd = s.sd_axis();
        if !s.use_streaming() {
            if s.get(ParamId::SD) != 1 || s.sb() != 1 {
                return Err(ConstraintViolation::StreamingParamsWithoutStreaming);
            }
            if s.use_prefetching() {
                return Err(ConstraintViolation::PrefetchWithoutStreaming);
            }
        } else {
            let extent = self.grid[sd] as u32;
            if s.sb() > extent {
                return Err(ConstraintViolation::StreamingBlockTooLarge { sb: s.sb(), extent });
            }
            // Concurrent streaming: tiles of SB points are traversed in
            // parallel, so the unroll along SD cannot exceed the tile.
            if s.sb() < extent && s.uf()[sd] > s.sb() {
                return Err(ConstraintViolation::UnrollExceedsStreamingBlock {
                    uf: s.uf()[sd],
                    sb: s.sb(),
                });
            }
            // 2.5-D streaming keeps the block flat along the stream.
            if s.tb()[sd] != 1 {
                return Err(ConstraintViolation::BlockNotFlatAlongStream);
            }
        }
        for d in 0..3 {
            if s.bm()[d] > 1 && s.cm()[d] > 1 {
                return Err(ConstraintViolation::ConflictingMerge(d));
            }
            if !self.merge_fits(d, s.bm()[d], s.cm()[d], s.uf()[d]) {
                return Err(ConstraintViolation::MergeExceedsExtent(d));
            }
            // Unrolling applies to the per-thread loop: along the streaming
            // dimension that loop has SB trips (checked above); elsewhere
            // it has `bm·cm` trips.
            if !(s.use_streaming() && d == sd) {
                let coverage = s.bm()[d] * s.cm()[d];
                if s.uf()[d] > coverage {
                    return Err(ConstraintViolation::UnrollExceedsCoverage {
                        dim: d,
                        uf: s.uf()[d],
                        coverage,
                    });
                }
            }
        }
        Ok(())
    }

    /// Whether the setting passes all explicit constraints.
    pub fn is_explicit_valid(&self, s: &Setting) -> bool {
        self.check_explicit(s).is_ok()
    }

    /// Draw one uniformly random parameter assignment (not necessarily
    /// valid).
    pub fn random_raw(&self, rng: &mut impl Rng) -> Setting {
        let mut v = [1u32; N_PARAMS];
        for p in ParamId::ALL {
            v[p.index()] = *self.values(p).choose(rng).unwrap();
        }
        Setting(v)
    }

    /// Draw one explicitly-valid setting: rejection-sample raw draws
    /// ([`OptSpace::random_raw`]) until one is explicitly valid once
    /// canonicalized, and return it canonicalized.
    ///
    /// Each draw takes one `next_u64` per parameter in [`ParamId::ALL`]
    /// order, exactly as `random_raw` does, but decodes only the values
    /// the rules read until a draw passes them all, and stops at the
    /// first rule that fails. So it consumes the same stream and returns
    /// the same settings as canonicalizing and checking every raw draw,
    /// while a rejected draw costs little more than its 19 words. What
    /// the rules leave to decide, a caller checks on the returned
    /// setting: the resource stage (`ValidSpace::random_valid`) or an
    /// evaluator's validity and a dedup (`PerfDataset::collect`).
    pub fn random_explicit_valid(&self, rng: &mut impl Rng) -> Setting {
        loop {
            let words: [u64; N_PARAMS] = std::array::from_fn(|_| rng.next_u64());
            if let Some(s) = self.canonical_draw(&words) {
                return s;
            }
        }
    }

    /// The value a raw draw's word picks from `p`'s list. A list that
    /// does not depend on the grid divides by a constant once `p` is.
    #[inline(always)]
    fn decode(&self, words: &[u64; N_PARAMS], p: ParamId) -> u32 {
        pick(fixed_values(p).unwrap_or(self.values(p)), words[p.index()])
    }

    /// The raw draw `words`, canonicalized, if that passes
    /// [`OptSpace::check_explicit`]; `None` at the first rule it fails.
    ///
    /// A raw draw takes every value from its list, so its canonical form
    /// can fail only the [`CHECKS`]. They are tested in their table
    /// order, through the setting's own repair rules, on a raw setting
    /// filled in as they read it. `SB` is read even with streaming off;
    /// the repair resets it then, and `SD` too.
    fn canonical_draw(&self, words: &[u64; N_PARAMS]) -> Option<Setting> {
        let mut s = Setting([1; N_PARAMS]);
        self.draw_check::<0>(words, &mut s)?;
        self.draw_check::<1>(words, &mut s)?;
        self.draw_check::<2>(words, &mut s)?;
        self.draw_check::<3>(words, &mut s)?;
        self.draw_check::<4>(words, &mut s)?;
        // Accepted: the values no check reads, then the repair.
        for p in [
            ParamId::UseShared,
            ParamId::UseConstant,
            ParamId::UseRetiming,
            ParamId::UsePrefetching,
        ] {
            s.set(p, self.decode(words, p));
        }
        s.canonicalize();
        debug_assert_eq!(self.check_explicit(&s), Ok(()), "{s}");
        Some(s)
    }

    /// Decode the parameters `CHECKS[K]` reads first into `s`, then test
    /// it. `K` is a constant, so the check and every list it decodes are
    /// too.
    #[inline(always)]
    fn draw_check<const K: usize>(&self, words: &[u64; N_PARAMS], s: &mut Setting) -> Option<()> {
        let (check, first, _) = CHECKS[K];
        for &p in first {
            s.set(p, self.decode(words, p));
        }
        self.passes(check, s).then_some(())
    }

    /// Whether `s`, canonicalized, passes `check`, for `s` whose values
    /// lie in their lists. Reads only the check's [`CHECKS`] parameters.
    #[inline(always)]
    fn passes(&self, check: Check, s: &Setting) -> bool {
        match check {
            Check::Block => block_fits((0..3).map(|d| s.repaired_tb(d)).product()),
            Check::Stream => s.stream_axis().is_none_or(|sd| s.sb() <= self.grid[sd] as u32),
            Check::Merge(d) => self.merge_fits(d, s.bm()[d], s.repaired_cm(d), s.repaired_uf(d)),
        }
    }

    /// Whether `bm·cm·uf` points per thread fit in the grid along `d`.
    fn merge_fits(&self, d: usize, bm: u32, cm: u32, uf: u32) -> bool {
        bm as u64 * cm as u64 * uf as u64 <= self.grid[d] as u64
    }

    /// Enumerate the value combinations of a parameter group that are
    /// feasible around `base`, in lexicographic order of value indices
    /// (the last parameter fastest), up to [`ENUM_LIMIT`] combinations:
    /// the per-group combination space of the iterative search (§IV-E).
    /// Combination `i` is `out[i * n..(i + 1) * n]` for a group of `n`
    /// parameters, its values in `params` order.
    ///
    /// A combination is feasible when the *canonicalized* substitution is
    /// explicitly valid. Strict validity against the base would couple the
    /// group to the base's topology — e.g. with a streaming base,
    /// `useStreaming = 1` alone is invalid because `SD`/`SB` stay set — so
    /// a tuner could never leave the base's streaming configuration.
    /// Canonicalization repairs the dependent parameters exactly as a code
    /// generator would. The combinations kept are the *raw* values:
    /// canonicalizing against this base may flatten values (e.g. force
    /// `TB` to 1 along the base's streaming dimension) that become
    /// meaningful again once another group moves the topology.
    ///
    /// With every value in its list, the canonical form can fail only
    /// five checks (the block's size, the stream's tile against its
    /// extent, and the merged points along each axis), each reading a few
    /// parameters. So the walk sets one digit at a time and tests each
    /// check as soon as the group digits it reads are set (a check that
    /// reads none, with the first digit), skipping every combination
    /// below a digit that fails one. It visits no more raw combinations
    /// than the cartesian product, which has at most 11⁴: no group this
    /// tree forms has more than four parameters, nor any list on the
    /// kernels' grids more than 11 values.
    ///
    /// # Panics
    /// Panics unless `params` is a non-empty list of distinct parameters
    /// and every value of `base` lies in its list.
    pub fn enumerate_group_repaired(&self, base: &Setting, params: &[ParamId]) -> Vec<u32> {
        let n = params.len();
        assert!(n > 0, "a group has at least one parameter");
        assert!(
            params.iter().enumerate().all(|(i, p)| !params[..i].contains(p)),
            "{params:?} repeats a parameter"
        );
        assert!(
            ParamId::ALL.into_iter().all(|p| self.value_index(p, base.get(p)).is_some()),
            "a value of {base} lies outside its list"
        );
        // due[k]: the checks whose last group digit is k.
        let mut due = vec![Vec::new(); n];
        for (check, first, again) in CHECKS {
            let last = params.iter().rposition(|p| first.contains(p) || again.contains(p));
            due[last.unwrap_or(0)].push(check);
        }
        let lists: Vec<&[u32]> = params.iter().map(|&p| self.values(p)).collect();
        let mut out = Vec::new();
        let mut s = *base;
        let mut idx = vec![0; n];
        let mut k = 0;
        loop {
            if let Some(&v) = lists[k].get(idx[k]) {
                s.set(params[k], v);
                if due[k].iter().all(|&check| self.passes(check, &s)) {
                    if k + 1 < n {
                        k += 1;
                        idx[k] = 0;
                        continue;
                    }
                    out.extend(params.iter().map(|&p| s.get(p)));
                    if out.len() == ENUM_LIMIT * n {
                        break;
                    }
                }
                idx[k] += 1;
            } else if k == 0 {
                break;
            } else {
                k -= 1;
                idx[k] += 1;
            }
        }
        out
    }
}

/// Step `idx`, a mixed-radix counter whose digit `d` runs over
/// `0..radix(d)`, to the next tuple in lexicographic order (the last
/// digit fastest). Returns `false`, with every digit back at 0, once the
/// counter wraps past its last tuple. Group enumeration, csTuner's
/// exhaustive pass over a small sampled space and the grid sweep all
/// count with it.
pub fn odometer_step(idx: &mut [u32], radix: impl Fn(usize) -> usize) -> bool {
    for d in (0..idx.len()).rev() {
        idx[d] += 1;
        if (idx[d] as usize) < radix(d) {
            return true;
        }
        idx[d] = 0;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    fn space512() -> OptSpace {
        OptSpace::for_grid([512, 512, 512])
    }

    #[test]
    fn value_lists_match_table_i() {
        let sp = space512();
        assert_eq!(sp.values(ParamId::TBx).len(), 11); // 1..1024
        assert_eq!(sp.values(ParamId::TBz).len(), 7); // 1..64
        assert_eq!(sp.values(ParamId::SD), &[1, 2, 3]);
        assert_eq!(sp.values(ParamId::UFx).len(), 10); // 1..512
        assert_eq!(sp.values(ParamId::UseShared), &[1, 2]);
        assert_eq!(*sp.values(ParamId::SB).last().unwrap(), 512);
    }

    #[test]
    fn space_is_large_as_paper_claims() {
        // >100M settings even after constraints; unconstrained must be ≥ 1e8.
        assert!(space512().log10_unconstrained_size() > 8.0);
    }

    #[test]
    fn baseline_is_valid() {
        let sp = space512();
        assert!(sp.is_explicit_valid(&Setting::baseline()));
    }

    #[test]
    fn block_size_limit_enforced() {
        let sp = space512();
        let s = Setting::baseline()
            .with(ParamId::TBx, 1024)
            .with(ParamId::TBy, 2)
            .with(ParamId::TBz, 1);
        assert_eq!(sp.check_explicit(&s), Err(ConstraintViolation::BlockTooLarge(2048)));
    }

    #[test]
    fn streaming_params_need_streaming() {
        let sp = space512();
        let s = Setting::baseline().with(ParamId::SB, 8);
        assert_eq!(
            sp.check_explicit(&s),
            Err(ConstraintViolation::StreamingParamsWithoutStreaming)
        );
    }

    #[test]
    fn concurrent_streaming_bounds_unroll() {
        let sp = space512();
        let s = Setting::baseline()
            .with(ParamId::UseStreaming, 2)
            .with(ParamId::SD, 3)
            .with(ParamId::TBz, 1)
            .with(ParamId::SB, 4)
            .with(ParamId::UFz, 8);
        assert_eq!(
            sp.check_explicit(&s),
            Err(ConstraintViolation::UnrollExceedsStreamingBlock { uf: 8, sb: 4 })
        );
        // Full-extent SB (plain streaming) lifts the bound.
        let s2 = s.with(ParamId::SB, 512).with(ParamId::UFz, 8);
        assert!(sp.is_explicit_valid(&s2), "{:?}", sp.check_explicit(&s2));
    }

    #[test]
    fn block_flat_along_stream() {
        let sp = space512();
        let s = Setting::baseline()
            .with(ParamId::UseStreaming, 2)
            .with(ParamId::SD, 3)
            .with(ParamId::SB, 8)
            .with(ParamId::TBz, 2);
        assert_eq!(sp.check_explicit(&s), Err(ConstraintViolation::BlockNotFlatAlongStream));
    }

    #[test]
    fn merge_conflict_detected() {
        let sp = space512();
        let s = Setting::baseline().with(ParamId::BMy, 2).with(ParamId::CMy, 4);
        assert_eq!(sp.check_explicit(&s), Err(ConstraintViolation::ConflictingMerge(1)));
    }

    #[test]
    fn prefetch_requires_streaming() {
        let sp = space512();
        let s = Setting::baseline().with(ParamId::UsePrefetching, 2);
        assert_eq!(sp.check_explicit(&s), Err(ConstraintViolation::PrefetchWithoutStreaming));
    }

    #[test]
    fn merge_product_bounded_by_extent() {
        let sp = OptSpace::for_grid([64, 64, 64]);
        let s = Setting::baseline().with(ParamId::BMy, 32).with(ParamId::UFy, 4);
        assert_eq!(sp.check_explicit(&s), Err(ConstraintViolation::MergeExceedsExtent(1)));
    }

    #[test]
    fn random_explicit_valid_always_valid() {
        let sp = space512();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..200 {
            let s = sp.random_explicit_valid(&mut rng);
            assert!(sp.is_explicit_valid(&s), "{s}");
        }
    }

    #[test]
    fn random_valid_settings_are_diverse() {
        let sp = space512();
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            seen.insert(sp.random_explicit_valid(&mut rng));
        }
        assert!(seen.len() > 90, "only {} distinct settings", seen.len());
    }

    #[test]
    fn canonicalize_is_idempotent_and_validating() {
        let sp = space512();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let mut s = sp.random_raw(&mut rng);
            s.canonicalize();
            let mut t = s;
            t.canonicalize();
            assert_eq!(s, t, "canonicalize not idempotent");
        }
    }

    /// The odometer walk the rule walk replaced, kept as its reference:
    /// copy the base, substitute, canonicalize and fully check every raw
    /// combination in lexicographic order of value indices, keeping at
    /// most `limit` combinations.
    fn reference_enumeration(
        sp: &OptSpace,
        base: &Setting,
        params: &[ParamId],
        limit: usize,
    ) -> Vec<Vec<u32>> {
        let mut out: Vec<Vec<u32>> = Vec::new();
        let lists: Vec<&[u32]> = params.iter().map(|&p| sp.values(p)).collect();
        let mut idx = vec![0u32; params.len()];
        loop {
            let mut s = *base;
            for ((&p, l), &i) in params.iter().zip(&lists).zip(&idx) {
                s.set(p, l[i as usize]);
            }
            s.canonicalize();
            if sp.is_explicit_valid(&s) {
                out.push(idx.iter().zip(&lists).map(|(&i, l)| l[i as usize]).collect());
                if out.len() >= limit {
                    break;
                }
            }
            if !odometer_step(&mut idx, |d| lists[d].len()) {
                break;
            }
        }
        out
    }

    /// The group's combinations, one `Vec` each.
    fn combos(sp: &OptSpace, base: &Setting, params: &[ParamId]) -> Vec<Vec<u32>> {
        let flat = sp.enumerate_group_repaired(base, params);
        assert_eq!(flat.len() % params.len(), 0, "a combination is cut short");
        flat.chunks_exact(params.len()).map(<[u32]>::to_vec).collect()
    }

    #[test]
    fn enumerate_group_respects_constraints_and_limit() {
        let sp = space512();
        let base = Setting::baseline();
        let tb = [ParamId::TBx, ParamId::TBy];
        let all = combos(&sp, &base, &tb);
        // All TBx×TBy with 32 ≤ product ≤ 1024 (TBz = 1): 51 combinations.
        assert_eq!(all.len(), 51);
        for c in &all {
            assert!((32..=1024).contains(&(c[0] * c[1])));
        }
        // Streaming along y flattens TBy, and with UFy = 1 every BMy·CMy
        // and UFz fits: all 10·11·10·10 raw combinations are feasible, and
        // the walk stops at the cap, where the odometer walk stopped.
        let base = base.with(ParamId::UseStreaming, 2).with(ParamId::SD, 2).with(ParamId::TBy, 1);
        let group = [ParamId::UFz, ParamId::TBy, ParamId::BMy, ParamId::CMy];
        let every = reference_enumeration(&sp, &base, &group, usize::MAX);
        assert_eq!(every.len(), 11_000);
        assert_eq!(combos(&sp, &base, &group), every[..ENUM_LIMIT]);
    }

    #[test]
    fn enumerate_group_repaired_unlocks_topology_changes() {
        let sp = space512();
        // Streaming-along-y base: a strict check of [TBy] admits only
        // {1}; repaired enumeration keeps all raw values because another
        // group may later move the stream.
        let base = Setting::baseline()
            .with(ParamId::UseStreaming, 2)
            .with(ParamId::SD, 2)
            .with(ParamId::TBy, 1)
            .with(ParamId::SB, 8);
        let tby = sp.values(ParamId::TBy);
        let strict = tby.iter().filter(|&&v| sp.is_explicit_valid(&base.with(ParamId::TBy, v)));
        assert_eq!(strict.count(), 1);
        let repaired = combos(&sp, &base, &[ParamId::TBy]);
        assert!(repaired.len() > 1, "{repaired:?}");
        // And turning streaming off alone is representable.
        let off = combos(&sp, &base, &[ParamId::UseStreaming]);
        assert!(off.iter().any(|c| c[0] == 1), "{off:?}");
    }

    #[test]
    fn repaired_combos_decode_validly_in_base_context() {
        let sp = space512();
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..20 {
            let base = sp.random_explicit_valid(&mut rng);
            let group = [ParamId::UseStreaming, ParamId::SD, ParamId::SB];
            for combo in combos(&sp, &base, &group) {
                let mut s = base;
                for (&p, &v) in group.iter().zip(&combo) {
                    s.set(p, v);
                }
                s.canonicalize();
                assert!(sp.is_explicit_valid(&s), "{s} from {combo:?}");
            }
        }
    }

    #[test]
    fn repaired_combos_ascend_and_match_brute_force() {
        let sp = space512();
        let mut rng = StdRng::seed_from_u64(2024);
        for _ in 0..40 {
            let base = sp.random_explicit_valid(&mut rng);
            let mut group = ParamId::ALL.to_vec();
            group.shuffle(&mut rng);
            group.truncate(rng.gen_range(2..5));
            let combos = combos(&sp, &base, &group);
            // Strictly increasing value-index tuples, hence distinct.
            let index_of = |c: &Vec<u32>| -> Vec<usize> {
                group.iter().zip(c).map(|(&p, &v)| sp.value_index(p, v).unwrap()).collect()
            };
            for w in combos.windows(2) {
                assert!(index_of(&w[0]) < index_of(&w[1]), "{:?} !< {:?}", w[0], w[1]);
            }
            // Small groups: exactly the valid part of the cartesian product.
            let total: usize = group.iter().map(|&p| sp.values(p).len()).product();
            if total > 20_000 {
                continue;
            }
            let brute: Vec<Vec<u32>> = (0..total)
                .map(|mut k| {
                    let mut c = vec![0; group.len()];
                    for (d, &p) in group.iter().enumerate().rev() {
                        let l = sp.values(p);
                        c[d] = l[k % l.len()];
                        k /= l.len();
                    }
                    c
                })
                .filter(|c| {
                    let mut s = base;
                    for (&p, &v) in group.iter().zip(c) {
                        s.set(p, v);
                    }
                    s.canonicalize();
                    sp.is_explicit_valid(&s)
                })
                .collect();
            assert_eq!(combos, brute, "group {group:?}");
        }
    }

    /// The range check as a binary search per parameter, in Table I
    /// order: the reference the O(1) `value_index` must match exactly.
    fn reference_ranges(sp: &OptSpace, s: &Setting) -> Result<(), ConstraintViolation> {
        for p in ParamId::ALL {
            let v = s.get(p);
            if sp.values(p).binary_search(&v).is_err() {
                return Err(ConstraintViolation::ValueOutOfRange(p, v));
            }
        }
        Ok(())
    }

    /// `check_explicit`'s verdict on the ranges alone: its error if that
    /// is a range error, else `Ok`. The range check runs first, so this
    /// must equal [`reference_ranges`].
    fn range_verdict(sp: &OptSpace, s: &Setting) -> Result<(), ConstraintViolation> {
        match sp.check_explicit(s) {
            Err(e @ ConstraintViolation::ValueOutOfRange(..)) => Err(e),
            _ => Ok(()),
        }
    }

    /// Every kernel's space, and a 64³ one.
    fn suite_spaces() -> Vec<OptSpace> {
        let kernels = cst_stencil::suite::all_kernels()
            .into_iter()
            .chain(cst_stencil::suite_ext::extension_kernels());
        let mut spaces: Vec<OptSpace> = kernels.map(|k| OptSpace::for_stencil(&k.spec)).collect();
        spaces.push(OptSpace::for_grid([64, 64, 64]));
        spaces
    }

    #[test]
    fn the_range_check_matches_the_binary_search_on_every_edge() {
        for sp in suite_spaces() {
            for p in ParamId::ALL {
                let max = *sp.values(p).last().unwrap();
                // 0, 1, 3 (`SD`'s last value, off every other list), 4
                // (one past `SD`), small and large non-powers of two,
                // each list's maximum and its neighbours, and every power
                // of two, including those above the maximum.
                let mut probes = vec![0, 1, 2, 3, 4, 5, 6, 7, 12, 63, 64, 65, 96, 100, 768, 1000];
                probes.extend([max - 1, max, max + 1, 3 * max, u32::MAX, u32::MAX - 1]);
                probes.extend((0..32).map(|k| 1u32 << k));
                probes.extend((2..32).map(|k| (1u32 << k) | 1));
                for v in probes {
                    let s = Setting::baseline().with(p, v);
                    let at = format!("{p} = {v} on {:?}", sp.grid());
                    assert_eq!(sp.value_index(p, v), sp.values(p).binary_search(&v).ok(), "{at}");
                    assert_eq!(range_verdict(&sp, &s), reference_ranges(&sp, &s), "{at}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn the_range_check_reports_the_first_violation_in_table_order(
            space in 0usize..14,
            picks in prop::collection::vec((0u32..4, 0u32..32, 0u32..u32::MAX), N_PARAMS),
        ) {
            // Each value is in-list, a power of two, a small integer or
            // any u32, so most settings break several ranges at once.
            let sp = &suite_spaces()[space];
            let mut s = Setting::baseline();
            for (p, &(kind, k, any)) in ParamId::ALL.into_iter().zip(&picks) {
                let list = sp.values(p);
                s.set(p, match kind {
                    0 => list[k as usize % list.len()],
                    1 => 1 << k,
                    2 => k,
                    _ => any,
                });
            }
            prop_assert_eq!(range_verdict(sp, &s), reference_ranges(sp, &s));
        }
    }

    /// [`suite_spaces`] and a flat grid, whose streams along y and z can
    /// break `StreamingBlockTooLarge` (every kernel's grid is a cube).
    fn sampler_spaces() -> Vec<OptSpace> {
        let mut spaces = suite_spaces();
        spaces.push(OptSpace::for_grid([512, 64, 16]));
        spaces
    }

    /// The rejection loop the sampler replaced, kept as its reference:
    /// draw raw, canonicalize, then run the full explicit check.
    fn reference_explicit_valid(sp: &OptSpace, rng: &mut StdRng) -> Setting {
        loop {
            let mut s = sp.random_raw(rng);
            s.canonicalize();
            if sp.is_explicit_valid(&s) {
                return s;
            }
        }
    }

    /// Which of the four ways a canonicalized in-list draw can fail `e`
    /// is, or `None` for any other violation.
    fn four_rule_index(e: &ConstraintViolation) -> Option<usize> {
        match e {
            ConstraintViolation::BlockTooLarge(_) => Some(0),
            ConstraintViolation::BlockSmallerThanWarp(_) => Some(1),
            ConstraintViolation::StreamingBlockTooLarge { .. } => Some(2),
            ConstraintViolation::MergeExceedsExtent(_) => Some(3),
            _ => None,
        }
    }

    #[test]
    fn the_sampler_matches_the_reference_on_many_draws() {
        for (i, sp) in sampler_spaces().iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(i as u64);
            let mut reference = rng.clone();
            for _ in 0..500 {
                assert_eq!(
                    sp.random_explicit_valid(&mut rng),
                    reference_explicit_valid(sp, &mut reference),
                    "{:?}",
                    sp.grid()
                );
            }
            assert_eq!(rng.next_u64(), reference.next_u64(), "{:?}", sp.grid());
        }
    }

    #[test]
    fn the_early_verdict_matches_the_full_check_on_many_draws() {
        // Every kernel's space, 20k raw draws each: all four rules fire,
        // and only they do.
        let mut fired = [0usize; 4];
        for (i, sp) in sampler_spaces().iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(0xd1a5 + i as u64);
            for _ in 0..20_000 {
                let words: [u64; N_PARAMS] = std::array::from_fn(|_| rng.next_u64());
                let mut s = Setting(ParamId::ALL.map(|p| sp.decode(&words, p)));
                s.canonicalize();
                let verdict = sp.check_explicit(&s);
                let expected = verdict.is_ok().then_some(s);
                assert_eq!(sp.canonical_draw(&words), expected, "{s} on {:?}", sp.grid());
                if let Err(e) = verdict {
                    let rule = four_rule_index(&e);
                    fired[rule.unwrap_or_else(|| panic!("{e:?}: {s} on {:?}", sp.grid()))] += 1;
                }
            }
        }
        assert!(fired.iter().all(|&n| n > 0), "a rule never fired: {fired:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_sampler_draws_the_reference_stream(
            space in 0usize..15,
            seed in 0u64..u64::MAX,
            draws in 1usize..24,
        ) {
            // Same settings, and the rng left at the same next word.
            let sp = &sampler_spaces()[space];
            let mut rng = StdRng::seed_from_u64(seed);
            let mut reference = rng.clone();
            for _ in 0..draws {
                prop_assert_eq!(
                    sp.random_explicit_valid(&mut rng),
                    reference_explicit_valid(sp, &mut reference)
                );
            }
            prop_assert_eq!(rng.next_u64(), reference.next_u64());
        }

        #[test]
        fn canonical_draws_fail_only_four_rules_and_the_sampler_sees_which(
            space in 0usize..15,
            words in prop::collection::vec(0u64..u64::MAX, N_PARAMS),
        ) {
            // The words pick arbitrary in-list values, as `random_raw`
            // would from the same stream.
            let sp = &sampler_spaces()[space];
            let words: [u64; N_PARAMS] = words.try_into().unwrap();
            let raw = Setting(ParamId::ALL.map(|p| sp.decode(&words, p)));
            prop_assert_eq!(raw, sp.random_raw(&mut WordRng(words.iter())));
            let mut s = raw;
            s.canonicalize();
            let verdict = sp.check_explicit(&s);
            if let Err(e) = &verdict {
                prop_assert!(four_rule_index(e).is_some(), "{:?}: {}", e, s);
            }
            prop_assert_eq!(sp.canonical_draw(&words), verdict.is_ok().then_some(s), "{}", s);
        }
    }

    /// An rng that replays given words.
    struct WordRng<'a>(std::slice::Iter<'a, u64>);

    impl RngCore for WordRng<'_> {
        fn next_u64(&mut self) -> u64 {
            *self.0.next().expect("more words than given")
        }
    }

    #[test]
    fn enumerate_group_sees_cross_constraints_from_base() {
        let sp = space512();
        // Base merges 128 points per thread along z: the repair floors UFz
        // into that loop, but 128·UFz must still fit the 512-point extent.
        let base = Setting::baseline().with(ParamId::BMz, 128);
        let vals = sp.enumerate_group_repaired(&base, &[ParamId::UFz]);
        assert_eq!(vals, vec![1, 2, 4]);
    }

    #[test]
    fn the_check_table_lists_what_each_check_reads() {
        // A check's verdict never moves with a parameter it does not
        // list, and the sampler has decoded every parameter a check
        // lists by the time it tests it.
        let mut decoded: Vec<ParamId> = Vec::new();
        for (check, first, again) in CHECKS {
            assert!(first.iter().all(|p| !decoded.contains(p)), "{check:?} decodes twice");
            decoded.extend(first);
            assert!(again.iter().all(|p| decoded.contains(p)), "{check:?} reads ahead");
        }
        let mut tested = 0;
        for (i, sp) in sampler_spaces().iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(0xc4ec + i as u64);
            for _ in 0..200 {
                let s = sp.random_raw(&mut rng);
                for (check, first, again) in CHECKS {
                    let unread = ParamId::ALL
                        .into_iter()
                        .filter(|p| !first.contains(p) && !again.contains(p));
                    for p in unread {
                        for &v in sp.values(p) {
                            let t = s.with(p, v);
                            assert_eq!(
                                sp.passes(check, &t),
                                sp.passes(check, &s),
                                "{check:?}, {p}: {s}"
                            );
                            tested += 1;
                        }
                    }
                }
            }
        }
        assert!(tested > 0);
    }

    /// A group of 1–4 distinct parameters in the order `rng` shuffles
    /// them into; with `stream`, one of them decides the stream.
    fn random_group(rng: &mut StdRng, size: usize, stream: bool) -> Vec<ParamId> {
        let mut pool = ParamId::ALL.to_vec();
        pool.shuffle(rng);
        if stream {
            let p = *STREAM_PARAMS.choose(rng).unwrap();
            pool.retain(|&q| q != p);
            pool.insert(0, p);
        }
        pool.truncate(size);
        pool.shuffle(rng);
        pool
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(384))]

        #[test]
        fn the_rule_walk_enumerates_what_the_odometer_walk_did(
            space in 0usize..15,
            seed in 0u64..u64::MAX,
            size in 1usize..5,
            kind in (0u32..2, 0u32..2),
        ) {
            // Canonical or raw in-list bases, on every kernel's grid, a
            // 64³ one and a flat one.
            let (raw_base, stream) = (kind.0 == 1, kind.1 == 1);
            let sp = &sampler_spaces()[space];
            let mut rng = StdRng::seed_from_u64(seed);
            let base =
                if raw_base { sp.random_raw(&mut rng) } else { sp.random_explicit_valid(&mut rng) };
            let group = random_group(&mut rng, size, stream);
            prop_assert_eq!(
                combos(sp, &base, &group),
                reference_enumeration(sp, &base, &group, ENUM_LIMIT),
                "{:?} around {} on {:?}",
                group,
                base,
                sp.grid()
            );
        }
    }

    #[test]
    fn groups_past_the_cap_stop_where_the_odometer_walk_did() {
        // Streaming along `d` flattens TB there, and with UF = 1 along `d`
        // every BM·CM fits, so each order of [UF along another axis, TB,
        // BM, CM along `d`] keeps over ENUM_LIMIT combinations on a grid
        // of 512 or more along both.
        let mut past = 0;
        for sp in sampler_spaces() {
            for d in 0..3 {
                let e = (d + 1) % 3;
                let axis = |ps: [ParamId; 3]| ps[d];
                let [tb, bm, cm] = [
                    axis([ParamId::TBx, ParamId::TBy, ParamId::TBz]),
                    axis([ParamId::BMx, ParamId::BMy, ParamId::BMz]),
                    axis([ParamId::CMx, ParamId::CMy, ParamId::CMz]),
                ];
                let uf = [ParamId::UFx, ParamId::UFy, ParamId::UFz][e];
                let base = Setting::baseline()
                    .with(ParamId::TBx, 32)
                    .with(ParamId::TBy, 1)
                    .with(ParamId::TBz, 1)
                    .with(ParamId::UseStreaming, 2)
                    .with(ParamId::SD, d as u32 + 1);
                let mut rng = StdRng::seed_from_u64(d as u64);
                for _ in 0..3 {
                    let mut group = vec![uf, tb, bm, cm];
                    group.shuffle(&mut rng);
                    let every = reference_enumeration(&sp, &base, &group, usize::MAX);
                    let capped = &every[..every.len().min(ENUM_LIMIT)];
                    assert_eq!(combos(&sp, &base, &group), capped, "{group:?} on {:?}", sp.grid());
                    past += (every.len() > ENUM_LIMIT) as usize;
                }
            }
        }
        assert!(past >= 10, "only {past} groups went past the cap");
    }

    #[test]
    #[should_panic(expected = "repeats a parameter")]
    fn a_group_with_a_repeated_parameter_is_refused() {
        space512().enumerate_group_repaired(&Setting::baseline(), &[ParamId::UFx, ParamId::UFx]);
    }

    #[test]
    #[should_panic(expected = "outside its list")]
    fn a_base_value_off_its_list_is_refused() {
        let base = Setting::baseline().with(ParamId::UFx, 3);
        space512().enumerate_group_repaired(&base, &[ParamId::TBx]);
    }

    #[test]
    #[should_panic(expected = "at least one parameter")]
    fn an_empty_group_is_refused() {
        space512().enumerate_group_repaired(&Setting::baseline(), &[]);
    }

    #[test]
    fn the_odometer_counts_every_tuple_in_order_then_wraps() {
        let radix = [2, 1, 3];
        let mut idx = [0u32; 3];
        let mut seen = vec![idx];
        while odometer_step(&mut idx, |d| radix[d]) {
            seen.push(idx);
        }
        assert_eq!(idx, [0; 3], "a wrapped odometer is back at zero");
        let expected: Vec<[u32; 3]> = (0..2).flat_map(|a| (0..3).map(move |c| [a, 0, c])).collect();
        assert_eq!(seen, expected);
        assert!(!odometer_step(&mut [], |_| 1), "the empty tuple has no successor");
    }
}
