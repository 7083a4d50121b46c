//! A concrete assignment of all 19 tuning parameters.

use crate::param::{ParamId, N_PARAMS};
use std::hint::select_unpredictable;

/// The parameters [`Setting::canonicalize`] repairs along each axis:
/// `[TB, CM, UF]`.
const AXIS_REPAIRS: [[ParamId; 3]; 3] = [
    [ParamId::TBx, ParamId::CMx, ParamId::UFx],
    [ParamId::TBy, ParamId::CMy, ParamId::UFy],
    [ParamId::TBz, ParamId::CMz, ParamId::UFz],
];

/// A full parameter setting: one value per Table I parameter, stored in
/// [`ParamId`] order. Values use the paper's encoding (booleans are
/// `{1 = off, 2 = on}`, numeric parameters are powers of two, `SD` is
/// `{1, 2, 3}` for x/y/z).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Setting(pub [u32; N_PARAMS]);

impl Setting {
    /// The all-baseline setting: one thread per point, no optimizations.
    pub fn baseline() -> Self {
        let mut v = [1u32; N_PARAMS];
        v[ParamId::TBx.index()] = 32;
        v[ParamId::TBy.index()] = 4;
        v[ParamId::TBz.index()] = 1;
        Setting(v)
    }

    /// Value of a parameter.
    #[inline]
    pub fn get(&self, p: ParamId) -> u32 {
        self.0[p.index()]
    }

    /// Set a parameter value in place.
    #[inline]
    pub fn set(&mut self, p: ParamId, v: u32) {
        self.0[p.index()] = v;
    }

    /// Copy with one parameter changed.
    #[inline]
    pub fn with(mut self, p: ParamId, v: u32) -> Self {
        self.set(p, v);
        self
    }

    /// Thread block extents `[TBx, TBy, TBz]`.
    #[inline]
    pub fn tb(&self) -> [u32; 3] {
        [self.get(ParamId::TBx), self.get(ParamId::TBy), self.get(ParamId::TBz)]
    }

    /// Total threads per block.
    #[inline]
    pub fn tb_size(&self) -> u32 {
        let [x, y, z] = self.tb();
        x * y * z
    }

    /// Unroll factors `[UFx, UFy, UFz]`.
    #[inline]
    pub fn uf(&self) -> [u32; 3] {
        [self.get(ParamId::UFx), self.get(ParamId::UFy), self.get(ParamId::UFz)]
    }

    /// Cyclic merging factors `[CMx, CMy, CMz]`.
    #[inline]
    pub fn cm(&self) -> [u32; 3] {
        [self.get(ParamId::CMx), self.get(ParamId::CMy), self.get(ParamId::CMz)]
    }

    /// Block merging factors `[BMx, BMy, BMz]`.
    #[inline]
    pub fn bm(&self) -> [u32; 3] {
        [self.get(ParamId::BMx), self.get(ParamId::BMy), self.get(ParamId::BMz)]
    }

    /// Whether shared-memory staging is enabled.
    #[inline]
    pub fn use_shared(&self) -> bool {
        self.get(ParamId::UseShared) == 2
    }

    /// Whether constant memory holds the coefficients.
    #[inline]
    pub fn use_constant(&self) -> bool {
        self.get(ParamId::UseConstant) == 2
    }

    /// Whether streaming is enabled.
    #[inline]
    pub fn use_streaming(&self) -> bool {
        self.get(ParamId::UseStreaming) == 2
    }

    /// Whether retiming is enabled.
    #[inline]
    pub fn use_retiming(&self) -> bool {
        self.get(ParamId::UseRetiming) == 2
    }

    /// Whether prefetching is enabled.
    #[inline]
    pub fn use_prefetching(&self) -> bool {
        self.get(ParamId::UsePrefetching) == 2
    }

    /// Streaming dimension as a 0-based axis (0 = x, 1 = y, 2 = z).
    #[inline]
    pub fn sd_axis(&self) -> usize {
        (self.get(ParamId::SD) - 1) as usize
    }

    /// Concurrent-streaming tile extent.
    #[inline]
    pub fn sb(&self) -> u32 {
        self.get(ParamId::SB)
    }

    /// Feature vector for regression/ML: numeric parameters are
    /// `log2`-transformed so that the coefficient-of-variation comparisons
    /// of §IV-C operate on a continuous scale; boolean and enumeration
    /// parameters are passed through (they already start at 1).
    pub fn features(&self) -> [f64; N_PARAMS] {
        let mut f = [0.0; N_PARAMS];
        for p in ParamId::ALL {
            let v = self.get(p) as f64;
            f[p.index()] = match p.kind() {
                crate::param::ParamKind::Pow2 => v.log2(),
                _ => v,
            };
        }
        f
    }

    /// Normalize dependent parameters to their neutral values so that
    /// logically-identical settings compare equal — the repair a code
    /// generator applies: with streaming off, `SD = 1`, `SB = 1` and
    /// prefetching off; with streaming on, the thread block is flattened
    /// along the stream; merge conflicts resolve in favor of block
    /// merging; an unroll factor floors into the loop it unrolls.
    ///
    /// The per-axis rules are `repaired_tb`, `repaired_cm` and
    /// `repaired_uf`, which the rejection sampler of
    /// [`OptSpace::random_explicit_valid`](crate::OptSpace::random_explicit_valid)
    /// also reads, so the two cannot disagree on a setting's canonical
    /// form.
    pub fn canonicalize(&mut self) {
        if self.stream_axis().is_none() {
            self.set(ParamId::SD, 1);
            self.set(ParamId::SB, 1);
            self.set(ParamId::UsePrefetching, 1);
        }
        for (d, [tb_p, cm_p, uf_p]) in AXIS_REPAIRS.into_iter().enumerate() {
            // In this order: the unroll repair reads the repaired CM.
            self.set(tb_p, self.repaired_tb(d));
            self.set(cm_p, self.repaired_cm(d));
            self.set(uf_p, self.repaired_uf(d));
        }
    }

    // The repairs below select with `select_unpredictable`: on random
    // draws each condition is a coin flip, which a branch mispredicts.

    /// The axis the stream runs along, or `None` with streaming off.
    #[inline]
    pub(crate) fn stream_axis(&self) -> Option<usize> {
        self.use_streaming().then(|| self.sd_axis())
    }

    /// `TB` along axis `d` after the repair: 2.5-D streaming keeps the
    /// block flat along the stream. Depends on `TB`, `useStreaming` and
    /// `SD`.
    #[inline]
    pub(crate) fn repaired_tb(&self, d: usize) -> u32 {
        select_unpredictable(self.stream_axis() == Some(d), 1, self.tb()[d])
    }

    /// `CM` along axis `d` after the repair: a conflict with block
    /// merging resolves in favor of block merging. Depends on `BM` and
    /// `CM`.
    #[inline]
    pub(crate) fn repaired_cm(&self, d: usize) -> u32 {
        let [bm, cm] = [self.bm()[d], self.cm()[d]];
        select_unpredictable(bm > 1 && cm > 1, 1, cm)
    }

    /// `UF` along axis `d` after the repair: unrolling cannot exceed the
    /// per-thread loop it unrolls, `SB` points along the stream and
    /// `BM·CM` (with the repaired `CM`) elsewhere, so a larger factor
    /// floors to the loop's largest power of two. Depends on `UF`, `BM`,
    /// `CM`, `useStreaming`, and on `SD` and `SB` when streaming.
    #[inline]
    pub(crate) fn repaired_uf(&self, d: usize) -> u32 {
        let loop_len = self.bm()[d] * self.repaired_cm(d);
        let coverage = select_unpredictable(self.stream_axis() == Some(d), self.sb(), loop_len);
        let uf = self.uf()[d];
        select_unpredictable(uf > coverage, 1 << (31 - coverage.max(1).leading_zeros()), uf)
    }

    /// Stable 64-bit hash (FNV-1a over the raw values), used to seed the
    /// deterministic per-setting perturbations of the GPU model.
    pub fn stable_hash(&self) -> u64 {
        crate::hash::fnv1a(self.0.iter().flat_map(|v| v.to_le_bytes()))
    }
}

impl std::fmt::Display for Setting {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for p in ParamId::ALL {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{}={}", p.name(), self.get(p))?;
            first = false;
        }
        Ok(())
    }
}

impl std::str::FromStr for Setting {
    type Err = String;

    /// Parse the [`Display`](std::fmt::Display) rendering back into a
    /// setting: whitespace-separated `name=value` pairs. Every parameter
    /// must appear exactly once (the knowledge base round-trips archived
    /// settings through this format, so a silently-defaulted parameter
    /// would corrupt training records).
    fn from_str(text: &str) -> Result<Self, Self::Err> {
        let mut values = [0u32; N_PARAMS];
        let mut seen = [false; N_PARAMS];
        for pair in text.split_whitespace() {
            let (name, value) =
                pair.split_once('=').ok_or_else(|| format!("expected name=value, got '{pair}'"))?;
            let p = ParamId::ALL
                .iter()
                .find(|p| p.name() == name)
                .ok_or_else(|| format!("unknown parameter '{name}'"))?;
            if seen[p.index()] {
                return Err(format!("duplicate parameter '{name}'"));
            }
            seen[p.index()] = true;
            values[p.index()] =
                value.parse::<u32>().map_err(|_| format!("bad value '{value}' for '{name}'"))?;
        }
        if let Some(p) = ParamId::ALL.iter().find(|p| !seen[p.index()]) {
            return Err(format!("missing parameter '{}'", p.name()));
        }
        Ok(Setting(values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_accessors() {
        let s = Setting::baseline();
        assert_eq!(s.tb(), [32, 4, 1]);
        assert_eq!(s.tb_size(), 128);
        assert!(!s.use_shared());
        assert!(!s.use_streaming());
    }

    #[test]
    fn with_creates_modified_copy() {
        let s = Setting::baseline();
        let t = s.with(ParamId::UseShared, 2).with(ParamId::UFx, 4);
        assert!(!s.use_shared());
        assert!(t.use_shared());
        assert_eq!(t.uf(), [4, 1, 1]);
    }

    #[test]
    fn sd_axis_is_zero_based() {
        let s = Setting::baseline().with(ParamId::SD, 3);
        assert_eq!(s.sd_axis(), 2);
    }

    #[test]
    fn features_log2_numeric_passthrough_bool() {
        let s = Setting::baseline().with(ParamId::UFx, 8).with(ParamId::UseShared, 2);
        let f = s.features();
        assert_eq!(f[ParamId::UFx.index()], 3.0);
        assert_eq!(f[ParamId::UseShared.index()], 2.0);
        assert_eq!(f[ParamId::TBx.index()], 5.0); // log2(32)
    }

    #[test]
    fn display_parse_round_trips() {
        let s = Setting::baseline()
            .with(ParamId::UseShared, 2)
            .with(ParamId::UFx, 4)
            .with(ParamId::SD, 2);
        let back: Setting = s.to_string().parse().unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn parse_rejects_malformed_text() {
        assert!("".parse::<Setting>().unwrap_err().contains("missing parameter"));
        assert!("TB_x=32".parse::<Setting>().unwrap_err().contains("missing parameter"));
        assert!("bogus=1".parse::<Setting>().unwrap_err().contains("unknown parameter"));
        assert!("TB_x".parse::<Setting>().unwrap_err().contains("name=value"));
        assert!("TB_x=huge".parse::<Setting>().unwrap_err().contains("bad value"));
        let doubled = format!("{} TB_x=32", Setting::baseline());
        assert!(doubled.parse::<Setting>().unwrap_err().contains("duplicate"));
    }

    #[test]
    fn stable_hash_distinguishes_settings() {
        let a = Setting::baseline();
        let b = a.with(ParamId::UFy, 2);
        assert_ne!(a.stable_hash(), b.stable_hash());
        assert_eq!(a.stable_hash(), Setting::baseline().stable_hash());
    }
}
