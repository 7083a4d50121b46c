//! Parameter identities and kinds (the rows of Table I).

/// Number of tuning parameters.
pub const N_PARAMS: usize = 19;

/// One tuning parameter of Table I.
///
/// The discriminant is the parameter's index into a [`crate::Setting`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(usize)]
pub enum ParamId {
    /// Thread block extent along x.
    TBx = 0,
    /// Thread block extent along y.
    TBy = 1,
    /// Thread block extent along z.
    TBz = 2,
    /// Stage tiles in shared memory (1 = off, 2 = on).
    UseShared = 3,
    /// Place coefficients in constant memory (1 = off, 2 = on).
    UseConstant = 4,
    /// Stream 2-D tiles over one dimension (1 = off, 2 = on).
    UseStreaming = 5,
    /// Streaming dimension (1 = x, 2 = y, 3 = z).
    SD = 6,
    /// Concurrent-streaming tile extent along the streaming dimension.
    SB = 7,
    /// Loop unroll factor along x.
    UFx = 8,
    /// Loop unroll factor along y.
    UFy = 9,
    /// Loop unroll factor along z.
    UFz = 10,
    /// Cyclic merging factor along x.
    CMx = 11,
    /// Cyclic merging factor along y.
    CMy = 12,
    /// Cyclic merging factor along z.
    CMz = 13,
    /// Block merging factor along x.
    BMx = 14,
    /// Block merging factor along y.
    BMy = 15,
    /// Block merging factor along z.
    BMz = 16,
    /// Retiming: decompose into accumulated sub-stencils (1 = off, 2 = on).
    UseRetiming = 17,
    /// Prefetching: overlap next-iteration loads (1 = off, 2 = on).
    UsePrefetching = 18,
}

/// Value semantics of a parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamKind {
    /// Power-of-two numeric parameter.
    Pow2,
    /// Boolean encoded as {1 = off, 2 = on}.
    Bool,
    /// Small enumeration starting at 1.
    Enum,
}

impl ParamId {
    /// All parameters in Table I order.
    pub const ALL: [ParamId; N_PARAMS] = [
        ParamId::TBx,
        ParamId::TBy,
        ParamId::TBz,
        ParamId::UseShared,
        ParamId::UseConstant,
        ParamId::UseStreaming,
        ParamId::SD,
        ParamId::SB,
        ParamId::UFx,
        ParamId::UFy,
        ParamId::UFz,
        ParamId::CMx,
        ParamId::CMy,
        ParamId::CMz,
        ParamId::BMx,
        ParamId::BMy,
        ParamId::BMz,
        ParamId::UseRetiming,
        ParamId::UsePrefetching,
    ];

    /// Index into a [`crate::Setting`].
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short display name matching the paper's notation.
    pub fn name(self) -> &'static str {
        match self {
            ParamId::TBx => "TB_x",
            ParamId::TBy => "TB_y",
            ParamId::TBz => "TB_z",
            ParamId::UseShared => "useShared",
            ParamId::UseConstant => "useConstant",
            ParamId::UseStreaming => "useStreaming",
            ParamId::SD => "SD",
            ParamId::SB => "SB",
            ParamId::UFx => "UF_x",
            ParamId::UFy => "UF_y",
            ParamId::UFz => "UF_z",
            ParamId::CMx => "CM_x",
            ParamId::CMy => "CM_y",
            ParamId::CMz => "CM_z",
            ParamId::BMx => "BM_x",
            ParamId::BMy => "BM_y",
            ParamId::BMz => "BM_z",
            ParamId::UseRetiming => "useRetiming",
            ParamId::UsePrefetching => "usePrefetching",
        }
    }

    /// Value semantics.
    pub fn kind(self) -> ParamKind {
        match self {
            ParamId::UseShared
            | ParamId::UseConstant
            | ParamId::UseStreaming
            | ParamId::UseRetiming
            | ParamId::UsePrefetching => ParamKind::Bool,
            ParamId::SD => ParamKind::Enum,
            _ => ParamKind::Pow2,
        }
    }

    /// The optimization technique this parameter belongs to (Table I
    /// "Optimization" column).
    pub fn optimization(self) -> &'static str {
        match self {
            ParamId::TBx | ParamId::TBy | ParamId::TBz => "TB Dimension",
            ParamId::UseShared => "Shared Memory",
            ParamId::UseConstant => "Constant Memory",
            ParamId::UseStreaming => "Streaming",
            ParamId::SD => "Streaming Dimension",
            ParamId::SB => "Concurrent Streaming",
            ParamId::UFx | ParamId::UFy | ParamId::UFz => "Loop Unrolling",
            ParamId::CMx | ParamId::CMy | ParamId::CMz => "Cyclic Merging",
            ParamId::BMx | ParamId::BMy | ParamId::BMz => "Block Merging",
            ParamId::UseRetiming => "Retiming",
            ParamId::UsePrefetching => "Prefetching",
        }
    }

    /// The grid dimension (0 = x, 1 = y, 2 = z) a per-dimension parameter
    /// refers to, if any.
    pub fn dimension(self) -> Option<usize> {
        match self {
            ParamId::TBx | ParamId::UFx | ParamId::CMx | ParamId::BMx => Some(0),
            ParamId::TBy | ParamId::UFy | ParamId::CMy | ParamId::BMy => Some(1),
            ParamId::TBz | ParamId::UFz | ParamId::CMz | ParamId::BMz => Some(2),
            _ => None,
        }
    }
}

impl std::fmt::Display for ParamId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_indices_roundtrip() {
        for (i, p) in ParamId::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn kinds_are_consistent_with_table_i() {
        assert_eq!(ParamId::TBx.kind(), ParamKind::Pow2);
        assert_eq!(ParamId::UseShared.kind(), ParamKind::Bool);
        assert_eq!(ParamId::SD.kind(), ParamKind::Enum);
        assert_eq!(ParamId::SB.kind(), ParamKind::Pow2);
    }

    #[test]
    fn eleven_optimizations_are_covered() {
        let mut opts: Vec<_> = ParamId::ALL.iter().map(|p| p.optimization()).collect();
        opts.sort_unstable();
        opts.dedup();
        assert_eq!(opts.len(), 11);
    }

    #[test]
    fn dimension_mapping() {
        assert_eq!(ParamId::TBy.dimension(), Some(1));
        assert_eq!(ParamId::BMz.dimension(), Some(2));
        assert_eq!(ParamId::SD.dimension(), None);
    }
}
