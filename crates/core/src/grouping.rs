//! Parameter grouping: pairwise interaction CVs and Algorithm 1.
//!
//! §IV-C quantifies how strongly two parameters interact: fix one
//! parameter `Pa` at each of its observed values, find the best-performing
//! setting in the dataset for that value, and record `Pb`'s value there.
//! The coefficient of variation (Eq. 1) of those conditional best values
//! measures how much `Pb`'s optimum moves as `Pa` changes — exactly the
//! §III-B observation that pairs whose conditional optima disagree with
//! the global optimum must be tuned *together*.
//!
//! Pairs are pushed into a deque in ascending CV order and consumed by
//! Algorithm 1: pops from the right (the highest-CV, strongest-interaction
//! pairs) create or extend groups; pops from the left (the most
//! independent pairs) only ensure their parameters end up in (singleton)
//! groups. Two existing groups are never merged ("both already grouped"
//! skips), which keeps groups small and the count data-driven.

use crate::dataset::PerfDataset;
use cst_space::{ParamId, Setting};
use cst_stats::coefficient_of_variation;
use std::collections::VecDeque;

/// A scored parameter pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairCv {
    /// The varied parameter.
    pub a: ParamId,
    /// The parameter whose conditional best values are collected.
    pub b: ParamId,
    /// CV of `b`'s conditional best values over `a`'s observed values.
    pub cv: f64,
}

/// Compute the `A_N^{N-1}` ordered-pair interaction CVs over the dataset.
///
/// The conditional best values use the log2 feature encoding (§IV-B makes
/// numeric parameters power-of-two so the log2 input is continuous), offset
/// by +1 so an all-ones conditional optimum still has a well-defined CV.
pub fn pairwise_cv(dataset: &PerfDataset) -> Vec<PairCv> {
    assert!(!dataset.is_empty(), "need a dataset");
    let mut out = Vec::with_capacity(ParamId::ALL.len() * (ParamId::ALL.len() - 1));
    for a in ParamId::ALL {
        for b in ParamId::ALL {
            if a == b {
                continue;
            }
            // For each observed value of `a`, the best record's `b` value.
            let mut values_of_a: Vec<u32> =
                dataset.records.iter().map(|r| r.setting.get(a)).collect();
            values_of_a.sort_unstable();
            values_of_a.dedup();
            let mut conditional_best = Vec::with_capacity(values_of_a.len());
            for v in values_of_a {
                let best = dataset
                    .records
                    .iter()
                    .filter(|r| r.setting.get(a) == v)
                    .min_by(|x, y| x.time_ms.partial_cmp(&y.time_ms).unwrap())
                    .expect("value observed implies a record exists");
                conditional_best.push(best.setting.features()[b.index()] + 1.0);
            }
            let cv = coefficient_of_variation(&conditional_best);
            out.push(PairCv { a, b, cv });
        }
    }
    out
}

/// Group-size cap: PMNF tooling the paper builds on (Extra-P) supports at
/// most four-parameter models, and a group's combination space is
/// enumerated by the sampler — unbounded groups would make both
/// intractable. A full group stops absorbing; the partner parameter gets
/// its own group instead.
pub const MAX_GROUP: usize = 4;

/// Algorithm 1: deque-based parameter grouping.
///
/// `pairs` may be in any order; they are sorted ascending by CV and pushed
/// left-to-right, so the right end of the deque holds the
/// strongest-interaction pairs. Parameters that never get grouped by a pop
/// are appended as singletons at the end, so the result always partitions
/// the full parameter set.
pub fn group_parameters(pairs: &[PairCv]) -> Vec<Vec<ParamId>> {
    let mut sorted = pairs.to_vec();
    sorted.sort_by(|x, y| x.cv.partial_cmp(&y.cv).unwrap_or(std::cmp::Ordering::Equal));
    let mut deque: VecDeque<PairCv> = sorted.into();
    let mut groups: Vec<Vec<ParamId>> = Vec::new();
    let contains =
        |groups: &Vec<Vec<ParamId>>, p: ParamId| groups.iter().position(|g| g.contains(&p));
    let que_size = deque.len();
    for i in 0..que_size {
        if i % 2 == 1 {
            // Pop the strongest-interaction pair remaining.
            let Some(pair) = deque.pop_back() else { break };
            let (fa, fb) = (contains(&groups, pair.a), contains(&groups, pair.b));
            match (fa, fb) {
                (None, None) => groups.push(vec![pair.a, pair.b]),
                (Some(_), Some(_)) => continue, // never merge two groups
                (Some(ga), None) => {
                    if groups[ga].len() < MAX_GROUP {
                        groups[ga].push(pair.b);
                    } else {
                        groups.push(vec![pair.b]);
                    }
                }
                (None, Some(gb)) => {
                    if groups[gb].len() < MAX_GROUP {
                        groups[gb].push(pair.a);
                    } else {
                        groups.push(vec![pair.a]);
                    }
                }
            }
        } else {
            // Pop the most-independent pair remaining: its parameters only
            // need *some* group; they get singletons.
            let Some(pair) = deque.pop_front() else { break };
            if contains(&groups, pair.a).is_none() {
                groups.push(vec![pair.a]);
            }
            if contains(&groups, pair.b).is_none() {
                groups.push(vec![pair.b]);
            }
        }
    }
    // Guarantee a partition even for degenerate inputs.
    for p in ParamId::ALL {
        if contains(&groups, p).is_none() {
            groups.push(vec![p]);
        }
    }
    groups
}

/// Convenience: run the full grouping stage on a dataset.
pub fn group_from_dataset(dataset: &PerfDataset) -> Vec<Vec<ParamId>> {
    group_parameters(&pairwise_cv(dataset))
}

/// Sanity helper for tests and the pipeline: every parameter appears in
/// exactly one group.
pub fn is_partition(groups: &[Vec<ParamId>]) -> bool {
    let mut seen = std::collections::HashSet::new();
    for g in groups {
        for p in g {
            if !seen.insert(*p) {
                return false;
            }
        }
    }
    seen.len() == ParamId::ALL.len()
}

/// Build a synthetic dataset record list for tests.
#[doc(hidden)]
pub fn synthetic_dataset(settings: Vec<(Setting, f64)>) -> PerfDataset {
    use crate::dataset::DatasetRecord;
    PerfDataset {
        records: settings
            .into_iter()
            .map(|(setting, time_ms)| DatasetRecord {
                setting,
                time_ms,
                metrics: cst_gpu_sim::MetricsReport {
                    time_ms,
                    values: [0.0; cst_gpu_sim::N_METRICS],
                },
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::PerfDataset;
    use crate::evaluator::{Evaluator, SimEvaluator};
    use cst_gpu_sim::GpuArch;
    use cst_stencil::suite;

    fn real_dataset(name: &str) -> PerfDataset {
        let mut e = SimEvaluator::new(suite::spec_by_name(name).unwrap(), GpuArch::a100(), 3);
        PerfDataset::collect(&mut e, 64, 11)
    }

    #[test]
    fn pairwise_cv_covers_all_ordered_pairs() {
        let ds = real_dataset("j3d7pt");
        let pairs = pairwise_cv(&ds);
        let n = ParamId::ALL.len();
        assert_eq!(pairs.len(), n * (n - 1));
        assert!(pairs.iter().all(|p| p.cv.is_finite() || p.cv == f64::INFINITY));
        assert!(pairs.iter().all(|p| p.cv >= 0.0));
    }

    #[test]
    fn grouping_partitions_all_parameters() {
        let ds = real_dataset("rhs4center");
        let groups = group_from_dataset(&ds);
        assert!(is_partition(&groups), "{groups:?}");
        assert!(groups.len() >= 2, "should form several groups, got {}", groups.len());
        assert!(groups.len() < ParamId::ALL.len(), "some pairs must group together");
    }

    #[test]
    fn strong_pairs_group_together() {
        // Hand-built pair list: (TBx, TBy) has a huge CV, everything else
        // tiny — Algorithm 1 must put TBx and TBy in one group.
        let mut pairs = Vec::new();
        for a in ParamId::ALL {
            for b in ParamId::ALL {
                if a == b {
                    continue;
                }
                let strong = (a == ParamId::TBx && b == ParamId::TBy)
                    || (a == ParamId::TBy && b == ParamId::TBx);
                pairs.push(PairCv { a, b, cv: if strong { 10.0 } else { 0.01 } });
            }
        }
        let groups = group_parameters(&pairs);
        assert!(is_partition(&groups));
        let g_tbx = groups.iter().find(|g| g.contains(&ParamId::TBx)).unwrap();
        assert!(g_tbx.contains(&ParamId::TBy), "{groups:?}");
    }

    #[test]
    fn groups_never_merge() {
        // Four params pairwise-strong in two disjoint pairs, then a strong
        // cross pair: the cross pair must be skipped (both grouped).
        let strong = |a, b, cv| PairCv { a, b, cv };
        let pairs = vec![
            strong(ParamId::TBx, ParamId::TBy, 9.0),
            strong(ParamId::UFx, ParamId::UFy, 8.0),
            strong(ParamId::TBx, ParamId::UFx, 7.0),
        ];
        let groups = group_parameters(&pairs);
        let g_tb = groups.iter().find(|g| g.contains(&ParamId::TBx)).unwrap();
        assert!(!g_tb.contains(&ParamId::UFx), "{groups:?}");
    }

    #[test]
    fn empty_pairs_yield_singletons() {
        let groups = group_parameters(&[]);
        assert!(is_partition(&groups));
        assert_eq!(groups.len(), ParamId::ALL.len());
    }

    #[test]
    fn deterministic() {
        let ds = real_dataset("cheby");
        assert_eq!(group_from_dataset(&ds), group_from_dataset(&ds));
    }

    #[test]
    fn conditional_best_tracks_landscape() {
        // Synthetic landscape where the best UFy value flips with BMy:
        // their interaction CV must exceed that of unrelated bool params.
        let mk = |bmy: u32, ufy: u32, t: f64| {
            (Setting::baseline().with(ParamId::BMy, bmy).with(ParamId::UFy, ufy), t)
        };
        let ds = synthetic_dataset(vec![
            mk(1, 1, 10.0),
            mk(1, 8, 1.0), // BMy=1 → best UFy=8
            mk(8, 1, 1.0), // BMy=8 → best UFy=1
            mk(8, 8, 10.0),
        ]);
        let pairs = pairwise_cv(&ds);
        let cv_of = |a, b| pairs.iter().find(|p| p.a == a && p.b == b).unwrap().cv;
        assert!(
            cv_of(ParamId::BMy, ParamId::UFy) > cv_of(ParamId::UseShared, ParamId::UseConstant),
            "interacting pair must outrank constant pair"
        );
    }

    #[test]
    fn dataset_collection_does_not_touch_clock() {
        let mut e = SimEvaluator::new(suite::spec_by_name("j3d7pt").unwrap(), GpuArch::a100(), 3);
        let _ = PerfDataset::collect(&mut e, 16, 1);
        assert_eq!(e.clock().now_s(), 0.0);
    }
}
