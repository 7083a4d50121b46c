//! Garvey & Abdelrahman's stencil auto-tuner (ICPP'15), re-implemented
//! per §V-A2: random-forest memory-type prediction, expert grouping by
//! dimension, 10% random sampling per group, and iterative exhaustive
//! per-group search.
//!
//! The contrast with csTuner is the point of the baseline: the grouping is
//! hand-crafted rather than data-driven (Algorithm 1), and the sampling is
//! *random* rather than PMNF-guided — which is why Garvey converges fast
//! but lands on unstable final quality (§V-B/C: "the random sampling
//! approach limits the stability of its performance", "the parameter
//! settings determined by Garvey achieve the worst performance due to the
//! low quality of the sampled search space").

use cst_ml::Surrogate;
use cst_space::{ParamId, Setting};
use cst_telemetry::Telemetry;
use cstuner_core::{Observation, Optimizer, SearchCtx};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Memory-type classes the random forest predicts: the cross product of
/// shared-memory and constant-memory usage.
fn memory_class(s: &Setting) -> usize {
    (s.use_shared() as usize) | ((s.use_constant() as usize) << 1)
}

/// Expert grouping by dimension ("we select the optimization of grouping
/// by dimension in \[13\]"): x/y/z parameter bundles plus the streaming
/// bundle and retiming.
const DIMENSION_GROUPS: [&[ParamId]; 5] = [
    &[ParamId::TBx, ParamId::UFx, ParamId::CMx, ParamId::BMx],
    &[ParamId::TBy, ParamId::UFy, ParamId::CMy, ParamId::BMy],
    &[ParamId::TBz, ParamId::UFz, ParamId::CMz, ParamId::BMz],
    &[ParamId::UseStreaming, ParamId::SD, ParamId::SB, ParamId::UsePrefetching],
    &[ParamId::UseRetiming],
];

/// Offline dataset size the memory-type forest trains on (§V-A2: 128).
const DATASET_SIZE: usize = 128;

/// Random sampling ratio per group (§V-A2: 10%).
const SAMPLING_RATIO: f64 = 0.10;

/// The Garvey baseline as an ask/tell [`Optimizer`]. `init` trains the
/// memory-type forest on the uncharged offline dataset and fixes the
/// starting setting; the first ask measures it, and every later ask is
/// one dimension group's random sample around the incumbent, searched
/// exhaustively. It takes no warm-start seeds: its starting point is the
/// forest's pick. Its asks may be invalid: fixing the memory type and
/// substituting group combinations can break the resource limits, which
/// Garvey finds out by measuring.
#[derive(Debug, Clone)]
pub struct GarveyOptimizer {
    rng: StdRng,
    /// The incumbent every group's sample is drawn around.
    base: Setting,
    /// Whether the incumbent itself has been asked.
    started: bool,
    /// Index of the next group in [`DIMENSION_GROUPS`] to search.
    next_group: usize,
}

impl Default for GarveyOptimizer {
    /// New tuner state; the dataset, forest and rng are built in `init`.
    fn default() -> Self {
        GarveyOptimizer {
            rng: StdRng::seed_from_u64(0),
            base: Setting::baseline(),
            started: false,
            next_group: 0,
        }
    }
}

impl Optimizer for GarveyOptimizer {
    fn init(&mut self, ctx: &mut SearchCtx<'_>, seed: u64, _tel: &Telemetry) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6a2_7e1);
        // Offline: dataset for the memory-type forest (like csTuner's
        // dataset, not charged to the tuning clock).
        let dataset = ctx.dataset(DATASET_SIZE, seed);

        // Train the shared fast/slow surrogate (q30 labeling lives in
        // cst_ml::Surrogate), then pick the memory class with the
        // highest predicted-fast vote.
        let times = dataset.times();
        let xs: Vec<Vec<f64>> =
            dataset.records.iter().map(|r| r.setting.features().to_vec()).collect();
        let surrogate = Surrogate::fit(&xs, &times, &mut rng).expect("dataset has records");
        let mut class_score = [0.0f64; 4];
        let mut class_n = [0usize; 4];
        for r in &dataset.records {
            let c = memory_class(&r.setting);
            class_score[c] += surrogate.score(&r.setting.features());
            class_n[c] += 1;
        }
        let best_class = (0..4)
            .filter(|&c| class_n[c] > 0)
            .max_by(|&a, &b| {
                (class_score[a] / class_n[a] as f64)
                    .partial_cmp(&(class_score[b] / class_n[b] as f64))
                    .unwrap()
            })
            .unwrap_or(0);

        // Fix the memory type; start from the dataset's best setting in
        // that class (or overall best if the class is empty there).
        let mut base = dataset
            .records
            .iter()
            .filter(|r| memory_class(&r.setting) == best_class)
            .min_by(|a, b| a.time_ms.partial_cmp(&b.time_ms).unwrap())
            .map(|r| r.setting)
            .unwrap_or(dataset.best().setting);
        base.set(ParamId::UseShared, 1 + (best_class & 1) as u32);
        base.set(ParamId::UseConstant, 1 + ((best_class >> 1) & 1) as u32);

        *self = GarveyOptimizer { rng, base, ..GarveyOptimizer::default() };
    }

    fn ask(&mut self, ctx: &mut SearchCtx<'_>) -> Vec<Setting> {
        if !self.started {
            self.started = true;
            return vec![self.base];
        }
        // Iterative per-group exhaustive search over *randomly* sampled
        // group combinations.
        while let Some(&group) = DIMENSION_GROUPS.get(self.next_group) {
            self.next_group += 1;
            let n = group.len();
            let combos = ctx.space().enumerate_group_repaired(&self.base, group);
            // Shuffling the combos' indices draws what shuffling the
            // combos would (a shuffle's draws depend only on the length)
            // and permutes them alike.
            let mut order: Vec<u32> = (0..(combos.len() / n) as u32).collect();
            order.shuffle(&mut self.rng);
            let keep =
                ((order.len() as f64 * SAMPLING_RATIO).ceil() as usize).max(2).min(order.len());
            if keep == 0 {
                continue;
            }
            return order[..keep]
                .iter()
                .map(|&i| {
                    let mut s = self.base;
                    for (&p, &v) in group.iter().zip(&combos[i as usize * n..][..n]) {
                        s.set(p, v);
                    }
                    s.canonicalize();
                    s
                })
                .collect();
        }
        Vec::new()
    }

    fn tell(&mut self, obs: &[Observation]) {
        // The incumbent moves to the first fastest finite setting told:
        // for a group's sample, that combination applied to the
        // incumbent; for the incumbent's own ask, the incumbent itself.
        let mut best_t = f64::INFINITY;
        for o in obs {
            if let Some(t) = o.time_ms {
                if t < best_t {
                    best_t = t;
                    self.base = o.setting;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_gpu_sim::GpuArch;
    use cst_space::OptSpace;
    use cst_stencil::{suite, suite_ext};
    use cstuner_core::grouping::MAX_GROUP;
    use cstuner_core::{Evaluator, KernelTuner, SimEvaluator, Tuner};
    use rand::RngCore;

    fn garvey(max_iterations: u32) -> KernelTuner {
        crate::zoo::capped("garvey", max_iterations)
    }

    #[test]
    fn garvey_finds_reasonable_setting() {
        let mut e = SimEvaluator::new(suite::spec_by_name("j3d7pt").unwrap(), GpuArch::a100(), 7);
        let out = garvey(20).tune(&mut e, 7).unwrap();
        assert_eq!(out.tuner, "Garvey");
        assert!(out.best_time_ms.is_finite());
        // Should at least match the dataset incumbent's ballpark.
        let baseline = e.sim().kernel_time_ms(&Setting::baseline());
        assert!(out.best_time_ms < baseline * 1.5);
    }

    #[test]
    fn dimension_groups_partition_non_memory_params() {
        let mut all: Vec<ParamId> = DIMENSION_GROUPS.concat();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 17); // everything except the two memory bools
        assert!(!all.contains(&ParamId::UseShared));
        assert!(!all.contains(&ParamId::UseConstant));
    }

    #[test]
    fn every_group_the_tree_forms_enumerates_within_200k_raw_steps() {
        // `enumerate_group_repaired` visits each raw combination of a
        // group at most once, skipping those below a digit that fails a
        // check, so its cartesian product bounds its steps. The groups:
        // Algorithm 1's (at most `MAX_GROUP` parameters, the flat
        // singletons included) and Garvey's dimension bundles.
        let kernels = suite::all_kernels().into_iter().chain(suite_ext::extension_kernels());
        let longest = kernels
            .flat_map(|k| {
                let space = OptSpace::for_stencil(&k.spec);
                ParamId::ALL.map(|p| space.values(p).len())
            })
            .max()
            .unwrap();
        let largest = DIMENSION_GROUPS.iter().map(|g| g.len()).fold(MAX_GROUP, usize::max);
        let raw = longest.pow(largest as u32);
        assert!(raw <= 200_000, "{largest} parameters of {longest} values: {raw} combinations");
    }

    #[test]
    fn the_index_shuffle_asks_what_the_combo_shuffle_asked() {
        for (i, name) in ["j3d7pt", "hypterm", "cheby", "addsgd6"].into_iter().enumerate() {
            let mut e = SimEvaluator::new(suite::spec_by_name(name).unwrap(), GpuArch::a100(), 1);
            let mut draws = StdRng::seed_from_u64(i as u64);
            for _ in 0..4 {
                let base = e.space().random_explicit_valid(&mut draws);
                let rng = StdRng::seed_from_u64(draws.next_u64());
                let mut reference = rng.clone();
                let mut opt = GarveyOptimizer { rng, base, started: true, next_group: 0 };
                let mut ctx = SearchCtx::new(&mut e);
                // The ask path as it was: shuffle the combos themselves,
                // keep the first 10% and apply each to the incumbent; a
                // group with no combos asks nothing, and then it is done.
                let mut expected = Vec::new();
                for group in DIMENSION_GROUPS {
                    let flat = ctx.space().enumerate_group_repaired(&base, group);
                    let mut combos: Vec<&[u32]> = flat.chunks_exact(group.len()).collect();
                    combos.shuffle(&mut reference);
                    let keep = ((combos.len() as f64 * SAMPLING_RATIO).ceil() as usize)
                        .max(2)
                        .min(combos.len());
                    combos.truncate(keep);
                    if combos.is_empty() {
                        continue;
                    }
                    let asks: Vec<Setting> = combos
                        .iter()
                        .map(|&combo| {
                            let mut s = base;
                            for (&p, &v) in group.iter().zip(combo) {
                                s.set(p, v);
                            }
                            s.canonicalize();
                            s
                        })
                        .collect();
                    expected.push(asks);
                }
                expected.push(Vec::new());
                for asks in expected {
                    assert_eq!(opt.ask(&mut ctx), asks, "{name} around {base}");
                }
                assert_eq!(opt.rng.next_u64(), reference.next_u64(), "{name} around {base}");
            }
        }
    }

    #[test]
    fn memory_class_encoding() {
        let s = Setting::baseline();
        assert_eq!(memory_class(&s), 0);
        assert_eq!(memory_class(&s.with(ParamId::UseShared, 2)), 1);
        assert_eq!(memory_class(&s.with(ParamId::UseConstant, 2)), 2);
        assert_eq!(memory_class(&s.with(ParamId::UseShared, 2).with(ParamId::UseConstant, 2)), 3);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut e =
                SimEvaluator::new(suite::spec_by_name("cheby").unwrap(), GpuArch::a100(), seed);
            garvey(20).tune(&mut e, seed).unwrap().best_time_ms
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn sampling_ratio_bounds_evaluations() {
        // Garvey's whole point: a tiny randomly-sampled subspace. At 10%
        // it must finish (space exhausted) well before a generous
        // iteration cap, with far fewer evaluations than the full group
        // spaces contain.
        let mut e = SimEvaluator::new(suite::spec_by_name("j3d7pt").unwrap(), GpuArch::a100(), 5);
        let out = garvey(1000).tune(&mut e, 5).unwrap();
        assert!(out.evaluations < 500, "evaluated {}", out.evaluations);
        assert!(out.best_time_ms.is_finite());
    }

    #[test]
    fn instability_across_seeds_exceeds_dataset_noise() {
        // §V-B: "the random sampling approach limits the stability of its
        // performance" — different seeds land on meaningfully different
        // final quality.
        let spec = suite::spec_by_name("addsgd4").unwrap();
        let mut results = Vec::new();
        for seed in 0..5 {
            let mut e = SimEvaluator::with_budget(spec.clone(), GpuArch::a100(), seed, 60.0);
            results.push(garvey(20).tune(&mut e, seed).unwrap().best_time_ms);
        }
        let min = results.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = results.iter().cloned().fold(0.0f64, f64::max);
        assert!(max / min > 1.02, "suspiciously stable: {results:?}");
    }
}
