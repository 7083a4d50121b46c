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

use crate::common::Recorder;
use cst_ml::Surrogate;
use cst_space::{ParamId, Setting};
use cst_telemetry::Telemetry;
use cstuner_core::{Evaluator, PerfDataset, TuneError, Tuner, TuningOutcome};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The Garvey baseline.
#[derive(Debug, Clone)]
pub struct GarveyTuner {
    /// Offline dataset size used to train the memory-type forest.
    pub dataset_size: usize,
    /// Random sampling ratio per group (§V-A2: 10%).
    pub sampling_ratio: f64,
    /// Evaluations per iteration (matched to the GA population size).
    pub pop: usize,
    /// Iteration cap.
    pub max_iterations: u32,
    /// Cap on enumerated combinations per group.
    pub enum_limit: usize,
}

impl Default for GarveyTuner {
    fn default() -> Self {
        GarveyTuner {
            dataset_size: 128,
            sampling_ratio: 0.10,
            pop: 32,
            max_iterations: u32::MAX,
            enum_limit: 8192,
        }
    }
}

/// Memory-type classes the random forest predicts: the cross product of
/// shared-memory and constant-memory usage.
fn memory_class(s: &Setting) -> usize {
    (s.use_shared() as usize) | ((s.use_constant() as usize) << 1)
}

/// Expert grouping by dimension ("we select the optimization of grouping
/// by dimension in [13]"): x/y/z parameter bundles plus the streaming
/// bundle and retiming.
fn dimension_groups() -> Vec<Vec<ParamId>> {
    vec![
        vec![ParamId::TBx, ParamId::UFx, ParamId::CMx, ParamId::BMx],
        vec![ParamId::TBy, ParamId::UFy, ParamId::CMy, ParamId::BMy],
        vec![ParamId::TBz, ParamId::UFz, ParamId::CMz, ParamId::BMz],
        vec![ParamId::UseStreaming, ParamId::SD, ParamId::SB, ParamId::UsePrefetching],
        vec![ParamId::UseRetiming],
    ]
}

impl Tuner for GarveyTuner {
    fn name(&self) -> &'static str {
        "Garvey"
    }

    fn tune(&mut self, eval: &mut dyn Evaluator, seed: u64) -> Result<TuningOutcome, TuneError> {
        self.tune_with_telemetry(eval, seed, &Telemetry::noop())
    }

    fn tune_with_telemetry(
        &mut self,
        eval: &mut dyn Evaluator,
        seed: u64,
        tel: &Telemetry,
    ) -> Result<TuningOutcome, TuneError> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6a2_7e1);
        // Offline: dataset for the memory-type forest (like csTuner's
        // dataset, not charged to the tuning clock).
        let dataset = PerfDataset::collect(eval, self.dataset_size, seed);

        // Train the shared fast/slow surrogate (q30 labeling lives in
        // cst_ml::Surrogate now), then pick the memory class with the
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

        // Iterative per-group exhaustive search over *randomly* sampled
        // group combinations.
        let mut rec = Recorder::new(self.pop, self.max_iterations).with_telemetry(tel);
        rec.measure(eval, base);
        for group in dimension_groups() {
            if rec.done(eval) {
                break;
            }
            let mut combos = eval.space().enumerate_group_repaired(&base, &group, self.enum_limit);
            combos.shuffle(&mut rng);
            let keep = ((combos.len() as f64 * self.sampling_ratio).ceil() as usize)
                .max(2)
                .min(combos.len());
            combos.truncate(keep);
            let mut best_combo: Option<Vec<u32>> = None;
            let mut best_t = f64::INFINITY;
            for combo in &combos {
                if rec.done(eval) {
                    break;
                }
                let mut s = base;
                for (&p, &v) in group.iter().zip(combo) {
                    s.set(p, v);
                }
                s.canonicalize();
                let t = rec.measure(eval, s);
                if t < best_t {
                    best_t = t;
                    best_combo = Some(combo.clone());
                }
            }
            if let Some(combo) = best_combo {
                if best_t.is_finite() {
                    for (&p, &v) in group.iter().zip(&combo) {
                        base.set(p, v);
                    }
                    base.canonicalize();
                }
            }
        }
        rec.finish(self.name(), eval)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_gpu_sim::GpuArch;
    use cst_stencil::suite;
    use cstuner_core::SimEvaluator;

    fn quick() -> GarveyTuner {
        GarveyTuner { dataset_size: 48, max_iterations: 20, ..Default::default() }
    }

    #[test]
    fn garvey_finds_reasonable_setting() {
        let mut e = SimEvaluator::new(suite::spec_by_name("j3d7pt").unwrap(), GpuArch::a100(), 7);
        let out = quick().tune(&mut e, 7).unwrap();
        assert_eq!(out.tuner, "Garvey");
        assert!(out.best_time_ms.is_finite());
        // Should at least match the dataset incumbent's ballpark.
        let baseline = e.sim().kernel_time_ms(&Setting::baseline());
        assert!(out.best_time_ms < baseline * 1.5);
    }

    #[test]
    fn dimension_groups_partition_non_memory_params() {
        let groups = dimension_groups();
        let mut all: Vec<ParamId> = groups.concat();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 17); // everything except the two memory bools
        assert!(!all.contains(&ParamId::UseShared));
        assert!(!all.contains(&ParamId::UseConstant));
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
            quick().tune(&mut e, seed).unwrap().best_time_ms
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn sampling_ratio_bounds_evaluations() {
        // Garvey's whole point: a tiny randomly-sampled subspace. At 5%
        // it must finish (space exhausted) well before a generous
        // iteration cap, with far fewer evaluations than the full group
        // spaces contain.
        let mut e = SimEvaluator::new(suite::spec_by_name("j3d7pt").unwrap(), GpuArch::a100(), 5);
        let mut t = GarveyTuner {
            dataset_size: 48,
            sampling_ratio: 0.05,
            max_iterations: 1000,
            ..Default::default()
        };
        let out = t.tune(&mut e, 5).unwrap();
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
            results.push(quick().tune(&mut e, seed).unwrap().best_time_ms);
        }
        let min = results.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = results.iter().cloned().fold(0.0f64, f64::max);
        assert!(max / min > 1.02, "suspiciously stable: {results:?}");
    }
}
