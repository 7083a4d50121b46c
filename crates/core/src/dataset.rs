//! The performance dataset: a small offline profile of random settings.
//!
//! csTuner "randomly samples the search space and collects GPU metrics
//! using Nsight to obtain the performance dataset. [...] we only need a
//! small-scale performance dataset for grouping parameters and training
//! performance models" (§IV-A). The paper uses 128 settings per stencil
//! (§V-A2).

use crate::evaluator::Evaluator;
use cst_gpu_sim::{MetricsReport, N_METRICS};
use cst_space::Setting;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One profiled setting.
#[derive(Debug, Clone)]
pub struct DatasetRecord {
    /// The profiled setting.
    pub setting: Setting,
    /// Modeled/measured kernel time in ms.
    pub time_ms: f64,
    /// Nsight-style metric vector.
    pub metrics: MetricsReport,
}

/// The offline performance dataset.
#[derive(Debug, Clone)]
pub struct PerfDataset {
    /// Profiled records, in collection order.
    pub records: Vec<DatasetRecord>,
}

impl PerfDataset {
    /// Collect `n` distinct valid settings through the evaluator's offline
    /// profiler. Deterministic given `seed`. Not charged to the tuning
    /// clock (§V-F: metric collection happens once, offline).
    pub fn collect(eval: &mut dyn Evaluator, n: usize, seed: u64) -> Self {
        assert!(n >= 4, "a dataset needs a handful of records");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0da7_a5e7);
        let mut seen = std::collections::HashSet::with_capacity(n);
        let mut records = Vec::with_capacity(n);
        // Rejection sampling over the valid space; the space is vastly
        // larger than any dataset so this terminates quickly.
        while records.len() < n {
            let mut s = eval.space().random_raw(&mut rng);
            eval.space().canonicalize(&mut s);
            if !eval.is_valid(&s) || !seen.insert(s) {
                continue;
            }
            let metrics = eval.profile_offline(&s);
            records.push(DatasetRecord { setting: s, time_ms: metrics.time_ms, metrics });
        }
        PerfDataset { records }
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The record with the lowest time (the dataset's incumbent optimum).
    pub fn best(&self) -> &DatasetRecord {
        self.records
            .iter()
            .min_by(|a, b| a.time_ms.partial_cmp(&b.time_ms).unwrap())
            .expect("dataset non-empty")
    }

    /// Raw parameter values (as `f64`) per record, the PMNF design input.
    pub fn param_values(&self) -> Vec<Vec<f64>> {
        self.records.iter().map(|r| r.setting.0.iter().map(|&v| v as f64).collect()).collect()
    }

    /// One metric's value across records.
    pub fn metric_column(&self, m: usize) -> Vec<f64> {
        assert!(m < N_METRICS);
        self.records.iter().map(|r| r.metrics.values[m]).collect()
    }

    /// Kernel times across records.
    pub fn times(&self) -> Vec<f64> {
        self.records.iter().map(|r| r.time_ms).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::SimEvaluator;
    use cst_gpu_sim::GpuArch;
    use cst_stencil::suite;

    fn collect(n: usize, seed: u64) -> PerfDataset {
        let mut e = SimEvaluator::new(suite::spec_by_name("cheby").unwrap(), GpuArch::a100(), 3);
        PerfDataset::collect(&mut e, n, seed)
    }

    #[test]
    fn collects_n_distinct_valid_records() {
        let ds = collect(32, 1);
        assert_eq!(ds.len(), 32);
        let set: std::collections::HashSet<_> = ds.records.iter().map(|r| r.setting).collect();
        assert_eq!(set.len(), 32);
        assert!(ds.records.iter().all(|r| r.time_ms.is_finite()));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = collect(16, 7);
        let b = collect(16, 7);
        assert_eq!(
            a.records.iter().map(|r| r.setting).collect::<Vec<_>>(),
            b.records.iter().map(|r| r.setting).collect::<Vec<_>>()
        );
    }

    #[test]
    fn best_is_minimum() {
        let ds = collect(24, 2);
        let min = ds.times().iter().cloned().fold(f64::INFINITY, f64::min);
        assert_eq!(ds.best().time_ms, min);
    }

    #[test]
    fn columns_have_dataset_length() {
        let ds = collect(12, 3);
        assert_eq!(ds.metric_column(0).len(), 12);
        assert_eq!(ds.param_values().len(), 12);
        assert_eq!(ds.param_values()[0].len(), cst_space::N_PARAMS);
    }
}
