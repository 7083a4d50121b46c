//! The tuner zoo: one registry for every tuner the workspace ships.
//!
//! The CLI (`cstuner tune --tuner`, `cstuner version`, `cstuner list`),
//! the serve daemon's request validation, the shootout example, and the
//! testkit property suites all resolve tuners here, so adding a tuner
//! is one [`TunerEntry`] — the flag name, the display name, and the
//! constructor of its [`Optimizer`]. The display name lives only here:
//! it names the [`KernelTuner`] the entry builds, and so every outcome
//! and journal of that tuner. Every optimizer runs under the kernel's
//! one stopping rule; only csTuner, whose staged pipeline keeps its own
//! search loop, has no optimizer.

use crate::{
    ArtemisOptimizer, ForestOptimizer, GaOptimizer, GarveyOptimizer, GridOptimizer,
    RandomOptimizer, SaOptimizer,
};
use cstuner_core::{CsTuner, CsTunerConfig, KernelTuner, MakeOptimizer, Optimizer, Tuner};

/// One registered tuner.
pub struct TunerEntry {
    /// Canonical flag name (`--tuner` value, serve request `tuner` field).
    pub flag: &'static str,
    /// Display name used as [`cstuner_core::TuningOutcome::tuner`].
    pub display: &'static str,
    /// One-line description for `cstuner list` / `version`.
    pub summary: &'static str,
    /// The ask/tell strategy; `None` for csTuner.
    kernel: Option<MakeOptimizer>,
}

impl TunerEntry {
    /// Build the tuner; `quick` selects the CLI's reduced-scale csTuner
    /// configuration (other tuners are already budget-bound).
    pub fn build(&self, quick: bool) -> Box<dyn Tuner> {
        match self.kernel_tuner() {
            Some(t) => Box::new(t),
            None => Box::new(cstuner(quick)),
        }
    }

    /// The kernel tuner behind this entry, named by [`TunerEntry::display`],
    /// whose iteration cap a caller may set (`None` for csTuner).
    pub fn kernel_tuner(&self) -> Option<KernelTuner> {
        self.kernel.map(|make| KernelTuner::new(self.display, make))
    }

    /// A fresh ask/tell optimizer of this entry (`None` for csTuner). The
    /// testkit property suite uses this to probe `ask`/`tell` directly.
    pub fn optimizer(&self) -> Option<Box<dyn Optimizer>> {
        self.kernel.map(|make| make())
    }
}

fn cstuner(quick: bool) -> CsTuner {
    let cfg = if quick {
        CsTunerConfig {
            dataset_size: 48,
            max_iterations: 15,
            codegen_cap: 16,
            ..Default::default()
        }
    } else {
        CsTunerConfig::default()
    };
    CsTuner::new(cfg)
}

static TUNERS: [TunerEntry; 8] = [
    TunerEntry {
        flag: "cstuner",
        display: "csTuner",
        summary: "the paper's pipeline: grouping, PMNF sampling, approximating GA",
        kernel: None,
    },
    TunerEntry {
        flag: "garvey",
        display: "Garvey",
        summary: "forest memory-type prediction + per-dimension group search",
        kernel: Some(|| Box::new(GarveyOptimizer::default())),
    },
    TunerEntry {
        flag: "opentuner",
        display: "OpenTuner",
        summary: "global GA over the full space (via the ask/tell kernel)",
        kernel: Some(|| Box::new(GaOptimizer::default())),
    },
    TunerEntry {
        flag: "artemis",
        display: "Artemis",
        summary: "hierarchical expert tuning: high-impact first, then greedy",
        kernel: Some(|| Box::new(ArtemisOptimizer::default())),
    },
    TunerEntry {
        flag: "random",
        display: "Random",
        summary: "uniform valid sampling, the floor every tuner must beat",
        kernel: Some(|| Box::new(RandomOptimizer::default())),
    },
    TunerEntry {
        flag: "grid",
        display: "Grid",
        summary: "deterministic coarse lattice sweep, no rng at all",
        kernel: Some(|| Box::new(GridOptimizer::default())),
    },
    TunerEntry {
        flag: "anneal",
        display: "Anneal",
        summary: "single-chain simulated annealing with Metropolis accepts",
        kernel: Some(|| Box::new(SaOptimizer::default())),
    },
    TunerEntry {
        flag: "forest",
        display: "Forest",
        summary: "online random-forest surrogate pre-ranking candidates",
        kernel: Some(|| Box::new(ForestOptimizer::default())),
    },
];

/// Every registered tuner, in canonical order (csTuner first, then the
/// paper baselines, then the kernel-native strategies).
pub fn tuners() -> &'static [TunerEntry] {
    &TUNERS
}

/// Look up a tuner by its canonical flag name.
pub fn find(flag: &str) -> Option<&'static TunerEntry> {
    TUNERS.iter().find(|t| t.flag == flag)
}

/// Build a tuner by flag name (the serve/CLI entry point).
pub fn build(flag: &str, quick: bool) -> Option<Box<dyn Tuner>> {
    find(flag).map(|t| t.build(quick))
}

/// The `a|b|c` flag list used in help and error messages.
pub fn flag_list() -> String {
    TUNERS.iter().map(|t| t.flag).collect::<Vec<_>>().join("|")
}

/// Classic Levenshtein distance, for `did you mean` hints.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut prev = row[0];
        row[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = if ca == cb { prev } else { prev + 1 };
            prev = row[j + 1];
            row[j + 1] = cost.min(prev + 1).min(row[j] + 1);
        }
    }
    row[b.len()]
}

/// The candidate nearest to `input` when it is a plausible typo (edit
/// distance ≤ 2), the alphabetically first of equally near ones: the one
/// `did you mean` rule of tuner names, CLI flags and campaign keys.
pub fn nearest<'a>(input: &str, candidates: impl IntoIterator<Item = &'a str>) -> Option<&'a str> {
    candidates
        .into_iter()
        .map(|c| (edit_distance(input, c), c))
        .filter(|(d, _)| *d <= 2)
        .min()
        .map(|(_, c)| c)
}

/// The full rejection message for an unrecognized tuner name, shared by
/// the CLI and the serve request validator so both transports reject
/// identically.
pub fn unknown_tuner_message(input: &str) -> String {
    match nearest(input, TUNERS.iter().map(|t| t.flag)) {
        Some(near) => {
            format!("unknown tuner `{input}` ({}); did you mean `{near}`?", flag_list())
        }
        None => format!("unknown tuner `{input}` ({})", flag_list()),
    }
}

/// The zoo's kernel tuner behind `flag`, capped at `max_iterations`: how
/// the optimizers' unit tests build the tuner they run.
#[cfg(test)]
pub(crate) fn capped(flag: &str, max_iterations: u32) -> KernelTuner {
    let mut tuner = find(flag).and_then(TunerEntry::kernel_tuner).expect("a kernel tuner's flag");
    tuner.max_iterations = max_iterations;
    tuner
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_gpu_sim::GpuArch;
    use cst_stencil::suite;
    use cstuner_core::SimEvaluator;

    #[test]
    fn flags_are_unique_and_lowercase_of_display() {
        for t in tuners() {
            assert_eq!(tuners().iter().filter(|o| o.flag == t.flag).count(), 1);
            // The shootout writes per-tuner journals named by the
            // lowercased display name; the registry keeps that equal to
            // the flag so files and `--tuner` values line up.
            assert_eq!(t.display.to_lowercase(), t.flag, "{}", t.flag);
        }
    }

    #[test]
    fn every_tuner_completes_a_tiny_run() {
        for t in tuners() {
            let mut e = SimEvaluator::with_budget(
                suite::spec_by_name("j3d7pt").unwrap(),
                GpuArch::a100(),
                1,
                20.0,
            );
            let mut tuner = t.build(true);
            let out = tuner.tune(&mut e, 1).unwrap();
            assert!(out.best_time_ms.is_finite(), "{}", t.flag);
            assert_eq!(out.tuner, t.display, "{}", t.flag);
        }
    }

    #[test]
    fn did_you_mean_catches_typos() {
        let flags = || tuners().iter().map(|t| t.flag);
        assert_eq!(nearest("anneel", flags()), Some("anneal"));
        assert_eq!(nearest("cstunr", flags()), Some("cstuner"));
        assert_eq!(nearest("zzzzzz", flags()), None);
        // Equally near candidates: the alphabetically first wins.
        assert_eq!(nearest("ab", ["ad", "ac"]), Some("ac"));
        assert!(unknown_tuner_message("anneel").contains("did you mean `anneal`?"));
        assert!(unknown_tuner_message("zzzzzz").contains("grid|anneal|forest"));
    }
}
