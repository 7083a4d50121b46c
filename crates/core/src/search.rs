//! Evolutionary search with approximation (§IV-E).
//!
//! The genetic algorithm runs over one gene per parameter group, each gene
//! indexing the group's re-indexed sampled combinations. Iterative
//! auto-tuning proceeds group by group: groups whose sampled set is no
//! larger than the GA population are resolved by exhaustive search first
//! (the paper's degeneration rule), then the GA evolves the remaining
//! genes; whenever the coefficient of variation of the top-n fitness drops
//! below the threshold, the current group's gene is frozen to the best
//! individual's value and the search narrows to the next group — the
//! approximation that removes the hand-tuned iteration count.

use crate::asktell::Recorder;
use crate::evaluator::Evaluator;
use crate::pipeline::CurvePoint;
use crate::sampling::SampledSpace;
use cst_ga::{GaConfig, GaState, Genome, IslandGa};
use cst_space::Setting;
use cst_stats::coefficient_of_variation;
use cst_telemetry::{event, Telemetry};

/// Fraction of the remaining time budget granted to the joint GA phase
/// before the iterative per-group refinement takes over.
const GA_BUDGET_SHARE: f64 = 0.2;

/// Group cardinality above which the refinement sweep adds a nominee
/// screened by the island GA over the tuner's own PMNF models.
const SCREEN_CARD_MIN: u32 = 512;

/// Search stage configuration.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Genetic algorithm options (§V-A defaults).
    pub ga: GaConfig,
    /// `n` of the CV(top-n) approximation test.
    pub top_n: usize,
    /// CV threshold under which the current group is considered converged.
    pub cv_threshold: f64,
    /// Hard iteration cap (one iteration ≈ one population of evaluations).
    pub max_iterations: u32,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            ga: GaConfig::default(),
            top_n: 10,
            cv_threshold: 0.05,
            max_iterations: u32::MAX,
        }
    }
}

/// Outcome of the evolutionary search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Best setting found.
    pub best_setting: Setting,
    /// Its measured time in milliseconds.
    pub best_ms: f64,
    /// Convergence curve: best-so-far after each iteration.
    pub curve: Vec<CurvePoint>,
    /// Iterations executed.
    pub iterations: u32,
}

/// Run the evolutionary search over a sampled space.
pub fn evolutionary_search(
    eval: &mut dyn Evaluator,
    sampled: &SampledSpace,
    cfg: &SearchConfig,
    seed: u64,
    tel: &Telemetry,
) -> SearchResult {
    let cards = sampled.cards();
    let pop_total = cfg.ga.n_islands * cfg.ga.pop_per_island;
    // Iteration accounting matches the paper's §V-A2 convention: one
    // iteration is one GA generation (≈ one population of evaluations);
    // the exhaustive pre-pass and the refinement batch their evaluations
    // by population size.
    let mut rec = Recorder::new(pop_total, cfg.max_iterations).with_telemetry(tel);

    // Seed the incumbent and the untuned default configuration — a tuner
    // must never report a setting worse than what the user started with.
    measure_valid(&mut rec, eval, sampled.base);
    let mut default = Setting::baseline();
    default.canonicalize();
    if eval.is_valid(&default) {
        measure_valid(&mut rec, eval, default);
    }

    let base_genes = sampled.base_genes().unwrap_or_else(|| vec![0; cards.len()]);
    let order = sampled.group_order();
    let mut best_genes = base_genes.clone();

    // Degeneration rule (§IV-E): a sampled space that fits inside one
    // population is searched exhaustively — the GA has nothing to evolve.
    if sampled.size() <= pop_total as u64 {
        let mut idx = vec![0u32; cards.len()];
        'exh: loop {
            if rec.done(eval) {
                break;
            }
            let t = measure_valid(&mut rec, eval, sampled.decode(&idx));
            if t <= rec.best_ms() {
                best_genes = idx.clone();
            }
            // Odometer step; wrapping the first digit ends the enumeration.
            let mut d = cards.len();
            loop {
                if d == 0 {
                    break 'exh;
                }
                d -= 1;
                idx[d] += 1;
                if idx[d] < cards[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
    } else if !rec.done(eval) {
        // Genetic search over all group genes jointly; the approximation
        // pins groups one by one in impact order as the population's
        // CV(top-n) converges.
        let open_groups: Vec<usize> = order.clone();
        let genome = Genome::new(cards.clone());
        let mut state = GaState::new(genome, cfg.ga, seed);
        state.set_telemetry(tel);
        // Seed with the incumbent so the GA starts from a known-good point.
        state.seed_with(std::slice::from_ref(&base_genes));
        // Approximation cursor: the next open group to pin.
        let mut cursor = 0usize;
        let mut stalled = 0u32;
        // Budget split: cap the joint-exploration phase so the iterative
        // per-group refinement below always gets the majority of the
        // budget — it is what converges reliably once the GA has located a
        // good basin.
        let ga_start_s = eval.clock().now_s();
        let ga_budget_s = GA_BUDGET_SHARE * eval.clock().remaining_s();
        // With an unbounded clock (iso-iteration runs) the generation cap
        // bounds the phase instead: half the iteration budget, with a
        // fallback of 64 generations when that too is unbounded.
        let ga_iter_cap = match cfg.max_iterations {
            u32::MAX => rec.iterations().saturating_add(64),
            cap => rec.iterations() + (cap - rec.iterations()) / 2,
        };
        while cursor < open_groups.len()
            && !rec.done(eval)
            && rec.iterations() < ga_iter_cap
            && (ga_budget_s.is_infinite() || eval.clock().now_s() - ga_start_s < ga_budget_s)
        {
            let uniques_before = eval.unique_evaluations();
            // Measurements commit in island-major order.
            state.step(&mut |g: &[u32]| -measure_valid(&mut rec, eval, sampled.decode(g)));
            // One generation = one iteration, even if the population only
            // re-visited memoized settings (cached results are free on
            // real hardware too).
            rec.close_iteration(eval);
            // A population that bred no unevaluated setting has converged
            // in practice; stalling twice force-pins the cursor group so
            // the search narrows instead of spinning.
            if eval.unique_evaluations() == uniques_before {
                stalled += 1;
            } else {
                stalled = 0;
            }
            // CV(top-n) over the current population's times.
            let top: Vec<f64> = state.top_n_fitness(cfg.top_n).iter().map(|f| -f).collect();
            let converged = top.len() >= cfg.top_n.min(pop_total)
                && coefficient_of_variation(&top) < cfg.cv_threshold;
            if converged || stalled >= 2 {
                let g = open_groups[cursor];
                let pin = state.best().map(|b| b.genes[g]).unwrap_or(base_genes[g]);
                state.freeze(g, pin);
                event!(
                    tel,
                    "group_pinned",
                    group = g,
                    iteration = rec.iterations(),
                    v_s = eval.clock().now_s()
                );
                cursor += 1;
                stalled = 0;
            }
        }
        if let Some(b) = state.best() {
            if b.fitness.is_finite() {
                best_genes = b.genes.clone();
            }
        }
    }

    // Iterative refinement rounds (§IV-E "performs iterative auto-tuning"):
    // with budget left after the first pass, re-sweep the groups around the
    // incumbent until a coordinate-descent fixed point. Re-evaluations of
    // memoized settings are free, so each round only pays for genuinely new
    // combinations unlocked by the updated context.
    if !rec.done(eval) {
        let mut current = best_genes;
        let mut rounds = 0;
        loop {
            let mut improved = false;
            for &k in &order {
                if rec.done(eval) {
                    break;
                }
                // Candidate gene values for this group: the incumbent
                // first, then a stride sample when the group is large
                // (the stride rotates with the round index, so successive
                // rounds cover different residues), plus — for very large
                // groups — a nominee screened by the island GA over the
                // tuner's own PMNF prediction (no simulator access, so
                // screening is free; only the nominee's *measurement*
                // below touches the clock).
                let card = cards[k];
                let stride = (card / 256).max(1);
                let mut cand: Vec<u32> = vec![current[k]];
                let mut g = (rounds as u32) % stride;
                while g < card {
                    if g != current[k] {
                        cand.push(g);
                    }
                    g += stride;
                }
                if card >= SCREEN_CARD_MIN {
                    let nominee = screen_group(sampled, &cards, &current, k, seed);
                    if !cand.contains(&nominee) {
                        cand.push(nominee);
                    }
                }
                let mut genes = current.clone();
                let mut best_g = current[k];
                let mut best_t = measure_valid(&mut rec, eval, sampled.decode(&genes));
                for &g in &cand[1..] {
                    if rec.done(eval) {
                        break;
                    }
                    genes[k] = g;
                    let t = measure_valid(&mut rec, eval, sampled.decode(&genes));
                    if t < best_t {
                        best_t = t;
                        best_g = g;
                    }
                }
                if best_g != current[k] {
                    current[k] = best_g;
                    improved = true;
                }
            }
            rounds += 1;
            if !improved || rounds >= 8 || rec.done(eval) {
                break;
            }
        }
    }

    rec.flush(eval);
    SearchResult {
        best_setting: rec.best_setting().unwrap_or(sampled.base),
        best_ms: rec.best_ms(),
        iterations: rec.iterations(),
        curve: rec.into_curve(),
    }
}

/// Measure a setting through the recorder. Invalid settings are never
/// evaluated: they charge nothing and count as the worst possible time.
fn measure_valid(rec: &mut Recorder, eval: &mut dyn Evaluator, s: Setting) -> f64 {
    if eval.is_valid(&s) {
        rec.measure(eval, s)
    } else {
        f64::INFINITY
    }
}

/// Nominate a gene value for group `k` by running the island GA over the
/// tuner's own predicted-slowness score, every other gene frozen to the
/// incumbent context. The fitness is a pure function of the genes (a PMNF
/// prediction — no simulator, no clock, no noise). Only the nominee's
/// subsequent measurement is charged to the tuning clock.
fn screen_group(
    sampled: &SampledSpace,
    cards: &[u32],
    current: &[u32],
    k: usize,
    seed: u64,
) -> u32 {
    let genome = Genome::new(cards.to_vec());
    let frozen: Vec<(usize, u32)> =
        current.iter().enumerate().filter(|&(d, _)| d != k).map(|(d, &v)| (d, v)).collect();
    let ga = IslandGa::new(genome, GaConfig::default())
        .with_seeds(&[current.to_vec()])
        .with_frozen(&frozen);
    let fitness = |genes: &[u32]| -sampled.predicted_slowness(&sampled.decode(genes));
    let sub_seed = seed ^ 0x9e37_79b9_7f4a_7c15 ^ (k as u64);
    ga.run_serial(6, sub_seed, fitness).best.genes[k]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::PerfDataset;
    use crate::evaluator::SimEvaluator;
    use crate::grouping::group_from_dataset;
    use crate::metric_comb::{combine_metrics, select_representatives};
    use crate::sampling::{sample_space, SamplingConfig};
    use cst_gpu_sim::GpuArch;
    use cst_stencil::suite;

    fn setup(name: &str, seed: u64, budget: Option<f64>) -> (SampledSpace, SimEvaluator) {
        let spec = suite::spec_by_name(name).unwrap();
        let mut e = match budget {
            Some(b) => SimEvaluator::with_budget(spec, GpuArch::a100(), seed, b),
            None => SimEvaluator::new(spec, GpuArch::a100(), seed),
        };
        let ds = PerfDataset::collect(&mut e, 48, seed);
        let groups = group_from_dataset(&ds);
        let reps = select_representatives(&ds, &combine_metrics(&ds, 4));
        let sampled =
            sample_space(&ds, &groups, &reps, &e, &SamplingConfig::default(), &Telemetry::noop());
        (sampled, e)
    }

    #[test]
    fn search_improves_on_dataset_best() {
        let (sampled, mut e) = setup("j3d7pt", 5, None);
        let incumbent = e.sim().kernel_time_ms(&sampled.base);
        let cfg = SearchConfig { max_iterations: 30, ..Default::default() };
        let r = evolutionary_search(&mut e, &sampled, &cfg, 5, &Telemetry::noop());
        assert!(r.best_ms.is_finite());
        assert!(r.best_ms <= incumbent * 1.05, "{} vs incumbent {}", r.best_ms, incumbent);
        assert!(!r.curve.is_empty());
    }

    #[test]
    fn curve_is_monotone_nonincreasing() {
        let (sampled, mut e) = setup("cheby", 7, None);
        let cfg = SearchConfig { max_iterations: 20, ..Default::default() };
        let r = evolutionary_search(&mut e, &sampled, &cfg, 7, &Telemetry::noop());
        for w in r.curve.windows(2) {
            assert!(w[1].best_ms <= w[0].best_ms);
            assert!(w[1].elapsed_s >= w[0].elapsed_s);
            assert!(w[1].iteration > w[0].iteration);
        }
    }

    #[test]
    fn iso_time_budget_is_respected() {
        let (sampled, mut e) = setup("hypterm", 9, Some(40.0));
        let cfg = SearchConfig::default();
        let r = evolutionary_search(&mut e, &sampled, &cfg, 9, &Telemetry::noop());
        // The clock may overshoot by at most one evaluation's cost.
        assert!(e.clock().now_s() < 40.0 + 10.0, "clock {}", e.clock().now_s());
        assert!(r.best_ms.is_finite());
    }

    #[test]
    fn iteration_cap_is_respected() {
        let (sampled, mut e) = setup("j3d27pt", 11, None);
        let cfg = SearchConfig { max_iterations: 5, ..Default::default() };
        let r = evolutionary_search(&mut e, &sampled, &cfg, 11, &Telemetry::noop());
        assert!(r.iterations <= 6, "iterations {}", r.iterations);
    }

    #[test]
    fn best_setting_is_valid_and_matches_best_ms() {
        let (sampled, mut e) = setup("addsgd4", 13, None);
        let cfg = SearchConfig { max_iterations: 15, ..Default::default() };
        let r = evolutionary_search(&mut e, &sampled, &cfg, 13, &Telemetry::noop());
        assert!(e.is_valid(&r.best_setting));
        // Re-evaluating the best setting reproduces the memoized time.
        assert_eq!(e.evaluate(&r.best_setting), r.best_ms);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let (sampled, mut e) = setup("helmholtz", seed, None);
            let cfg = SearchConfig { max_iterations: 10, ..Default::default() };
            evolutionary_search(&mut e, &sampled, &cfg, seed, &Telemetry::noop()).best_ms
        };
        assert_eq!(run(21), run(21));
    }
}
