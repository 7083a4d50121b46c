//! The island engine: neighborhood breeding and ring migration.

use crate::genome::{Genome, Individual};
use cst_telemetry::{event, Counter, Telemetry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Islands (sub-populations) of the GA (the paper's §V-A: 2).
const ISLANDS: usize = 2;
/// Individuals per island (the paper's §V-A: 16).
const ISLAND_POP: usize = 16;
/// The whole population, which is also one iteration's evaluations for
/// every tuner (the paper's §V-A2 accounting).
pub const POPULATION: usize = ISLANDS * ISLAND_POP;
/// Probability a child is bred by crossover, otherwise the fitter parent
/// is cloned (the paper's §V-A: 0.8).
const CROSSOVER_RATE: f64 = 0.8;
/// Per-bit mutation probability (the paper's §V-A: 0.005).
const MUTATION_RATE: f64 = 0.005;
/// Individuals each island sends per ring migration (this tree's choice).
const MIGRATION_COUNT: usize = 1;

// Neighborhood selection draws two distinct parents among four ring
// neighbours.
const _: () = assert!(ISLANDS >= 1 && ISLAND_POP >= 4, "population too small");

/// The one GA option a run may change: the no-migration ablation turns
/// migration off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaConfig {
    /// Generations between ring migrations (this tree's default: 2).
    pub migration_interval: u32,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig { migration_interval: 2 }
    }
}

#[derive(Debug, Clone)]
struct Island {
    pop: Vec<Individual>,
    rng: StdRng,
}

/// One island GA and the one copy of its generation ledger.
///
/// A generation evaluates the pending individuals (those without a
/// finite fitness, so infeasible ones are re-evaluated), breeds, evaluates
/// the children and closes: the counter advances, islands migrate on
/// schedule and a `ga_gen` record is emitted. An empty batch still
/// refreshes the best-so-far. Callers drive it one of two ways, with
/// bit-identical results: [`GaState::step`] runs a whole generation over
/// a fitness closure, and [`GaState::ask`]/[`GaState::tell`] hand out each
/// batch and take its fitnesses back, for callers that measure in between.
#[derive(Debug, Clone)]
pub struct GaState {
    genome: Genome,
    cfg: GaConfig,
    islands: Vec<Island>,
    generation: u32,
    evaluations: u64,
    best: Option<Individual>,
    frozen: Vec<Option<u32>>,
    /// The generation's children are bred and not yet told.
    bred: bool,
    tel: Telemetry,
}

impl GaState {
    /// Initialize random islands (individuals unevaluated until the first
    /// generation).
    pub fn new(genome: Genome, cfg: GaConfig, seed: u64) -> Self {
        let mut seeder = StdRng::seed_from_u64(seed);
        let islands = (0..ISLANDS)
            .map(|_| {
                let mut rng = StdRng::seed_from_u64(seeder.gen());
                let pop = (0..ISLAND_POP).map(|_| genome.random(&mut rng)).collect();
                Island { pop, rng }
            })
            .collect();
        let frozen = vec![None; genome.len()];
        GaState {
            genome,
            cfg,
            islands,
            generation: 0,
            evaluations: 0,
            best: None,
            frozen,
            bred: false,
            tel: Telemetry::noop(),
        }
    }

    /// Attach a telemetry handle: each generation then
    /// emits a `ga_gen` record with the per-island best-fitness
    /// trajectory. Telemetry-carrying callers report fitness as negated
    /// milliseconds, so the record's `best_ms`/`island_best` fields are
    /// the negated fitnesses. The default is the noop handle.
    pub fn set_telemetry(&mut self, tel: &Telemetry) {
        self.tel = tel.clone();
    }

    /// Freeze gene `d` to `value` across the whole population: every
    /// individual's gene is overwritten, and subsequent mutation leaves it
    /// untouched. Used by csTuner's iterative per-group tuning (§IV-E):
    /// once a parameter group's CV(top-n) approximation condition holds,
    /// its genes are pinned and the search continues on the rest.
    ///
    /// # Panics
    /// Panics if `value` is out of range for the gene.
    pub fn freeze(&mut self, d: usize, value: u32) {
        assert!(value < self.genome.card(d), "frozen value out of range");
        self.frozen[d] = Some(value);
        for isl in &mut self.islands {
            for ind in &mut isl.pop {
                if ind.genes[d] != value {
                    ind.genes[d] = value;
                    ind.fitness = f64::NEG_INFINITY;
                }
            }
        }
    }

    /// Which genes are frozen, by index.
    pub fn frozen(&self) -> &[Option<u32>] {
        &self.frozen
    }

    /// Seed the initial population with known genomes (e.g. a baseline
    /// configuration and valid random samples), distributed round-robin
    /// across islands. Call before the first generation.
    ///
    /// # Panics
    /// Panics if any genome is out of range for the layout.
    pub fn seed_with(&mut self, genomes: &[Vec<u32>]) {
        for (i, genes) in genomes.iter().take(POPULATION).enumerate() {
            let ind = Individual::new(genes.clone());
            assert!(self.genome.in_range(&ind), "seed genome out of range");
            self.islands[i % ISLANDS].pop[i / ISLANDS] = ind;
        }
    }

    /// The genome layout.
    pub fn genome(&self) -> &Genome {
        &self.genome
    }

    /// Generations stepped so far.
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Total fitness evaluations requested so far.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Best individual seen so far (after the first tell).
    pub fn best(&self) -> Option<&Individual> {
        self.best.as_ref()
    }

    /// All current individuals across islands.
    pub fn population(&self) -> impl Iterator<Item = &Individual> {
        self.islands.iter().flat_map(|i| i.pop.iter())
    }

    /// Fitnesses of the top `n` current individuals, descending.
    pub fn top_n_fitness(&self, n: usize) -> Vec<f64> {
        let mut f: Vec<f64> =
            self.population().map(|i| i.fitness).filter(|f| f.is_finite()).collect();
        f.sort_by(|a, b| b.partial_cmp(a).unwrap());
        f.truncate(n);
        f
    }

    /// Advance one generation: evaluate the pending individuals, breed the
    /// next population island by island, evaluate the children, then
    /// close the generation, migrating around the ring every
    /// `migration_interval` generations.
    ///
    /// `eval` maps genes to fitness (higher is better; return
    /// `f64::NEG_INFINITY` for infeasible candidates).
    pub fn step(&mut self, eval: &mut impl FnMut(&[u32]) -> f64) {
        loop {
            let fits: Vec<f64> = self.pending_genes().iter().map(|g| eval(g)).collect();
            self.tell(&fits);
            if !self.mid_generation() {
                return;
            }
        }
    }

    /// The next batch to evaluate: the genes of every pending individual,
    /// in island-major order. Never empty: when nothing is pending before
    /// breeding, the empty batch is told here and the children are
    /// returned.
    pub fn ask(&mut self) -> Vec<Vec<u32>> {
        loop {
            let genes = self.pending_genes();
            if !genes.is_empty() {
                return genes;
            }
            self.tell(&[]);
        }
    }

    /// Take the fitnesses of the last [`GaState::ask`] batch, in its
    /// order. A generation's first tell breeds its children; its second
    /// closes it.
    ///
    /// # Panics
    /// Panics when `fits` does not line up with the pending batch.
    pub fn tell(&mut self, fits: &[f64]) {
        self.assign_pending(fits);
        if self.bred {
            self.finish_generation();
        } else {
            self.breed();
        }
    }

    /// Whether the generation is half told: its children are bred and not
    /// yet evaluated. A caller that stops on a budget keeps telling
    /// (possibly all-infeasible) batches until this is false, so the
    /// generation closes as [`GaState::step`] closes it.
    pub fn mid_generation(&self) -> bool {
        self.bred
    }

    /// Genes of every individual lacking a finite fitness, island-major.
    fn pending_genes(&self) -> Vec<Vec<u32>> {
        self.islands
            .iter()
            .flat_map(|isl| isl.pop.iter())
            .filter(|ind| !ind.fitness.is_finite())
            .map(|ind| ind.genes.clone())
            .collect()
    }

    /// Assign fitnesses to the pending individuals, lining up with
    /// `pending_genes`, and refresh the best-so-far over the
    /// whole population with the first-encounter tie rule.
    fn assign_pending(&mut self, fits: &[f64]) {
        let mut fit_iter = fits.iter().copied();
        for isl in &mut self.islands {
            for ind in &mut isl.pop {
                if !ind.fitness.is_finite() {
                    ind.fitness = fit_iter.next().expect("batch evaluator arity mismatch");
                    self.evaluations += 1;
                }
                match &self.best {
                    Some(b) if b.fitness >= ind.fitness => {}
                    _ => self.best = Some(ind.clone()),
                }
            }
        }
        assert!(fit_iter.next().is_none(), "batch evaluator arity mismatch");
    }

    /// Close the generation after its children are told: bump the
    /// counter, run ring migration on schedule, and emit `ga_gen`.
    fn finish_generation(&mut self) {
        self.bred = false;
        self.generation += 1;
        // Migrate best individuals around the single ring.
        if ISLANDS > 1 && self.generation.is_multiple_of(self.cfg.migration_interval) {
            self.migrate();
        }
        self.tel.add(Counter::GaGenerations, 1);
        if self.tel.enabled() {
            let island_best: Vec<f64> = self
                .islands
                .iter()
                .map(|isl| -isl.pop.iter().map(|i| i.fitness).fold(f64::NEG_INFINITY, f64::max))
                .collect();
            let best_ms = self.best.as_ref().map(|b| -b.fitness).unwrap_or(f64::NAN);
            event!(
                self.tel,
                "ga_gen",
                gen = self.generation,
                evaluations = self.evaluations,
                best_ms = best_ms,
                island_best = &island_best
            );
        }
    }

    /// Breed the next population island by island: elitism, neighborhood
    /// parent selection, crossover-or-clone, mutation, frozen-gene pinning.
    /// The children carry `NEG_INFINITY` fitness, so they are the next
    /// pending batch.
    fn breed(&mut self) {
        self.bred = true;
        let frozen = self.frozen.clone();
        for isl in &mut self.islands {
            let mut next = Vec::with_capacity(isl.pop.len());
            // Elitism: carry the island's best forward unchanged.
            let elite = isl
                .pop
                .iter()
                .max_by(|a, b| a.fitness.partial_cmp(&b.fitness).unwrap())
                .cloned()
                .expect("population non-empty");
            next.push(elite);
            while next.len() < isl.pop.len() {
                let slot = next.len();
                let (pa, pb) = select_parents(&isl.pop, slot, &mut isl.rng);
                let mut child = if isl.rng.gen_bool(CROSSOVER_RATE) {
                    self.genome.crossover(&isl.pop[pa], &isl.pop[pb], &mut isl.rng)
                } else {
                    let better = if isl.pop[pa].fitness >= isl.pop[pb].fitness { pa } else { pb };
                    Individual::new(isl.pop[better].genes.clone())
                };
                self.genome.mutate(&mut child, MUTATION_RATE, &mut isl.rng);
                for (d, f) in frozen.iter().enumerate() {
                    if let Some(v) = f {
                        child.genes[d] = *v;
                    }
                }
                child.fitness = f64::NEG_INFINITY;
                next.push(child);
            }
            isl.pop = next;
        }
    }

    fn migrate(&mut self) {
        let n = self.islands.len();
        // Collect emigrants first so migration is simultaneous.
        let emigrants: Vec<Vec<Individual>> = self
            .islands
            .iter()
            .map(|isl| {
                let mut sorted: Vec<&Individual> = isl.pop.iter().collect();
                sorted.sort_by(|a, b| b.fitness.partial_cmp(&a.fitness).unwrap());
                sorted.into_iter().take(MIGRATION_COUNT).cloned().collect()
            })
            .collect();
        for (k, movers) in emigrants.into_iter().enumerate() {
            let dst = (k + 1) % n;
            for m in movers {
                // Replace the destination's worst individual.
                let worst = self.islands[dst]
                    .pop
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| a.fitness.partial_cmp(&b.fitness).unwrap())
                    .map(|(i, _)| i)
                    .expect("population non-empty");
                if self.islands[dst].pop[worst].fitness < m.fitness {
                    self.islands[dst].pop[worst] = m;
                }
            }
        }
    }
}

/// Fitness-biased parent selection among the slot's four ring neighbors
/// (±1, ±2), per §IV-E: higher fitness means higher selection chance.
fn select_parents(pop: &[Individual], slot: usize, rng: &mut impl Rng) -> (usize, usize) {
    let n = pop.len();
    let hood = [(slot + n - 2) % n, (slot + n - 1) % n, (slot + 1) % n, (slot + 2) % n];
    let pick = |rng: &mut dyn rand::RngCore, exclude: Option<usize>| -> usize {
        // Weights shifted to be positive; NEG_INFINITY (unevaluated or
        // infeasible) gets epsilon weight.
        let min_fit = hood
            .iter()
            .map(|&i| pop[i].fitness)
            .filter(|f| f.is_finite())
            .fold(f64::INFINITY, f64::min);
        let base = if min_fit.is_finite() { min_fit } else { 0.0 };
        let weights: Vec<f64> = hood
            .iter()
            .map(|&i| {
                if Some(i) == exclude {
                    0.0
                } else if pop[i].fitness.is_finite() {
                    (pop[i].fitness - base).max(0.0) + 1e-6
                } else {
                    1e-9
                }
            })
            .collect();
        let total: f64 = weights.iter().sum();
        let mut t = rng.gen_range(0.0..total.max(1e-12));
        for (k, &w) in weights.iter().enumerate() {
            if t < w {
                return hood[k];
            }
            t -= w;
        }
        hood[3]
    };
    let a = pick(rng, None);
    let b = pick(rng, Some(a));
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cst_telemetry::strip_wall_fields;

    /// A deceptive multimodal fitness over 6 genes of cardinality 16:
    /// global optimum at all-12, local traps at all-3.
    fn fitness(genes: &[u32]) -> f64 {
        let near12: f64 = genes.iter().map(|&g| -((g as f64 - 12.0).abs())).sum();
        let near3: f64 = genes.iter().map(|&g| -((g as f64 - 3.0).abs())).sum();
        near12.max(near3 - 2.0)
    }

    fn genome() -> Genome {
        Genome::new(vec![16; 6])
    }

    #[test]
    fn stepping_improves_fitness() {
        let mut state = GaState::new(genome(), GaConfig::default(), 1);
        let mut eval = |g: &[u32]| fitness(g);
        state.step(&mut eval);
        let first = state.best().unwrap().fitness;
        for _ in 0..30 {
            state.step(&mut eval);
        }
        let last = state.best().unwrap().fitness;
        assert!(last >= first);
        assert!(last > -6.0, "should approach an optimum, got {last}");
    }

    #[test]
    fn finds_global_optimum_on_easy_problem() {
        let mut state = GaState::new(genome(), GaConfig::default(), 7);
        let mut eval = |g: &[u32]| -(g.iter().map(|&v| (v as f64 - 7.0).powi(2)).sum::<f64>());
        for _ in 0..60 {
            state.step(&mut eval);
        }
        let best = state.best().unwrap();
        assert!(best.fitness > -3.0, "fitness {}", best.fitness);
    }

    #[test]
    fn best_is_monotone_across_steps() {
        let mut state = GaState::new(genome(), GaConfig::default(), 5);
        let mut eval = |g: &[u32]| fitness(g);
        let mut prev = f64::NEG_INFINITY;
        for _ in 0..20 {
            state.step(&mut eval);
            let b = state.best().unwrap().fitness;
            assert!(b >= prev);
            prev = b;
        }
    }

    #[test]
    fn evaluations_are_counted() {
        let mut state = GaState::new(genome(), GaConfig::default(), 7);
        let mut eval = |g: &[u32]| fitness(g);
        state.step(&mut eval);
        // Initial 2×16 plus the bred generation minus elites (2 islands × 15).
        assert_eq!(state.evaluations(), 32 + 30);
    }

    #[test]
    fn top_n_is_sorted_descending() {
        let mut state = GaState::new(genome(), GaConfig::default(), 11);
        let mut eval = |g: &[u32]| fitness(g);
        state.step(&mut eval);
        let top = state.top_n_fitness(10);
        assert_eq!(top.len(), 10);
        assert!(top.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut s = GaState::new(genome(), GaConfig::default(), seed);
            let mut eval = |g: &[u32]| fitness(g);
            for _ in 0..10 {
                s.step(&mut eval);
            }
            s.best().unwrap().clone()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn migration_spreads_good_genes() {
        // With migration the second island benefits from the first's
        // discoveries; verify runs with migration at least match isolated
        // islands on the deceptive fitness (statistically, fixed seeds).
        let cfg_mig = GaConfig { migration_interval: 1 };
        let cfg_iso = GaConfig { migration_interval: u32::MAX };
        let score = |cfg: GaConfig| {
            let mut acc = 0.0;
            for seed in 0..8 {
                let mut s = GaState::new(genome(), cfg, seed);
                let mut eval = |g: &[u32]| fitness(g);
                for _ in 0..15 {
                    s.step(&mut eval);
                }
                acc += s.best().unwrap().fitness;
            }
            acc
        };
        assert!(score(cfg_mig) >= score(cfg_iso) - 1.0);
    }

    #[test]
    fn frozen_genes_never_change() {
        let mut eval = |g: &[u32]| fitness(g);
        // Frozen after the first generation...
        let mut late = GaState::new(genome(), GaConfig::default(), 23);
        late.step(&mut eval);
        late.freeze(2, 9);
        // ...and before it.
        let mut early = GaState::new(genome(), GaConfig::default(), 31);
        early.freeze(0, 4);
        early.freeze(3, 9);
        for _ in 0..10 {
            late.step(&mut eval);
            early.step(&mut eval);
            assert!(late.population().all(|ind| ind.genes[2] == 9));
            assert!(early.population().all(|ind| ind.genes[0] == 4 && ind.genes[3] == 9));
        }
        assert_eq!(early.best().unwrap().genes[0], 4);
        assert_eq!(late.frozen()[2], Some(9));
        assert_eq!(late.frozen()[0], None);
    }

    #[test]
    #[should_panic(expected = "frozen value out of range")]
    fn freeze_out_of_range_panics() {
        let mut state = GaState::new(genome(), GaConfig::default(), 1);
        state.freeze(0, 99);
    }

    #[test]
    fn seeded_individuals_enter_the_population() {
        let mut state = GaState::new(genome(), GaConfig::default(), 29);
        let seed_genes = vec![12u32; 6]; // the global optimum
        state.seed_with(std::slice::from_ref(&seed_genes));
        let mut eval = |g: &[u32]| fitness(g);
        state.step(&mut eval);
        // Elitism keeps the seeded optimum forever.
        assert_eq!(state.best().unwrap().genes, seed_genes);
        assert_eq!(state.best().unwrap().fitness, 0.0);
    }

    #[test]
    fn infeasible_candidates_are_avoided() {
        // Half the space returns NEG_INFINITY; the GA must still improve.
        let mut state = GaState::new(genome(), GaConfig::default(), 17);
        let mut eval = |g: &[u32]| {
            if g[0].is_multiple_of(2) {
                f64::NEG_INFINITY
            } else {
                fitness(g)
            }
        };
        for _ in 0..30 {
            state.step(&mut eval);
        }
        let best = state.best().unwrap();
        assert!(best.fitness.is_finite());
        assert_eq!(best.genes[0] % 2, 1);
    }

    #[test]
    fn ask_tell_and_step_share_one_ledger() {
        // Half the space is infeasible: pre-breed batches re-evaluate the
        // infeasible individuals, and once none is left the pre-breed
        // phase is empty and `ask` tells it itself.
        let f = |g: &[u32]| if g[0].is_multiple_of(2) { f64::NEG_INFINITY } else { fitness(g) };
        let fits = |batch: &[Vec<u32>]| batch.iter().map(|g| f(g)).collect::<Vec<f64>>();
        let build = |tel: &Telemetry| {
            let mut s = GaState::new(genome(), GaConfig::default(), 13);
            s.set_telemetry(tel);
            s.freeze(4, 5);
            s
        };
        let bits = |i: &Individual| (i.genes.clone(), i.fitness.to_bits());
        let ledger = |s: &GaState| {
            let pop: Vec<_> = s.population().map(bits).collect();
            (s.generation(), s.evaluations(), s.best().map(bits), pop)
        };
        let (tel_step, tel_ask) = (Telemetry::in_memory(), Telemetry::in_memory());
        let (mut stepped, mut asked) = (build(&tel_step), build(&tel_ask));
        let (mut reevaluated, mut empty) = (0, 0);
        for _ in 0..16 {
            stepped.step(&mut |g: &[u32]| f(g));
            let generation = asked.generation();
            assert!(!asked.mid_generation());
            let mut batch = asked.ask();
            if asked.mid_generation() {
                empty += 1;
            } else {
                if generation > 0 {
                    assert!(batch.iter().all(|g| f(g) == f64::NEG_INFINITY));
                    reevaluated += 1;
                }
                asked.tell(&fits(&batch));
                assert!(asked.mid_generation(), "the first tell leaves the generation half told");
                batch = asked.ask();
                assert!(asked.mid_generation(), "asking for the children tells nothing");
            }
            assert_eq!(asked.generation(), generation);
            asked.tell(&fits(&batch));
            assert!(!asked.mid_generation(), "the second tell closes the generation");
            assert_eq!(ledger(&asked), ledger(&stepped));
        }
        assert!(reevaluated > 0 && empty > 0, "reevaluated {reevaluated}, empty {empty}");
        let ga_gen = |tel: &Telemetry| -> Vec<String> {
            let lines = tel.lines().unwrap().into_iter();
            lines.filter(|l| l.contains("\"ga_gen\"")).map(|l| strip_wall_fields(&l)).collect()
        };
        assert_eq!(ga_gen(&tel_ask).len(), 16);
        assert_eq!(ga_gen(&tel_ask), ga_gen(&tel_step));
    }
}
