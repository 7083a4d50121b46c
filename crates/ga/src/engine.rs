//! The island engine: neighborhood breeding and ring migration.

use crate::genome::{Genome, Individual};
use cst_telemetry::{event, Counter, Telemetry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Genetic algorithm options, defaulting to the paper's §V-A values:
/// 2 sub-populations of 16 individuals, crossover 0.8, mutation 0.005.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaConfig {
    /// Number of islands (sub-populations).
    pub n_islands: usize,
    /// Individuals per island.
    pub pop_per_island: usize,
    /// Probability a child is bred by crossover (otherwise the fitter
    /// parent is cloned).
    pub crossover_rate: f64,
    /// Per-bit mutation probability.
    pub mutation_rate: f64,
    /// Generations between ring migrations.
    pub migration_interval: u32,
    /// Individuals exchanged per migration per island.
    pub migration_count: usize,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            n_islands: 2,
            pop_per_island: 16,
            crossover_rate: 0.8,
            mutation_rate: 0.005,
            migration_interval: 2,
            migration_count: 1,
        }
    }
}

#[derive(Debug, Clone)]
struct Island {
    pop: Vec<Individual>,
    rng: StdRng,
}

/// Stepping GA state: the caller drives generations and supplies fitness.
#[derive(Debug, Clone)]
pub struct GaState {
    genome: Genome,
    cfg: GaConfig,
    islands: Vec<Island>,
    generation: u32,
    evaluations: u64,
    best: Option<Individual>,
    frozen: Vec<Option<u32>>,
    tel: Telemetry,
}

/// Result summary of a GA run.
#[derive(Debug, Clone, PartialEq)]
pub struct GaSummary {
    /// Best individual found.
    pub best: Individual,
    /// Generations executed.
    pub generations: u32,
    /// Fitness evaluations performed.
    pub evaluations: u64,
}

impl GaState {
    /// Initialize random islands (individuals unevaluated until the first
    /// [`GaState::step`]).
    pub fn new(genome: Genome, cfg: GaConfig, seed: u64) -> Self {
        assert!(cfg.n_islands >= 1 && cfg.pop_per_island >= 4, "population too small");
        let mut seeder = StdRng::seed_from_u64(seed);
        let islands = (0..cfg.n_islands)
            .map(|_| {
                let mut rng = StdRng::seed_from_u64(seeder.gen());
                let pop = (0..cfg.pop_per_island).map(|_| genome.random(&mut rng)).collect();
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
    /// across islands. Call before the first [`GaState::step`].
    ///
    /// # Panics
    /// Panics if any genome is out of range for the layout.
    pub fn seed_with(&mut self, genomes: &[Vec<u32>]) {
        let n_islands = self.islands.len();
        let pop = self.cfg.pop_per_island;
        for (i, genes) in genomes.iter().take(n_islands * pop).enumerate() {
            let ind = Individual::new(genes.clone());
            assert!(self.genome.in_range(&ind), "seed genome out of range");
            self.islands[i % n_islands].pop[i / n_islands] = ind;
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

    /// Best individual seen so far (after at least one step).
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

    /// Advance one generation: evaluate any unevaluated individuals, breed
    /// the next population island by island, then migrate around the ring
    /// every `migration_interval` generations.
    ///
    /// `eval` maps genes to fitness (higher is better; return
    /// `f64::NEG_INFINITY` for infeasible candidates).
    pub fn step(&mut self, eval: &mut impl FnMut(&[u32]) -> f64) {
        self.eval_pending(eval);
        self.breed();
        // Evaluate the new generation immediately so callers observe a
        // consistent population after each step.
        self.eval_pending(eval);
        self.finish_generation();
    }

    /// Genes of every individual currently lacking a finite fitness, in
    /// canonical island-major order — exactly the batch the next
    /// [`GaState::assign_pending`] call must cover. Together with
    /// [`GaState::breed_generation`] and [`GaState::finish_generation`]
    /// this is the resumable (ask/tell-style) form of
    /// [`GaState::step`]: one step is `pending → assign → breed →
    /// pending → assign → finish`, and an external driver interleaving
    /// its own bookkeeping between those calls reproduces the closed-loop
    /// step bit for bit.
    pub fn pending_genes(&self) -> Vec<Vec<u32>> {
        self.islands
            .iter()
            .flat_map(|isl| isl.pop.iter())
            .filter(|ind| !ind.fitness.is_finite())
            .map(|ind| ind.genes.clone())
            .collect()
    }

    /// Assign fitnesses to the pending individuals (island-major order,
    /// lining up with [`GaState::pending_genes`]) and refresh the
    /// best-so-far over the *whole* population using the serial driver's
    /// first-encounter tie rule. Call with an empty slice when there is
    /// nothing pending — the best-so-far refresh still runs, as it does
    /// on the closed-loop path.
    ///
    /// # Panics
    /// Panics when `fits` does not line up with the pending batch.
    pub fn assign_pending(&mut self, fits: &[f64]) {
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

    /// Breed the next generation (the public split-phase form of the
    /// middle of [`GaState::step`]). New children carry
    /// `NEG_INFINITY` fitness, so they appear in the next
    /// [`GaState::pending_genes`] batch.
    pub fn breed_generation(&mut self) {
        self.breed();
    }

    /// Close out a generation after its post-breed fitness assignment:
    /// bump the generation counter, run ring migration on schedule, and
    /// emit the `ga_gen` telemetry record.
    pub fn finish_generation(&mut self) {
        self.generation += 1;
        // Migrate best individuals around the single ring.
        if self.cfg.n_islands > 1 && self.generation.is_multiple_of(self.cfg.migration_interval) {
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

    /// Evaluate every individual without finite fitness, in island-major
    /// order, and refresh the best-so-far over the whole population using
    /// the first-encounter tie rule.
    fn eval_pending(&mut self, eval: &mut impl FnMut(&[u32]) -> f64) {
        let fits: Vec<f64> = self.pending_genes().iter().map(|g| eval(g)).collect();
        self.assign_pending(&fits);
    }

    /// Breed the next population island by island: elitism, neighborhood
    /// parent selection, crossover-or-clone, mutation, frozen-gene pinning.
    fn breed(&mut self) {
        let cfg = self.cfg;
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
                let mut child = if isl.rng.gen_bool(cfg.crossover_rate) {
                    self.genome.crossover(&isl.pop[pa], &isl.pop[pb], &mut isl.rng)
                } else {
                    let better = if isl.pop[pa].fitness >= isl.pop[pb].fitness { pa } else { pb };
                    Individual::new(isl.pop[better].genes.clone())
                };
                self.genome.mutate(&mut child, cfg.mutation_rate, &mut isl.rng);
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
        let count = self.cfg.migration_count;
        // Collect emigrants first so migration is simultaneous.
        let emigrants: Vec<Vec<Individual>> = self
            .islands
            .iter()
            .map(|isl| {
                let mut sorted: Vec<&Individual> = isl.pop.iter().collect();
                sorted.sort_by(|a, b| b.fitness.partial_cmp(&a.fitness).unwrap());
                sorted.into_iter().take(count).cloned().collect()
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

/// A self-contained island GA run: islands advance in deterministic
/// lockstep over a pure fitness function, the in-process analogue of the
/// paper's MPI deployment.
#[derive(Debug, Clone)]
pub struct IslandGa {
    genome: Genome,
    cfg: GaConfig,
    seeds: Vec<Vec<u32>>,
    frozen: Vec<(usize, u32)>,
}

impl IslandGa {
    /// Build an island GA.
    pub fn new(genome: Genome, cfg: GaConfig) -> Self {
        IslandGa { genome, cfg, seeds: Vec::new(), frozen: Vec::new() }
    }

    /// Seed the initial population with known genomes (round-robin across
    /// islands, applied before the first generation).
    pub fn with_seeds(mut self, seeds: &[Vec<u32>]) -> Self {
        self.seeds = seeds.to_vec();
        self
    }

    /// Pin genes to fixed values for the whole run (csTuner's per-group
    /// refinement: search one parameter group while the rest stay fixed).
    pub fn with_frozen(mut self, frozen: &[(usize, u32)]) -> Self {
        self.frozen = frozen.to_vec();
        self
    }

    fn build_state(&self, seed: u64) -> GaState {
        let mut state = GaState::new(self.genome.clone(), self.cfg, seed);
        if !self.seeds.is_empty() {
            state.seed_with(&self.seeds);
        }
        for &(d, v) in &self.frozen {
            state.freeze(d, v);
        }
        state
    }

    /// Run `generations` generations, evaluating one individual at a
    /// time in island-major order.
    pub fn run_serial<F>(&self, generations: u32, seed: u64, eval: F) -> GaSummary
    where
        F: Fn(&[u32]) -> f64,
    {
        let mut state = self.build_state(seed);
        for _ in 0..generations {
            state.step(&mut |g: &[u32]| eval(g));
        }
        GaSummary {
            best: state.best().cloned().expect("ran at least one generation"),
            generations,
            evaluations: state.evaluations(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let cfg_mig = GaConfig { migration_interval: 1, ..Default::default() };
        let cfg_iso = GaConfig { migration_interval: u32::MAX, ..Default::default() };
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
    fn seeded_and_frozen_runs_honor_their_constraints() {
        let optimum = vec![12u32; 6];
        let ga =
            IslandGa::new(genome(), GaConfig::default()).with_seeds(std::slice::from_ref(&optimum));
        let summary = ga.run_serial(5, 31, fitness);
        assert_eq!(summary.best.genes, optimum);

        let ga = IslandGa::new(genome(), GaConfig::default()).with_frozen(&[(0, 4), (3, 9)]);
        let mut state = ga.build_state(31);
        for _ in 0..6 {
            state.step(&mut |g: &[u32]| fitness(g));
            assert!(state.population().all(|ind| ind.genes[0] == 4 && ind.genes[3] == 9));
        }
        assert_eq!(ga.run_serial(6, 31, fitness).best.genes[0], 4);
    }

    #[test]
    fn frozen_genes_never_change() {
        let mut state = GaState::new(genome(), GaConfig::default(), 23);
        let mut eval = |g: &[u32]| fitness(g);
        state.step(&mut eval);
        state.freeze(2, 9);
        for _ in 0..10 {
            state.step(&mut eval);
            assert!(state.population().all(|ind| ind.genes[2] == 9));
        }
        assert_eq!(state.frozen()[2], Some(9));
        assert_eq!(state.frozen()[0], None);
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
}
