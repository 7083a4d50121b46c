//! Binary-encoded genomes over re-indexed value ranges.

use rand::Rng;

/// One candidate solution: a vector of gene values, `genes[d] <
/// cards[d]`, with its evaluated fitness (higher is better;
/// `f64::NEG_INFINITY` before evaluation).
#[derive(Debug, Clone, PartialEq)]
pub struct Individual {
    /// Gene values (indices into per-dimension value sets).
    pub genes: Vec<u32>,
    /// Fitness; maximized by the GA.
    pub fitness: f64,
}

impl Individual {
    /// An unevaluated individual.
    pub fn new(genes: Vec<u32>) -> Self {
        Individual { genes, fitness: f64::NEG_INFINITY }
    }
}

/// The genome layout: cardinality (number of valid values) per gene, plus
/// the derived bit width used for mutation.
#[derive(Debug, Clone, PartialEq)]
pub struct Genome {
    cards: Vec<u32>,
    bits: Vec<u32>,
}

impl Genome {
    /// Build a layout from per-gene cardinalities.
    ///
    /// # Panics
    /// Panics if any cardinality is zero or the list is empty.
    pub fn new(cards: Vec<u32>) -> Self {
        assert!(!cards.is_empty(), "a genome needs at least one gene");
        assert!(cards.iter().all(|&c| c > 0), "gene cardinality must be positive");
        let bits =
            cards.iter().map(|&c| 32 - (c - 1).leading_zeros().min(31)).map(|b| b.max(1)).collect();
        Genome { cards, bits }
    }

    /// Number of genes.
    pub fn len(&self) -> usize {
        self.cards.len()
    }

    /// Whether the genome is empty (never true once constructed).
    pub fn is_empty(&self) -> bool {
        self.cards.is_empty()
    }

    /// Cardinality of gene `d`.
    pub fn card(&self, d: usize) -> u32 {
        self.cards[d]
    }

    /// Draw a uniform random individual.
    pub fn random(&self, rng: &mut impl Rng) -> Individual {
        Individual::new(self.cards.iter().map(|&c| rng.gen_range(0..c)).collect())
    }

    /// Uniform gene-level crossover: each gene copied from a random parent.
    pub fn crossover(&self, a: &Individual, b: &Individual, rng: &mut impl Rng) -> Individual {
        let genes = a
            .genes
            .iter()
            .zip(&b.genes)
            .map(|(&ga, &gb)| if rng.gen_bool(0.5) { ga } else { gb })
            .collect();
        Individual::new(genes)
    }

    /// Bit-flip mutation: every bit of every gene flips with probability
    /// `rate`; a mutated value outside the gene's range is re-drawn
    /// uniformly (the paper's re-indexing keeps ranges compact precisely to
    /// make this rare).
    pub fn mutate(&self, ind: &mut Individual, rate: f64, rng: &mut impl Rng) {
        for (d, g) in ind.genes.iter_mut().enumerate() {
            let mut v = *g;
            let mut changed = false;
            for bit in 0..self.bits[d] {
                if rng.gen_bool(rate) {
                    v ^= 1 << bit;
                    changed = true;
                }
            }
            if changed {
                if v >= self.cards[d] {
                    v = rng.gen_range(0..self.cards[d]);
                }
                *g = v;
                ind.fitness = f64::NEG_INFINITY;
            }
        }
    }

    /// Validate an individual against the layout.
    pub fn in_range(&self, ind: &Individual) -> bool {
        ind.genes.len() == self.cards.len()
            && ind.genes.iter().zip(&self.cards).all(|(&g, &c)| g < c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bit_widths_cover_ranges() {
        let g = Genome::new(vec![1, 2, 3, 8, 9, 1024]);
        // card 1 → at least 1 bit; card 3 → 2 bits; card 9 → 4 bits.
        assert_eq!(g.bits, vec![1, 1, 2, 3, 4, 10]);
    }

    #[test]
    fn random_individuals_in_range() {
        let g = Genome::new(vec![5, 1, 17]);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert!(g.in_range(&g.random(&mut rng)));
        }
    }

    #[test]
    fn crossover_takes_genes_from_parents() {
        let g = Genome::new(vec![10; 6]);
        let a = Individual::new(vec![0; 6]);
        let b = Individual::new(vec![9; 6]);
        let mut rng = StdRng::seed_from_u64(2);
        let c = g.crossover(&a, &b, &mut rng);
        assert!(c.genes.iter().all(|&v| v == 0 || v == 9));
        // With 6 genes the child almost surely mixes both parents.
        let mixed = (0..50).any(|_| {
            let c = g.crossover(&a, &b, &mut rng);
            c.genes.contains(&0) && c.genes.contains(&9)
        });
        assert!(mixed);
    }

    #[test]
    fn mutation_keeps_individuals_valid_and_resets_fitness() {
        let g = Genome::new(vec![3, 5, 6]);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let mut ind = g.random(&mut rng);
            ind.fitness = 1.0;
            g.mutate(&mut ind, 0.5, &mut rng);
            assert!(g.in_range(&ind));
        }
    }

    #[test]
    fn zero_rate_never_mutates() {
        let g = Genome::new(vec![8, 8]);
        let mut rng = StdRng::seed_from_u64(4);
        let mut ind = Individual::new(vec![3, 5]);
        ind.fitness = 2.0;
        g.mutate(&mut ind, 0.0, &mut rng);
        assert_eq!(ind.genes, vec![3, 5]);
        assert_eq!(ind.fitness, 2.0);
    }

    #[test]
    #[should_panic(expected = "cardinality must be positive")]
    fn zero_card_panics() {
        Genome::new(vec![4, 0]);
    }
}
