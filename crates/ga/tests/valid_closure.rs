//! Validity closure of the genetic operators over the real tuning space.
//!
//! The search pipeline decodes GA genes into [`Setting`]s and guards every
//! measurement with the composed validity check of `valid.rs` (explicit
//! constraints + simulated resources). These properties pin the contract
//! that guard relies on:
//!
//! 1. **Range closure** — crossover and mutation of in-range parents only
//!    ever breed in-range offspring, so gene decoding can never index out
//!    of a parameter's value list.
//! 2. **Guarded evaluation** — offspring of fully *valid* parents are
//!    either valid or rejected by the guard; an invalid offspring is never
//!    evaluated (the simulator is never asked to run a setting the
//!    validity check refused).

use cst_ga::{Genome, Individual};
use cst_gpu_sim::{GpuArch, GpuSim, ValidSpace};
use cst_space::{OptSpace, Setting};
use cst_stencil::suite;
use cst_testkit::{decode_genes, genome_cards, seeded_rng, PropRunner};
use proptest::Strategy;
use rand::Rng;

fn tuning_genome(space: &OptSpace) -> Genome {
    Genome::new(genome_cards(space))
}

fn valid_space(name: &str) -> ValidSpace {
    let spec = suite::spec_by_name(name).unwrap();
    let space = OptSpace::for_stencil(&spec);
    ValidSpace::new(space, GpuSim::new(spec, GpuArch::a100()))
}

/// Encode a concrete setting as full-space genes (value-list indices).
fn encode(space: &OptSpace, s: &Setting) -> Individual {
    let genes = cst_space::ParamId::ALL
        .iter()
        .map(|&p| space.value_index(p, s.get(p)).expect("setting off the value lattice") as u32)
        .collect();
    Individual::new(genes)
}

/// Strategy yielding mutation rates across the interesting spectrum,
/// including the aggressive tail where out-of-range redraws trigger.
fn rates() -> impl Strategy<Value = f64> {
    0.0f64..0.6
}

#[test]
fn crossover_and_mutation_are_closed_over_gene_ranges() {
    let valid = valid_space("j3d7pt");
    let space = valid.space();
    let genome = tuning_genome(space);
    let mut rng = seeded_rng(11);
    PropRunner::new("range-closure").cases(200).run(&rates(), |rate| {
        let a = genome.random(&mut rng);
        let b = genome.random(&mut rng);
        let mut child = genome.crossover(&a, &b, &mut rng);
        if !genome.in_range(&child) {
            return Err(format!("crossover bred out-of-range genes: {:?}", child.genes));
        }
        genome.mutate(&mut child, rate, &mut rng);
        if !genome.in_range(&child) {
            return Err(format!("mutation (rate {rate}) left range: {:?}", child.genes));
        }
        // In-range genes must decode without panicking and land on the
        // explicit value lattice.
        let s = decode_genes(space, &child.genes);
        for p in cst_space::ParamId::ALL {
            if !space.values(p).contains(&s.get(p)) {
                return Err(format!("decoded {p:?} = {} off the lattice", s.get(p)));
            }
        }
        Ok(())
    });
}

#[test]
fn offspring_of_valid_parents_are_valid_or_rejected_never_evaluated() {
    let valid = valid_space("j3d7pt");
    let space = valid.space();
    let genome = tuning_genome(space);
    let mut rng = seeded_rng(23);

    // The guard of `search.rs`'s `measure_valid`, instrumented: the simulated
    // evaluation only happens behind `is_valid`, and we count both arms.
    let mut evaluated = 0u32;
    let mut rejected = 0u32;
    let mut guarded_measure = |s: &Setting| -> f64 {
        if valid.is_valid(s) {
            evaluated += 1;
            debug_assert!(valid.check(s).is_ok());
            valid.sim().evaluate_full(s).time_ms()
        } else {
            rejected += 1;
            f64::INFINITY
        }
    };

    for _ in 0..300 {
        // Fully valid parents, encoded onto the genome.
        let pa = valid.random_valid(&mut rng);
        let pb = valid.random_valid(&mut rng);
        let a = encode(space, &pa);
        let b = encode(space, &pb);
        let mut child = genome.crossover(&a, &b, &mut rng);
        genome.mutate(&mut child, rng.gen_range(0.0..0.3), &mut rng);
        assert!(genome.in_range(&child), "closure violated: {:?}", child.genes);
        let s = decode_genes(space, &child.genes);
        let t = guarded_measure(&s);
        // The arms are exclusive and exhaustive: a valid offspring is
        // measured to a real time, an invalid one is rejected with the
        // penalty value, and nothing else can happen.
        if valid.is_valid(&s) {
            assert!(t.is_finite() && t > 0.0, "valid offspring must measure: {s:?}");
        } else {
            assert_eq!(t, f64::INFINITY, "invalid offspring must be rejected: {s:?}");
        }
    }
    assert_eq!(evaluated + rejected, 300);
    assert!(evaluated > 0, "valid parents should breed mostly valid offspring");
    // Crossover of valid parents CAN breed invalid offspring (validity is
    // not convex — that is exactly why the guard exists). If this never
    // triggers, the property is vacuous; with 300 mutated children it
    // reliably does.
    assert!(rejected > 0, "expected some invalid offspring to exercise the rejection arm");
}
