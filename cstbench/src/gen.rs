//! The request lists. A workload runs in rounds; each round is a fixed
//! multiset of (stencil, arch, tuner) cells with seed-drawn tuner seeds
//! (and, but for warm-archive, a seed-shuffled order), so every round
//! does the same kind of work and a run's medians do not depend on how
//! many rounds fit in it.

use crate::stats::SplitMix64;
use cst_serve::{FaultSpec, TuneRequest};

/// The paper's Table III stencils.
pub const PAPER_STENCILS: [&str; 8] =
    ["j3d7pt", "j3d27pt", "helmholtz", "cheby", "hypterm", "addsgd4", "addsgd6", "rhs4center"];

/// The zoo tuners other than csTuner, by flag.
pub const ZOO: [&str; 7] = ["garvey", "opentuner", "artemis", "random", "grid", "anneal", "forest"];

/// The simulated GPUs.
pub const ARCHS: [&str; 3] = ["a100", "v100", "small"];

/// The (stencil, arch) pairs of the serve-fleet traffic: a cheap and an
/// expensive stencil, on different GPUs.
const FLEET_PAIRS: [(&str, &str); 2] = [("j3d7pt", "a100"), ("hypterm", "v100")];

/// Serve-fleet sessions per round (both clients together).
pub const FLEET_ROUND: usize = 56;

/// The warm-archive traffic: stencils (one absent from the seeded
/// archive), and the kernel tuners that take warm-start seeds.
const WARM_STENCILS: [&str; 3] = ["j3d7pt", "hypterm", "cheby"];
const WARM_TUNERS: [&str; 4] = ["random", "forest", "anneal", "opentuner"];

/// A validated fault-free request. Faults are pinned off so a hostile
/// `CST_FAULT_SEED` in the environment cannot turn sessions into errors.
pub fn request(stencil: &str, arch: &str, tuner: &str, seed: u64, quick: bool) -> TuneRequest {
    TuneRequest::build(
        Some(stencil),
        Some(arch),
        Some(tuner),
        Some(seed),
        None,
        quick,
        Some(FaultSpec::Off),
    )
    .expect("benchmark requests name registered stencils, archs and tuners")
}

/// Give each cell its tuner seed.
fn seeded(cells: Vec<(&str, &str, &str)>, quick: bool, rng: &mut SplitMix64) -> Vec<TuneRequest> {
    cells.into_iter().map(|(s, a, t)| request(s, a, t, rng.seed(), quick)).collect()
}

/// Shuffle the round's cells and give each its tuner seed.
fn finish(
    mut cells: Vec<(&str, &str, &str)>,
    quick: bool,
    mut rng: SplitMix64,
) -> Vec<TuneRequest> {
    rng.shuffle(&mut cells);
    seeded(cells, quick, &mut rng)
}

/// cstuner-full: csTuner at full scale on every paper stencil on both
/// paper GPUs (16 sessions per round).
pub fn cstuner_full(seed: u64, round: u64) -> Vec<TuneRequest> {
    let cells =
        PAPER_STENCILS.iter().flat_map(|s| ["a100", "v100"].map(|a| (*s, a, "cstuner"))).collect();
    finish(cells, false, SplitMix64::new(seed, 1, round))
}

/// zoo-quick: every non-csTuner tuner on every stencil on every GPU,
/// quick scale (7 × 13 × 3 = 273 sessions per round).
pub fn zoo_quick(seed: u64, round: u64) -> Vec<TuneRequest> {
    let stencils = cst_serve::all_stencils();
    let mut cells = Vec::new();
    for t in ZOO {
        for k in &stencils {
            for a in ARCHS {
                cells.push((k.spec.name, a, t));
            }
        }
    }
    finish(cells, true, SplitMix64::new(seed, 2, round))
}

/// serve-fleet: one request in four is csTuner, the rest cycle the zoo;
/// each tuner is split evenly over the two pairs.
pub fn serve_fleet(seed: u64, round: u64) -> Vec<TuneRequest> {
    let cstuner = FLEET_ROUND / 4;
    let cells = (0..FLEET_ROUND)
        .map(|i| {
            let (s, a) = FLEET_PAIRS[i % 2];
            let t = if i < cstuner { "cstuner" } else { ZOO[(i - cstuner) % ZOO.len()] };
            (s, a, t)
        })
        .collect();
    finish(cells, true, SplitMix64::new(seed, 3, round))
}

/// warm-archive: every warm stencil with every warm tuner once per round
/// (12 sessions); the GPU rotates with the round, so exact, cross-arch
/// and initially absent targets all recur. The order is fixed and only
/// the tuner seeds are drawn: a session's cost depends on how many came
/// before it in the round, so a shuffled order would make a run's median
/// depend on where the slow stencils happened to fall.
pub fn warm_archive(seed: u64, round: u64, store: &str) -> Vec<TuneRequest> {
    let mut cells = Vec::new();
    for (j, t) in WARM_TUNERS.iter().enumerate() {
        for (i, s) in WARM_STENCILS.iter().enumerate() {
            cells.push((*s, ARCHS[(round as usize + i + j) % ARCHS.len()], *t));
        }
    }
    let mut reqs = seeded(cells, true, &mut SplitMix64::new(seed, 4, round));
    for r in &mut reqs {
        r.warm = Some(store.to_string());
    }
    reqs
}

/// The fixed sessions that seed a warm archive before its daemon starts:
/// j3d7pt on the A100 and hypterm on the V100, two tuners each.
pub fn warm_seed_sessions() -> Vec<TuneRequest> {
    vec![
        request("j3d7pt", "a100", "forest", 1, true),
        request("j3d7pt", "a100", "random", 2, true),
        request("hypterm", "v100", "anneal", 3, true),
        request("hypterm", "v100", "opentuner", 4, true),
    ]
}

/// The identity of a request for digests: everything but the warm store
/// path, which names a per-run temporary directory.
pub fn identity(r: &TuneRequest) -> String {
    format!(
        "{} {} {} {} {} {} {}",
        r.stencil,
        r.arch,
        r.tuner,
        r.seed,
        r.budget_s,
        r.quick,
        r.warm.is_some()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(reqs: &[TuneRequest]) -> Vec<String> {
        reqs.iter().map(identity).collect()
    }

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        type Gen = fn(u64, u64) -> Vec<TuneRequest>;
        let gens: [Gen; 4] =
            [cstuner_full, zoo_quick, serve_fleet, |s, r| warm_archive(s, r, "store")];
        for g in gens {
            assert_eq!(ids(&g(7, 0)), ids(&g(7, 0)));
            assert_ne!(ids(&g(7, 0)), ids(&g(8, 0)));
            assert_ne!(ids(&g(7, 0)), ids(&g(7, 1)));
        }
    }

    #[test]
    fn rounds_have_fixed_composition() {
        let cells = |reqs: Vec<TuneRequest>| {
            let mut v: Vec<_> =
                reqs.into_iter().map(|r| format!("{} {} {}", r.stencil, r.arch, r.tuner)).collect();
            v.sort();
            v
        };
        assert_eq!(cstuner_full(1, 0).len(), 16);
        assert_eq!(cells(cstuner_full(1, 0)), cells(cstuner_full(2, 5)));
        assert_eq!(zoo_quick(1, 0).len(), 273);
        assert_eq!(cells(zoo_quick(1, 0)), cells(zoo_quick(9, 3)));
        let fleet = serve_fleet(1, 0);
        assert_eq!(fleet.len(), FLEET_ROUND);
        assert_eq!(fleet.iter().filter(|r| r.tuner == "cstuner").count(), FLEET_ROUND / 4);
        assert_eq!(cells(serve_fleet(1, 0)), cells(serve_fleet(4, 2)));
        let warm = warm_archive(1, 0, "d");
        assert_eq!(warm.len(), 12);
        assert!(warm.iter().all(|r| r.warm.as_deref() == Some("d") && r.quick));
    }
}
