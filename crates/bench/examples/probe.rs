//! Quick tuner-comparison sanity probe over a subset of the suite.
//!
//! Smaller and faster than the `experiments` binary — useful when
//! calibrating the performance model or a tuner change:
//!
//! ```text
//! cargo run -p cst-bench --release --example probe
//! ```

use cst_baselines::zoo;
use cst_gpu_sim::GpuArch;
use cstuner_core::SimEvaluator;

fn main() {
    let seeds = 5u64;
    for name in ["j3d7pt", "cheby", "hypterm", "rhs4center"] {
        let spec = cst_stencil::spec_by_name(name).unwrap();
        println!("=== {name} (iso-time 100s, seed-avg over {seeds}) ===");
        for flag in ["cstuner", "garvey", "opentuner", "artemis", "random"] {
            let mut acc = 0.0;
            let mut iters = 0.0;
            let mut nm = "";
            for seed in 0..seeds {
                let mut e = SimEvaluator::with_budget(spec.clone(), GpuArch::a100(), seed, 100.0);
                let out = zoo::build(flag, false).unwrap().tune(&mut e, seed).unwrap();
                acc += out.best_time_ms;
                iters += out.curve.last().unwrap().iteration as f64;
                nm = out.tuner;
            }
            println!(
                "  {:10} best={:8.3} ms  iters={:5.1}",
                nm,
                acc / seeds as f64,
                iters / seeds as f64
            );
        }
    }
}
