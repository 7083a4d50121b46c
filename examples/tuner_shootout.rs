//! Head-to-head: csTuner against every registered tuner on one stencil.
//!
//! A minimal version of the §V-C iso-time comparison: every tuner in the
//! zoo gets the same 100-second virtual budget on the same simulated
//! A100, repeated over a few seeds. The matrix itself is a
//! [`cstuner::campaign`] spec — the same declarative runner behind
//! `cstuner campaign run` — so the example is one spec plus rendering,
//! and an interrupted shootout resumes from its archive.
//!
//! ```text
//! cargo run --release --example tuner_shootout [stencil] [budget_s]
//! ```
//!
//! With `CST_JOURNAL=dir` set, each tuner's seed-0 run writes a
//! comparable run journal to `dir/<tuner>.jsonl`, the campaign archive
//! lands in `dir/obs/`, and the run is capped with the cross-tuner
//! campaign dashboard — feed any journal to `cstuner report`, or any
//! pair of summaries to `cstuner obs diff`.

use cstuner::campaign::{run_campaign, Backend, CampaignSpec};
use cstuner::obs::JournalStore;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let stencil = args.first().map(String::as_str).unwrap_or("cheby");
    let budget: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(100.0);
    let seeds = 5u64;

    let spec = CampaignSpec {
        name: "shootout".to_string(),
        stencils: vec![stencil.to_string()],
        archs: vec!["a100".to_string()],
        tuners: cstuner::baselines::zoo::tuners().iter().map(|t| t.flag.to_string()).collect(),
        budgets_s: vec![budget],
        seeds: (0..seeds).collect(),
        quick: false,
        // No fault pin: like every example, the testbed follows the
        // environment (CST_FAULT_SEED), so the hostile CI leg exercises
        // the fault machinery here too.
        fault: None,
        warm: None,
    };

    println!(
        "Iso-time shootout on {stencil} ({budget} s budget, {seeds} seeds, simulated a100):\n"
    );

    // The archive doubles as the resume checkpoint: under CST_JOURNAL it
    // is a real artifact (`dir/obs/`), otherwise a scratch dir.
    let journal_dir = std::env::var("CST_JOURNAL").ok().filter(|d| !d.is_empty());
    let store_dir = match &journal_dir {
        Some(dir) => std::path::Path::new(dir).join("obs"),
        None => std::env::temp_dir().join(format!("cst_shootout_{}", std::process::id())),
    };
    let store = JournalStore::open(&store_dir).expect("open campaign store");
    let run = run_campaign(&spec, &store, &Backend::InProcess, &mut |_, _, _, _| {})
        .unwrap_or_else(|e| panic!("shootout campaign failed: {e}"));

    // One comparable journal per tuner (seed 0 keeps them aligned).
    if let Some(dir) = &journal_dir {
        for cell in run.cells.iter().filter(|c| c.cell.request.seed == 0) {
            if let Some(lines) = &cell.journal {
                let path =
                    std::path::Path::new(dir).join(format!("{}.jsonl", cell.cell.request.tuner));
                std::fs::write(&path, lines.join("\n") + "\n").expect("write journal");
            }
        }
    }

    println!("{:<11} {:>10} {:>10} {:>8}", "tuner", "mean ms", "worst ms", "evals");
    let stats = cstuner::campaign::aggregate(
        &run.cells.iter().map(|c| (c.cell.clone(), c.summary.clone())).collect::<Vec<_>>(),
    );
    for s in &stats {
        let display = cstuner::baselines::zoo::find(&s.tuner).expect("zoo tuner").display;
        let evals: u64 = s.runs.iter().map(|r| r.evaluations).sum();
        println!(
            "{:<11} {:>10.3} {:>10.3} {:>8}",
            display,
            s.best_ms_mean,
            s.best_ms_worst,
            evals / seeds
        );
    }
    println!("\n(lower is better; 'worst' exposes the stability argument of §V-B)");

    // Cap the run with the campaign's comparative dashboard (CV over
    // seeds, convergence milestones, per-group winner).
    println!();
    print!("{}", cstuner::campaign::render_campaign(&spec.name, &stats, &[]));
    if journal_dir.is_some() {
        println!("\n(archive: {} — compare pairs with `cstuner obs diff`)", store.dir().display());
    } else {
        let _ = std::fs::remove_dir_all(&store_dir);
    }
}
