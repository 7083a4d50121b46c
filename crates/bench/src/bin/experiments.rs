//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run -p cst-bench --release --bin experiments -- [<id>...] [--quick] [--seeds N]
//! ```
//!
//! where `<id>` is one of `table1 table2 table3 fig2 fig3 fig4 fig8 fig9
//! fig10 fig11 fig12 ablation all` (no id means `all`). `--quick` shrinks
//! sample counts and repetitions for smoke runs; `--seeds N` sets the
//! repetitions of every seeded experiment. An unknown id or flag, or a
//! `--seeds` value that is not a positive integer, exits 2 before anything
//! runs. Results print as markdown and are written as JSON under
//! `results/`.

use cst_baselines::zoo;
use cst_bench::landscape::{
    fraction_at_least, pair_divergence_distribution, sample_landscape, speedup_distribution,
    top_n_speedup, Landscape,
};
use cst_bench::report::{f3, pct, Json, Table};
use cst_bench::runners::{
    mean_best_at_iteration, mean_best_at_time, run, sweep, tuner, RunResult, ABLATION, PAPER,
};
use cst_gpu_sim::GpuArch;
use cst_space::{OptSpace, ParamId};
use cst_stencil::{all_specs, StencilSpec};
use cstuner_core::{CsTuner, CsTunerConfig};
use std::cell::OnceCell;
use std::path::PathBuf;

/// Experiment scale knobs, and the landscapes sampled at this scale.
struct Scale {
    landscape_n: usize,
    /// Repetitions of every seeded experiment (`--seeds N` sets it).
    seeds: u64,
    iso_iterations: u32,
    budget_s: f64,
    /// Figs. 2–4 read the same landscapes: sampled on first use, once.
    landscapes: OnceCell<Vec<Landscape>>,
}

impl Scale {
    /// Full scale: every tuning run repeated 10×, as in the paper (§V).
    fn full() -> Self {
        Scale {
            landscape_n: 20_000,
            seeds: 10,
            iso_iterations: 10,
            budget_s: 100.0,
            landscapes: OnceCell::new(),
        }
    }

    fn quick() -> Self {
        Scale {
            landscape_n: 2_000,
            seeds: 2,
            iso_iterations: 4,
            budget_s: 30.0,
            landscapes: OnceCell::new(),
        }
    }

    /// Every stencil's landscape on the A100.
    fn landscapes(&self) -> &[Landscape] {
        self.landscapes.get_or_init(|| {
            all_specs()
                .iter()
                .map(|s| sample_landscape(s, &GpuArch::a100(), self.landscape_n, 0xf16))
                .collect()
        })
    }
}

fn results_dir() -> PathBuf {
    PathBuf::from("results")
}

fn emit(table: Table, raw: &dyn Json) {
    println!("{}", table.to_markdown());
    if let Err(e) = table.write_json(&results_dir(), raw) {
        eprintln!("warning: could not write {}.json: {e}", table.id);
    }
}

// ---------------------------------------------------------------- tables --

fn table1(_: &Scale) {
    let space = OptSpace::for_grid([512, 512, 512]);
    let mut t = Table::new(
        "table1",
        "Table I — the parameterized optimization space (512³ grid)",
        &["Optimization", "Parameter", "Range (live values)"],
    );
    for p in ParamId::ALL {
        let vals = space.values(p);
        let range = if vals.len() <= 3 {
            format!("{{{}}}", vals.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(", "))
        } else {
            format!("[{}, {}] pow2 ({} values)", vals[0], vals.last().unwrap(), vals.len())
        };
        t.push(vec![p.optimization().to_string(), p.name().to_string(), range]);
    }
    let log10 = space.log10_unconstrained_size();
    println!(
        "Unconstrained space: 10^{log10:.1} settings (paper: >10^8 after explicit constraints)\n"
    );
    emit(t, &log10);
}

fn table2(_: &Scale) {
    let mut t = Table::new(
        "table2",
        "Table II — simulated hardware standing in for the testbeds",
        &["Field", "A100 (sim)", "V100 (sim)"],
    );
    let a = GpuArch::a100();
    let v = GpuArch::v100();
    let rows: Vec<(&str, String, String)> = vec![
        ("SMs", a.sm_count.to_string(), v.sm_count.to_string()),
        ("DRAM GB/s", a.dram_gbps.to_string(), v.dram_gbps.to_string()),
        ("FP64 GFLOP/s", a.fp64_gflops.to_string(), v.fp64_gflops.to_string()),
        ("L2 MiB", (a.l2_bytes / 1024 / 1024).to_string(), (v.l2_bytes / 1024 / 1024).to_string()),
        ("Shared/SM KiB", (a.shmem_per_sm / 1024).to_string(), (v.shmem_per_sm / 1024).to_string()),
        ("Registers/SM", a.regs_per_sm.to_string(), v.regs_per_sm.to_string()),
    ];
    for (k, av, vv) in rows {
        t.push(vec![k.to_string(), av, vv]);
    }
    emit(t, &"static");
}

fn table3(_: &Scale) {
    let mut t = Table::new(
        "table3",
        "Table III — stencils used for evaluation",
        &["Stencil", "Input Grid", "Order", "# FLOPs", "# I/O Arrays"],
    );
    for s in all_specs() {
        t.push(vec![
            s.name.to_string(),
            format!("{}×{}×{}", s.grid[0], s.grid[1], s.grid[2]),
            s.order.to_string(),
            s.flops.to_string(),
            s.io_arrays.to_string(),
        ]);
    }
    emit(t, &"static");
}

// --------------------------------------------------------------- figures --

fn fig2(scale: &Scale) {
    let ls = scale.landscapes();
    let mut t = Table::new(
        "fig2",
        "Fig. 2 — speedup distribution of settings over the optimum",
        &["Stencil", "[0,0.2)", "[0.2,0.4)", "[0.4,0.6)", "[0.6,0.8)", "[0.8,1.0]"],
    );
    let mut raw = Vec::new();
    let mut avg_top = 0.0;
    let mut avg_bottom = 0.0;
    for l in ls {
        let bins = speedup_distribution(l);
        avg_top += fraction_at_least(l, 0.8);
        avg_bottom += bins[0];
        t.push(
            std::iter::once(l.stencil.to_string()).chain(bins.iter().map(|&b| pct(b))).collect(),
        );
        raw.push((l.stencil, bins));
    }
    let n = ls.len() as f64;
    println!(
        "Average within-20%-of-optimum fraction: {} (paper: 5.1%); ≥5× slowdown fraction: {} (paper: 24.2%)\n",
        pct(avg_top / n),
        pct(avg_bottom / n)
    );
    emit(t, &raw);
}

fn fig3(scale: &Scale) {
    let ls = scale.landscapes();
    let mut t = Table::new(
        "fig3",
        "Fig. 3 — distribution of parameter-pair divergence from the optimum",
        &["Stencil", "[0,20)%", "[20,40)%", "[40,60)%", "[60,80)%", "[80,100]%"],
    );
    let mut raw = Vec::new();
    let mut avg_diverging = 0.0;
    let mut avg_gt40 = 0.0;
    for l in ls {
        let bins = pair_divergence_distribution(l);
        avg_diverging += 1.0 - bins[0];
        avg_gt40 += bins[2] + bins[3] + bins[4];
        t.push(
            std::iter::once(l.stencil.to_string()).chain(bins.iter().map(|&b| pct(b))).collect(),
        );
        raw.push((l.stencil, bins));
    }
    let n = ls.len() as f64;
    println!(
        "Average pairs diverging from optimum: {} (paper: 28.6% incl. weak pairs); >40% divergence: {} (paper: 22.3%)\n",
        pct(avg_diverging / n),
        pct(avg_gt40 / n)
    );
    emit(t, &raw);
}

fn fig4(scale: &Scale) {
    let ls = scale.landscapes();
    let mut t = Table::new(
        "fig4",
        "Fig. 4 — speedup of the top-n settings over the optimum",
        &["Stencil", "top-10", "top-50", "top-100"],
    );
    let mut raw = Vec::new();
    let mut sums = [0.0; 3];
    for l in ls {
        let s = [top_n_speedup(l, 10), top_n_speedup(l, 50), top_n_speedup(l, 100)];
        for (acc, v) in sums.iter_mut().zip(s) {
            *acc += v;
        }
        t.push(vec![l.stencil.to_string(), pct(s[0]), pct(s[1]), pct(s[2])]);
        raw.push((l.stencil, s));
    }
    let n = ls.len() as f64;
    t.push(vec!["**average**".to_string(), pct(sums[0] / n), pct(sums[1] / n), pct(sums[2] / n)]);
    println!("(paper averages: 96.7% / 92.4% / 90.1%)\n");
    emit(t, &raw);
}

/// One labelled column of a convergence table: header text plus the
/// statistic extracted from a (stencil, tuner) subset of runs.
type ColumnFn = (String, Box<dyn Fn(&[&RunResult]) -> Option<f64>>);

fn curve_table(
    id: &str,
    title: &str,
    runs: &[RunResult],
    specs: &[StencilSpec],
    columns: &[ColumnFn],
) {
    let mut t = Table::new(
        id,
        title,
        &std::iter::once("Stencil / Tuner")
            .chain(columns.iter().map(|(h, _)| h.as_str()))
            .collect::<Vec<_>>(),
    );
    for spec in specs {
        for flag in PAPER {
            let tuner = zoo::find(flag).expect("the paper's tuners are registered").display;
            let subset: Vec<&RunResult> =
                runs.iter().filter(|r| r.stencil == spec.name && r.tuner == tuner).collect();
            if subset.is_empty() {
                continue;
            }
            let mut row = vec![format!("{} / {tuner}", spec.name)];
            for (_, f) in columns {
                row.push(f(&subset).map(f3).unwrap_or_else(|| "–".to_string()));
            }
            t.push(row);
        }
    }
    emit(t, &runs);
}

/// The paper's four tuners on every stencil, each run capped at
/// `iterations`; `budget_s` selects iso-time (see [`run`]).
fn paper_sweep(
    specs: &[StencilSpec],
    scale: &Scale,
    arch: &GpuArch,
    iterations: u32,
    budget_s: Option<f64>,
) -> Vec<RunResult> {
    sweep(specs, &PAPER, scale.seeds, |s, &flag, seed| {
        run(s, arch, tuner(flag, iterations).as_mut(), budget_s, seed)
    })
}

fn fig8(scale: &Scale) {
    let specs = all_specs();
    let iters = scale.iso_iterations;
    let runs = paper_sweep(&specs, scale, &GpuArch::a100(), iters, None);
    let marks: Vec<u32> = (1..=iters).collect();
    let columns: Vec<ColumnFn> = marks
        .into_iter()
        .map(|i| {
            (
                format!("it {i}"),
                Box::new(move |rs: &[&RunResult]| mean_best_at_iteration(rs, i))
                    as Box<dyn Fn(&[&RunResult]) -> Option<f64>>,
            )
        })
        .collect();
    curve_table(
        "fig8",
        "Fig. 8 — iso-iteration comparison (mean best kernel ms; '–' = not yet / space exhausted)",
        &runs,
        &specs,
        &columns,
    );
}

fn fig9(scale: &Scale) {
    let specs = all_specs();
    let budget = scale.budget_s;
    let runs = paper_sweep(&specs, scale, &GpuArch::a100(), u32::MAX, Some(budget));
    let marks: Vec<f64> = [0.1, 0.2, 0.4, 0.6, 0.8, 1.0].iter().map(|f| f * budget).collect();
    let columns: Vec<ColumnFn> = marks
        .into_iter()
        .map(|t_s| {
            (
                format!("{t_s:.0}s"),
                Box::new(move |rs: &[&RunResult]| mean_best_at_time(rs, t_s))
                    as Box<dyn Fn(&[&RunResult]) -> Option<f64>>,
            )
        })
        .collect();
    curve_table(
        "fig9",
        "Fig. 9 — iso-time comparison on A100 (mean best kernel ms)",
        &runs,
        &specs,
        &columns,
    );
}

fn fig10(scale: &Scale) {
    let specs = all_specs();
    let runs = paper_sweep(&specs, scale, &GpuArch::v100(), u32::MAX, Some(scale.budget_s));
    let mut t = Table::new(
        "fig10",
        "Fig. 10 — iso-time performance on V100, normalized to Garvey (higher is better)",
        &["Stencil", "csTuner", "Garvey", "OpenTuner", "Artemis"],
    );
    let mean_final = |stencil: &str, tuner: &str| -> f64 {
        let rs: Vec<&RunResult> =
            runs.iter().filter(|r| r.stencil == stencil && r.tuner == tuner).collect();
        rs.iter().map(|r| r.best_ms).sum::<f64>() / rs.len() as f64
    };
    let mut speedup_over = [0.0f64; 3]; // Garvey, OpenTuner, Artemis
    for spec in &specs {
        let g = mean_final(spec.name, "Garvey");
        let cs = mean_final(spec.name, "csTuner");
        let ot = mean_final(spec.name, "OpenTuner");
        let ar = mean_final(spec.name, "Artemis");
        speedup_over[0] += g / cs;
        speedup_over[1] += ot / cs;
        speedup_over[2] += ar / cs;
        t.push(vec![
            spec.name.to_string(),
            f3(g / cs),
            "1.000".to_string(),
            f3(g / ot),
            f3(g / ar),
        ]);
    }
    let n = specs.len() as f64;
    println!(
        "csTuner average speedup: {}× over Garvey (paper 1.7×), {}× over OpenTuner (paper 1.2×), {}× over Artemis (paper 1.3×)\n",
        f3(speedup_over[0] / n),
        f3(speedup_over[1] / n),
        f3(speedup_over[2] / n)
    );
    emit(t, &runs);
}

/// csTuner at iso-time on A100 over every stencil, one arm per
/// configuration: `configure` edits the default for each arm.
fn cstuner_sweep<A: Sync>(
    specs: &[StencilSpec],
    arms: &[A],
    seeds: u64,
    budget_s: f64,
    configure: impl Fn(&mut CsTunerConfig, &A) + Sync,
) -> Vec<RunResult> {
    sweep(specs, arms, seeds, |s, arm, seed| {
        let mut cfg = CsTunerConfig::default();
        configure(&mut cfg, arm);
        run(s, &GpuArch::a100(), &mut CsTuner::new(cfg), Some(budget_s), seed)
    })
}

/// Emit a [`cstuner_sweep`]'s table: one row per stencil and one column
/// per arm, each cell the mean best (ms) over its seeds. The raw rows are
/// `[stencil, key, best]` per run, `key` naming the run's arm.
fn emit_arms<K: Json>(mut t: Table, specs: &[StencilSpec], runs: &[RunResult], keys: &[K]) {
    let seeds = runs.len() / (specs.len() * keys.len());
    for (spec, row) in specs.iter().zip(runs.chunks(seeds * keys.len())) {
        let means = row
            .chunks(seeds)
            .map(|cell| f3(cell.iter().map(|r| r.best_ms).sum::<f64>() / cell.len() as f64));
        t.push(std::iter::once(spec.name.to_string()).chain(means).collect());
    }
    let raw: Vec<(&str, &K, f64)> = runs
        .chunks(seeds)
        .zip(keys.iter().cycle())
        .flat_map(|(cell, key)| cell.iter().map(move |r| (r.stencil.as_str(), key, r.best_ms)))
        .collect();
    emit(t, &raw);
}

fn fig11(scale: &Scale) {
    let specs = all_specs();
    let ratios: Vec<f64> = (1..=10).map(|k| k as f64 * 0.05).collect();
    let runs = cstuner_sweep(&specs, &ratios, scale.seeds, scale.budget_s, |c, &r| {
        c.sampling.ratio = r;
    });
    let header: Vec<String> = std::iter::once("Stencil".to_string())
        .chain(ratios.iter().map(|r| format!("{:.0}%", r * 100.0)))
        .collect();
    let t = Table::new(
        "fig11",
        "Fig. 11 — csTuner iso-time best (ms) vs. sampling ratio",
        &header.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    emit_arms(t, &specs, &runs, &ratios);
}

fn fig12(scale: &Scale) {
    let specs = all_specs();
    let runs = cstuner_sweep(&specs, &[()], 1, scale.budget_s, |_, _| {});
    let mut t = Table::new(
        "fig12",
        "Fig. 12 — pre-processing breakdown normalized to the search time",
        &["Stencil", "grouping", "sampling", "codegen", "total preproc"],
    );
    let mut raw = Vec::new();
    let mut avg_total = 0.0;
    for (spec, r) in specs.iter().zip(&runs) {
        let search = r.search_s.max(1e-9);
        let [g, s, c] = r.preproc_s.map(|x| x / search);
        avg_total += g + s + c;
        t.push(vec![spec.name.to_string(), pct(g), pct(s), pct(c), pct(g + s + c)]);
        raw.push((spec.name, [g, s, c]));
    }
    println!(
        "Average pre-processing share: {} of search time (paper: 0.76%)\n",
        pct(avg_total / specs.len() as f64)
    );
    emit(t, &raw);
}

fn ablation(scale: &Scale) {
    let specs = all_specs();
    let runs = cstuner_sweep(&specs, &ABLATION, scale.seeds, scale.budget_s, |c, (_, edit)| {
        edit(c);
    });
    let t = Table::new(
        "ablation",
        "Ablation — csTuner variants, iso-time best (ms)",
        &std::iter::once("Stencil").chain(ABLATION.iter().map(|(n, _)| *n)).collect::<Vec<_>>(),
    );
    let variants: Vec<usize> = (0..ABLATION.len()).collect();
    emit_arms(t, &specs, &runs, &variants);
}

/// One experiment: its id and its runner.
type Experiment = (&'static str, fn(&Scale));

/// Every experiment, in the order `all` runs them.
const EXPERIMENTS: [Experiment; 12] = [
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("ablation", ablation),
];

/// A parsed command line.
struct Cli {
    experiments: Vec<Experiment>,
    quick: bool,
    seeds: Option<u64>,
}

impl Cli {
    /// The scale to run at; `--seeds` sets the repetition count.
    fn scale(&self) -> Scale {
        let mut scale = if self.quick { Scale::quick() } else { Scale::full() };
        if let Some(n) = self.seeds {
            scale.seeds = n;
        }
        scale
    }
}

/// Parse the arguments after the program name. Every error is one line
/// for an exit-2 report.
fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli { experiments: Vec::new(), quick: false, seeds: None };
    let mut all = false;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => cli.quick = true,
            "--seeds" => {
                let value = args.next().ok_or("`--seeds` needs a positive integer")?;
                let n = value.parse().ok().filter(|&n| n > 0);
                let n =
                    n.ok_or_else(|| format!("`--seeds` needs a positive integer, got `{value}`"))?;
                cli.seeds = Some(n);
            }
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag `{flag}`; flags are --quick and --seeds N"));
            }
            "all" => all = true,
            id => match EXPERIMENTS.iter().find(|(name, _)| *name == id) {
                Some(&experiment) => cli.experiments.push(experiment),
                None => {
                    let ids = EXPERIMENTS.map(|(id, _)| id).join(" ");
                    return Err(format!("unknown experiment `{id}`; ids are {ids} all"));
                }
            },
        }
    }
    if all || cli.experiments.is_empty() {
        cli.experiments = EXPERIMENTS.to_vec();
    }
    Ok(cli)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("experiments: {e}");
        std::process::exit(2);
    });
    let scale = cli.scale();
    for (id, run) in cli.experiments {
        eprintln!("== running {id} ==");
        let t0 = std::time::Instant::now();
        run(&scale);
        eprintln!("== {id} done in {:.1}s ==\n", t0.elapsed().as_secs_f64());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Cli, String> {
        parse_args(&line.split_whitespace().map(str::to_string).collect::<Vec<_>>())
    }

    fn ids(cli: &Cli) -> Vec<&'static str> {
        cli.experiments.iter().map(|(id, _)| *id).collect()
    }

    #[test]
    fn no_id_or_all_runs_every_experiment_in_order() {
        let every: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        for line in ["", "all", "--quick", "fig2 all", "all --seeds 3"] {
            assert_eq!(ids(&parse(line).unwrap()), every, "{line:?}");
        }
    }

    #[test]
    fn ids_run_in_the_order_given() {
        let cli = parse("fig3 table1 --quick fig2").unwrap();
        assert_eq!(ids(&cli), ["fig3", "table1", "fig2"]);
        assert!(cli.quick);
        assert_eq!(cli.seeds, None);
    }

    #[test]
    fn seeds_take_a_positive_integer_anywhere() {
        assert_eq!(parse("--seeds 10 fig11").unwrap().seeds, Some(10));
        let cli = parse("fig11 --quick --seeds 2").unwrap();
        assert_eq!((ids(&cli), cli.quick, cli.seeds), (vec!["fig11"], true, Some(2)));
    }

    #[test]
    fn bad_input_is_rejected_before_anything_runs() {
        for (line, want) in [
            ("--seeds abc --quick", "`--seeds` needs a positive integer, got `abc`"),
            ("fig2 --seeds 0", "`--seeds` needs a positive integer, got `0`"),
            ("fig2 --seeds -3", "`--seeds` needs a positive integer, got `-3`"),
            ("fig2 --seeds", "`--seeds` needs a positive integer"),
            ("fig11 --quick --sedes 2", "unknown flag `--sedes`"),
            ("fig11 -q", "unknown flag `-q`"),
            ("fig2 bogus", "unknown experiment `bogus`; ids are table1 table2"),
        ] {
            let err = parse(line).err().unwrap_or_else(|| panic!("{line:?} parsed"));
            assert!(err.starts_with(want), "{line:?}: {err}");
        }
    }

    #[test]
    fn one_repetition_count_defaults_to_the_papers_ten() {
        let seeds = |line| parse(line).unwrap().scale().seeds;
        assert_eq!(seeds("all"), 10);
        assert_eq!(seeds("all --quick"), 2);
        assert_eq!(seeds("all --seeds 3"), 3);
        assert_eq!(seeds("fig11 --quick --seeds 5"), 5);
    }
}
