//! `cstuner` — command-line front end.
//!
//! ```text
//! cstuner list
//! cstuner version
//! cstuner tune [--stencil S] [--arch A] [--budget SECONDS] [--seed N] [--tuner T]
//!     [--quick] [--journal FILE|$CST_JOURNAL] [--fault-off] [--warm STORE|$CST_WARM]
//! cstuner codegen [--stencil S] [--arch A] [--budget SECONDS] [--seed N] [--tuner T]
//!     [--quick] [--journal FILE|$CST_JOURNAL] [--fault-off] [--warm STORE|$CST_WARM]
//!     [--out FILE]
//! cstuner report <journal.jsonl> [--json]
//! cstuner journal-check <journal.jsonl>
//! cstuner metrics-check <metrics.json>
//! cstuner obs ingest <journal.jsonl>... [--store DIR] [--name NAME]
//! cstuner obs diff <baseline> <candidate>
//! cstuner obs gate <baseline> <candidate> [--save FILE]
//! cstuner obs dashboard [--store DIR] [--save FILE] [--json]
//! cstuner obs profile <run> [<candidate>] [--json] [--fold] [--diff]
//! cstuner kb build [--store DIR]
//! cstuner kb stat [--store DIR]
//! cstuner kb rank [--store DIR] [--stencil S] [--arch A] [--top K] [--seed N]
//! cstuner kb gate <cold-run> <warm-run> [--pct PCT]
//! cstuner campaign run <spec.json> [--store DIR] [--addr HOST:PORT|$CST_ADDR] [--fresh]
//!     [--json]
//! cstuner campaign status <spec.json> [--store DIR]
//! cstuner campaign report <spec.json> [--store DIR] [--json] [--save FILE]
//! cstuner campaign gate <spec.json> [--store DIR] [--baseline DIR] [--save FILE]
//! cstuner serve [--addr HOST:PORT] [--workers N] [--queue N] [--archive DIR]
//! cstuner client tune [--stencil S] [--arch A] [--budget SECONDS] [--seed N] [--tuner T]
//!     [--quick] [--journal FILE] [--fault-off] [--warm STORE|$CST_WARM]
//!     [--addr HOST:PORT|$CST_ADDR]
//! cstuner client status [--addr HOST:PORT|$CST_ADDR] [--session N]
//! cstuner client watch [--addr HOST:PORT|$CST_ADDR] [--session N] [--journal FILE]
//! cstuner client cancel [--addr HOST:PORT|$CST_ADDR] [--session N]
//! cstuner client metrics [--addr HOST:PORT|$CST_ADDR] [--json] [--watch] [--interval S]
//!     [--count N]
//! cstuner client shutdown [--addr HOST:PORT|$CST_ADDR]
//! cstuner top [--addr HOST:PORT|$CST_ADDR] [--interval S] [--count N]
//! ```
//!
//! Each command above is one row of `COMMANDS`: its operands, its flags,
//! a one-line help and its handler. Each flag declares the `Kind` of
//! value it takes and, where shown as `|$VAR`, the env var it falls back
//! to when absent or empty (the flag wins). `parse` checks a command line
//! against its row and exits 2 on bad input before the handler runs;
//! `cstuner help` renders the same rows. `cstuner --quick ...` is
//! shorthand for `cstuner tune --quick ...`. A served `client tune`
//! streams the exact journal a local `tune --journal` would write.

use cstuner::baselines::zoo::nearest;
use cstuner::campaign;
use cstuner::obs::{self, JournalStore};
use cstuner::prelude::*;
use cstuner::serve::{proto, Connection, ServeConfig, Server, StreamEvent};
use cstuner::serve::{DoneInfo, FaultSpec, SessionOutcome, TuneRequest};
use cstuner::stencil::{suite, suite_ext};
use cstuner::telemetry::journal::{self, uint};
use cstuner::telemetry::json::{self, Value};
use cstuner::telemetry::{report, schema};
use cstuner::transfer::{warm_seeds, KnowledgeBase, DEFAULT_TOP_K, KB_FILE, KB_VERSION};
use std::collections::HashMap;
use std::fmt::{Display, Write as _};
use std::io::{IsTerminal, Write as _};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The value a flag takes.
#[derive(Clone, Copy)]
enum Kind {
    /// None: the flag is present or absent.
    Switch,
    /// Any string.
    Text,
    /// A non-negative integer.
    U64,
    /// A positive, finite number of seconds (one a `Duration` can hold).
    Seconds,
    /// `HOST:PORT` with a 16-bit port.
    Addr,
}

/// One `--name` a command accepts.
struct Flag {
    name: &'static str,
    kind: Kind,
    /// The value's placeholder in usage text.
    meta: &'static str,
    /// Env var read when the flag is absent or empty.
    env: Option<&'static str>,
}

const fn flag(name: &'static str, kind: Kind, meta: &'static str) -> Flag {
    Flag { name, kind, meta, env: None }
}

const fn switch(name: &'static str) -> Flag {
    flag(name, Kind::Switch, "")
}

impl Flag {
    const fn or_env(self, var: &'static str) -> Flag {
        Flag { env: Some(var), ..self }
    }

    fn synopsis(&self) -> String {
        let meta = if self.meta.is_empty() { String::new() } else { format!(" {}", self.meta) };
        let env = self.env.map(|v| format!("|${v}")).unwrap_or_default();
        format!("[--{}{meta}{env}]", self.name)
    }
}

const STENCIL: Flag = flag("stencil", Kind::Text, "S");
const ARCH: Flag = flag("arch", Kind::Text, "A");
const BUDGET: Flag = flag("budget", Kind::Seconds, "SECONDS");
const SEED: Flag = flag("seed", Kind::U64, "N");
const TUNER: Flag = flag("tuner", Kind::Text, "T");
const QUICK: Flag = switch("quick");
const JOURNAL: Flag = flag("journal", Kind::Text, "FILE");
const FAULT_OFF: Flag = switch("fault-off");
const WARM: Flag = flag("warm", Kind::Text, "STORE").or_env("CST_WARM");
const STORE: Flag = flag("store", Kind::Text, "DIR");
const SAVE: Flag = flag("save", Kind::Text, "FILE");
const JSON: Flag = switch("json");
const ADDR: Flag = flag("addr", Kind::Addr, "HOST:PORT").or_env("CST_ADDR");
const SESSION: Flag = flag("session", Kind::U64, "N");
const INTERVAL: Flag = flag("interval", Kind::Seconds, "S");
const COUNT: Flag = flag("count", Kind::U64, "N");

/// One command: the words that select it, its operands (`[x]` is
/// optional, a trailing `x...` takes one or more), its flags in the
/// order usage and error hints list them, its handler and its help.
struct Command {
    name: &'static str,
    operands: &'static [&'static str],
    flags: &'static [Flag],
    run: fn(&Args),
    help: &'static str,
}

const fn row(
    name: &'static str,
    operands: &'static [&'static str],
    flags: &'static [Flag],
    run: fn(&Args),
    help: &'static str,
) -> Command {
    Command { name, operands, flags, run, help }
}

impl Command {
    /// The family a row belongs to: `obs` for `obs gate`, `report` for `report`.
    fn family(&self) -> &'static str {
        self.name.split_once(' ').map_or(self.name, |(family, _)| family)
    }

    fn arity(&self) -> (usize, usize) {
        let min = self.operands.iter().filter(|o| !o.starts_with('[')).count();
        let repeats = self.operands.last().is_some_and(|o| o.ends_with("..."));
        (min, if repeats { usize::MAX } else { self.operands.len() })
    }
    /// The row's synopsis, wrapped at 88 columns with continuation lines
    /// indented by four.
    fn synopsis(&self) -> Vec<String> {
        let mut lines = Vec::new();
        let mut line = format!("cstuner {}", self.name);
        let operands = self.operands.iter().map(|o| o.to_string());
        for word in operands.chain(self.flags.iter().map(Flag::synopsis)) {
            if line.len() + 1 + word.len() > 88 {
                lines.push(std::mem::replace(&mut line, format!("    {word}")));
            } else {
                line = format!("{line} {word}");
            }
        }
        lines.push(line);
        lines
    }
}

#[rustfmt::skip]
static COMMANDS: &[Command] = &[
    row("list", &[], &[], cmd_list,
        "available stencils, GPUs and tuners"),
    row("version", &[], &[], cmd_version,
        "crate and journal schema versions, registered tuners"),
    row("tune", &[], &[STENCIL, ARCH, BUDGET, SEED, TUNER, QUICK, JOURNAL.or_env("CST_JOURNAL"),
            FAULT_OFF, WARM], cmd_tune,
        "run one iso-time tuning session and print its outcome"),
    row("codegen", &[], &[STENCIL, ARCH, BUDGET, SEED, TUNER, QUICK, JOURNAL.or_env("CST_JOURNAL"),
            FAULT_OFF, WARM, flag("out", Kind::Text, "FILE")], cmd_codegen,
        "tune, then emit the winning CUDA kernel (to stdout unless --out)"),
    row("report", &["<journal.jsonl>"], &[JSON], cmd_report,
        "render a run journal; --json prints its run summary"),
    row("journal-check", &["<journal.jsonl>"], &[], cmd_journal_check,
        "schema-validate a run journal"),
    row("metrics-check", &["<metrics.json>"], &[], cmd_metrics_check,
        "validate a captured metrics frame"),
    row("obs ingest", &["<journal.jsonl>..."], &[STORE, flag("name", Kind::Text, "NAME")],
        obs_ingest, "archive runs as summaries (store: results/obs)"),
    row("obs diff", &["<baseline>", "<candidate>"], &[], obs_diff,
        "compare two runs, each a *.summary.json or a raw journal"),
    row("obs gate", &["<baseline>", "<candidate>"], &[SAVE], obs_gate,
        "drift gate: exit 1 on a regression"),
    row("obs dashboard", &[], &[STORE, SAVE, JSON], obs_dashboard,
        "whole-archive table"),
    row("obs profile", &["<run>", "[<candidate>]"], &[JSON, switch("fold"), switch("diff")],
        obs_profile, "span-profile a run, or compare two with --diff"),
    row("kb build", &[], &[STORE], kb_build,
        "mine <store>/kb.json from the archive (store: results/obs)"),
    row("kb stat", &[], &[STORE], kb_stat,
        "knowledge-base inventory"),
    row("kb rank", &[], &[STORE, STENCIL, ARCH, flag("top", Kind::U64, "K"), SEED], kb_rank,
        "surrogate-ranked warm-start seeds for --stencil (required)"),
    row("kb gate", &["<cold-run>", "<warm-run>"], &[flag("pct", Kind::U64, "PCT")], kb_gate,
        "exit 1 unless warm reached the --pct (5) milestone in <= cold's evals"),
    row("campaign run", &["<spec.json>"], &[STORE, ADDR, switch("fresh"), JSON], campaign_run,
        "run or resume the matrix (--addr: via a daemon; --fresh: drop its cells)"),
    row("campaign status", &["<spec.json>"], &[STORE], campaign_status,
        "archived vs pending cells (store: results/campaign/<name>)"),
    row("campaign report", &["<spec.json>"], &[STORE, JSON, SAVE], campaign_report,
        "comparative dashboard over the archived matrix"),
    row("campaign gate", &["<spec.json>"], &[STORE, flag("baseline", Kind::Text, "DIR"), SAVE],
        campaign_gate, "verdict vs the --baseline store (required); exit 1 on a regression"),
    row("serve", &[], &[flag("addr", Kind::Addr, "HOST:PORT"), flag("workers", Kind::U64, "N"),
            flag("queue", Kind::U64, "N"), flag("archive", Kind::Text, "DIR")], cmd_serve,
        "run the tuning daemon until a client sends shutdown"),
    row("client tune", &[], &[STENCIL, ARCH, BUDGET, SEED, TUNER, QUICK, JOURNAL, FAULT_OFF, WARM,
            ADDR], client_tune,
        "submit a session to a daemon and stream its journal"),
    row("client status", &[], &[ADDR, SESSION], client_status,
        "one session's state, or all sessions"),
    row("client watch", &[], &[ADDR, SESSION, JOURNAL], client_watch,
        "replay and follow a session's stream (--session required)"),
    row("client cancel", &[], &[ADDR, SESSION], client_cancel,
        "cancel a queued or running session (--session required)"),
    row("client metrics", &[], &[ADDR, JSON, switch("watch"), INTERVAL, COUNT], client_metrics,
        "live operational metrics snapshot; --watch polls every --interval (2) s"),
    row("client shutdown", &[], &[ADDR], client_shutdown,
        "drain in-flight sessions and stop the daemon"),
    row("top", &[], &[ADDR, INTERVAL, COUNT], metrics_watch,
        "live daemon dashboard (client metrics --watch)"),
];

/// Usage for every row of `family`, or for every row when it is empty.
fn usage(family: &str) -> String {
    let mut out = String::new();
    for cmd in COMMANDS.iter().filter(|c| family.is_empty() || c.family() == family) {
        for line in cmd.synopsis() {
            let lead = if out.is_empty() { "usage: " } else { "       " };
            let _ = writeln!(out, "{lead}{line}");
        }
        let _ = writeln!(out, "               {}", cmd.help);
    }
    out.trim_end().to_string()
}

/// A command line checked against its row: the operands, and the value
/// of each flag given or supplied by its env fallback (empty for a
/// switch).
struct Args {
    operands: Vec<String>,
    values: HashMap<&'static str, String>,
}

impl Args {
    fn on(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    fn text(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    fn u64(&self, name: &str) -> Option<u64> {
        self.text(name).map(|v| v.parse().expect("a u64 flag, checked by parse"))
    }

    fn seconds(&self, name: &str) -> Option<f64> {
        self.text(name).map(|v| v.parse().expect("a seconds flag, checked by parse"))
    }
}

impl Kind {
    /// Check one raw value; `source` (the flag, or its env var) names it
    /// in the error.
    fn check(self, source: &str, raw: &str) -> Result<(), String> {
        let expected = match self {
            Kind::Switch | Kind::Text => return Ok(()),
            Kind::U64 if raw.parse::<u64>().is_ok() => return Ok(()),
            Kind::U64 => "a non-negative integer",
            Kind::Seconds => match raw.parse::<f64>() {
                Ok(s) if s > 0.0 && Duration::try_from_secs_f64(s).is_ok() => return Ok(()),
                Ok(_) => "a positive, finite number of seconds",
                Err(_) => "a number",
            },
            Kind::Addr => match raw.rsplit_once(':') {
                Some((host, port)) if !host.is_empty() && port.parse::<u16>().is_ok() => {
                    return Ok(())
                }
                _ => "HOST:PORT with a 16-bit port",
            },
        };
        Err(format!("{source} expects {expected}, got `{raw}`"))
    }
}

/// Check `argv`, the words after the command's name, against `cmd`'s
/// row. Unknown flags are reported first, then the operand count, then
/// the values in the row's flag order. A value flag followed by another
/// flag, or by nothing, is given the empty value.
fn parse(cmd: &Command, argv: &[String]) -> Result<Args, String> {
    let mut raw: HashMap<&str, String> = HashMap::new();
    let mut operands = Vec::new();
    let mut argv = argv.iter().peekable();
    while let Some(arg) = argv.next() {
        let Some(name) = arg.strip_prefix("--") else {
            operands.push(arg.clone());
            continue;
        };
        let flag =
            cmd.flags.iter().find(|f| f.name == name).ok_or_else(|| unknown_flag(cmd, name))?;
        let value = match flag.kind {
            Kind::Switch => None,
            _ => argv.next_if(|next| !next.starts_with("--")),
        };
        raw.insert(flag.name, value.cloned().unwrap_or_default());
    }
    let (min, max) = cmd.arity();
    if !(min..=max).contains(&operands.len()) {
        return Err(usage(cmd.family()));
    }
    let mut values = HashMap::new();
    for flag in cmd.flags {
        // The env var stands in for an absent or empty flag.
        let given = raw.remove(flag.name).filter(|v| !v.is_empty() || flag.env.is_none());
        let (source, value) = match (given, flag.env) {
            (Some(value), _) => (format!("--{}", flag.name), value),
            (None, Some(var)) => match std::env::var(var) {
                Ok(value) if !value.is_empty() => (var.to_string(), value),
                _ => continue,
            },
            (None, None) => continue,
        };
        flag.kind.check(&source, &value)?;
        values.insert(flag.name, value);
    }
    Ok(Args { operands, values })
}

/// The error for a flag `cmd` does not take, with a `did you mean` hint
/// when one of its flags is a near miss (edit distance <= 2).
fn unknown_flag(cmd: &Command, name: &str) -> String {
    let mut msg = format!("unknown flag `--{name}` for `cstuner {}`\n", cmd.name);
    match nearest(name, cmd.flags.iter().map(|f| f.name)) {
        Some(near) => msg += &format!("did you mean `--{near}`?"),
        None if cmd.flags.is_empty() => msg += &format!("`cstuner {}` takes no flags", cmd.name),
        None => {
            let list: Vec<String> = cmd.flags.iter().map(|f| format!("--{}", f.name)).collect();
            msg += &format!("supported: {}", list.join(", "));
        }
    }
    msg
}

/// The row `argv` selects and the words after its name. A leading flag
/// means `tune`; no command, or `help`, prints usage and exits 0; an
/// unknown command exits 2.
fn find_command(argv: &[String]) -> (&'static Command, &[String]) {
    let word = |i: usize| argv.get(i).map_or("", String::as_str);
    let find = |name: &str| COMMANDS.iter().find(|c| c.name == name);
    match word(0) {
        "" | "help" => die(0, usage("")),
        "--version" => return (find("version").expect("version row"), &argv[1..]),
        first if first.starts_with("--") => return (find("tune").expect("tune row"), argv),
        _ => {}
    }
    let pair = format!("{} {}", word(0), word(1));
    if let Some(cmd) = find(&pair) {
        return (cmd, &argv[2..]);
    }
    if let Some(cmd) = find(word(0)) {
        return (cmd, &argv[1..]);
    }
    match (COMMANDS.iter().any(|c| c.family() == word(0)), word(1)) {
        (true, "") => die(2, usage(word(0))),
        (true, _) => die(2, format!("unknown command `{pair}`\n{}", usage(word(0)))),
        (false, _) => die(2, format!("unknown command `{}`\n{}", word(0), usage(""))),
    }
}

/// Print `msg` to stderr and exit with `code`: 2 for bad input, 1 for a
/// failure while running.
fn die(code: i32, msg: impl Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(code)
}

trait OrDie<T> {
    /// The value, or [`die`] with the error as the message.
    fn or_die(self, code: i32) -> T;
}

impl<T, E: Display> OrDie<T> for Result<T, E> {
    fn or_die(self, code: i32) -> T {
        self.unwrap_or_else(|e| die(code, e))
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = find_command(&argv);
    let args = parse(cmd, rest).or_die(2);
    (cmd.run)(&args);
}

fn read_file(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| die(2, format!("cannot read `{path}`: {e}")))
}

fn write_file(path: &str, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| die(2, format!("cannot write `{path}`: {e}")));
}

/// Write `text` to `--save FILE` when one is given.
fn save(args: &Args, text: &str) {
    if let Some(path) = args.text("save").filter(|p| !p.is_empty()) {
        write_file(path, text);
    }
}

fn cmd_list(_: &Args) {
    println!("Stencils (paper suite):");
    for k in suite::all_kernels() {
        println!(
            "  {:11} {}³-ish grid {:?}, order {}, {} flops/pt, {} arrays",
            k.spec.name, k.spec.grid[0], k.spec.grid, k.spec.order, k.spec.flops, k.spec.io_arrays
        );
    }
    println!("Stencils (extensions):");
    for k in suite_ext::extension_kernels() {
        println!(
            "  {:11} grid {:?}, order {}, {} flops/pt, {} arrays",
            k.spec.name, k.spec.grid, k.spec.order, k.spec.flops, k.spec.io_arrays
        );
    }
    println!("GPUs: a100, v100, small");
    println!("Tuners:");
    for t in cstuner::baselines::zoo::tuners() {
        let default = if t.flag == "cstuner" { " (default)" } else { "" };
        println!("  {:9} {}{default}", t.flag, t.summary);
    }
    println!("Warm-start: {}", warm_provider_line());
}

fn cmd_version(_: &Args) {
    println!(
        "cstuner {} (journal schema v{})",
        env!("CARGO_PKG_VERSION"),
        cstuner::telemetry::SCHEMA_VERSION
    );
    println!("tuners: {}", cstuner::baselines::zoo::flag_list());
    println!("warm-start: {}", warm_provider_line());
}

/// One-line warm-start provider report shared by `list` and `version`:
/// the KB schema this build speaks and whether `CST_WARM` names a store
/// with a built index.
fn warm_provider_line() -> String {
    match std::env::var("CST_WARM").ok().filter(|d| !d.is_empty()) {
        Some(dir) => {
            let state = if KnowledgeBase::path_in(Path::new(&dir)).exists() {
                "kb.json present"
            } else {
                "kb.json missing — run `cstuner kb build`"
            };
            format!("kb schema v{KB_VERSION}, provider CST_WARM={dir} ({state})")
        }
        None => format!("kb schema v{KB_VERSION}, no provider configured (--warm DIR or CST_WARM)"),
    }
}

/// A tune-family command line as a validated [`TuneRequest`] (exit 2).
fn tune_request(args: &Args) -> TuneRequest {
    let mut req = TuneRequest::build(
        args.text("stencil"),
        args.text("arch"),
        args.text("tuner"),
        args.u64("seed"),
        args.seconds("budget"),
        args.on("quick"),
        args.on("fault-off").then_some(FaultSpec::Off),
    )
    .or_die(2);
    req.warm = args.text("warm").map(str::to_string);
    req
}

/// Human-readable outcome block, identical for local and served runs.
fn print_outcome(d: &DoneInfo) {
    println!("tuner:      {}", d.tuner);
    println!(
        "best:       {:.4} ms  ({:.2}x over untuned baseline {:.4} ms)",
        d.best_ms,
        d.baseline_ms / d.best_ms,
        d.baseline_ms
    );
    println!("setting:    {}", d.setting);
    println!("evals:      {}", d.evaluations);
    println!("search:     {:.1} s virtual", d.search_s);
    // Only a hostile testbed (CST_FAULT_SEED) produces nonzero counters;
    // keeping the line conditional preserves byte-identical fault-free
    // output.
    if d.faults.any() {
        let f = &d.faults;
        println!(
            "faults:     {} compile, {} launch, {} timeout, {} outliers; {} retries, {} quarantined",
            f.compile_errors, f.launch_failures, f.timeouts, f.outliers, f.retries, f.quarantined
        );
    }
}

fn run_tune(args: &Args) -> (StencilKernel, SessionOutcome) {
    let req = tune_request(args);
    let kernel = cstuner::serve::find_stencil(&req.stencil).expect("request validated");
    let arch = GpuArch::by_name(&req.arch).expect("request validated");
    let tuner_display =
        cstuner::baselines::zoo::find(&req.tuner).expect("request validated").display;
    let tel = match args.text("journal") {
        Some(p) => Telemetry::to_file(Path::new(p))
            .unwrap_or_else(|e| die(2, format!("cannot open journal `{p}`: {e}"))),
        None => Telemetry::noop(),
    };
    eprintln!(
        "Tuning {} on simulated {} with {} ({}s budget, seed {})...",
        kernel.spec.name, arch.name, tuner_display, req.budget_s, req.seed
    );
    let session = cstuner::serve::run_session(&req, &tel, None)
        .unwrap_or_else(|e| die(1, format!("tuning failed: {e}")));
    if let Some(w) = &session.warm {
        eprintln!(
            "warm-start: {} seeds from {} ({} mode, {} training rows)",
            w.seeds, w.store, w.mode, w.n_train
        );
    }
    print_outcome(&DoneInfo::new(&session));
    (kernel, session)
}

fn cmd_tune(args: &Args) {
    run_tune(args);
}

fn cmd_codegen(args: &Args) {
    let (kernel, session) = run_tune(args);
    let src = generate_cuda(&kernel, &session.outcome.best_setting);
    match args.text("out").filter(|p| !p.is_empty()) {
        Some(path) => {
            write_file(path, &src.code);
            eprintln!("wrote {} bytes to {path}", src.code.len());
        }
        None => println!("\n{}", src.code),
    }
}

fn journal_lines(args: &Args) -> Vec<String> {
    read_file(&args.operands[0]).lines().map(str::to_string).collect()
}

fn cmd_report(args: &Args) {
    let lines = journal_lines(args);
    let text = if args.on("json") {
        // Machine-readable form: the same versioned RunSummary the obs
        // archive stores, as one JSON object.
        obs::summarize("report", &lines).map(|summary| summary.to_json() + "\n")
    } else {
        report::render_report(&lines)
    };
    print!("{}", text.unwrap_or_else(|e| die(1, format!("invalid journal: {e}"))));
}

fn cmd_journal_check(args: &Args) {
    let summary = schema::validate_journal(&journal_lines(args))
        .unwrap_or_else(|e| die(1, format!("invalid journal: {e}")));
    println!(
        "ok: {} records, {} event types ({})",
        summary.records,
        summary.types_seen.len(),
        summary.types_seen.join(", ")
    );
}

fn cmd_metrics_check(args: &Args) {
    let path = &args.operands[0];
    let text = read_file(path);
    let Some(line) = text.lines().find(|l| !l.trim().is_empty()) else {
        die(1, format!("`{path}` is empty"))
    };
    cstuner::serve::validate_metrics_frame(line)
        .unwrap_or_else(|e| die(1, format!("invalid metrics frame: {e}")));
    println!("ok: valid metrics frame");
}

/// The obs/kb archive directory: `--store DIR`, by default `results/obs`.
fn obs_store_dir(args: &Args) -> &str {
    args.text("store").unwrap_or("results/obs")
}

fn obs_store(args: &Args) -> JournalStore {
    JournalStore::open(Path::new(obs_store_dir(args))).or_die(2)
}

/// Load a run argument, a journal or a `*.summary.json` (exit 2).
fn obs_load(path: &str) -> obs::Run {
    obs::load_run(Path::new(path))
        .unwrap_or_else(|e| die(2, format!("cannot load run `{path}`: {e}")))
}

fn obs_ingest(args: &Args) {
    let name = args.text("name");
    if name.is_some() && args.operands.len() > 1 {
        die(2, "--name only applies to a single journal");
    }
    let store = obs_store(args);
    for journal in &args.operands {
        let s = store
            .ingest_file(Path::new(journal), name)
            .unwrap_or_else(|e| die(1, format!("cannot ingest `{journal}`: {e}")));
        println!(
            "ingested {} -> {} (best {:.4} ms, {} evals)",
            journal,
            store.path_of(&s.source).display(),
            s.best_ms,
            s.evaluations
        );
    }
}

/// The summaries of the two run operands.
fn obs_pair(args: &Args) -> (obs::RunSummary, obs::RunSummary) {
    (obs_load(&args.operands[0]).summary, obs_load(&args.operands[1]).summary)
}

fn obs_diff(args: &Args) {
    let (base, cand) = obs_pair(args);
    let diff = obs::diff_runs(&base, &cand);
    print!("{}", obs::render_diff(&diff));
}

fn obs_gate(args: &Args) {
    let (base, cand) = obs_pair(args);
    let diff = obs::diff_runs(&base, &cand);
    let gate = obs::evaluate_gate(&diff);
    let text = format!("{}{}\n", obs::render_gate_dashboard(&gate), obs::verdict_json(&gate));
    print!("{text}");
    save(args, &text);
    std::process::exit(gate.exit_code());
}

fn obs_profile(args: &Args) {
    match (args.operands.as_slice(), args.on("diff")) {
        ([base, cand], true) => {
            let (b, c) = (obs_load(base).profile, obs_load(cand).profile);
            let metrics = obs::diff_profiles(&b, &c);
            print!("{}", obs::render_profile_diff(&b, &c, &metrics));
        }
        ([run], false) => {
            let p = obs_load(run).profile;
            if args.on("json") {
                println!("{}", obs::profile_json(&p));
            } else if args.on("fold") {
                print!("{}", obs::render_fold(&p));
            } else {
                print!("{}", obs::render_profile(&p));
            }
        }
        _ => die(2, usage("obs")),
    }
}

fn obs_dashboard(args: &Args) {
    let summaries = obs_store(args).load_all().or_die(1);
    let text = if args.on("json") {
        obs::dashboard_json(&summaries) + "\n"
    } else {
        obs::render_dashboard(&summaries)
    };
    print!("{text}");
    save(args, &text);
}

/// The knowledge base in the obs store (exit 1 when broken or absent).
fn load_kb(args: &Args) -> KnowledgeBase {
    let dir = obs_store_dir(args);
    KnowledgeBase::load(Path::new(dir)).or_die(1).unwrap_or_else(|| {
        die(1, format!("no {KB_FILE} in `{dir}` — run `cstuner kb build` first"))
    })
}

fn kb_build(args: &Args) {
    let store = obs_store(args);
    let build = KnowledgeBase::build(&store).or_die(1);
    for warning in &build.warnings {
        eprintln!("warning: {warning}");
    }
    build.kb.save(store.dir()).or_die(1);
    println!(
        "kb build: {} records from {} runs -> {} (schema v{KB_VERSION}, {} skipped)",
        build.kb.records.len(),
        store.list().map(|l| l.len()).unwrap_or(0),
        KnowledgeBase::path_in(store.dir()).display(),
        build.warnings.len()
    );
}

fn kb_stat(args: &Args) {
    let kb = load_kb(args);
    println!(
        "kb stat: schema v{KB_VERSION}, {} records, {} (stencil, arch) pairs",
        kb.records.len(),
        kb.pairs().len()
    );
    for (stencil, arch, n) in kb.pairs() {
        println!("  {stencil:<11} {arch:<6} {n:>6} records");
    }
}

fn kb_rank(args: &Args) {
    let Some(stencil) = args.text("stencil").filter(|s| !s.is_empty()) else {
        die(2, "--stencil is required for `cstuner kb rank`")
    };
    // Sessions rank for the arch's canonical name, so `kb rank` does too.
    let arch = cstuner::serve::find_arch(args.text("arch").unwrap_or("a100")).or_die(2);
    let top = args.u64("top").map_or(DEFAULT_TOP_K, |t| t as usize);
    let kb = load_kb(args);
    let w = warm_seeds(&kb, stencil, arch.name, top, args.u64("seed").unwrap_or(0));
    println!(
        "kb rank: {stencil} on {} — {} mode, {} training rows, {} candidates",
        arch.name, w.mode, w.n_train, w.candidates
    );
    for (i, s) in w.seeds.iter().enumerate() {
        println!("  #{:<3} {s}", i + 1);
    }
    if w.seeds.is_empty() {
        println!("  (no recorded settings for this stencil)");
    }
}

fn kb_gate(args: &Args) {
    let pct = args.u64("pct").unwrap_or(5) as u32;
    let (cold_run, warm_run) = obs_pair(args);
    let evals = |run: &obs::RunSummary, label: &str| match run.milestone(pct) {
        Some(m) => {
            println!(
                "{label:<5} {:<24} within {pct}% after {} evals (iteration {})",
                run.source, m.evals, m.iteration
            );
            m.evals
        }
        None => {
            println!("{label:<5} {:<24} never reached within {pct}%", run.source);
            u64::MAX
        }
    };
    let (c, w) = (evals(&cold_run, "cold"), evals(&warm_run, "warm"));
    if w <= c {
        println!("kb gate: PASS — warm start reached the {pct}% milestone in <= cold evals");
    } else {
        println!("kb gate: FAIL — warm start needed more evals than cold");
        std::process::exit(1);
    }
}

/// Read and validate the spec named by the operand (exit 2).
fn campaign_spec(args: &Args) -> campaign::CampaignSpec {
    let path = &args.operands[0];
    campaign::CampaignSpec::from_json(&read_file(path))
        .unwrap_or_else(|e| die(2, format!("invalid campaign spec `{path}`: {e}")))
}

/// The campaign-scoped archive: `--store DIR` or `results/campaign/<name>`.
fn campaign_store(args: &Args, spec: &campaign::CampaignSpec) -> JournalStore {
    let dir = match args.text("store").filter(|d| !d.is_empty()) {
        Some(dir) => dir.to_string(),
        None => format!("results/campaign/{}", spec.name),
    };
    JournalStore::open(Path::new(&dir)).or_die(2)
}

fn campaign_run(args: &Args) {
    let spec = campaign_spec(args);
    let store = campaign_store(args, &spec);
    if args.on("fresh") {
        let removed = campaign::forget_cells(&spec, &store).or_die(1);
        eprintln!("dropped {removed} archived cells");
    }
    let backend = match args.text("addr") {
        Some(addr) => campaign::Backend::Daemon(addr.to_string()),
        None => campaign::Backend::InProcess,
    };
    let run = campaign::run_campaign(&spec, &store, &backend, &mut |i, total, cell, state| {
        let what = match state {
            campaign::CellState::Cached => "cached",
            campaign::CellState::Ran => "done",
        };
        eprintln!("  [{i}/{total}] {} {what}", cell.name());
    })
    .or_die(1);
    println!(
        "campaign {}: {} executed, {} cached ({} cells) -> {}",
        spec.name,
        run.executed,
        run.cached,
        run.cells.len(),
        store.dir().display()
    );
    let (have, missing) = campaign::load_cells(&spec, &store).or_die(1);
    let stats = campaign::aggregate(&have);
    if args.on("json") {
        println!("{}", campaign::campaign_json(&spec.name, &stats, &missing));
    } else {
        print!("{}", campaign::render_campaign(&spec.name, &stats, &missing));
    }
}

fn campaign_status(args: &Args) {
    let spec = campaign_spec(args);
    let store = campaign_store(args, &spec);
    let (have, missing) = campaign::load_cells(&spec, &store).or_die(1);
    println!(
        "campaign {}: {}/{} cells archived in {}",
        spec.name,
        have.len(),
        have.len() + missing.len(),
        store.dir().display()
    );
    for cell in &missing {
        println!("  pending {}", cell.name());
    }
}

fn campaign_report(args: &Args) {
    let spec = campaign_spec(args);
    let store = campaign_store(args, &spec);
    let (have, missing) = campaign::load_cells(&spec, &store).or_die(1);
    let stats = campaign::aggregate(&have);
    let text = if args.on("json") {
        campaign::campaign_json(&spec.name, &stats, &missing) + "\n"
    } else {
        campaign::render_campaign(&spec.name, &stats, &missing)
    };
    print!("{text}");
    save(args, &text);
}

fn campaign_gate(args: &Args) {
    let spec = campaign_spec(args);
    let Some(baseline_dir) = args.text("baseline").filter(|d| !d.is_empty()) else {
        die(2, "--baseline is required: a campaign store directory to gate against")
    };
    let store = campaign_store(args, &spec);
    let baseline_store = JournalStore::open(Path::new(baseline_dir)).or_die(2);
    let (baseline, _) = campaign::load_cells(&spec, &baseline_store).or_die(1);
    let (candidate, _) = campaign::load_cells(&spec, &store).or_die(1);
    let gate = campaign::gate_campaign(&baseline, &candidate);
    let text = format!(
        "{}{}\n",
        campaign::render_campaign_gate(&gate),
        campaign::campaign_verdict_json(&gate)
    );
    print!("{text}");
    save(args, &text);
    std::process::exit(gate.exit_code());
}

/// `cstuner serve`: run the tuning-as-a-service daemon in the
/// foreground until a client sends `shutdown`.
fn cmd_serve(args: &Args) {
    let defaults = ServeConfig::default();
    let cfg = ServeConfig {
        addr: args.text("addr").map_or(defaults.addr, str::to_string),
        workers: args.u64("workers").map_or(defaults.workers, |w| w as usize),
        queue_depth: args.u64("queue").map_or(defaults.queue_depth, |q| q as usize),
        archive: args.text("archive").filter(|p| !p.is_empty()).map(PathBuf::from),
    };
    let server = Server::bind(&cfg).or_die(1);
    // Stdout is line-buffered: this line reaches a redirected log
    // immediately, so scripts can parse the (possibly ephemeral) port.
    println!("listening on {}", server.local_addr());
    eprintln!(
        "cst-serve: {} workers, queue depth {}{}",
        cfg.workers.max(1),
        cfg.queue_depth,
        cfg.archive.as_ref().map(|d| format!(", archiving to {}", d.display())).unwrap_or_default()
    );
    let workers = server.start_workers();
    server.serve();
    for w in workers {
        let _ = w.join();
    }
    eprintln!("cst-serve: drained and stopped");
}

/// The daemon a client command talks to: `--addr`, `CST_ADDR`, or the
/// serve default.
fn daemon_addr(args: &Args) -> String {
    args.text("addr").map_or_else(|| ServeConfig::default().addr, str::to_string)
}

fn client_connect(args: &Args) -> Connection {
    Connection::connect(&daemon_addr(args)).or_die(1)
}

/// Send one request and return the daemon's first reply frame (exit 1
/// when it sends none).
fn daemon_reply(args: &Args, request: &str) -> String {
    let frames = cstuner::serve::roundtrip(&daemon_addr(args), request).or_die(1);
    frames.into_iter().next().unwrap_or_else(|| die(1, "daemon sent no reply"))
}

/// The parsed `frame`, unless it is not a `want` frame (exit 1).
fn expect_frame(frame: &str, want: &str) -> Value {
    match json::parse(frame) {
        Ok(v) if v.get("type").and_then(Value::as_str) == Some(want) => v,
        _ => die(1, format!("unexpected reply: {frame}")),
    }
}

fn json_f64(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

fn json_str(v: &Value, key: &str) -> String {
    v.get(key).and_then(Value::as_str).unwrap_or("").to_string()
}

/// Consume a session stream (from `client tune` or `client watch`):
/// the `accepted` notice goes to stderr, journal records optionally tee
/// into `--journal FILE`. Exits nonzero unless the session finished.
fn client_stream(conn: &mut Connection, args: &Args) {
    let mut journal: Option<std::fs::File> =
        args.text("journal").filter(|p| !p.is_empty()).map(|p| {
            std::fs::File::create(p)
                .unwrap_or_else(|e| die(2, format!("cannot open journal `{p}`: {e}")))
        });
    let done = conn
        .follow_session(|event| match event {
            StreamEvent::Accepted(session) => eprintln!("session {session} accepted (queued)"),
            StreamEvent::Record(line) => {
                if let Some(f) = journal.as_mut() {
                    writeln!(f, "{line}")
                        .unwrap_or_else(|e| die(2, format!("cannot write journal: {e}")));
                }
            }
        })
        .or_die(1);
    print_outcome(&proto::done_info_from_frame(&done));
}

fn client_tune(args: &Args) {
    let req = tune_request(args);
    let mut conn = client_connect(args);
    conn.send_line(&proto::tune_request_line(&req)).or_die(1);
    client_stream(&mut conn, args);
}

fn client_watch(args: &Args) {
    let session = args.u64("session").unwrap_or_else(|| die(2, "--session is required"));
    let mut conn = client_connect(args);
    conn.send_line(&proto::session_request_line("watch", session)).or_die(1);
    client_stream(&mut conn, args);
}

fn client_status(args: &Args) {
    // Without --session: the whole-daemon summary.
    let request = match args.u64("session") {
        Some(id) => proto::session_request_line("status", id),
        None => proto::status_summary_request_line(),
    };
    print_session_reply(&daemon_reply(args, &request));
}

fn client_cancel(args: &Args) {
    let session = args.u64("session").unwrap_or_else(|| die(2, "--session is required"));
    print_session_reply(&daemon_reply(args, &proto::session_request_line("cancel", session)));
}

/// Print a `session` or `status` reply; an `error` reply is the daemon's
/// message and anything else is unexpected (exit 1 both).
fn print_session_reply(frame: &str) {
    let v = json::parse(frame).unwrap_or(Value::Null);
    match v.get("type").and_then(Value::as_str) {
        Some("session") => println!(
            "session {}: {} ({} records)",
            uint(&v, "session"),
            json_str(&v, "state"),
            uint(&v, "records")
        ),
        Some("status") => {
            let s = v.get("sessions");
            let count = |k: &str| s.map(|s| uint(s, k)).unwrap_or(0);
            println!(
                "sessions: {} queued, {} running, {} done, {} failed, {} cancelled",
                count("queued"),
                count("running"),
                count("done"),
                count("failed"),
                count("cancelled")
            );
            for row in v.get("list").and_then(Value::as_arr).unwrap_or(&[]) {
                println!(
                    "  session {}: {} ({} records) {}/{} {} seed {}",
                    uint(row, "session"),
                    json_str(row, "state"),
                    uint(row, "records"),
                    json_str(row, "stencil"),
                    json_str(row, "arch"),
                    json_str(row, "tuner"),
                    uint(row, "seed")
                );
            }
        }
        Some("error") => die(1, json_str(&v, "message")),
        _ => die(1, format!("unexpected reply: {frame}")),
    }
}

fn client_metrics(args: &Args) {
    if args.on("watch") {
        return metrics_watch(args);
    }
    let frame = daemon_reply(args, &proto::metrics_request_line());
    let v = expect_frame(&frame, "metrics");
    if args.on("json") {
        println!("{frame}");
    } else {
        print!("{}", render_metrics_frame(&v));
    }
}

fn client_shutdown(args: &Args) {
    let v = expect_frame(&daemon_reply(args, &proto::shutdown_request_line()), "bye");
    println!("daemon stopped after {} sessions", uint(&v, "sessions_completed"));
}

/// One `name value` line per numeric field of an object section.
fn metrics_kv_section(out: &mut String, v: &Value, key: &str, title: &str) {
    if let Some(Value::Obj(fields)) = v.get(key) {
        if fields.is_empty() {
            return;
        }
        let _ = writeln!(out, "{title}:");
        for (name, val) in fields {
            if let Value::Num(x) = val {
                if *x == x.trunc() && x.abs() < 1e15 {
                    let _ = writeln!(out, "  {name:<28} {:>12}", *x as i64);
                } else {
                    let _ = writeln!(out, "  {name:<28} {x:>12.3}");
                }
            }
        }
    }
}

/// One `name count p50 p95 max` line per non-empty histogram digest.
fn metrics_hist_section(out: &mut String, v: &Value, key: &str, title: &str) {
    if let Some(Value::Obj(fields)) = v.get(key) {
        let live: Vec<_> = fields.iter().filter(|(_, h)| uint(h, "count") > 0).collect();
        if live.is_empty() {
            return;
        }
        let _ = writeln!(out, "{title}:");
        for (name, h) in live {
            let (p50, p95) = journal::hist_percentiles(h).unwrap_or((f64::NAN, f64::NAN));
            let _ = writeln!(
                out,
                "  {name:<28} count {:>8}  p50 {p50:>10.3}  p95 {p95:>10.3}  max {:>10.3}",
                uint(h, "count"),
                json_f64(h, "max")
            );
        }
    }
}

/// Render a parsed `metrics` frame as the text dashboard shared by
/// `cstuner client metrics` and `cstuner top`.
fn render_metrics_frame(v: &Value) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "cst-serve metrics v{}  uptime {:.1}s",
        uint(v, "metrics_version"),
        json_f64(v, "wall_uptime_ms") / 1e3
    );
    if let Some(s) = v.get("sessions") {
        let _ = writeln!(
            out,
            "sessions: {} queued, {} running, {} done, {} failed, {} cancelled",
            uint(s, "queued"),
            uint(s, "running"),
            uint(s, "done"),
            uint(s, "failed"),
            uint(s, "cancelled")
        );
    }
    metrics_kv_section(&mut out, v, "counters", "counters");
    metrics_kv_section(&mut out, v, "gauges", "gauges");
    metrics_hist_section(&mut out, v, "hists", "histograms");
    metrics_kv_section(&mut out, v, "wall_counters", "wall counters");
    metrics_hist_section(&mut out, v, "wall_hists", "request latency (wall ms)");
    if let Some(rows) = v.get("wall_memo").and_then(Value::as_arr) {
        if !rows.is_empty() {
            let _ = writeln!(out, "shared memo:");
            for m in rows {
                let _ = writeln!(
                    out,
                    "  {:<28} hits {:>8}  misses {:>8}  evictions {:>6}  entries {:>8} (cap {})",
                    format!("{}/{}", json_str(m, "stencil"), json_str(m, "arch")),
                    uint(m, "hits"),
                    uint(m, "misses"),
                    uint(m, "evictions"),
                    uint(m, "entries"),
                    uint(m, "cap")
                );
            }
        }
    }
    out
}

/// Poll the daemon's metrics every `--interval` seconds (2 by default)
/// and render the dashboard — one connection per poll, since the daemon
/// answers one request per connection. `--count` bounds the polls
/// (absent = forever). On a terminal each poll repaints the screen;
/// piped output separates polls with a blank line.
fn metrics_watch(args: &Args) {
    let interval = Duration::from_secs_f64(args.seconds("interval").unwrap_or(2.0).max(0.05));
    let count = args.u64("count");
    let mut polls = 0u64;
    loop {
        let v = expect_frame(&daemon_reply(args, &proto::metrics_request_line()), "metrics");
        if std::io::stdout().is_terminal() {
            print!("\x1b[2J\x1b[H");
        } else if polls > 0 {
            println!();
        }
        print!("{}", render_metrics_frame(&v));
        polls += 1;
        if count.is_some_and(|c| polls >= c) {
            return;
        }
        std::thread::sleep(interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_module_doc_synopsis_is_the_table() {
        let doc: Vec<&str> = include_str!("cstuner.rs")
            .lines()
            .skip_while(|l| *l != "//! ```text")
            .skip(1)
            .take_while(|l| *l != "//! ```")
            .map(|l| l.strip_prefix("//! ").unwrap_or(l))
            .collect();
        let table: Vec<String> = COMMANDS.iter().flat_map(Command::synopsis).collect();
        assert_eq!(doc, table);
    }
}
