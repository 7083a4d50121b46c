//! What every workload collects, the output checks, and the process
//! plumbing shared by the in-process and served workloads.

use crate::gen;
use crate::speed::Speed;
use crate::stats::Fnv;
use crate::trace::Span;
use cst_gpu_sim::{GpuArch, GpuSim};
use cst_serve::{SessionOutcome, TuneRequest};
use cst_space::Setting;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Run parameters shared by every workload.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Seconds of measurement; the round in progress is finished.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the plain one.
    pub trace: bool,
    /// Scratch directory for stores and journals.
    pub tmp: PathBuf,
    /// The `cstuner` binary the served workloads start.
    pub cstuner: PathBuf,
}

/// A session's result, as `cstuner tune` would print it.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Best measured kernel time, ms.
    pub best_ms: f64,
    /// Untuned baseline kernel time, ms.
    pub baseline_ms: f64,
    /// Best setting, display form.
    pub setting: String,
    /// Unique settings evaluated.
    pub evaluations: u64,
}

impl Outcome {
    /// From an in-process session.
    pub fn of(s: &SessionOutcome) -> Self {
        Outcome {
            best_ms: s.outcome.best_time_ms,
            baseline_ms: s.baseline_ms,
            setting: s.outcome.best_setting.to_string(),
            evaluations: s.outcome.evaluations,
        }
    }

    /// Bit-level equality (`==` on f64 would equate 0.0 and -0.0).
    pub fn same_bits(&self, o: &Outcome) -> bool {
        self.best_ms.to_bits() == o.best_ms.to_bits()
            && self.baseline_ms.to_bits() == o.baseline_ms.to_bits()
            && self.setting == o.setting
            && self.evaluations == o.evaluations
    }
}

/// One measured session.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Round it belongs to.
    pub round: usize,
    /// Position in the round's request list.
    pub idx: usize,
    /// The request.
    pub req: TuneRequest,
    /// When it started.
    pub at: Instant,
    /// Wall latency, ms: the `run_session` call in process, request sent
    /// to `session_done` received when served.
    pub ms: f64,
    /// What it found.
    pub outcome: Outcome,
}

/// Everything a workload run hands back to the reporter.
#[derive(Default)]
pub struct Collected {
    /// Measured sessions (untraced ones only in a traced run).
    pub samples: Vec<Sample>,
    /// Sessions attempted, failed ones included.
    pub attempted: u64,
    /// Seconds of measurement.
    pub measured_s: f64,
    /// One entry per set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Peak resident set, KiB: of this process after round 0 in process,
    /// the median over rounds of each round's daemon when served.
    pub peak_rss_kb: u64,
    /// One line per failed or wrong session.
    pub failures: Vec<String>,
    /// Per-layer metrics (traced runs only), by name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Recorded spans (traced runs only).
    pub spans: Vec<Span>,
    /// Machine-speed probes taken during the run.
    pub speed: Speed,
}

impl Collected {
    /// Note a failed or wrong session.
    pub fn fail(&mut self, what: String) {
        eprintln!("cstbench: FAIL {what}");
        self.failures.push(what);
    }
}

/// Run [`Checker`] over every sample; outside the measured time.
pub fn check_all(c: &mut Collected) {
    let mut checker = Checker::default();
    let bad: Vec<String> = c
        .samples
        .iter()
        .filter_map(|s| {
            let e = checker.check(&s.req, &s.outcome).err()?;
            Some(format!("round {} request {} ({}): {e}", s.round, s.idx, gen::identity(&s.req)))
        })
        .collect();
    for b in bad {
        c.fail(b);
    }
}

/// FNV-1a over round 0, in request order: each request's identity, its
/// best time's bits, its evaluation count and its best setting. (A
/// traced served run runs round 0 twice; the passes agree bit for bit.)
pub fn outcome_digest(samples: &[Sample]) -> u64 {
    let mut first: Vec<&Sample> = samples.iter().filter(|s| s.round == 0).collect();
    first.sort_by_key(|s| s.idx);
    first.dedup_by_key(|s| s.idx);
    let mut h = Fnv::default();
    for s in first {
        h.update(gen::identity(&s.req).as_bytes());
        h.update(&s.outcome.best_ms.to_bits().to_le_bytes());
        h.update(&s.outcome.evaluations.to_le_bytes());
        h.update(s.outcome.setting.as_bytes());
    }
    h.finish()
}

/// Checks a session's outcome against the simulator model, which plays
/// the GPU: the best setting must parse and its reported time must be a
/// measurement of it (the evaluator's noise is 1.5% relative, so ±15% is
/// far outside any honest draw). Validity is not required: the grid
/// sweep measures lattice points the resource model rejects, and may
/// report one as its best.
#[derive(Default)]
pub struct Checker {
    models: BTreeMap<(String, String), GpuSim>,
}

impl Checker {
    /// `Err` with the reason when the outcome is not a real result.
    pub fn check(&mut self, req: &TuneRequest, o: &Outcome) -> Result<(), String> {
        let sim = self.models.entry((req.stencil.clone(), req.arch.clone())).or_insert_with(|| {
            let spec = cst_serve::find_stencil(&req.stencil).expect("validated stencil").spec;
            let arch = GpuArch::by_name(&req.arch).expect("validated arch");
            GpuSim::new(spec, arch).without_memo()
        });
        let s: Setting = o
            .setting
            .parse()
            .map_err(|e| format!("best setting `{}` unparseable: {e}", o.setting))?;
        let t = sim.kernel_time_ms(&s);
        let ratio = o.best_ms / t;
        if !(0.85..=1.15).contains(&ratio) {
            return Err(format!("best_ms {} is not a measurement of {t} ms", o.best_ms));
        }
        let base = sim.kernel_time_ms(&Setting::baseline());
        if o.baseline_ms.to_bits() != base.to_bits() {
            return Err(format!("baseline_ms {} != model {base}", o.baseline_ms));
        }
        if o.evaluations == 0 {
            return Err("no evaluations".to_string());
        }
        Ok(())
    }
}

/// A round's requests; under `cargo test` only the first
/// [`SMOKE_REQUESTS`], so a smoke run of every workload stays short even
/// in a debug build.
pub fn cap_round(mut reqs: Vec<TuneRequest>) -> Vec<TuneRequest> {
    if cfg!(test) {
        reqs.truncate(SMOKE_REQUESTS);
    }
    reqs
}

/// Requests per round in the smoke tests.
const SMOKE_REQUESTS: usize = 4;

/// A scratch directory inside the build directory, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    /// `$CARGO_TARGET_DIR/cstbench-tmp/run-<pid>-<n>` (the target
    /// directory defaulting to `.bench_build`), created fresh.
    pub fn new() -> Result<TempDir, String> {
        static N: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let base = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(".bench_build"));
        let dir = base.join("cstbench-tmp").join(format!("run-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let dir = dir.canonicalize().map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only if no other run uses it
        }
    }
}

// The C layout of `struct rusage` on Linux x86-64 and aarch64: two
// timevals, then 14 longs. Only `maxrss` is read.
#[allow(dead_code)]
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
}

/// This process's peak resident set size in KiB (`ru_maxrss`).
pub fn peak_rss_kb() -> u64 {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` (layout above);
    // getrusage writes nothing beyond it. 0 is RUSAGE_SELF.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    ru.maxrss.max(0) as u64
}

/// Reap child `pid` if it has exited, without blocking: its wait status
/// and peak resident set size in KiB, or `None` while it still runs.
pub fn try_reap(pid: u32) -> Result<Option<(i32, u64)>, String> {
    let pid = i32::try_from(pid).map_err(|_| format!("pid {pid} out of range"))?;
    let (mut status, mut ru) = (0i32, Rusage::default());
    // SAFETY: `status` and `ru` are live and writable for the call; wait4
    // writes one int and one `struct rusage` (layout above). 1 is WNOHANG.
    let r = unsafe { wait4(pid, &mut status, 1, &mut ru) };
    match r {
        0 => Ok(None),
        r if r == pid => Ok(Some((status, ru.maxrss.max(0) as u64))),
        _ => Err(format!("wait4({pid}): {}", std::io::Error::last_os_error())),
    }
}
