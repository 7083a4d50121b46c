//! The machine-speed probe.
//!
//! The reference host is a two-vCPU VM whose memory system is shared
//! with other tenants: the same run takes up to 30% longer from one
//! minute to the next, while a pure ALU loop barely moves. A fixed
//! hash-map workload, owned by the benchmark and never run by the
//! library, tracks that slowdown. It is timed between sessions, and each
//! CPU-bound session is reported rescaled by the probes taken within a
//! few seconds of it, so a slow minute does not read as a regression.
//! The raw wall-clock values are printed next to them.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The probe's time on the reference host in its fast state; rescaled
/// values are "milliseconds at this probe speed".
pub const PROBE_NOMINAL_NS: f64 = 1_400_000.0;

/// Minimum time between two probes.
const INTERVAL: Duration = Duration::from_millis(100);

/// Probes within this distance of a session rescale it: short enough to
/// follow the host's drift within a run, long enough to hold dozens of
/// probes.
const WINDOW: Duration = Duration::from_millis(1500);

/// One probe: 20k inserts and 20k lookups in a fixed-hasher map.
fn probe_ns() -> f64 {
    type Fixed = BuildHasherDefault<std::collections::hash_map::DefaultHasher>;
    let t = Instant::now();
    let mut m: HashMap<u64, u64, Fixed> = HashMap::default();
    let mut x = 1u64;
    for _ in 0..20_000 {
        x = x.wrapping_mul(0x5851_f42d_4c95_7f2d).wrapping_add(1);
        m.insert(x >> 40, x);
    }
    let mut acc = 0u64;
    for k in 0..20_000u64 {
        acc = acc.wrapping_add(*m.get(&k).unwrap_or(&0));
    }
    black_box(acc);
    t.elapsed().as_nanos() as f64
}

/// Probe samples of one run.
#[derive(Debug, Default)]
pub struct Speed {
    samples: Vec<(Instant, f64)>,
    /// Seconds spent probing (excluded from throughput).
    pub spent_s: f64,
}

impl Speed {
    /// Probe if the last probe is at least [`INTERVAL`] old.
    pub fn tick(&mut self) {
        if self.samples.last().is_none_or(|(t, _)| t.elapsed() >= INTERVAL) {
            self.probe(1);
        }
    }

    /// Probe `n` times now.
    pub fn probe(&mut self, n: usize) {
        let t = Instant::now();
        for _ in 0..n {
            self.samples.push((Instant::now(), probe_ns()));
        }
        self.spent_s += t.elapsed().as_secs_f64();
    }

    /// Probe samples so far.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    fn slowdown_of(ns: &[f64]) -> f64 {
        crate::stats::median(ns) / PROBE_NOMINAL_NS
    }

    /// How much slower than nominal the machine was over the whole run
    /// (median probe time over nominal; 1 when no probe ran).
    pub fn slowdown(&self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        Self::slowdown_of(&self.samples.iter().map(|(_, ns)| *ns).collect::<Vec<_>>())
    }

    /// The slowdown around `at`: from the probes within [`WINDOW`] of it,
    /// or the whole run's when there are none.
    pub fn slowdown_at(&self, at: Instant) -> f64 {
        let near: Vec<f64> = self
            .samples
            .iter()
            .filter(|(t, _)| t.max(&at).duration_since(*t.min(&at)) <= WINDOW)
            .map(|(_, ns)| *ns)
            .collect();
        if near.is_empty() {
            self.slowdown()
        } else {
            Self::slowdown_of(&near)
        }
    }
}
