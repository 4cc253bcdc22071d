//! The maestro-rs benchmark: end-to-end metrics per workload, and a
//! separate traced run that attributes host time and work to the
//! repository's crates by timing calls into their public functions.
//!
//! Every workload is a sequence of identical *rounds*. A round is a fixed,
//! seed-determined list of simulations; its model outputs (Joules, virtual
//! seconds, work counts) must repeat bit for bit in every round, in every
//! process given the same seed. Host timings are collected over as many
//! whole rounds as fit in the requested time, and each operation and each
//! part of a round is timed at its fastest repetition (see [`run`]).

pub mod fingerprint;
pub mod fleet;
pub mod json;
pub mod paper;
pub mod probes;
pub mod run;
pub mod service;
pub mod snapshot;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0;

/// One step of SplitMix64: advances `state` and returns the next output.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A stream seed derived from the benchmark seed and a fixed salt, so each
/// input stream of a workload moves when the benchmark seed moves.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    let mut s = seed ^ salt.rotate_left(17);
    splitmix(&mut s)
}

/// Deterministic outputs of one round, by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Everything one round produced.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// Host seconds of each operation, pushed onto the buffer the round loop
    /// lends to [`crate::run::Bench::round`].
    pub ops_s: Vec<f64>,
    /// Host seconds of each consecutive part of the round's timed work, in
    /// a fixed order; together they cover the round. Where operations run
    /// one after another they are the parts.
    pub parts_s: Vec<f64>,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// Simulated machine-seconds (node × virtual seconds for the fleet).
    pub sim_s: f64,
    /// Model outputs: `model_energy_j`, `model_time_s` and any
    /// workload-specific model metric.
    pub model: Values,
    /// Deterministic per-layer work counts.
    pub counts: Values,
    /// Host-time per-layer figures this round measured itself (not from
    /// spans), such as the snapshot capture overhead.
    pub host: Values,
    /// Why operations failed, for the log.
    pub errors: Vec<String>,
}

impl Round {
    /// Add `v` to model or count entry `key`.
    pub fn add(map: &mut Values, key: &'static str, v: f64) {
        *map.entry(key).or_insert(0.0) += v;
    }

    /// Keep the larger of the entry and `v`.
    pub fn max(map: &mut Values, key: &'static str, v: f64) {
        let e = map.entry(key).or_insert(v);
        *e = e.max(v);
    }

    /// Record a failed operation and its reason.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.errors.push(why);
    }
}

/// Add the scheduler counters of one run to a round's counts.
pub fn add_run_stats(counts: &mut Values, s: &maestro_runtime::RunStats) {
    Round::add(counts, "runtime.steps", s.steps as f64);
    Round::add(counts, "runtime.spawned", s.spawned as f64);
    Round::add(counts, "runtime.steals", s.steals as f64);
    Round::add(counts, "runtime.tasks_cancelled", s.tasks_cancelled as f64);
    Round::max(counts, "runtime.peak_live_tasks", s.peak_live_tasks as f64);
    Round::add(counts, "runtime.spin_entries", s.spin_entries as f64);
    Round::add(
        counts,
        "runtime.throttled_worker_s",
        s.throttled_worker_ns as f64 * 1e-9,
    );
    Round::add(counts, "runtime.monitor_fires", s.monitor_fires as f64);
    Round::add(counts, "core.duty_writes", s.duty_writes as f64);
    Round::add(
        counts,
        "core.duty_write_attempts",
        s.duty_write_attempts as f64,
    );
}

/// Add a throttle controller summary to a round's counts.
pub fn add_throttle(counts: &mut Values, t: Option<&maestro::ThrottleSummary>) {
    let Some(t) = t else { return };
    Round::add(counts, "core.decisions", t.decisions as f64);
    Round::add(counts, "core.activations", t.activations as f64);
    Round::add(
        counts,
        "core.throttled_decisions",
        (t.throttled_fraction * t.decisions as f64).round(),
    );
}
