//! Differential validation of the event-driven scheduler core.
//!
//! The scheduler finds its next event with priority queues: a heap peek
//! for the next segment completion and the next monitor deadline, heap
//! pops for the set of due completions. Debug builds keep the linear scans
//! those lookups replaced as an oracle inside the scheduler and assert
//! every lookup equal to its scan, so any drift in the queue bookkeeping —
//! generations, timer rebuilds, due-set collection — panics at the event
//! where it first shows. The oracle compiles only under
//! `debug_assertions`: run these tests with `cargo test`, not `--release`.
//!
//! Each test here is one run per case, chosen to drive the oracle through
//! as many distinct events as possible: the clean scenario registry, and
//! the chaos seed matrix (scripted daemon kills, probe faults, duty-write
//! faults — the same `CHAOS_SEED`-narrowable matrix as
//! `chaos_control_loop.rs`).

use maestro::{Maestro, MaestroConfig, RunReport};
use maestro_bench::scenario::{scenario, SCENARIO_NAMES};
use maestro_machine::FaultPlan;

const MS: u64 = 1_000_000;

/// The clean registry: every scenario runs to a non-degenerate report with
/// the queue lookups checked against the scans at every event.
#[test]
fn drivers_agree_on_every_scenario() {
    for name in SCENARIO_NAMES {
        let sc = scenario(name).expect("registered scenario");
        let r = Maestro::new(sc.config).run(sc.name, &mut (), sc.spec.into_task());
        assert!(r.elapsed_s > 0.0 && r.joules > 0.0, "{name}: degenerate run");
    }
}

/// The chaos seed matrix (narrowable with `CHAOS_SEED=<n>`, as in
/// `chaos_control_loop.rs`).
fn seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("CHAOS_SEED must be an integer seed")],
        Err(_) => (1..=8).collect(),
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit_f64(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// One seeded chaos run of the contended adaptive scenario: scripted
/// daemon kills, transient probe faults, and duty-write faults, all derived
/// deterministically from `seed`.
fn chaos_run(seed: u64) -> RunReport {
    let mut rng = seed;
    let n_kills = 1 + (splitmix(&mut rng) % 2) as usize;
    let kills: Vec<u64> = (0..n_kills)
        .map(|i| 200 * MS + i as u64 * 300 * MS + splitmix(&mut rng) % (100 * MS))
        .collect();
    let read_plan = FaultPlan::new(seed)
        .with_transient_error_rate(0.05 + 0.10 * unit_f64(&mut rng))
        .with_drop_sample_rate(0.05 * unit_f64(&mut rng))
        .with_sample_jitter(2 * MS)
        .with_daemon_kills(&kills);
    let write_plan = FaultPlan::new(seed ^ 0x5eed)
        .with_duty_write_fail_rate(0.10 + 0.15 * unit_f64(&mut rng))
        .with_duty_write_torn_rate(0.10 * unit_f64(&mut rng));

    let sc = scenario("contended-adaptive").expect("registered scenario");
    let mut cfg: MaestroConfig = sc.config;
    cfg.controller.faults = Some(read_plan);
    let mut m = Maestro::try_new(cfg).expect("valid config");
    m.runtime_mut().set_actuation_faults(Some(write_plan));
    m.try_run(sc.name, &mut (), sc.spec.into_task())
        .unwrap_or_else(|e| panic!("seed {seed}: chaos run failed: {e}"))
}

/// Under every seeded fault schedule — fault injection, daemon restarts,
/// and actuator retries included — the queue lookups match the scans.
#[test]
fn drivers_agree_on_chaos_seed_matrix() {
    for seed in seeds() {
        let r = chaos_run(seed);
        assert!(r.elapsed_s > 0.0 && r.joules > 0.0, "CHAOS_SEED={seed}: degenerate run");
    }
}
