//! `snapshot-fork`: `contended-adaptive` under a periodic capture cadence,
//! every capture round-tripped through `to_bytes`/`from_bytes` and
//! fork-resumed across `sweep_limits()`.
//!
//! The seed sets the cadence (10 ms plus up to 0.2 ms), so it moves every
//! suspend point while the number of captures, and the host work of a
//! round, stays nearly the same. An operation is one fork: a fresh facade
//! under one limit variant resuming a decoded capture to completion.
//!
//! The `machine::snap` codec dominates here and nowhere else, with writes
//! (capture, encode) beside reads (decode, restore) on the scheduler and
//! controller stack that `paper-repro` uses differently.

use std::time::Instant;

use maestro::{Maestro, MaestroRunEnd, MaestroSnapshot, RunReport};
use maestro_bench::scenario::{limit_variant, scenario, sweep_limits, Scenario};
use maestro_runtime::{BoxTask, SnapshotPlan};

use crate::run::Bench;
use crate::trace::{self, Layer};
use crate::{add_run_stats, add_throttle, derive_seed, Round};

/// Shortest capture cadence of the writing run, virtual nanoseconds.
pub const CADENCE_NS: u64 = 10_000_000;
/// Forks per round checked against a cold run.
pub const COLD_CHECKS: usize = 3;
const SCENARIO: &str = "contended-adaptive";

pub struct Prepared {
    plain: (Maestro, BoxTask<()>),
    cadence: (Maestro, BoxTask<()>),
    /// One fresh facade and root per cold reference run.
    cold: Vec<(Maestro, BoxTask<()>)>,
    traced: bool,
}

pub struct SnapshotFork {
    sc: Scenario,
    cadence_ns: u64,
    base_limit: usize,
    /// Rounds run so far; the cold checks rotate over the captures.
    rounds: usize,
}

impl SnapshotFork {
    pub fn new(seed: u64) -> Self {
        let sc = scenario(SCENARIO).expect("registered scenario");
        let base_limit = match sc.config.policy {
            maestro::Policy::Adaptive { limit_per_shepherd } => limit_per_shepherd,
            other => panic!("{SCENARIO} must be adaptive, found {other:?}"),
        };
        assert!(
            sweep_limits().contains(&base_limit),
            "the sweep must include the base limit"
        );
        let cadence_ns = CADENCE_NS + derive_seed(seed, 0x5AA9) % 200_001;
        SnapshotFork {
            sc,
            cadence_ns,
            base_limit,
            rounds: 0,
        }
    }

    fn facade(&self, limit: usize, traced: bool) -> Maestro {
        let mut m = Maestro::new(limit_variant(&self.sc.config, limit));
        if traced {
            trace::trace_monitors(&mut m);
        }
        m
    }
}

/// Bit-for-bit equality of two run reports.
fn same_report(a: &RunReport, b: &RunReport) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.elapsed_s.to_bits() == b.elapsed_s.to_bits()
        && a.joules.to_bits() == b.joules.to_bits()
        && a.avg_watts.to_bits() == b.avg_watts.to_bits()
        && bits(&a.chip_temps_c) == bits(&b.chip_temps_c)
        && a.stats == b.stats
        && a.throttle == b.throttle
}

impl Bench for SnapshotFork {
    type Inputs = Prepared;

    fn prepare(&mut self, traced: bool) -> Prepared {
        let root = || self.sc.spec.clone().into_task::<()>();
        Prepared {
            plain: (self.facade(self.base_limit, traced), root()),
            cadence: (self.facade(self.base_limit, traced), root()),
            cold: (0..COLD_CHECKS)
                .map(|_| (self.facade(self.base_limit, traced), root()))
                .collect(),
            traced,
        }
    }

    fn round(&mut self, p: Prepared, ops: Vec<f64>) -> Round {
        let mut r = Round {
            ops_s: ops,
            ..Round::default()
        };
        let name = self.sc.name;

        let (mut m, root) = p.plain;
        let t0 = Instant::now();
        let plain = trace::span(Layer::RuntimeRun, || {
            m.run_captured(name, &mut (), root, &SnapshotPlan::none())
        });
        let plain_s = t0.elapsed().as_secs_f64();
        let (mut m, root) = p.cadence;
        let t0 = Instant::now();
        let cadence = trace::span(Layer::RuntimeRun, || {
            m.run_captured(name, &mut (), root, &SnapshotPlan::every(self.cadence_ns))
        });
        let cadence_s = t0.elapsed().as_secs_f64();
        r.parts_s.extend([plain_s, cadence_s]);
        let (Ok(plain), Ok(cadence)) = (plain, cadence) else {
            r.fail(1, format!("{name}: capture failed"));
            return r;
        };
        let (Some(plain), MaestroRunEnd::Completed(full)) = (plain.report(), &cadence.end) else {
            r.fail(1, format!("{name}: capture runs did not complete"));
            return r;
        };
        r.sim_s += plain.elapsed_s + full.elapsed_s;
        r.host
            .insert("snap.capture_overhead_s", cadence_s - plain_s);

        // Round-trip every capture through the codec.
        let t0 = Instant::now();
        let mut decoded = Vec::with_capacity(cadence.snapshots.len());
        let mut bytes_total = 0usize;
        for snap in &cadence.snapshots {
            let bytes = trace::span(Layer::SnapEncode, || snap.to_bytes());
            bytes_total += bytes.len();
            match trace::span(Layer::SnapDecode, || MaestroSnapshot::from_bytes(&bytes)) {
                Ok(d) if d.t_ns() == snap.t_ns() && d.name() == snap.name() => decoded.push(d),
                Ok(_) => {
                    r.fail(
                        1,
                        format!("{name}: decoded capture differs at t={}", snap.t_ns()),
                    );
                    return r;
                }
                Err(e) => {
                    r.fail(
                        1,
                        format!("{name}: decode failed at t={}: {e}", snap.t_ns()),
                    );
                    return r;
                }
            }
        }
        r.parts_s.push(t0.elapsed().as_secs_f64());
        r.counts.insert("snap.captures", decoded.len() as f64);
        r.counts.insert("snap.bytes", bytes_total as f64);
        if decoded.is_empty() {
            r.fail(1, format!("{name}: the cadence run took no captures"));
            return r;
        }

        let limits = sweep_limits();
        let mut base_forks = Vec::with_capacity(decoded.len());
        for snap in &decoded {
            let t_snap_s = snap.t_ns() as f64 * 1e-9;
            let mut base = None;
            for &limit in limits {
                // Building the variant facade is part of the fork.
                let t0 = Instant::now();
                let mut m = self.facade(limit, p.traced);
                let out = trace::span(Layer::RuntimeRun, || {
                    m.resume_captured(&mut (), snap, &SnapshotPlan::none())
                });
                let dt = t0.elapsed().as_secs_f64();
                r.ops_s.push(dt);
                r.parts_s.push(dt);
                let report = match out.map(|run| run.end) {
                    Ok(MaestroRunEnd::Completed(report)) => report,
                    Ok(MaestroRunEnd::Failed(e)) => {
                        r.fail(1, format!("fork t={} limit {limit}: {e}", snap.t_ns()));
                        continue;
                    }
                    Ok(MaestroRunEnd::Suspended(_)) => {
                        r.fail(
                            1,
                            format!("fork t={} limit {limit}: suspended", snap.t_ns()),
                        );
                        continue;
                    }
                    Err(e) => {
                        r.fail(1, format!("fork t={} limit {limit}: {e}", snap.t_ns()));
                        continue;
                    }
                };
                r.sim_s += report.elapsed_s - t_snap_s;
                Round::add(&mut r.model, "model_energy_j", report.joules);
                Round::add(&mut r.model, "model_time_s", report.elapsed_s);
                add_run_stats(&mut r.counts, &report.stats);
                add_throttle(&mut r.counts, report.throttle.as_ref());
                if limit == self.base_limit {
                    base = Some(report);
                }
            }
            base_forks.push(base);
        }

        // A sample of the forks under the capture's own limit, rotating over
        // the captures from round to round, must match a cold run fenced at
        // the same capture points.
        let n = decoded.len();
        let t0 = Instant::now();
        for (j, (mut cold_m, cold_root)) in p.cold.into_iter().enumerate() {
            let k = (self.rounds * COLD_CHECKS + j) % n;
            let Some(Some(fork)) = base_forks.get(k) else {
                continue;
            };
            let plan = decoded[..=k]
                .iter()
                .fold(SnapshotPlan::none(), |plan, s| plan.with_fence(s.t_ns()));
            let cold = trace::span(Layer::RuntimeRun, || {
                cold_m.run_captured(name, &mut (), cold_root, &plan)
            });
            let t = decoded[k].t_ns();
            match cold.ok().and_then(|run| run.report()) {
                Some(cold) if same_report(&cold, fork) => r.sim_s += cold.elapsed_s,
                Some(_) => r.fail(1, format!("fork t={t} differs from the cold run")),
                None => r.fail(1, format!("cold reference for t={t} did not complete")),
            }
        }
        r.parts_s.push(t0.elapsed().as_secs_f64());
        self.rounds += 1;
        r
    }
}
