//! `service-openloop`: four paper-scale service scenarios with arrival
//! streams seeded from the benchmark seed.
//!
//! The loop is open in virtual time: arrivals are scheduled whatever the
//! simulated node does, so generator lateness is zero by construction. An
//! operation is one admitted request attempt (an admitted arrival or a
//! retry; shed arrivals are not operations), timed on the host from the
//! `poll` that injects it to the `on_complete` that settles it. Spec-form requests
//! carry no real kernel, so the scheduler, event queue, cancellation path
//! and the service source do all the work; `maestro-workloads` is bypassed.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use maestro::Maestro;
use maestro_bench::experiments::service_at_scale;
use maestro_bench::scenario::{service_facade, ServiceScenario};
use maestro_service::{LatencyHist, ServiceHandle, ServiceSummary};
use maestro_workloads::Scale;

use crate::run::Bench;
use crate::trace::{self, Layer, RequestClock, TimedSource};
use crate::{add_run_stats, add_throttle, derive_seed, Round};

/// Arrival streams per scenario in one round. The host work per simulated
/// second depends on the stream (retry storms, shedding), so a round
/// averages several streams to keep that work nearly the same from seed
/// to seed.
pub const STREAMS: u64 = 3;

/// The scenarios one round runs, in order, each once per stream.
pub const SCENARIOS: [&str; 4] = [
    "svc-steady",
    "svc-burst",
    "svc-storm-guarded",
    "svc-pareto-tight",
];

pub struct Prepared {
    scenario: ServiceScenario,
    facade: Maestro,
    source: TimedSource,
    handle: ServiceHandle,
}

pub struct ServiceOpenLoop {
    scenarios: Vec<ServiceScenario>,
    /// One request clock for every scenario, which run one at a time; its
    /// buffers keep their capacity from round to round.
    clock: Rc<RefCell<RequestClock>>,
}

impl ServiceOpenLoop {
    /// The scenarios at paper scale, [`STREAMS`] times each, every arrival
    /// stream seeded from `seed`, the stream index and the scenario's own
    /// registry seed.
    pub fn new(seed: u64) -> Self {
        let scenarios = (0..STREAMS)
            .flat_map(|stream| {
                SCENARIOS.iter().map(move |name| {
                    let mut sc = service_at_scale(name, Scale::Paper);
                    let salt = sc.service.arrivals.seed ^ (stream << 32);
                    sc.service.arrivals.seed = derive_seed(seed, salt);
                    sc
                })
            })
            .collect();
        ServiceOpenLoop {
            scenarios,
            clock: Rc::default(),
        }
    }
}

impl Bench for ServiceOpenLoop {
    type Inputs = Vec<Prepared>;

    fn prepare(&mut self, traced: bool) -> Vec<Prepared> {
        self.scenarios
            .iter()
            .map(|sc| {
                let (mut facade, source, handle) = service_facade(sc);
                if traced {
                    trace::trace_monitors(&mut facade);
                }
                let source = TimedSource::new(source, Rc::clone(&self.clock));
                Prepared {
                    scenario: sc.clone(),
                    facade,
                    source,
                    handle,
                }
            })
            .collect()
    }

    fn round(&mut self, inputs: Vec<Prepared>, ops: Vec<f64>) -> Round {
        let mut r = Round {
            ops_s: ops,
            ..Round::default()
        };
        let mut tails = LatencyHist::new();
        let (mut completed, mut elapsed) = (0.0, 0.0);
        for mut p in inputs {
            let name = p.scenario.name;
            let t0 = Instant::now();
            let out = trace::span(Layer::RuntimeRun, || {
                p.facade.try_run_service(name, &mut (), Box::new(p.source))
            });
            let end = Instant::now();
            let ops = {
                let mut clock = self.clock.borrow_mut();
                r.ops_s.extend_from_slice(&clock.settled_s);
                // The run's parts are the segments between the clock's
                // marks, so that each is short and repeats in every round.
                let mut last = t0;
                for &mark in clock.marks.iter().chain([&end]) {
                    r.parts_s.push(mark.duration_since(last).as_secs_f64());
                    last = mark;
                }
                clock.reset()
            };
            let report = match out {
                Ok(report) => report,
                Err(e) => {
                    r.fail(ops.max(1), format!("{name}: {e}"));
                    continue;
                }
            };
            let summary = ServiceSummary::collect(&p.handle, report.elapsed_s);
            let c = summary.counters;
            let total = p.scenario.service.arrivals.total_requests;
            if c.conservation_gap() != 0 || c.arrived != total || c.in_flight + c.pending_retry != 0
            {
                r.fail(
                    ops.max(1),
                    format!("{name}: request ledger does not balance: {c:?}"),
                );
                continue;
            }
            tails.merge(&p.handle.borrow().total);
            completed += c.completed as f64;
            elapsed += report.elapsed_s;
            r.sim_s += report.elapsed_s;
            Round::add(&mut r.model, "model_energy_j", report.joules);
            Round::add(&mut r.model, "model_time_s", report.elapsed_s);
            add_run_stats(&mut r.counts, &report.stats);
            add_throttle(&mut r.counts, report.throttle.as_ref());
            Round::add(&mut r.counts, "service.arrived", c.arrived as f64);
            Round::add(&mut r.counts, "service.completed", c.completed as f64);
            Round::add(&mut r.counts, "service.shed", c.shed as f64);
            Round::add(&mut r.counts, "service.cancelled", c.cancelled as f64);
            Round::add(
                &mut r.counts,
                "service.retries_spent",
                c.retries_spent as f64,
            );
            Round::add(
                &mut r.counts,
                "service.energy_steps",
                summary.energy_steps as f64,
            );
            Round::add(
                &mut r.counts,
                "service.brownout_steps",
                summary.brownout_steps as f64,
            );
        }
        if let Some(p99_ns) = tails.quantile(0.99) {
            r.model.insert("model_p99_us", p99_ns as f64 * 1e-3);
        }
        if elapsed > 0.0 {
            r.model.insert("model_goodput_rps", completed / elapsed);
        }
        r
    }
}
