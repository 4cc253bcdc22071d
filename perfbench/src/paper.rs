//! `paper-repro`: a closed loop over the paper's experiment cells, one
//! `Workload::run` at a time.
//!
//! Real kernel compute does almost all the host work here and the scheduler
//! little; it is also the only workload where the paper's controller, RCR
//! daemon and RAPL stack drive real programs. Its inputs are fixed by the
//! workloads, so the seed does not change them.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use maestro::{Maestro, MaestroConfig, Policy};
use maestro_bench::experiments::{maestro_params, ThrottleTarget, FIGURE_WORKERS};
use maestro_workloads::bots::health::Health;
use maestro_workloads::bots::strassen::Strassen;
use maestro_workloads::lulesh::Lulesh;
use maestro_workloads::micro::dijkstra::Dijkstra;
use maestro_workloads::{
    all_workloads, bots_workloads, by_name, micro_workloads, CompilerConfig, Family, OptLevel,
    Scale, Workload,
};

use crate::run::Bench;
use crate::trace::{self, Layer};
use crate::{add_run_stats, add_throttle, Round};

/// Which paper artifact a cell belongs to.
#[derive(Copy, Clone, Debug, PartialEq)]
enum Source {
    /// Table I: a workload under one compiler at `-O2`, 16 threads.
    Table1,
    /// Figures 1 and 3: a worker-count sweep point.
    Figure,
    /// Tables IV–VII: target index and row (dynamic-16, fixed-16, fixed-12).
    Throttle { target: usize, row: usize },
}

#[derive(Copy, Clone, Debug)]
struct Cell {
    workload: &'static str,
    source: Source,
    cc: CompilerConfig,
    workers: usize,
    policy: Policy,
}

const TARGETS: [ThrottleTarget; 4] = [
    ThrottleTarget::Lulesh,
    ThrottleTarget::Dijkstra,
    ThrottleTarget::Health,
    ThrottleTarget::Strassen,
];

fn target_name(t: ThrottleTarget) -> &'static str {
    match t {
        ThrottleTarget::Lulesh => "lulesh",
        ThrottleTarget::Dijkstra => "dijkstra",
        ThrottleTarget::Health => "bots-health",
        ThrottleTarget::Strassen => "bots-strassen",
    }
}

/// The Tables IV–VII configuration of a target's workload.
fn target_workload(t: ThrottleTarget) -> Box<dyn Workload> {
    match t {
        ThrottleTarget::Lulesh => Box::new(Lulesh::new(Scale::Paper)),
        ThrottleTarget::Dijkstra => Box::new(Dijkstra::maestro_variant(Scale::Paper)),
        ThrottleTarget::Health => Box::new(Health::maestro_variant(Scale::Paper)),
        ThrottleTarget::Strassen => Box::new(Strassen::new(Scale::Paper)),
    }
}

/// Every cell of one round, in a fixed order.
fn cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    let o2 = |family| CompilerConfig {
        family,
        opt: OptLevel::O2,
    };
    for w in all_workloads(Scale::Paper) {
        for family in [Family::Gcc, Family::Icc] {
            cells.push(Cell {
                workload: w.name(),
                source: Source::Table1,
                cc: o2(family),
                workers: 16,
                policy: Policy::Fixed,
            });
        }
    }
    let mut figure = micro_workloads(Scale::Paper);
    figure.push(by_name("lulesh", Scale::Paper).expect("lulesh is registered"));
    figure.extend(bots_workloads(Scale::Paper));
    for w in &figure {
        for &workers in FIGURE_WORKERS {
            cells.push(Cell {
                workload: w.name(),
                source: Source::Figure,
                cc: o2(Family::Gcc),
                workers,
                policy: Policy::Fixed,
            });
        }
    }
    let rows = [
        (
            16,
            Policy::Adaptive {
                limit_per_shepherd: 6,
            },
        ),
        (16, Policy::Fixed),
        (12, Policy::Fixed),
    ];
    for (target, &t) in TARGETS.iter().enumerate() {
        for (row, &(workers, policy)) in rows.iter().enumerate() {
            cells.push(Cell {
                workload: target_name(t),
                source: Source::Throttle { target, row },
                cc: CompilerConfig::gcc(OptLevel::O3),
                workers,
                policy,
            });
        }
    }
    cells
}

/// One cell ready to run: its workload object and a fresh facade built the
/// way the bench harness builds it.
pub struct Prepared {
    cell: Cell,
    workload: Box<dyn Workload>,
    facade: Maestro,
}

fn prepare_cell(cell: Cell, traced: bool) -> Prepared {
    let workload = match cell.source {
        Source::Throttle { target, .. } => target_workload(TARGETS[target]),
        _ => by_name(cell.workload, Scale::Paper).expect("registered workload"),
    };
    let mut cfg = MaestroConfig::fixed(cell.workers);
    cfg.policy = cell.policy;
    cfg.runtime = match cell.source {
        Source::Throttle { .. } => maestro_params(workload.as_ref(), cell.cc, cell.workers),
        _ => workload.runtime_params(cell.cc, cell.workers),
    };
    let mut facade = Maestro::new(cfg);
    if traced {
        trace::trace_monitors(&mut facade);
    }
    Prepared {
        cell,
        workload,
        facade,
    }
}

pub struct PaperRepro {
    cells: Vec<Cell>,
}

impl PaperRepro {
    pub fn new() -> Self {
        PaperRepro { cells: cells() }
    }
}

impl Default for PaperRepro {
    fn default() -> Self {
        Self::new()
    }
}

impl Bench for PaperRepro {
    type Inputs = Vec<Prepared>;

    fn prepare(&mut self, traced: bool) -> Vec<Prepared> {
        self.cells
            .iter()
            .map(|&c| prepare_cell(c, traced))
            .collect()
    }

    fn round(&mut self, inputs: Vec<Prepared>, ops: Vec<f64>) -> Round {
        let mut r = Round {
            ops_s: ops,
            ..Round::default()
        };
        // Joules of the Tables IV–VII rows, [target][row].
        let mut table = [[None::<f64>; 3]; 4];
        for mut p in inputs {
            let t0 = Instant::now();
            let out = trace::span(Layer::WorkloadsRun, || {
                catch_unwind(AssertUnwindSafe(|| {
                    p.workload.run(&mut p.facade, p.cell.cc)
                }))
            });
            let dt = t0.elapsed().as_secs_f64();
            r.ops_s.push(dt);
            r.parts_s.push(dt);
            let report = match out {
                Ok(report) => report,
                Err(panic) => {
                    trace::clear_open_spans();
                    let msg = panic
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_default();
                    r.fail(
                        1,
                        format!("{} ({:?}): {msg}", p.cell.workload, p.cell.source),
                    );
                    continue;
                }
            };
            r.sim_s += report.elapsed_s;
            Round::add(&mut r.model, "model_energy_j", report.joules);
            Round::add(&mut r.model, "model_time_s", report.elapsed_s);
            Round::add(&mut r.counts, "workloads.cells", 1.0);
            add_run_stats(&mut r.counts, &report.stats);
            add_throttle(&mut r.counts, report.throttle.as_ref());
            if let Source::Throttle { target, row } = p.cell.source {
                table[target][row] = Some(report.joules);
            }
        }
        if let Some((saved, err)) = table_metrics(&table) {
            r.model.insert("energy_saved_pct", saved);
            r.model.insert("paper_energy_err_pct", err);
        }
        r
    }
}

/// `(energy_saved_pct, paper_energy_err_pct)` over Tables IV–VII, when
/// every row ran.
fn table_metrics(table: &[[Option<f64>; 3]; 4]) -> Option<(f64, f64)> {
    let (mut dynamic, mut fixed, mut err, mut rows) = (0.0, 0.0, 0.0, 0.0);
    for (joules, target) in table.iter().zip(TARGETS) {
        let paper = target.paper_rows();
        for (model, paper) in joules.iter().zip(paper) {
            let model = (*model)?;
            err += (model - paper.joules).abs() / paper.joules;
            rows += 1.0;
        }
        dynamic += joules[0]?;
        fixed += joules[1]?;
    }
    Some((100.0 * (fixed - dynamic) / fixed, 100.0 * err / rows))
}
