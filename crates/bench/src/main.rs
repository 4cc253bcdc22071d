//! CLI entry point: regenerate any table or figure of the paper.
//!
//! ```text
//! cargo run -p maestro-bench --release -- all
//! cargo run -p maestro-bench --release -- table1 table4 fig1
//! cargo run -p maestro-bench --release -- --test-scale table2
//! cargo run -p maestro-bench --release -- --jobs 4 all --json BENCH_PR5.json
//! ```

use maestro::{Maestro, MaestroRunEnd, MaestroSnapshot};
use maestro_bench::experiments::{self, FigureGroup, ThrottleTarget};
use maestro_bench::gate::{GateInputs, GateReport};
use maestro_bench::{format, harness, perf, scenario};
use maestro_fleet::Fleet;
use maestro_runtime::SnapshotPlan;
use maestro_workloads::{Family, Scale};
use std::fmt::Write as _;
use std::time::Instant;

const USAGE: &str = "\
usage: maestro-bench [--test-scale] [--csv] [--jobs N] [--json PATH] <experiment>...
       maestro-bench replay --snapshot PATH [--until T_NS]
       maestro-bench gate --current PATH --baseline PATH
                          [--min-scheduler-ratio R] [--max-wall-s S]
                          [--min-goodput RPS]

  --csv emits machine-readable CSV instead of the aligned comparison tables
  (supported for table1-3, fig1-4, and table4-7).
  --jobs N fans independent experiment cells over N host threads (default:
  MAESTRO_BENCH_JOBS, else the host's available parallelism). Output is
  byte-identical for every N.
  --json PATH additionally writes a perf-trajectory report (wall-clock per
  experiment plus hot-path micro-probes); schema in EXPERIMENTS.md.

  gate compares two --json perf reports and exits nonzero when any bound
  is violated — every criterion is evaluated and printed, so one run
  diagnoses every broken bound: the current report must reach at least
  --min-scheduler-ratio times the baseline's scheduler micro-probe
  (default 3.0), stay under --max-wall-s total wall (default 10.0, sized
  for the test-scale CI smoke run), and — when --min-goodput is given —
  keep the minimum service goodput across the Pareto sweep at or above
  RPS requests per second.

  replay loads a snapshot file written by the chaos triage harness (or your
  own run_captured call), rebuilds the named scenario, and resumes it —
  to completion, or to the virtual timestamp --until T_NS (time-travel:
  re-executes only the snapshot->failure window, no cold-start prefix).
  Fleet node snapshots (written by the fleet chaos suites) replay the same
  way: the single crashed shard is rebuilt from its fleet scenario name and
  advanced in isolation — with no coordinator, its lease expires and the
  node degrades to its floor cap, which is exactly the LeaseExpired path
  being triaged. Snapshots of service scenarios (svc-*) rebuild the whole
  service stack — arrival stream, admission controller, retry ledger, SLO
  governor — from the serialized source state and resume the open-loop run.

experiments:
  table1      Table I    — GCC vs ICC at -O2, 16 threads
  table2      Table II   — GCC at O0-O3, 16 threads
  table3      Table III  — ICC at O0-O3, 16 threads
  fig1        Figure 1   — SIMPLE+LULESH scaling & energy, GCC
  fig2        Figure 2   — SIMPLE+LULESH scaling & energy, ICC
  fig3        Figure 3   — BOTS scaling & energy, GCC
  fig4        Figure 4   — BOTS scaling & energy, ICC
  table4      Table IV   — LULESH throttling (dynamic / fixed-16 / fixed-12)
  table5      Table V    — dijkstra throttling
  table6      Table VI   — BOTS health throttling
  table7      Table VII  — BOTS strassen throttling
  coldstart   §II-C fn.2 — cold-system energy effect
  dutycycle   §IV        — low-power spin state savings
  overhead    §IV-B      — controller overhead on a scaling benchmark
  ablation    §IV/§V     — duty-cycle vs DVFS vs power-cap on LULESH
  fleet       §V outlook — fleet power coordination under correlated failures
  service     SLO outlook— open-loop service workload under the governor
  all         everything above, in order

  fleet runs scenario 'fleet-correlated-failures' (120 nodes, rolling load
  wave, correlated crash wave + rack partition + lossy grant channel) at
  paper scale, or 'fleet-smoke' (8 nodes) under --test-scale, and reports
  fleet energy, the cap-violation count (0 by invariant), and per-node
  throttle statistics.

  service runs the SLO-guarded demo scenarios (steady, bursty, a metastable
  retry storm with budgets disabled, and the same storm guarded by retry
  budgets + admission control) plus the energy-vs-tail-latency Pareto sweep:
  one workload under three p99 SLOs, each point reporting the duty ladder /
  brownout level the governor settled on, its p99, joules, and goodput.
";

/// PR tag stamped into `--json` perf reports; bump alongside a new
/// committed `BENCH_PR<N>.json` trajectory point.
const PR_LABEL: &str = "PR9";

/// Every experiment `all` expands to, in print order.
const ALL: &[&str] = &[
    "table1", "table2", "table3", "fig1", "fig2", "fig3", "fig4", "table4", "table5", "table6",
    "table7", "coldstart", "dutycycle", "overhead", "ablation", "fleet", "service",
];

/// Run the service demo rows and the Pareto sweep and render both tables.
fn render_service_experiment(scale: Scale, jobs: usize) -> String {
    let mut out = format::render_service(
        "SLO-guarded service — admission control, retry budgets, brownout",
        &experiments::service_rows(scale, jobs),
    );
    out.push_str(&format::render_pareto(
        "Energy vs tail latency — one workload, three p99 SLOs",
        &experiments::pareto(scale, jobs),
    ));
    out
}

/// Run the fleet coordination drill at the requested scale and render it.
fn render_fleet_experiment(scale: Scale, jobs: usize) -> String {
    let name = if scale == Scale::Test { "fleet-smoke" } else { "fleet-correlated-failures" };
    let sc = scenario::fleet_scenario(name).expect("registered fleet scenario");
    let epochs = sc.epochs;
    let nodes = sc.config.nodes;
    let mut fleet = Fleet::new(sc.config);
    fleet.advance_epochs(epochs, jobs);
    let report = fleet.report();
    format::render_fleet(
        &format!(
            "Fleet power coordination — scenario '{name}' ({nodes} nodes, {epochs} epochs)"
        ),
        &report,
    )
}

/// Render one experiment to its output text, or `None` for an unknown name.
fn render_one(name: &str, scale: Scale, csv: bool, jobs: usize) -> Option<String> {
    let compiler = |title: &str, rows: &[experiments::CompilerRow]| {
        if csv {
            format::csv_compiler_rows(rows)
        } else {
            format::render_compiler_rows(title, rows)
        }
    };
    let scaling = |title: &str, curves: &[experiments::ScalingCurve]| {
        if csv {
            format::csv_scaling(curves)
        } else {
            format::render_scaling(title, curves)
        }
    };
    let throttling = |title: &str, rows: &[experiments::ThrottleRow]| {
        if csv {
            format::csv_throttling(rows)
        } else {
            format::render_throttling(title, rows)
        }
    };
    Some(match name {
        "table1" => compiler(
            "Table I — execution time and energy usage (16 threads, -O2)",
            &experiments::table1(scale, jobs),
        ),
        "table2" => compiler(
            "Table II — optimization level, GNU GCC (16 threads)",
            &experiments::compiler_table(scale, Family::Gcc, jobs),
        ),
        "table3" => compiler(
            "Table III — optimization level, Intel ICC (16 threads)",
            &experiments::compiler_table(scale, Family::Icc, jobs),
        ),
        "fig1" => scaling(
            "Figure 1 — SIMPLE/LULESH speedup and normalized energy (GCC -O2)",
            &experiments::scaling_figure(scale, FigureGroup::SimpleAndLulesh, Family::Gcc, jobs),
        ),
        "fig2" => scaling(
            "Figure 2 — SIMPLE/LULESH speedup and normalized energy (ICC -O2)",
            &experiments::scaling_figure(scale, FigureGroup::SimpleAndLulesh, Family::Icc, jobs),
        ),
        "fig3" => scaling(
            "Figure 3 — BOTS speedup and normalized energy (GCC -O2)",
            &experiments::scaling_figure(scale, FigureGroup::Bots, Family::Gcc, jobs),
        ),
        "fig4" => scaling(
            "Figure 4 — BOTS speedup and normalized energy (ICC -O2)",
            &experiments::scaling_figure(scale, FigureGroup::Bots, Family::Icc, jobs),
        ),
        "table4" => throttling(
            "Table IV — LULESH with MAESTRO (-O3)",
            &experiments::throttling_table(scale, ThrottleTarget::Lulesh, jobs),
        ),
        "table5" => throttling(
            "Table V — dijkstra with MAESTRO (-O3)",
            &experiments::throttling_table(scale, ThrottleTarget::Dijkstra, jobs),
        ),
        "table6" => throttling(
            "Table VI — BOTS health with MAESTRO (-O3)",
            &experiments::throttling_table(scale, ThrottleTarget::Health, jobs),
        ),
        "table7" => throttling(
            "Table VII — BOTS strassen with MAESTRO (-O3)",
            &experiments::throttling_table(scale, ThrottleTarget::Strassen, jobs),
        ),
        "coldstart" => format::render_coldstart(&experiments::coldstart(scale)),
        "dutycycle" => format::render_dutycycle(&experiments::dutycycle_probe()),
        "overhead" => format::render_overhead(&experiments::overhead_probe(scale, jobs)),
        "ablation" => format::render_ablation(&experiments::ablation(scale, jobs)),
        "fleet" => render_fleet_experiment(scale, jobs),
        "service" => render_service_experiment(scale, jobs),
        _ => return None,
    })
}

/// One timed experiment for the JSON report.
struct Timed {
    name: String,
    wall_s: f64,
    output: String,
}

/// Run the requested experiment list (with `all` already expanded),
/// fanning whole experiments across the job pool while printing in the
/// original order.
fn run_list(names: &[&str], scale: Scale, csv: bool, jobs: usize) -> Vec<Timed> {
    harness::parallel_map(names.len(), jobs, |i| {
        let start = Instant::now();
        let output = render_one(names[i], scale, csv, jobs)
            .unwrap_or_else(|| unreachable!("names validated before dispatch"));
        Timed { name: names[i].to_string(), wall_s: start.elapsed().as_secs_f64(), output }
    })
}

/// The probes a `--json` perf report carries besides the experiment
/// timings.
struct Probes {
    micro: perf::MicroPerf,
    fork: perf::ForkSweepPerf,
    fleet: perf::FleetPerf,
    pareto: Vec<experiments::ParetoPoint>,
}

/// Hand-rolled JSON writer for the perf trajectory (schema
/// `maestro-bench/v1`; documented in EXPERIMENTS.md). The vendored serde
/// stub has no JSON backend, and the report is flat enough that assembling
/// it directly keeps the dependency surface at zero.
fn perf_report_json(
    scale: Scale,
    jobs: usize,
    timed: &[Timed],
    probes: &Probes,
    total_wall_s: f64,
) -> String {
    let Probes { micro, fork, fleet, pareto } = probes;
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"maestro-bench/v1\",");
    let _ = writeln!(out, "  \"pr\": \"{PR_LABEL}\",");
    let _ = writeln!(
        out,
        "  \"scale\": \"{}\",",
        if scale == Scale::Test { "test" } else { "paper" }
    );
    let _ = writeln!(out, "  \"jobs\": {jobs},");
    let _ = writeln!(out, "  \"total_wall_s\": {total_wall_s:.4},");
    let _ = writeln!(out, "  \"experiments\": [");
    for (i, t) in timed.iter().enumerate() {
        let comma = if i + 1 == timed.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"wall_s\": {:.4}}}{comma}",
            t.name, t.wall_s
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"micro\": {{");
    let _ = writeln!(
        out,
        "    \"machine_advance_ns_per_op\": {:.2},",
        micro.machine_advance_ns_per_op
    );
    let _ = writeln!(
        out,
        "    \"scheduler_steps_per_sec\": {:.0}",
        micro.scheduler_steps_per_sec
    );
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"fork_sweep\": {{");
    let _ = writeln!(out, "    \"variants\": {},", fork.variants);
    let _ = writeln!(out, "    \"cold_wall_s\": {:.4},", fork.cold_wall_s);
    let _ = writeln!(out, "    \"warm_wall_s\": {:.4},", fork.warm_wall_s);
    let _ = writeln!(out, "    \"speedup\": {:.3}", fork.speedup);
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"fleet\": {{");
    let _ = writeln!(out, "    \"nodes\": {},", fleet.nodes);
    let _ = writeln!(out, "    \"virtual_s\": {:.1},", fleet.virtual_s);
    let _ = writeln!(out, "    \"wall_s\": {:.4},", fleet.wall_s);
    let _ = writeln!(
        out,
        "    \"node_virtual_s_per_wall_s\": {:.0}",
        fleet.node_virtual_s_per_wall_s
    );
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"service\": {{");
    let _ = writeln!(out, "    \"pareto\": [");
    for (i, p) in pareto.iter().enumerate() {
        let comma = if i + 1 == pareto.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "      {{\"scenario\": \"{}\", \"slo_p99_ns\": {}, \"p99_ns\": {}, \
             \"joules\": {:.2}, \"goodput_rps\": {:.0}, \"energy_level\": {}, \
             \"brownout_level\": {}}}{comma}",
            p.scenario,
            p.slo_p99_ns,
            p.p99_ns,
            p.joules,
            p.goodput_rps,
            p.energy_level,
            p.brownout_level,
        );
    }
    let _ = writeln!(out, "    ],");
    // Minimum across the sweep, on its own line so the gate's flat scanner
    // can read it without parsing the pareto array.
    let min_goodput = pareto.iter().map(|p| p.goodput_rps).fold(f64::INFINITY, f64::min);
    let _ = writeln!(
        out,
        "    \"service_goodput_rps\": {:.0}",
        if min_goodput.is_finite() { min_goodput } else { 0.0 }
    );
    let _ = writeln!(out, "  }}");
    out.push_str("}\n");
    out
}

/// `maestro-bench gate --current PATH --baseline PATH`: the CI perf gate.
/// Exit codes: 0 all bounds hold, 1 a perf bound was violated, 2 bad usage
/// or an unreadable/malformed report.
fn run_gate(args: &[String]) -> ! {
    let mut current_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut min_ratio = 3.0f64;
    let mut max_wall_s = 10.0f64;
    let mut min_goodput = 0.0f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut path_arg = |slot: &mut Option<String>, flag: &str| match it.next() {
            Some(p) => *slot = Some(p.clone()),
            None => {
                eprintln!("{flag} needs a path\n{USAGE}");
                std::process::exit(2);
            }
        };
        match a.as_str() {
            "--current" => path_arg(&mut current_path, "--current"),
            "--baseline" => path_arg(&mut baseline_path, "--baseline"),
            "--min-scheduler-ratio" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(r) if r > 0.0 => min_ratio = r,
                _ => {
                    eprintln!("--min-scheduler-ratio needs a positive number\n{USAGE}");
                    std::process::exit(2);
                }
            },
            "--max-wall-s" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(s) if s > 0.0 => max_wall_s = s,
                _ => {
                    eprintln!("--max-wall-s needs a positive number\n{USAGE}");
                    std::process::exit(2);
                }
            },
            "--min-goodput" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(g) if g > 0.0 => min_goodput = g,
                _ => {
                    eprintln!("--min-goodput needs a positive number\n{USAGE}");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown gate argument: {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let (Some(current_path), Some(baseline_path)) = (current_path, baseline_path) else {
        eprintln!("gate requires --current PATH and --baseline PATH\n{USAGE}");
        std::process::exit(2);
    };
    let load = |path: &str| -> GateInputs {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        });
        GateInputs::parse(&text).unwrap_or_else(|e| {
            eprintln!("{path}: {e}");
            std::process::exit(2);
        })
    };
    let report = GateReport::evaluate(
        load(&current_path),
        load(&baseline_path),
        min_ratio,
        max_wall_s,
        min_goodput,
    );
    print!("{}", report.render());
    std::process::exit(if report.pass() { 0 } else { 1 });
}

/// `maestro-bench replay --snapshot PATH [--until T_NS]`: the time-travel
/// triage entry point. Exit codes: 0 replay reached the requested state,
/// 1 the replayed run failed (the bug reproduced — that is the point),
/// 2 bad usage or unreadable/unknown snapshot.
fn run_replay(args: &[String]) -> ! {
    let mut snapshot_path: Option<String> = None;
    let mut until: Option<u64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--snapshot" => match it.next() {
                Some(p) => snapshot_path = Some(p.clone()),
                None => {
                    eprintln!("--snapshot needs a path\n{USAGE}");
                    std::process::exit(2);
                }
            },
            "--until" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(t) => until = Some(t),
                None => {
                    eprintln!("--until needs a virtual timestamp in nanoseconds\n{USAGE}");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown replay argument: {other}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }
    let Some(path) = snapshot_path else {
        eprintln!("replay requires --snapshot PATH\n{USAGE}");
        std::process::exit(2);
    };
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    // Fleet node snapshots carry their own magic; sniff for it first and
    // fall through to the Maestro snapshot format otherwise.
    if let Ok(fleet_snap) = scenario::read_fleet_node_snapshot(&bytes) {
        run_fleet_replay(&fleet_snap, until, &path);
    }
    let snap = match MaestroSnapshot::from_bytes(&bytes) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{path} is not a valid snapshot: {e}");
            std::process::exit(2);
        }
    };
    // Service snapshots carry a svc-* scenario name; the whole service
    // stack (arrival stream, admission state, retry ledger, governor) is
    // rebuilt from the registry and restored from the serialized source.
    if let Some(sc) = scenario::service_scenario(snap.name()) {
        run_service_replay(&sc, &snap, until, &path);
    }
    let Some(sc) = scenario::scenario(snap.name()) else {
        eprintln!(
            "snapshot names scenario '{}', which this binary does not know; \
             known scenarios: {}",
            snap.name(),
            scenario::SCENARIO_NAMES.join(", ")
        );
        std::process::exit(2);
    };
    if let Some(t) = until {
        if t <= snap.t_ns() {
            eprintln!(
                "--until {t} is not after the snapshot time {} ns; nothing to replay",
                snap.t_ns()
            );
            std::process::exit(2);
        }
    }

    println!(
        "replaying scenario '{}' from snapshot at t={} ns ({})",
        snap.name(),
        snap.t_ns(),
        path
    );
    // A fresh facade starts at virtual t=0, so run-relative fences coincide
    // with absolute virtual timestamps and --until can be passed straight
    // through as a suspension point.
    let plan = match until {
        Some(t) => SnapshotPlan::suspend_at(t),
        None => SnapshotPlan::none(),
    };
    let mut m = Maestro::new(sc.config);
    let run = match m.resume_captured(&mut (), &snap, &plan) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("resume failed: {e}");
            std::process::exit(2);
        }
    };
    match run.end {
        MaestroRunEnd::Completed(report) => {
            println!("run completed past the requested point:");
            println!("{report}");
            std::process::exit(0);
        }
        MaestroRunEnd::Suspended(at) => {
            println!(
                "replayed {} ns of virtual time ({} -> {} ns); state captured, \
                 re-run with a later --until (or none) to continue",
                at.t_ns() - snap.t_ns(),
                snap.t_ns(),
                at.t_ns()
            );
            std::process::exit(0);
        }
        MaestroRunEnd::Failed(e) => {
            println!("failure reproduced during replay: {e}");
            std::process::exit(1);
        }
    }
}

/// Replay a service scenario from a Maestro snapshot: rebuild the facade
/// and a fresh service stack from the registry, then resume — the restore
/// path swaps the serialized arrival/admission/retry state into the fresh
/// source, so the request stream continues exactly where it was suspended.
/// Exit codes match `replay`.
fn run_service_replay(
    sc: &scenario::ServiceScenario,
    snap: &MaestroSnapshot,
    until: Option<u64>,
    path: &str,
) -> ! {
    if let Some(t) = until {
        if t <= snap.t_ns() {
            eprintln!(
                "--until {t} is not after the snapshot time {} ns; nothing to replay",
                snap.t_ns()
            );
            std::process::exit(2);
        }
    }
    println!(
        "replaying service scenario '{}' from snapshot at t={} ns ({})",
        snap.name(),
        snap.t_ns(),
        path
    );
    let plan = match until {
        Some(t) => SnapshotPlan::suspend_at(t),
        None => SnapshotPlan::none(),
    };
    let (mut m, source, handle) = scenario::service_facade(sc);
    let run = match m.resume_service_captured(&mut (), source, snap, &plan) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("resume failed: {e}");
            std::process::exit(2);
        }
    };
    match run.end {
        MaestroRunEnd::Completed(report) => {
            let c = handle.borrow().counters;
            println!("run completed past the requested point:");
            println!("{report}");
            println!(
                "requests: {} arrived / {} completed / {} shed / {} cancelled / \
                 {} failed ({} retries spent, conservation gap {})",
                c.arrived,
                c.completed,
                c.shed,
                c.cancelled,
                c.failed,
                c.retries_spent,
                c.conservation_gap(),
            );
            std::process::exit(0);
        }
        MaestroRunEnd::Suspended(at) => {
            println!(
                "replayed {} ns of virtual time ({} -> {} ns); state captured, \
                 re-run with a later --until (or none) to continue",
                at.t_ns() - snap.t_ns(),
                snap.t_ns(),
                at.t_ns()
            );
            std::process::exit(0);
        }
        MaestroRunEnd::Failed(e) => {
            println!("failure reproduced during replay: {e}");
            std::process::exit(1);
        }
    }
}

/// Replay a single fleet shard from a fleet node snapshot: rebuild the
/// node under its registered fleet scenario and advance it in isolation.
/// With no coordinator feeding it grants, its lease expires on the event
/// timer and the node degrades to its floor cap — the exact LeaseExpired
/// sequence fleet chaos failures need triaged. Exit codes match `replay`.
fn run_fleet_replay(snap: &scenario::FleetNodeSnapshot, until: Option<u64>, path: &str) -> ! {
    let Some(sc) = scenario::fleet_scenario(&snap.scenario) else {
        eprintln!(
            "snapshot names fleet scenario '{}', which this binary does not know; \
             known fleet scenarios: {}",
            snap.scenario,
            scenario::FLEET_SCENARIO_NAMES.join(", ")
        );
        std::process::exit(2);
    };
    let (mut node, captured_ns) = match Fleet::restore_node(&sc.config, &snap.node_blob) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("{path} does not restore under scenario '{}': {e}", snap.scenario);
            std::process::exit(2);
        }
    };
    if let Some(t) = until {
        if t <= captured_ns {
            eprintln!(
                "--until {t} is not after the snapshot time {captured_ns} ns; nothing to replay"
            );
            std::process::exit(2);
        }
    }
    println!(
        "replaying fleet scenario '{}' node {} from snapshot at t={} ns ({})",
        snap.scenario,
        node.id(),
        captured_ns,
        path
    );
    // Default horizon: one more coordination epoch past the capture point.
    let target = until.unwrap_or(captured_ns + sc.config.epoch_ns);
    let before = node.trace().len();
    node.advance_to(target);
    println!(
        "replayed {} ns of virtual time ({} -> {} ns); {} new trace events, \
         node {} with enforced cap {:.1} W, throttle level {}, {:.3} J total",
        target - captured_ns,
        captured_ns,
        target,
        node.trace().len() - before,
        if node.up() { "up" } else { "down" },
        node.enforced_cap_w(),
        node.throttle_level(),
        node.energy_j(),
    );
    for (t, e) in &node.trace()[before..] {
        println!("  t={t} ns  {e:?}");
    }
    std::process::exit(0);
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("replay") {
        run_replay(&raw[1..]);
    }
    if raw.first().map(String::as_str) == Some("gate") {
        run_gate(&raw[1..]);
    }
    let mut scale = Scale::Paper;
    let mut csv = false;
    let mut jobs: Option<usize> = None;
    let mut json_path: Option<String> = None;
    let mut names: Vec<String> = Vec::new();
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--test-scale" => scale = Scale::Test,
            "--csv" => csv = true,
            "--jobs" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => jobs = Some(n),
                _ => {
                    eprintln!("--jobs needs a positive integer\n{USAGE}");
                    std::process::exit(2);
                }
            },
            "--json" => match it.next() {
                Some(p) => json_path = Some(p),
                None => {
                    eprintln!("--json needs a path\n{USAGE}");
                    std::process::exit(2);
                }
            },
            other => names.push(other.to_string()),
        }
    }
    let jobs = jobs.unwrap_or_else(harness::default_jobs);
    if names.is_empty() {
        eprint!("{USAGE}");
        std::process::exit(2);
    }

    // Expand `all` and validate up front so an unknown name fails before
    // any (possibly long) experiment runs.
    let mut expanded: Vec<&str> = Vec::new();
    for n in &names {
        if n == "all" {
            expanded.extend_from_slice(ALL);
        } else if ALL.contains(&n.as_str()) {
            expanded.push(n.as_str());
        } else {
            eprintln!("unknown experiment: {n}\n{USAGE}");
            std::process::exit(2);
        }
    }

    let start = Instant::now();
    let timed = run_list(&expanded, scale, csv, jobs);
    let total_wall_s = start.elapsed().as_secs_f64();
    for t in &timed {
        print!("{}", t.output);
    }

    if let Some(path) = json_path {
        let probes = Probes {
            micro: perf::micro_perf(),
            fork: perf::fork_sweep_probe(jobs),
            fleet: perf::fleet_advance_probe(jobs),
            pareto: experiments::pareto(scale, jobs),
        };
        let report = perf_report_json(scale, jobs, &timed, &probes, total_wall_s);
        if let Err(e) = std::fs::write(&path, report) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("perf report written to {path}");
    }
}
