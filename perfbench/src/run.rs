//! The measurement loop: command-line options, the rounds, the
//! determinism checks, and the metric tables.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

use crate::json::{BenchResult, Metric};
use crate::stats::{fold_min, iqr_share, median, percentile, quartiles};
use crate::trace::{self, Layer, SpanAcc, LAYERS};
use crate::{Round, Values, DEFAULT_SEED};

/// A workload the round loop can measure.
pub trait Bench {
    /// Inputs of one round, consumed by [`Bench::round`].
    type Inputs;
    /// Build one round's inputs (timed as set-up for the first round).
    /// With `traced`, wrap the installed monitors for tracing.
    fn prepare(&mut self, traced: bool) -> Self::Inputs;
    /// Run one round, pushing each operation's host seconds onto `ops`
    /// (empty, lent by the round loop and reused across rounds so that the
    /// buffer does not move the peak RSS) and returning it as
    /// [`Round::ops_s`], and the host seconds of the round's parts as
    /// [`Round::parts_s`]. A round must hold at least 100 operations, so
    /// that p90 has ten beyond it.
    fn round(&mut self, inputs: Self::Inputs, ops: Vec<f64>) -> Round;
}

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 4] = [
    "paper-repro",
    "service-openloop",
    "fleet-drill",
    "snapshot-fork",
];

/// End-to-end metrics, printed with `--trace 0`: (name, unit).
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("sim_s_per_wall_s", "virtual_s/s"),
    ("ops_per_wall_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mib", "MiB"),
    ("model_energy_j", "J"),
    ("model_time_s", "virtual_s"),
];

/// Workload-specific model metrics: (name, unit, workload). They are
/// printed in the report table of their workload and in the traced run.
pub const WORKLOAD_MODEL: [(&str, &str, &str); 4] = [
    ("energy_saved_pct", "%", "paper-repro"),
    ("paper_energy_err_pct", "%", "paper-repro"),
    ("model_p99_us", "us", "service-openloop"),
    ("model_goodput_rps", "1/s", "service-openloop"),
];

/// Per-layer metrics, printed with `--trace 1`: (name, unit). A metric a
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 58] = [
    ("workloads.run_s", "s"),
    ("workloads.cells", "count"),
    ("workloads.paper_energy_err_pct", "%"),
    ("runtime.self_s", "s"),
    ("runtime.ns_per_step", "ns"),
    ("runtime.steps", "count"),
    ("runtime.spawned", "count"),
    ("runtime.steals", "count"),
    ("runtime.tasks_cancelled", "count"),
    ("runtime.peak_live_tasks", "count"),
    ("runtime.spin_entries", "count"),
    ("runtime.throttled_worker_s", "virtual_s"),
    ("runtime.monitor_fires", "count"),
    ("core.fire_s", "s"),
    ("core.fires", "count"),
    ("core.fire_ns", "ns"),
    ("core.decisions", "count"),
    ("core.activations", "count"),
    ("core.throttled_fraction", "ratio"),
    ("core.duty_writes", "count"),
    ("core.duty_write_ratio", "ratio"),
    ("core.energy_saved_pct", "%"),
    ("machine.advance_read_ns", "ns"),
    ("rapl.sample_ns", "ns"),
    ("rcr.sample_ns", "ns"),
    ("service.source_s", "s"),
    ("service.source_calls", "count"),
    ("service.arrived", "count"),
    ("service.completed", "count"),
    ("service.shed", "count"),
    ("service.cancelled", "count"),
    ("service.retries_spent", "count"),
    ("service.useful_ratio", "ratio"),
    ("service.energy_steps", "count"),
    ("service.brownout_steps", "count"),
    ("service.model_p99_us", "us"),
    ("service.model_goodput_rps", "1/s"),
    ("fleet.node_epoch_us", "us"),
    ("fleet.allocate_us", "us"),
    ("fleet.grants_sent", "count"),
    ("fleet.stale_views", "count"),
    ("fleet.leases_applied", "count"),
    ("fleet.leases_discarded", "count"),
    ("fleet.lease_apply_ratio", "ratio"),
    ("fleet.lease_expiries", "count"),
    ("fleet.crashes", "count"),
    ("fleet.restarts", "count"),
    ("fleet.throttle_steps", "count"),
    ("snap.captures", "count"),
    ("snap.bytes", "B"),
    ("snap.capture_overhead_s", "s"),
    ("snap.encode_us", "us"),
    ("snap.decode_us", "us"),
    ("snap.fork_resume_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.untraced_sim_s_per_wall_s", "virtual_s/s"),
    ("trace.traced_sim_s_per_wall_s", "virtual_s/s"),
    ("trace.span_count", "count"),
];

/// Every run measures at least this many cycles of rounds, so that every
/// operation has a repetition to be timed at its fastest, and so that the
/// workload whose round takes 9–17 s (`paper-repro`) always gets two.
pub const MIN_CYCLES: usize = 2;
/// Set-up is sampled this many times before the first round; `setup_s`
/// is the median sample.
pub const SETUP_SAMPLES: usize = 101;
/// A set-up sample repeats set-up until the repeats add up to this many
/// host seconds, and is their mean: some set-ups take tens of
/// microseconds, too short to time one by one.
pub const SETUP_SAMPLE_S: f64 = 0.01;

/// A command-line error.
#[derive(Debug, PartialEq)]
pub enum ArgError {
    Missing(&'static str),
    Unknown(String),
    BadValue { flag: &'static str, value: String },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::Missing(flag) => write!(f, "missing value for {flag}"),
            ArgError::Unknown(a) => write!(f, "unknown argument {a:?}"),
            ArgError::BadValue { flag, value } => write!(f, "invalid value {value:?} for {flag}"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Parsed options.
#[derive(Clone, Debug, PartialEq)]
pub struct Options {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub const USAGE: &str = "usage: maestro-perfbench --workload <paper-repro|service-openloop|\
fleet-drill|snapshot-fork> [--seed N] [--seconds S] [--trace 0|1]";

impl Options {
    /// Parse `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(args: &[String]) -> Result<Options, ArgError> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name: &'static str = match flag.as_str() {
                "--workload" => "--workload",
                "--seed" => "--seed",
                "--seconds" => "--seconds",
                "--trace" => "--trace",
                other => return Err(ArgError::Unknown(other.to_string())),
            };
            let value = it.next().ok_or(ArgError::Missing(name))?;
            let bad = || ArgError::BadValue {
                flag: name,
                value: value.clone(),
            };
            match name {
                "--workload" => {
                    workload = Some(*WORKLOADS.iter().find(|w| **w == value).ok_or_else(bad)?)
                }
                "--seed" => seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    seconds = value.parse().map_err(|_| bad())?;
                    if !(seconds > 0.0 && seconds <= 3600.0) {
                        return Err(bad());
                    }
                }
                _ => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
            }
        }
        let workload = workload.ok_or(ArgError::Missing("--workload"))?;
        Ok(Options {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// Rounds of one measurement phase.
///
/// Every round repeats the same operations and parts in the same order, so
/// each is timed at its fastest repetition. On a shared host, interference
/// from other guests only adds time, and it comes and goes; the fastest of
/// many repetitions of the same work is far steadier from run to run than
/// the median round, which follows the host's load (see BENCHMARK.md).
#[derive(Default)]
struct Phase {
    rounds: Vec<Round>,
    wall_s: Vec<f64>,
    spans: Vec<[SpanAcc; LAYERS]>,
    /// Fastest host time of each operation, ms, by position in the round.
    best_op_ms: Vec<f64>,
    /// Fastest host time of each part, s, by position in the round.
    best_part_s: Vec<f64>,
    ops: u64,
    /// Rounds whose operations or parts differ in number from round 0.
    misshapen: Vec<usize>,
}

impl Phase {
    /// Simulated seconds per host second, per round.
    fn round_rates(&self) -> Vec<f64> {
        let per_round = self.rounds.iter().zip(&self.wall_s);
        per_round.map(|(r, &w)| r.sim_s / w).collect()
    }

    /// Host seconds of a round made of every part at its fastest.
    fn best_round_s(&self) -> f64 {
        self.best_part_s.iter().sum()
    }

    fn sim_rate(&self) -> f64 {
        let sim: f64 = self.rounds.iter().map(|r| r.sim_s).sum();
        sim / self.wall_s.iter().sum::<f64>()
    }

    /// The rounds that changed shape, as problems.
    fn shape_problems(&self) -> impl Iterator<Item = String> + '_ {
        self.misshapen.iter().map(|i| {
            format!("round {i} has a different number of operations or parts than round 0")
        })
    }
}

/// Run whole cycles of rounds, one round per entry of `modes` (traced or
/// not), until one more cycle would pass `seconds`; at least
/// [`MIN_CYCLES`] cycles. Returns one phase per mode. Alternating the modes keeps slow drift of
/// the host out of their difference.
fn cycles<B: Bench>(b: &mut B, first: B::Inputs, modes: &[bool], seconds: f64) -> Vec<Phase> {
    let mut phases: Vec<Phase> = modes.iter().map(|_| Phase::default()).collect();
    let start = Instant::now();
    let mut first = Some(first);
    let mut ops = Vec::new();
    for done in 1.. {
        let cycle_start = Instant::now();
        for (phase, &traced) in phases.iter_mut().zip(modes) {
            let input = first.take().unwrap_or_else(|| b.prepare(traced));
            trace::set_enabled(traced);
            trace::take();
            let t0 = Instant::now();
            let mut round = b.round(input, ops);
            phase.wall_s.push(t0.elapsed().as_secs_f64());
            phase.spans.push(trace::take());
            trace::set_enabled(false);
            ops = std::mem::take(&mut round.ops_s);
            phase.ops += ops.len() as u64;
            for op in ops.iter_mut() {
                *op *= 1e3;
            }
            let same_ops = fold_min(&mut phase.best_op_ms, &ops);
            let same_parts = fold_min(&mut phase.best_part_s, &round.parts_s);
            if !(same_ops && same_parts) {
                phase.misshapen.push(phase.rounds.len());
            }
            ops.clear();
            phase.rounds.push(round);
        }
        let cycle = cycle_start.elapsed().as_secs_f64();
        if done >= MIN_CYCLES && start.elapsed().as_secs_f64() + cycle > seconds {
            break;
        }
    }
    phases
}

/// Everything a run measured, before it is turned into metrics.
pub struct Outcome {
    pub opts: Options,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct (failed operations, nondeterminism).
    pub problems: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub workload_model: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Extra report lines: sample sizes, quartiles, tail percentiles.
    pub notes: Vec<String>,
}

fn metric(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit: unit.to_string(),
    }
}

fn value_bits(v: &Values) -> Vec<(&'static str, u64)> {
    v.iter().map(|(k, x)| (*k, x.to_bits())).collect()
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|_| format!("unreadable {line:?}"))?;
    Ok(kib / 1024.0)
}

/// Measure one workload.
///
/// `make` builds the workload's configurations; set-up time covers it and
/// the first round's inputs.
pub fn measure<B: Bench>(make: impl Fn() -> B, opts: &Options) -> Result<Outcome, String> {
    if opts.trace {
        let b = &mut make();
        // Untraced and traced rounds alternate; the untraced ones give the
        // baseline for the tracing overhead.
        let first = b.prepare(false);
        let mut phases = cycles(b, first, &[false, true], opts.seconds);
        let traced = phases.pop().expect("two phases");
        let plain = phases.pop().expect("two phases");
        let all: Vec<Round> = plain.rounds.iter().chain(&traced.rounds).cloned().collect();
        let mut out = finish(opts, plain.ops + traced.ops, &all)?;
        out.problems.extend(plain.shape_problems());
        out.problems.extend(traced.shape_problems());
        out.per_layer = per_layer(&traced, plain.sim_rate(), opts);
        return Ok(out);
    }
    let mut setups = Vec::with_capacity(SETUP_SAMPLES);
    let mut built = None;
    for _ in 0..SETUP_SAMPLES {
        let (mut spent, mut repeats) = (0.0, 0);
        while spent < SETUP_SAMPLE_S {
            // Tearing down the previous set-up is not timed.
            drop(built.take());
            let t0 = Instant::now();
            let mut b = make();
            let inputs = b.prepare(false);
            spent += t0.elapsed().as_secs_f64();
            repeats += 1;
            built = Some((b, inputs));
        }
        setups.push(spent / repeats as f64);
    }
    let setup_s = median(&setups).map_err(|e| format!("setup time: {e}"))?;
    let (mut b, first) = built.expect("set-up ran");
    let p = cycles(&mut b, first, &[false], opts.seconds)
        .pop()
        .expect("one phase");
    let mut out = finish(opts, p.ops, &p.rounds)?;
    out.problems.extend(p.shape_problems());
    let ops = &p.best_op_ms;
    let pct = |q| percentile(ops, q).map_err(|e| format!("op_ms p{}: {e}", q * 100.0));
    let model = |k| p.rounds[0].model.get(k).copied().unwrap_or(0.0);
    let best_round_s = p.best_round_s();
    if best_round_s <= 0.0 {
        return Err("no part of a round was timed".to_string());
    }
    let values = [
        setup_s,
        p.rounds[0].sim_s / best_round_s,
        ops.len() as f64 / best_round_s,
        pct(0.5)?,
        pct(0.9)?,
        peak_rss_mib()?,
        model("model_energy_j"),
        model("model_time_s"),
    ];
    out.end_to_end = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| metric(n, v, u))
        .collect();

    // The report also states the sample, the op-time quartiles, the
    // highest percentile with ten samples beyond it, and the median and
    // spread of the per-round rate, which follow the host's load.
    out.notes.push(format!(
        "{} rounds, {} operations, {} per round, each timed at its fastest",
        p.rounds.len(),
        p.ops,
        ops.len()
    ));
    if let Ok([q1, q2, q3]) = quartiles(ops) {
        out.notes
            .push(format!("op_ms quartiles {q1:.6} {q2:.6} {q3:.6}"));
    }
    if let Some((q, v)) = [0.999, 0.99, 0.9]
        .iter()
        .find_map(|&q| percentile(ops, q).ok().map(|v| (q, v)))
    {
        out.notes.push(format!(
            "op_ms p{} {v:.6} (highest percentile with 10 beyond)",
            q * 100.0
        ));
    }
    let sim_rates = p.round_rates();
    if let (Ok(m), Ok(spread)) = (median(&sim_rates), iqr_share(&sim_rates)) {
        out.notes.push(format!(
            "per-round sim_s_per_wall_s median {m:.6}, IQR/median {spread:.4}"
        ));
    }
    Ok(out)
}

/// The parts of an outcome shared by both modes: failures, determinism
/// checks and the workload-specific model metrics.
fn finish(opts: &Options, attempted: u64, rounds: &[Round]) -> Result<Outcome, String> {
    let first = rounds.first().ok_or("no round ran")?;
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let mut problems = Vec::new();
    for (i, r) in rounds.iter().enumerate() {
        problems.extend(r.errors.iter().map(|e| format!("round {i}: {e}")));
        if value_bits(&r.model) != value_bits(&first.model) {
            problems.push(format!("round {i} model outputs differ from round 0"));
        }
        if value_bits(&r.counts) != value_bits(&first.counts) {
            problems.push(format!("round {i} work counts differ from round 0"));
        }
    }
    if let Err(e) = crate::fingerprint::check(opts, first) {
        problems.push(e);
    }
    // A failed operation can leave a workload-specific model metric
    // unmeasured (a Tables IV-VII cell that panicked). These metrics are
    // not on the result line, so the run goes on and is reported incorrect.
    let mut workload_model = Vec::new();
    for &(n, u, _) in WORKLOAD_MODEL
        .iter()
        .filter(|(_, _, w)| *w == opts.workload)
    {
        match first.model.get(n) {
            Some(v) => workload_model.push(metric(n, *v, u)),
            None => problems.push(format!("{n} was not measured")),
        }
    }
    Ok(Outcome {
        opts: opts.clone(),
        attempted: attempted.max(failed).max(1),
        failed,
        problems,
        end_to_end: Vec::new(),
        workload_model,
        per_layer: Vec::new(),
        notes: Vec::new(),
    })
}

/// Per-layer metrics of the traced phase.
fn per_layer(traced: &Phase, untraced_rate: f64, opts: &Options) -> Vec<Metric> {
    let first = &traced.rounds[0];
    let count = |k: &str| first.counts.get(k).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    // Median over traced rounds of a per-round span figure.
    let per_round = |l: Layer, f: fn(&SpanAcc) -> f64| -> f64 {
        let xs: Vec<f64> = traced.spans.iter().map(|s| f(&s[l as usize])).collect();
        median(&xs).unwrap_or(0.0)
    };
    let spans = &traced.spans[0];
    let mut v: BTreeMap<&str, f64> = first.counts.iter().map(|(k, x)| (*k, *x)).collect();
    v.insert(
        "workloads.run_s",
        per_round(Layer::WorkloadsRun, SpanAcc::self_s),
    );
    let runtime_self = per_round(Layer::RuntimeRun, SpanAcc::self_s);
    v.insert("runtime.self_s", runtime_self);
    v.insert(
        "runtime.ns_per_step",
        ratio(runtime_self * 1e9, count("runtime.steps")),
    );
    v.insert("core.fire_s", per_round(Layer::CoreFire, SpanAcc::total_s));
    v.insert("core.fires", spans[Layer::CoreFire as usize].count as f64);
    v.insert(
        "core.throttled_fraction",
        ratio(count("core.throttled_decisions"), count("core.decisions")),
    );
    v.insert(
        "core.duty_write_ratio",
        ratio(count("core.duty_writes"), count("core.duty_write_attempts")),
    );
    v.insert(
        "service.source_s",
        per_round(Layer::ServiceSource, SpanAcc::total_s),
    );
    v.insert(
        "service.source_calls",
        spans[Layer::ServiceSource as usize].count as f64,
    );
    v.insert(
        "service.useful_ratio",
        ratio(
            count("service.completed"),
            count("service.arrived") + count("service.retries_spent"),
        ),
    );
    let applied = count("fleet.leases_applied");
    v.insert(
        "fleet.lease_apply_ratio",
        ratio(applied, applied + count("fleet.leases_discarded")),
    );
    v.insert(
        "snap.encode_us",
        per_round(Layer::SnapEncode, SpanAcc::mean_ns) * 1e-3,
    );
    v.insert(
        "snap.decode_us",
        per_round(Layer::SnapDecode, SpanAcc::mean_ns) * 1e-3,
    );
    if opts.workload == "snapshot-fork" {
        v.insert(
            "snap.fork_resume_ms",
            median(&traced.best_op_ms).unwrap_or(0.0),
        );
    }
    let overheads: Vec<f64> = traced
        .rounds
        .iter()
        .filter_map(|r| r.host.get("snap.capture_overhead_s").copied())
        .collect();
    if let Ok(m) = median(&overheads) {
        v.insert("snap.capture_overhead_s", m);
    }
    for (model, layer) in [
        ("energy_saved_pct", "core.energy_saved_pct"),
        ("paper_energy_err_pct", "workloads.paper_energy_err_pct"),
        ("model_p99_us", "service.model_p99_us"),
        ("model_goodput_rps", "service.model_goodput_rps"),
    ] {
        if let Some(x) = first.model.get(model) {
            v.insert(layer, *x);
        }
    }
    let probes = crate::probes::run(&crate::fleet::config(opts.seed));
    v.insert("machine.advance_read_ns", probes.machine_ns);
    v.insert("rapl.sample_ns", probes.rapl_ns);
    v.insert("rcr.sample_ns", probes.rcr_ns);
    v.insert("core.fire_ns", probes.controller_ns);
    v.insert("fleet.node_epoch_us", probes.node_epoch_ns * 1e-3);
    v.insert("fleet.allocate_us", probes.allocate_ns * 1e-3);
    let traced_rate = traced.sim_rate();
    v.insert(
        "trace.overhead_pct",
        100.0 * (untraced_rate / traced_rate - 1.0),
    );
    v.insert("trace.untraced_sim_s_per_wall_s", untraced_rate);
    v.insert("trace.traced_sim_s_per_wall_s", traced_rate);
    v.insert(
        "trace.span_count",
        spans.iter().map(|s| s.count).sum::<u64>() as f64,
    );
    PER_LAYER
        .iter()
        .map(|&(n, u)| metric(n, v.get(n).copied().unwrap_or(0.0), u))
        .collect()
}

impl Outcome {
    /// The result line's contents.
    pub fn result(&self) -> BenchResult {
        BenchResult {
            correct: self.problems.is_empty() && self.failed == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics: if self.opts.trace {
                self.per_layer.clone()
            } else {
                self.end_to_end.clone()
            },
        }
    }

    /// Names the result line must carry.
    pub fn expected_names(&self) -> Vec<&'static str> {
        if self.opts.trace {
            PER_LAYER.iter().map(|(n, _)| *n).collect()
        } else {
            END_TO_END.iter().map(|(n, _)| *n).collect()
        }
    }
}
