//! The MAESTRO facade: machine + runtime + controller, one call to run and
//! measure a workload.

use std::cell::Cell;
use std::rc::Rc;

use maestro_machine::snap::{SnapError, SnapReader, SnapWriter};
use maestro_machine::{fingerprint, Machine, MachineConfig, PState};
use maestro_rcr::{Region, RegionReport, DEFAULT_SAMPLE_PERIOD_NS};
use maestro_runtime::{
    BoxTask, CapturedRun, RequestSource, RunEnd, RunOutcome, RunStats, Runtime, RuntimeError,
    RuntimeParams, SnapshotPlan, TaskValue, Watchdog,
};

use crate::alternatives::{
    DvfsController, DvfsTraceHandle, PowerCapController, PowerCapTraceHandle,
};
use crate::controller::{ControlPlaneStats, ControllerConfig, ThrottleController, TraceHandle};

/// Concurrency policy for a run, matching the paper's table rows (plus the
/// alternative mechanisms evaluated by the `ablation`/`powercap` targets).
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Policy {
    /// "N Threads - Fixed": `workers` workers, no throttling.
    Fixed,
    /// "16 Threads - Dynamic": all workers plus the adaptive controller,
    /// which limits each shepherd to `limit_per_shepherd` active workers
    /// while the throttle flag is set.
    Adaptive {
        /// Active-worker cap per shepherd while throttled (6 ⇒ 12 node-wide
        /// on the 2-socket machine, the paper's configuration).
        limit_per_shepherd: usize,
    },
    /// The DVFS alternative the paper argues against: same sensing, but the
    /// response is a package-global P-state step with `floor` as the lowest
    /// allowed frequency.
    Dvfs {
        /// Lowest P-state the controller may select.
        floor: PState,
    },
    /// Power clamping: keep node power at or below the bound by adjusting
    /// the shepherd concurrency limit (§V outlook; Rountree et al. 2012).
    PowerCap {
        /// Node power bound, Watts.
        watts: f64,
    },
}

/// Configuration of a [`Maestro`] instance.
#[derive(Clone, Debug)]
pub struct MaestroConfig {
    /// The simulated node.
    pub machine: MachineConfig,
    /// Tasking-runtime parameters (including worker count).
    pub runtime: RuntimeParams,
    /// Fixed or adaptive concurrency.
    pub policy: Policy,
    /// Thresholds, safe mode, retries, and fault injection for the adaptive
    /// controller (ignored by the other policies).
    pub controller: ControllerConfig,
}

impl MaestroConfig {
    /// Fixed concurrency with `workers` workers on the paper's node.
    pub fn fixed(workers: usize) -> Self {
        MaestroConfig {
            machine: MachineConfig::sandybridge_2x8(),
            runtime: RuntimeParams::qthreads(workers),
            policy: Policy::Fixed,
            controller: ControllerConfig::default(),
        }
    }

    /// Adaptive throttling with `workers` workers and the paper's limit of
    /// 6 active workers per shepherd (12 node-wide).
    pub fn adaptive(workers: usize) -> Self {
        MaestroConfig {
            machine: MachineConfig::sandybridge_2x8(),
            runtime: RuntimeParams::qthreads(workers),
            policy: Policy::Adaptive { limit_per_shepherd: 6 },
            controller: ControllerConfig::default(),
        }
    }
}

/// Summary of the controller's behaviour during one run.
#[derive(Clone, Debug, PartialEq)]
pub struct ThrottleSummary {
    /// Fraction of controller decisions with the flag set.
    pub throttled_fraction: f64,
    /// Off→on transitions.
    pub activations: usize,
    /// Controller decisions taken.
    pub decisions: usize,
    /// Worker-seconds spent in the low-power spin loop.
    pub throttled_worker_s: f64,
    /// Duty-register writes performed.
    pub duty_writes: u64,
    /// Decisions forced by the controller's safe mode (measurement pipeline
    /// degraded — throttling deactivated, full duty cycle restored).
    pub safe_mode_decisions: usize,
    /// Daemon publication deadlines the watchdog saw missed during the run.
    pub missed_deadlines: u64,
    /// Daemon deaths the supervisor observed during the run.
    pub daemon_kills: u64,
    /// Daemon restarts the supervisor performed during the run.
    pub daemon_restarts: u64,
    /// True once the supervisor exhausted its restart budget (the pipeline
    /// stayed dark and the controller failed open for the remainder).
    pub daemon_gave_up: bool,
    /// Times the controller resumed from its checkpoint after a restart.
    pub checkpoint_restores: u64,
    /// Duty-write transactions that exhausted their retries during the run.
    pub failed_duty_applies: u64,
    /// Per-core actuator circuit breakers tripped during the run.
    pub breaker_trips: u64,
    /// Cores forcibly reset to FULL duty by the actuator during the run.
    pub forced_duty_resets: u64,
}

/// Everything measured about one run: the region report fields (time,
/// Joules, Watts, temperatures) plus scheduler and controller statistics.
#[derive(Debug)]
pub struct RunReport {
    /// Workload label.
    pub name: String,
    /// Virtual execution time, seconds.
    pub elapsed_s: f64,
    /// Whole-node energy, Joules.
    pub joules: f64,
    /// Average node power, Watts.
    pub avg_watts: f64,
    /// Most recent chip temperature per socket, °C.
    pub chip_temps_c: Vec<f64>,
    /// Scheduler counters.
    pub stats: RunStats,
    /// Present for adaptive runs.
    pub throttle: Option<ThrottleSummary>,
    /// The root task's value.
    pub value: TaskValue,
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<24} {:>8.2} s {:>9.0} J {:>7.1} W",
            self.name, self.elapsed_s, self.joules, self.avg_watts
        )?;
        if let Some(t) = &self.throttle {
            write!(
                f,
                "  [throttled {:.0}% of samples, {} activation(s)]",
                t.throttled_fraction * 100.0,
                t.activations
            )?;
            if t.safe_mode_decisions > 0 || t.missed_deadlines > 0 {
                write!(
                    f,
                    " [degraded: {} safe-mode decision(s), {} missed deadline(s)]",
                    t.safe_mode_decisions, t.missed_deadlines
                )?;
            }
            if t.daemon_kills > 0 || t.daemon_restarts > 0 {
                write!(
                    f,
                    " [recovery: {} daemon death(s), {} restart(s), {} checkpoint restore(s){}]",
                    t.daemon_kills,
                    t.daemon_restarts,
                    t.checkpoint_restores,
                    if t.daemon_gave_up { ", gave up" } else { "" }
                )?;
            }
            if t.breaker_trips > 0 || t.failed_duty_applies > 0 {
                write!(
                    f,
                    " [actuation: {} failed apply(s), {} breaker trip(s), {} forced reset(s)]",
                    t.failed_duty_applies, t.breaker_trips, t.forced_duty_resets
                )?;
            }
        }
        Ok(())
    }
}

/// The integrated system. Construct once per configuration; run one or more
/// workloads (the machine stays warm between runs, as on real hardware).
pub struct Maestro {
    runtime: Runtime,
    trace: Option<TraceHandle>,
    dvfs_trace: Option<DvfsTraceHandle>,
    powercap_trace: Option<PowerCapTraceHandle>,
    watchdog_missed: Option<Rc<Cell<u64>>>,
    control_plane: Option<Rc<Cell<ControlPlaneStats>>>,
    policy: Policy,
}

impl Maestro {
    /// Assemble machine, runtime, and (for adaptive policies) the RCR
    /// daemon + throttle controller. Panics on an invalid configuration;
    /// use [`Maestro::try_new`] for the fallible form.
    pub fn new(config: MaestroConfig) -> Self {
        Self::try_new(config).expect("invalid Maestro configuration")
    }

    /// Fallible assembly: rejects invalid runtime parameters and worker
    /// counts beyond the machine's cores with a typed error.
    pub fn try_new(config: MaestroConfig) -> Result<Self, RuntimeError> {
        let machine = Machine::new(config.machine);
        let mut runtime = Runtime::new(machine, config.runtime)?;
        let mut trace = None;
        let mut dvfs_trace = None;
        let mut powercap_trace = None;
        let mut watchdog_missed = None;
        let mut control_plane = None;
        match config.policy {
            Policy::Fixed => {}
            Policy::Adaptive { limit_per_shepherd } => {
                runtime.throttle_mut().limit_per_shepherd = limit_per_shepherd;
                let (controller, t) =
                    ThrottleController::with_config(runtime.machine(), config.controller);
                // Supervise the controller's publication heartbeat at twice
                // the sampling period, so one late sample is not yet a miss.
                let watchdog =
                    Watchdog::new(2 * DEFAULT_SAMPLE_PERIOD_NS, controller.heartbeat());
                watchdog_missed = Some(watchdog.missed_handle());
                control_plane = Some(controller.control_plane());
                runtime.add_monitor(Box::new(controller));
                runtime.add_monitor(Box::new(watchdog));
                trace = Some(t);
            }
            Policy::Dvfs { floor } => {
                let (controller, t) = DvfsController::new(runtime.machine(), floor);
                runtime.add_monitor(Box::new(controller));
                dvfs_trace = Some(t);
            }
            Policy::PowerCap { watts } => {
                let (controller, t) = PowerCapController::new(runtime.machine(), watts);
                runtime.add_monitor(Box::new(controller));
                powercap_trace = Some(t);
            }
        }
        Ok(Maestro {
            runtime,
            trace,
            dvfs_trace,
            powercap_trace,
            watchdog_missed,
            control_plane,
            policy: config.policy,
        })
    }

    /// The DVFS decision trace, when running under [`Policy::Dvfs`].
    pub fn dvfs_trace(&self) -> Option<&DvfsTraceHandle> {
        self.dvfs_trace.as_ref()
    }

    /// The power-cap trace, when running under [`Policy::PowerCap`].
    pub fn powercap_trace(&self) -> Option<&PowerCapTraceHandle> {
        self.powercap_trace.as_ref()
    }

    /// The configured policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The simulated machine (for inspection between runs).
    pub fn machine(&self) -> &Machine {
        self.runtime.machine()
    }

    /// Direct access to the underlying tasking runtime.
    pub fn runtime_mut(&mut self) -> &mut Runtime {
        &mut self.runtime
    }

    /// Execute `root` against `app`, measured with the RCR region API.
    /// Panics on a scheduler error; use [`Maestro::try_run`] for the
    /// fallible form.
    pub fn run<C>(&mut self, name: &str, app: &mut C, root: BoxTask<C>) -> RunReport {
        self.try_run(name, app, root).expect("scheduler failed")
    }

    /// Execute `root` against `app`, surfacing scheduler failures (e.g. a
    /// deadlocked task graph) as a typed error instead of panicking.
    pub fn try_run<C>(
        &mut self,
        name: &str,
        app: &mut C,
        root: BoxTask<C>,
    ) -> Result<RunReport, RuntimeError> {
        let run = self.run_captured(name, app, root, &SnapshotPlan::none());
        self.plain(run)
    }

    /// A plain run's report. Under an empty plan a run never suspends and
    /// never serializes, so only completion and failure come back.
    fn plain(&self, run: Result<MaestroRun, SnapError>) -> Result<RunReport, RuntimeError> {
        match run.map(|r| r.end) {
            Ok(MaestroRunEnd::Completed(report)) => Ok(report),
            Ok(MaestroRunEnd::Failed(e)) => Err(e),
            Ok(MaestroRunEnd::Suspended(_)) | Err(_) => Err(RuntimeError::Internal {
                detail: "run without snapshots suspended or captured",
                t_ns: self.runtime.machine().now_ns(),
                partial: Box::default(),
            }),
        }
    }

    /// Measure one run with the RCR region API: open the region and the
    /// facade baselines, run, and turn the result into a [`MaestroRun`].
    fn measured(
        &mut self,
        name: &str,
        run: impl FnOnce(&mut Runtime) -> Result<CapturedRun, SnapError>,
    ) -> Result<MaestroRun, SnapError> {
        // Baselines taken at run start, so per-run summaries subtract prior
        // runs on the same warm instance.
        let anchors = RunAnchors {
            decisions_before: self.trace.as_ref().map_or(0, |t| t.borrow().samples.len()) as u64,
            missed_before: self.watchdog_missed.as_ref().map_or(0, |m| m.get()),
            cp_before: self
                .control_plane
                .as_ref()
                .map_or_else(ControlPlaneStats::default, |h| h.get()),
        };
        let region = Region::start(name, self.runtime.machine());
        let captured = run(&mut self.runtime)?;
        Ok(self.wrap_captured(name, region, anchors, captured))
    }

    fn build_report(
        &self,
        name: &str,
        outcome: RunOutcome,
        report: RegionReport,
        anchors: &RunAnchors,
    ) -> RunReport {
        let decisions_before = anchors.decisions_before as usize;
        let throttle = self.trace.as_ref().map(|t| {
            let trace = t.borrow();
            let run_samples = &trace.samples[decisions_before.min(trace.samples.len())..];
            let throttled = run_samples.iter().filter(|s| s.throttled).count();
            let activations = run_samples
                .windows(2)
                .filter(|w| !w[0].throttled && w[1].throttled)
                .count()
                + usize::from(run_samples.first().is_some_and(|s| s.throttled));
            let cp = self.control_plane.as_ref().map_or_else(ControlPlaneStats::default, |h| h.get());
            ThrottleSummary {
                throttled_fraction: if run_samples.is_empty() {
                    0.0
                } else {
                    throttled as f64 / run_samples.len() as f64
                },
                activations,
                decisions: run_samples.len(),
                throttled_worker_s: outcome.stats.throttled_worker_ns as f64 * 1e-9,
                duty_writes: outcome.stats.duty_writes,
                safe_mode_decisions: run_samples.iter().filter(|s| s.safe_mode).count(),
                missed_deadlines: self.watchdog_missed.as_ref().map_or(0, |m| m.get())
                    - anchors.missed_before,
                daemon_kills: cp.daemon_kills - anchors.cp_before.daemon_kills,
                daemon_restarts: cp.daemon_restarts - anchors.cp_before.daemon_restarts,
                daemon_gave_up: cp.daemon_gave_up,
                checkpoint_restores: cp.checkpoint_restores
                    - anchors.cp_before.checkpoint_restores,
                failed_duty_applies: outcome.stats.failed_duty_applies,
                breaker_trips: outcome.stats.breaker_trips,
                forced_duty_resets: outcome.stats.forced_duty_resets,
            }
        });
        RunReport {
            name: name.to_string(),
            elapsed_s: report.elapsed_s,
            joules: report.joules,
            avg_watts: report.avg_watts,
            chip_temps_c: report.chip_temps_c,
            stats: outcome.stats,
            throttle,
            value: outcome.value,
        }
    }

    // ------------------------------------------------------------------
    // Service runs (open-loop request traffic, no root task)
    // ------------------------------------------------------------------

    /// Execute an open-loop service run, measured like [`Maestro::try_run`]:
    /// `source` injects request trees as virtual time advances and the run
    /// ends when the source exhausts and every request settles. Terminal
    /// errors carry partial stats with the service counters folded in.
    pub fn try_run_service<C: 'static>(
        &mut self,
        name: &str,
        app: &mut C,
        source: Box<dyn RequestSource>,
    ) -> Result<RunReport, RuntimeError> {
        let run = self.run_service_captured(name, app, source, &SnapshotPlan::none());
        self.plain(run)
    }

    /// [`Maestro::try_run_service`] under a [`SnapshotPlan`] — the service
    /// analogue of [`Maestro::run_captured`].
    pub fn run_service_captured<C: 'static>(
        &mut self,
        name: &str,
        app: &mut C,
        source: Box<dyn RequestSource>,
        plan: &SnapshotPlan,
    ) -> Result<MaestroRun, SnapError> {
        self.measured(name, |rt| rt.run_service_captured(app, source, plan))
    }

    /// Resume a suspended service run. `source` must be freshly built with
    /// the captured run's configuration; its dynamic state (RNG cursors,
    /// retry queue, admission ledger, histograms) is restored from the
    /// snapshot before the loop continues.
    pub fn resume_service_captured<C: 'static>(
        &mut self,
        app: &mut C,
        source: Box<dyn RequestSource>,
        snapshot: &MaestroSnapshot,
        plan: &SnapshotPlan,
    ) -> Result<MaestroRun, SnapError> {
        let captured =
            self.runtime.resume_service_captured(app, source, &snapshot.runtime_bytes, plan)?;
        Ok(self.wrap_captured(&snapshot.name, snapshot.region.clone(), snapshot.anchors, captured))
    }

    // ------------------------------------------------------------------
    // Whole-run snapshot / resume / fork
    // ------------------------------------------------------------------

    /// Execute `root` under a [`SnapshotPlan`]: take cadence snapshots,
    /// suspend at the planned point, or just run to completion with fences.
    /// Scheduler failures surface as [`MaestroRunEnd::Failed`] (so cadence
    /// snapshots taken before the failure survive for triage); the `Err`
    /// branch is reserved for capture/serialization problems.
    pub fn run_captured<C>(
        &mut self,
        name: &str,
        app: &mut C,
        root: BoxTask<C>,
        plan: &SnapshotPlan,
    ) -> Result<MaestroRun, SnapError> {
        self.measured(name, |rt| rt.run_captured(app, root, plan))
    }

    /// Resume a suspended run on this (freshly built or warm) facade. The
    /// configuration must match the captured one *except* for policy knobs:
    /// controller thresholds and the shepherd throttle limit are not part of
    /// the snapshot, which is exactly what makes warm **forking** work —
    /// restore one snapshot under N knob variants and sweep.
    pub fn resume_captured<C: 'static>(
        &mut self,
        app: &mut C,
        snapshot: &MaestroSnapshot,
        plan: &SnapshotPlan,
    ) -> Result<MaestroRun, SnapError> {
        let captured = self.runtime.resume_captured(app, &snapshot.runtime_bytes, plan)?;
        Ok(self.wrap_captured(&snapshot.name, snapshot.region.clone(), snapshot.anchors, captured))
    }

    fn wrap_captured(
        &self,
        name: &str,
        region: Region,
        anchors: RunAnchors,
        captured: CapturedRun,
    ) -> MaestroRun {
        let to_snapshot = |t_ns: u64, bytes: Vec<u8>| MaestroSnapshot {
            name: name.to_string(),
            t_ns,
            region: region.clone(),
            anchors,
            runtime_bytes: bytes,
        };
        let snapshots =
            captured.snapshots.into_iter().map(|c| to_snapshot(c.t_ns, c.bytes)).collect();
        let end = match captured.end {
            RunEnd::Completed(outcome) => {
                let report = region.clone().end(self.runtime.machine());
                MaestroRunEnd::Completed(self.build_report(name, outcome, report, &anchors))
            }
            RunEnd::Suspended(cap) => MaestroRunEnd::Suspended(to_snapshot(cap.t_ns, cap.bytes)),
            RunEnd::Failed(e) => MaestroRunEnd::Failed(e),
        };
        MaestroRun { end, snapshots }
    }
}

/// Facade-side measurement baselines captured at run start (and carried
/// inside snapshots so a resumed run subtracts the *original* baselines).
#[derive(Copy, Clone, Debug)]
struct RunAnchors {
    decisions_before: u64,
    missed_before: u64,
    cp_before: ControlPlaneStats,
}

/// How a captured Maestro run ended.
#[derive(Debug)]
pub enum MaestroRunEnd {
    /// Ran to completion; the full measured report.
    Completed(RunReport),
    /// Stopped at the planned suspension point.
    Suspended(MaestroSnapshot),
    /// The scheduler failed (panic, deadline, deadlock). Cadence snapshots
    /// taken before the failure are still available for time-travel triage.
    Failed(RuntimeError),
}

/// Result of [`Maestro::run_captured`] / [`Maestro::resume_captured`]: how
/// the run ended plus every cadence snapshot taken along the way.
#[derive(Debug)]
pub struct MaestroRun {
    /// Terminal state.
    pub end: MaestroRunEnd,
    /// Cadence snapshots in time order.
    pub snapshots: Vec<MaestroSnapshot>,
}

impl MaestroRun {
    /// The completed report, if the run finished.
    pub fn report(self) -> Option<RunReport> {
        match self.end {
            MaestroRunEnd::Completed(r) => Some(r),
            _ => None,
        }
    }

    /// The suspension snapshot, if the run was suspended.
    pub fn suspended(self) -> Option<MaestroSnapshot> {
        match self.end {
            MaestroRunEnd::Suspended(s) => Some(s),
            _ => None,
        }
    }
}

/// A whole-run snapshot at facade granularity: the runtime's serialized
/// state plus the facade's measurement anchors (open region, controller
/// baselines), so resuming closes the *original* measurement region and the
/// final report is bit-identical to an unbroken run's.
#[derive(Clone, Debug)]
pub struct MaestroSnapshot {
    name: String,
    t_ns: u64,
    region: Region,
    anchors: RunAnchors,
    runtime_bytes: Vec<u8>,
}

impl MaestroSnapshot {
    /// Workload label of the captured run.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Virtual time of the capture, nanoseconds.
    pub fn t_ns(&self) -> u64 {
        self.t_ns
    }

    /// Serialize into a self-contained, versioned byte blob (e.g. to write
    /// a snapshot file for `maestro-bench replay`).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.header(fingerprint(b"maestro-snapshot/v1"));
        w.str(&self.name);
        w.u64(self.t_ns);
        self.region.snap_state(&mut w);
        w.u64(self.anchors.decisions_before);
        w.u64(self.anchors.missed_before);
        let cp = self.anchors.cp_before;
        w.u64(cp.daemon_kills);
        w.u64(cp.daemon_restarts);
        w.u64(cp.wedge_kills);
        w.bool(cp.daemon_gave_up);
        w.u64(cp.blackboard_epoch);
        w.u64(cp.checkpoint_restores);
        w.u64(cp.safe_mode_periods);
        w.blob(&self.runtime_bytes);
        w.finish()
    }

    /// Rebuild a snapshot serialized by [`MaestroSnapshot::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapError> {
        let mut r = SnapReader::new(bytes);
        r.header(fingerprint(b"maestro-snapshot/v1"))?;
        let name = r.str()?;
        let t_ns = r.u64()?;
        let region = Region::restore_state(&mut r)?;
        let anchors = RunAnchors {
            decisions_before: r.u64()?,
            missed_before: r.u64()?,
            cp_before: ControlPlaneStats {
                daemon_kills: r.u64()?,
                daemon_restarts: r.u64()?,
                wedge_kills: r.u64()?,
                daemon_gave_up: r.bool()?,
                blackboard_epoch: r.u64()?,
                checkpoint_restores: r.u64()?,
                safe_mode_periods: r.u64()?,
            },
        };
        let runtime_bytes = r.blob()?.to_vec();
        r.finish()?;
        Ok(MaestroSnapshot { name, t_ns, region, anchors, runtime_bytes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maestro_machine::{Cost, DutyCycle};
    use maestro_runtime::{compute_leaf, fork_join};

    /// A workload that is both hot and memory-contended: many coarse tasks
    /// with high intensity and high MLP.
    fn contended_root(tasks: usize) -> BoxTask<()> {
        let children: Vec<BoxTask<()>> = (0..tasks)
            .map(|_| compute_leaf(Cost::new(13_000_000, 500_000, 8.0, 0.95)))
            .collect();
        fork_join(children, |_, _| (Cost::ZERO, TaskValue::none()))
    }

    /// A cleanly scaling compute-bound workload.
    fn scalable_root(tasks: usize) -> BoxTask<()> {
        let children: Vec<BoxTask<()>> =
            (0..tasks).map(|_| compute_leaf(Cost::compute(27_000_000, 0.6))).collect();
        fork_join(children, |_, _| (Cost::ZERO, TaskValue::none()))
    }

    #[test]
    fn fixed_policy_has_no_throttle_summary() {
        let mut m = Maestro::new(MaestroConfig::fixed(16));
        let r = m.run("fixed", &mut (), scalable_root(32));
        assert!(r.throttle.is_none());
        assert!(r.elapsed_s > 0.0 && r.joules > 0.0);
    }

    #[test]
    fn adaptive_policy_throttles_contended_workload() {
        let mut m = Maestro::new(MaestroConfig::adaptive(16));
        let r = m.run("contended", &mut (), contended_root(2500));
        let t = r.throttle.expect("adaptive run has a summary");
        assert!(t.decisions > 5, "controller must have run: {t:?}");
        assert!(t.throttled_fraction > 0.3, "hot+contended must throttle: {t:?}");
        assert!(t.throttled_worker_s > 0.0);
    }

    #[test]
    fn adaptive_reduces_power_on_contended_workload() {
        let mut fixed = Maestro::new(MaestroConfig::fixed(16));
        let rf = fixed.run("fixed", &mut (), contended_root(2500));
        let mut adaptive = Maestro::new(MaestroConfig::adaptive(16));
        let ra = adaptive.run("adaptive", &mut (), contended_root(2500));
        assert!(
            ra.avg_watts < rf.avg_watts - 3.0,
            "adaptive {} W must undercut fixed {} W",
            ra.avg_watts,
            rf.avg_watts
        );
    }

    #[test]
    fn adaptive_leaves_scalable_workload_alone() {
        // Compute-bound, low memory concurrency: controller must not engage,
        // and overhead must be small (paper: ≤0.6 %).
        let mut fixed = Maestro::new(MaestroConfig::fixed(16));
        let rf = fixed.run("fixed", &mut (), scalable_root(320));
        let mut adaptive = Maestro::new(MaestroConfig::adaptive(16));
        let ra = adaptive.run("adaptive", &mut (), scalable_root(320));
        let t = ra.throttle.unwrap();
        assert_eq!(t.activations, 0, "must never throttle: {t:?}");
        let overhead = (ra.elapsed_s - rf.elapsed_s) / rf.elapsed_s;
        assert!(overhead.abs() < 0.006, "overhead {overhead}");
    }

    #[test]
    fn healthy_run_reports_clean_watchdog_and_no_safe_mode() {
        let mut m = Maestro::new(MaestroConfig::adaptive(16));
        let r = m.run("contended", &mut (), contended_root(500));
        let t = r.throttle.expect("adaptive run has a summary");
        assert_eq!(t.missed_deadlines, 0, "healthy daemon never misses: {t:?}");
        assert_eq!(t.safe_mode_decisions, 0, "healthy meters never fail safe: {t:?}");
    }

    #[test]
    fn report_display_mentions_throttling() {
        let mut m = Maestro::new(MaestroConfig::adaptive(16));
        let r = m.run("x", &mut (), contended_root(300));
        let s = r.to_string();
        assert!(s.contains('W') && s.contains("throttled"), "{s}");
    }

    #[test]
    fn try_run_surfaces_task_failure_with_partial_stats() {
        use maestro_runtime::{leaf, RuntimeError};

        let mut m = Maestro::new(MaestroConfig::adaptive(16));
        let mut children: Vec<BoxTask<()>> = (0..64)
            .map(|_| compute_leaf(Cost::new(13_000_000, 500_000, 8.0, 0.95)))
            .collect();
        children.push(leaf(|_: &mut (), _| panic!("boom in the facade")));
        let root = fork_join(children, |_, _| (Cost::ZERO, TaskValue::none()));

        let err = m.try_run("fails", &mut (), root).expect_err("a panicking leaf cannot succeed");
        match &err {
            RuntimeError::TaskFailed { failure, .. } => {
                assert!(failure.message.contains("boom in the facade"), "{failure}");
            }
            other => panic!("expected TaskFailed, got {other:?}"),
        }
        let partial = err.partial_stats().expect("facade errors keep partial stats");
        assert_eq!(partial.task_panics, 1, "{partial:?}");
        assert!(partial.tasks_completed > 0, "{partial:?}");
        // The facade stays usable and the machine stays clean after a failure.
        for c in m.machine().topology().all_cores() {
            assert_eq!(m.machine().duty(c), DutyCycle::FULL);
        }
        let r = m.run("recovers", &mut (), contended_root(300));
        assert!(r.elapsed_s > 0.0 && r.joules > 0.0);
    }

    #[test]
    fn suspend_resume_is_bit_identical_at_facade_level() {
        use maestro_runtime::TaskSpec;
        // Each full control stack — RCR daemon, blackboard, controller (and
        // for the adaptive policy, the watchdog), throttled scheduler —
        // suspended mid-run, serialized to bytes, resumed on a freshly
        // built facade.
        let spec = TaskSpec::fork_join(
            (0..600).map(|_| TaskSpec::leaf(Cost::new(13_000_000, 500_000, 8.0, 0.95))).collect(),
            Cost::ZERO,
        );
        let mut dvfs = MaestroConfig::adaptive(16);
        dvfs.policy = Policy::Dvfs { floor: PState::floor_of(1.8) };
        let mut cap = MaestroConfig::adaptive(16);
        cap.policy = Policy::PowerCap { watts: 120.0 };
        // Decision traces the report does not summarize.
        let traces = |m: &Maestro| {
            (
                m.dvfs_trace().map(|t| format!("{:?}", t.borrow())),
                m.powercap_trace().map(|t| format!("{:?}", t.borrow())),
            )
        };

        for (cfg, suspend_ns) in
            [(MaestroConfig::adaptive(16), 150_000_000), (dvfs, 350_000_000), (cap, 350_000_000)]
        {
            let policy = cfg.policy;
            let mut un = Maestro::new(cfg.clone());
            let reference = un
                .run_captured(
                    "wl",
                    &mut (),
                    spec.clone().into_task(),
                    &SnapshotPlan::none().with_fence(suspend_ns),
                )
                .unwrap()
                .report()
                .expect("unbroken run completes");

            let mut a = Maestro::new(cfg.clone());
            let snap = a
                .run_captured(
                    "wl",
                    &mut (),
                    spec.clone().into_task(),
                    &SnapshotPlan::suspend_at(suspend_ns),
                )
                .unwrap()
                .suspended()
                .expect("run suspends at the fence");
            assert_eq!(snap.t_ns(), suspend_ns);
            assert_eq!(snap.name(), "wl");

            // Round-trip the snapshot through its on-disk form.
            let snap = MaestroSnapshot::from_bytes(&snap.to_bytes()).unwrap();

            let mut b = Maestro::new(cfg);
            let out = b
                .resume_captured(&mut (), &snap, &SnapshotPlan::none())
                .unwrap()
                .report()
                .expect("resumed run completes");

            let bits =
                |r: &RunReport| (r.elapsed_s.to_bits(), r.joules.to_bits(), r.avg_watts.to_bits());
            assert_eq!(bits(&out), bits(&reference), "{policy:?}: elapsed/energy bit-exact");
            assert_eq!(out.stats, reference.stats, "{policy:?}");
            assert_eq!(out.throttle, reference.throttle, "{policy:?}: controller summary");
            assert_eq!(out.to_string(), reference.to_string(), "{policy:?}: report text");
            assert_eq!(traces(&b), traces(&un), "{policy:?}: decision trace");
        }
    }

    #[test]
    fn corrupt_snapshot_bytes_are_rejected() {
        let bytes = vec![0u8; 64];
        assert!(MaestroSnapshot::from_bytes(&bytes).is_err());
    }

    #[test]
    fn warm_fork_sweeps_policy_variants_from_one_snapshot() {
        use maestro_runtime::TaskSpec;
        // One warm snapshot, restored under different shepherd limits: the
        // limit is a policy knob outside the snapshot, so each fork resumes
        // the same machine/scheduler state and diverges only in its policy.
        let spec = TaskSpec::fork_join(
            (0..900).map(|_| TaskSpec::leaf(Cost::new(13_000_000, 500_000, 8.0, 0.95))).collect(),
            Cost::ZERO,
        );
        let mut base = Maestro::new(MaestroConfig::adaptive(16));
        let snap = base
            .run_captured(
                "sweep",
                &mut (),
                spec.into_task(),
                &SnapshotPlan::suspend_at(120_000_000),
            )
            .unwrap()
            .suspended()
            .expect("base run suspends");

        let mut reports = Vec::new();
        for limit in [2usize, 6, 12] {
            let mut cfg = MaestroConfig::adaptive(16);
            cfg.policy = Policy::Adaptive { limit_per_shepherd: limit };
            let mut m = Maestro::new(cfg);
            let r = m
                .resume_captured(&mut (), &snap, &SnapshotPlan::none())
                .unwrap()
                .report()
                .unwrap_or_else(|| panic!("fork with limit {limit} completes"));
            assert!(r.elapsed_s > 0.0 && r.joules > 0.0);
            assert!(r.throttle.is_some(), "adaptive fork keeps its summary");
            reports.push((limit, r));
        }
        // Contended workload: the tighter limit throttles at least as much
        // worker time as the loosest one.
        let tight = &reports[0].1.throttle.as_ref().unwrap().throttled_worker_s;
        let loose = &reports[2].1.throttle.as_ref().unwrap().throttled_worker_s;
        assert!(tight >= loose, "tight {tight} vs loose {loose}");
    }

    #[test]
    fn service_run_completes_under_the_slo_governor() {
        use maestro_service::{GovernorConfig, ServiceConfig, ServiceStack, ServiceSummary};

        let cfg = ServiceConfig::simple(5, 40_000.0, 2_000, 2_000_000);
        let stack = ServiceStack::new(&cfg, Some(&GovernorConfig::new(1_500_000)), 0);
        let mut m = Maestro::new(MaestroConfig::fixed(16));
        let governor = stack.governor.expect("a governor config yields a governor");
        m.runtime_mut().add_monitor(Box::new(governor));
        let r =
            m.try_run_service("svc", &mut (), stack.source).expect("healthy service run finishes");
        assert!(r.elapsed_s > 0.0 && r.joules > 0.0);

        let summary = ServiceSummary::collect(&stack.handle, r.elapsed_s);
        let c = &summary.counters;
        assert_eq!(c.arrived, 2_000, "{c:?}");
        assert_eq!(c.conservation_gap(), 0, "{c:?}");
        assert_eq!(c.in_flight, 0, "{c:?}");
        assert_eq!(c.pending_retry, 0, "{c:?}");
        assert!(c.completed > 0, "{c:?}");
        // The run stats carry the service ledger for the report layer.
        assert_eq!(r.stats.requests_shed, c.shed);
        assert_eq!(r.stats.retries_spent, c.retries_spent);
    }

    #[test]
    fn try_run_enforces_a_configured_deadline() {
        use maestro_runtime::{RunLimit, RuntimeError};

        let mut cfg = MaestroConfig::adaptive(16);
        cfg.runtime.deadline_ns = Some(100_000_000);
        let mut m = Maestro::try_new(cfg).expect("valid config");
        let err = m
            .try_run("wedged", &mut (), contended_root(100_000))
            .expect_err("100 k contended tasks cannot finish in 100 ms");
        match err {
            RuntimeError::DeadlineExceeded { limit: RunLimit::WallClock { deadline_ns }, .. } => {
                assert_eq!(deadline_ns, 100_000_000);
            }
            other => panic!("expected a wall-clock DeadlineExceeded, got {other:?}"),
        }
        assert!(m.machine().now_ns() <= 100_000_000, "clock stops at the deadline");
    }
}
