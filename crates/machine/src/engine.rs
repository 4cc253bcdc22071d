//! The virtual-time machine: core activity, clock, energy integration.
//!
//! A scheduler drives the machine in alternating phases: it declares what
//! every core is doing ([`Machine::set_activity`], [`Machine::set_duty`]),
//! then advances virtual time ([`Machine::advance`]) to the next scheduling
//! event. Nothing here is wall-clock dependent; identical call sequences
//! produce identical state.
//!
//! # Event-driven integration
//!
//! Power is piecewise constant between state changes and the thermal ODE has
//! a closed form ([`ThermalParams::integrate`]), so the machine never
//! substeps. [`Machine::advance`] is O(1): it only moves the clock. Each
//! socket carries an *integration anchor* — the virtual time up to which its
//! temperature and energy are folded — and `Machine::sync_socket` jumps
//! the anchor to "now" with one closed-form call. Syncs happen lazily at
//! the points where the folded state is actually needed:
//!
//! * before any mutation of the socket's power inputs (activity, duty,
//!   P-state), because the closed form assumes constant power;
//! * at reads of energy, temperature, or instantaneous power (including the
//!   RAPL/THERM MSRs);
//! * at snapshot capture ([`Machine::snap_state`]), which folds everything
//!   so the serialized state is anchor-free.
//!
//! Because the integral over an un-synced window is evaluated in a single
//! closed-form call, the *partitioning* of `advance` calls is invisible:
//! `advance(10 s)` and `100 × advance(0.1 s)` produce bit-identical state.
//! Extra syncs (an energy read mid-window) split the exponential into a
//! product and may differ in the last ULPs — see the epsilon policy on the
//! `advance_interleaved_reads_within_epsilon` test.
//!
//! Mutators skip all work when the written value equals the current one, so
//! redundant writes (`Idle` → `Idle`) create no sync points and cannot
//! perturb float bits — a property the runtime's event-driven/scan-driver
//! equivalence proof relies on.

use std::cell::Cell;

use serde::{Deserialize, Serialize};

use crate::contention::MemoryParams;
use crate::duty::DutyCycle;
use crate::dvfs::{DvfsParams, PState};
use crate::msr::{
    MsrDevice, MsrError, IA32_CLOCK_MODULATION, IA32_PERF_CTL, IA32_THERM_STATUS,
    MSR_PKG_ENERGY_STATUS,
};
use crate::power::{CorePowerState, PowerParams};
use crate::snap::{SnapError, SnapReader, SnapWriter};
use crate::thermal::ThermalParams;
use crate::topology::{CoreId, SocketId, Topology};
use crate::{NS_PER_SEC, RAPL_UNIT_JOULES};

/// What a core is doing during the next `advance` interval.
#[derive(Copy, Clone, PartialEq, Debug)]
pub enum CoreActivity {
    /// Parked or blocked in the OS — near-zero power, no progress.
    Idle,
    /// Busy-waiting in a spin loop (power scales with the core's duty cycle).
    Spin,
    /// Executing a task.
    Busy {
        /// Execution-unit intensity in `[0, 1]` (power model input).
        intensity: f64,
        /// Average outstanding memory references the task sustains
        /// (contention model input).
        ocr: f64,
    },
}

impl CoreActivity {
    fn power_state(self) -> CorePowerState {
        match self {
            CoreActivity::Idle => CorePowerState::Idle,
            CoreActivity::Spin => CorePowerState::Spin,
            CoreActivity::Busy { intensity, .. } => CorePowerState::Busy { intensity },
        }
    }

    fn ocr(self) -> f64 {
        match self {
            CoreActivity::Busy { ocr, .. } => ocr,
            _ => 0.0,
        }
    }
}

/// Full configuration of the simulated node.
#[derive(Copy, Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Sockets and cores.
    pub topology: Topology,
    /// Nominal core frequency in GHz (2.7 for the E5-2680, TurboBoost off).
    pub freq_ghz: f64,
    /// Power model coefficients.
    pub power: PowerParams,
    /// Thermal model coefficients.
    pub thermal: ThermalParams,
    /// Memory-contention model coefficients.
    pub memory: MemoryParams,
    /// Initial package temperature, °C (ambient = cold boot, higher = warm).
    pub start_temp_c: f64,
    /// Cost of an `IA32_CLOCK_MODULATION` write, expressed as a number of
    /// memory operations (the paper measures ≈250 including call and OS
    /// overhead).
    pub duty_write_mem_ops: u32,
    /// DVFS mechanism parameters (P-state ladder transitions).
    pub dvfs: DvfsParams,
}

impl MachineConfig {
    /// The paper's platform, pre-warmed to a typical operating temperature
    /// (all headline results in the paper are from runs "on a warm system").
    pub fn sandybridge_2x8() -> Self {
        let thermal = ThermalParams::default();
        // Typical per-socket draw under load is ~65 W; start there.
        let warm = thermal.steady_state_c(65.0);
        MachineConfig {
            topology: Topology::sandybridge_2x8(),
            freq_ghz: 2.7,
            power: PowerParams::default(),
            thermal,
            memory: MemoryParams::default(),
            start_temp_c: warm,
            duty_write_mem_ops: 250,
            dvfs: DvfsParams::default(),
        }
    }

    /// The same platform from a cold start (packages at ambient).
    pub fn sandybridge_2x8_cold() -> Self {
        let mut cfg = Self::sandybridge_2x8();
        cfg.start_temp_c = cfg.thermal.ambient_c;
        cfg
    }

    /// Latency of one duty-register write in virtual nanoseconds.
    pub fn duty_write_latency_ns(&self) -> u64 {
        (f64::from(self.duty_write_mem_ops) * self.memory.mem_latency_ns).round() as u64
    }
}

/// Per-socket folded thermal/energy state plus its integration anchor.
///
/// `temp_c` and `energy_j` are valid *as of* `anchor_ns`; the window
/// `[anchor_ns, clock_ns]` is integrated on demand by `sync_socket`. The
/// fields are `Cell`s because folding is triggered from `&self` read paths.
#[derive(Clone, Debug)]
struct SocketState {
    temp_c: Cell<f64>,
    energy_j: Cell<f64>,
    anchor_ns: Cell<u64>,
    pstate: PState,
}

/// Per-socket cached power aggregates, maintained incrementally.
///
/// The inputs to the non-leakage power sum (activity, duty, P-state) only
/// change at the scheduler's mutation points. Mutators keep the per-core
/// struct-of-arrays contributions (`Machine::core_nonleak_w`,
/// `Machine::core_ocr`) exact and flag the affected socket; the next read
/// re-sums the per-core slices in core order — byte-identical to the
/// brute-force recomputation (same products, same summation order), which
/// debug builds (and so every `cargo test` run) assert on every read. The
/// two dirty flags are split because duty/P-state changes cannot move the
/// OCR sum.
#[derive(Clone, Debug)]
struct PowerCache {
    power_dirty: Cell<bool>,
    ocr_dirty: Cell<bool>,
    nonleak_w: Cell<f64>,
    ocr_sum: Cell<f64>,
}

impl PowerCache {
    fn new() -> Self {
        PowerCache {
            power_dirty: Cell::new(true),
            ocr_dirty: Cell::new(true),
            nonleak_w: Cell::new(0.0),
            ocr_sum: Cell::new(0.0),
        }
    }
}

/// The simulated node. See the [crate docs](crate) for the overall model.
#[derive(Clone, Debug)]
pub struct Machine {
    cfg: MachineConfig,
    clock_ns: u64,
    duty: Vec<DutyCycle>,
    activity: Vec<CoreActivity>,
    /// Per-core non-leakage power contribution, `dvfs_scale ×
    /// core_power_w(activity, duty)`, kept exact by every mutator so socket
    /// aggregation is a plain in-order slice sum.
    core_nonleak_w: Vec<f64>,
    /// Per-core outstanding-memory-reference contribution.
    core_ocr: Vec<f64>,
    sockets: Vec<SocketState>,
    power_cache: Vec<PowerCache>,
    /// Bumped on every *rate-affecting* knob change (duty or P-state — not
    /// activity). The runtime compares this against its last-seen value to
    /// decide whether cached segment completion times need refolding.
    knob_epoch: u64,
    /// Whether the node has power. An unpowered machine draws exactly 0 W
    /// (no base, no leakage — silicon without voltage leaks nothing),
    /// accrues no energy, and its packages cool passively toward ambient
    /// via [`ThermalParams::cool`]. Fleet-level node crashes flip this.
    powered: bool,
}

impl Machine {
    /// Build a machine in the configured initial state: all cores idle,
    /// full duty, energy counters at zero.
    pub fn new(cfg: MachineConfig) -> Self {
        let n_cores = cfg.topology.total_cores();
        let n_sockets = cfg.topology.sockets as usize;
        let mut m = Machine {
            clock_ns: 0,
            duty: vec![DutyCycle::FULL; n_cores],
            activity: vec![CoreActivity::Idle; n_cores],
            core_nonleak_w: vec![0.0; n_cores],
            core_ocr: vec![0.0; n_cores],
            sockets: vec![
                SocketState {
                    temp_c: Cell::new(cfg.start_temp_c),
                    energy_j: Cell::new(0.0),
                    anchor_ns: Cell::new(0),
                    pstate: PState::MAX,
                };
                n_sockets
            ],
            power_cache: (0..n_sockets).map(|_| PowerCache::new()).collect(),
            knob_epoch: 0,
            powered: true,
            cfg,
        };
        m.rebuild_core_arrays();
        m
    }

    /// Recompute both struct-of-arrays contributions for every core from
    /// the authoritative duty/activity/P-state, and invalidate the socket
    /// caches. Used at construction and after snapshot restore.
    fn rebuild_core_arrays(&mut self) {
        for s in self.cfg.topology.all_sockets() {
            let dvfs_scale = self.sockets[s.index()].pstate.dynamic_power_fraction();
            for c in self.cfg.topology.cores_of(s) {
                let i = c.index();
                self.core_nonleak_w[i] = dvfs_scale
                    * self
                        .cfg
                        .power
                        .core_power_w(self.activity[i].power_state(), self.duty[i].fraction());
                self.core_ocr[i] = self.activity[i].ocr();
            }
            let cache = &self.power_cache[s.index()];
            cache.power_dirty.set(true);
            cache.ocr_dirty.set(true);
        }
    }

    /// Recompute this core's non-leakage power contribution after a
    /// duty/activity change (P-state changes re-scale the whole socket via
    /// [`Machine::rescale_socket_power`]).
    fn update_core_power(&mut self, core: CoreId, socket: SocketId) {
        let i = core.index();
        let dvfs_scale = self.sockets[socket.index()].pstate.dynamic_power_fraction();
        self.core_nonleak_w[i] = dvfs_scale
            * self.cfg.power.core_power_w(self.activity[i].power_state(), self.duty[i].fraction());
        self.power_cache[socket.index()].power_dirty.set(true);
    }

    /// Recompute every core contribution on `socket` (its `dvfs_scale`
    /// changed).
    fn rescale_socket_power(&mut self, socket: SocketId) {
        let dvfs_scale = self.sockets[socket.index()].pstate.dynamic_power_fraction();
        for c in self.cfg.topology.cores_of(socket) {
            let i = c.index();
            self.core_nonleak_w[i] = dvfs_scale
                * self
                    .cfg
                    .power
                    .core_power_w(self.activity[i].power_state(), self.duty[i].fraction());
        }
        self.power_cache[socket.index()].power_dirty.set(true);
    }

    /// Re-sum the stale aggregates for `socket` from the per-core arrays.
    fn refresh_power_cache(&self, socket: SocketId) {
        let cache = &self.power_cache[socket.index()];
        if cache.ocr_dirty.get() {
            let ocr: f64 =
                self.cfg.topology.cores_of(socket).map(|c| self.core_ocr[c.index()]).sum();
            cache.ocr_sum.set(ocr);
            cache.ocr_dirty.set(false);
            // Memory power depends on the OCR sum, so it must follow.
            cache.power_dirty.set(true);
        }
        if cache.power_dirty.get() {
            let cores: f64 =
                self.cfg.topology.cores_of(socket).map(|c| self.core_nonleak_w[c.index()]).sum();
            let utilization = self.cfg.memory.utilization(cache.ocr_sum.get());
            cache.nonleak_w.set(
                self.cfg.power.socket_base_w + cores + self.cfg.memory.power_w(utilization),
            );
            cache.power_dirty.set(false);
        }
    }

    /// Fold `socket`'s temperature and energy forward to the current clock
    /// with one closed-form integration over the constant-power window.
    fn sync_socket(&self, socket: SocketId) {
        let st = &self.sockets[socket.index()];
        let anchor = st.anchor_ns.get();
        if anchor == self.clock_ns {
            return;
        }
        let dt_s = (self.clock_ns - anchor) as f64 / NS_PER_SEC as f64;
        let (temp_c, energy_j) = if self.powered {
            let p_nonleak = self.socket_power_nonleak_w(socket);
            self.cfg.thermal.integrate(st.temp_c.get(), p_nonleak, dt_s)
        } else {
            // Unpowered window: zero draw, pure Newton cooling.
            (self.cfg.thermal.cool(st.temp_c.get(), dt_s), 0.0)
        };
        st.temp_c.set(temp_c);
        st.energy_j.set(st.energy_j.get() + energy_j);
        st.anchor_ns.set(self.clock_ns);
    }

    /// Fold every socket forward to the current clock.
    pub fn sync_all(&self) {
        for s in self.cfg.topology.all_sockets() {
            self.sync_socket(s);
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The node topology.
    pub fn topology(&self) -> Topology {
        self.cfg.topology
    }

    /// Current virtual time in nanoseconds since machine construction.
    pub fn now_ns(&self) -> u64 {
        self.clock_ns
    }

    /// Monotone counter of rate-affecting knob writes (duty, P-state).
    ///
    /// Redundant writes (same value) do not bump it. The runtime uses this
    /// to skip refolding cached completion times when nothing that affects
    /// execution rates has changed.
    pub fn knob_epoch(&self) -> u64 {
        self.knob_epoch
    }

    /// Whether the node currently has power.
    pub fn powered(&self) -> bool {
        self.powered
    }

    /// Cut or restore power to the whole node.
    ///
    /// Powering **off** first folds every socket to "now" (the window just
    /// ended was powered), then forces all cores to `Idle` at `FULL` duty
    /// and every package to `PState::MAX` — volatile execution state does
    /// not survive an outage, and on the subsequent power-up the hardware
    /// boots in its reset configuration, exactly the state
    /// [`Machine::new`] constructs. While off, the machine draws 0 W,
    /// accrues no energy, and cools toward ambient. Powering **on** folds
    /// the cooling window and resumes normal integration; the clock and
    /// energy counters are continuous across the outage (the energy
    /// integral over it is exactly zero). Redundant writes are no-ops.
    pub fn set_powered(&mut self, on: bool) {
        if self.powered == on {
            return;
        }
        // Fold the window that just ended under the *old* power state.
        self.sync_all();
        self.powered = on;
        if !on {
            self.duty.fill(DutyCycle::FULL);
            self.activity.fill(CoreActivity::Idle);
            for s in &mut self.sockets {
                s.pstate = PState::MAX;
            }
            self.rebuild_core_arrays();
        }
        self.knob_epoch += 1;
    }

    /// Declare what `core` does from now until the next activity change.
    pub fn set_activity(&mut self, core: CoreId, activity: CoreActivity) {
        assert!(self.cfg.topology.contains(core), "no such core: {core}");
        let i = core.index();
        if self.activity[i] == activity {
            return;
        }
        let socket = self.cfg.topology.socket_of(core);
        self.sync_socket(socket);
        self.activity[i] = activity;
        self.core_ocr[i] = activity.ocr();
        self.power_cache[socket.index()].ocr_dirty.set(true);
        self.update_core_power(core, socket);
    }

    /// The declared activity of `core`.
    pub fn activity(&self, core: CoreId) -> CoreActivity {
        self.activity[core.index()]
    }

    /// The duty cycle currently programmed on `core`.
    pub fn duty(&self, core: CoreId) -> DutyCycle {
        self.duty[core.index()]
    }

    /// Program `core`'s duty cycle directly (equivalent to the MSR write,
    /// minus the latency accounting, which the runtime charges separately
    /// via [`MachineConfig::duty_write_latency_ns`]).
    pub fn set_duty(&mut self, core: CoreId, duty: DutyCycle) {
        assert!(self.cfg.topology.contains(core), "no such core: {core}");
        let i = core.index();
        if self.duty[i] == duty {
            return;
        }
        let socket = self.cfg.topology.socket_of(core);
        self.sync_socket(socket);
        self.duty[i] = duty;
        self.update_core_power(core, socket);
        self.knob_epoch += 1;
    }

    /// The P-state currently selected for `socket` (DVFS is per-package:
    /// "it affects all cores on a processor", §IV).
    pub fn pstate(&self, socket: SocketId) -> PState {
        self.sockets[socket.index()].pstate
    }

    /// Select a P-state for `socket`. The runtime charges the package-wide
    /// stall separately via [`MachineConfig::dvfs`]'s transition cycles.
    pub fn set_pstate(&mut self, socket: SocketId, pstate: PState) {
        if self.sockets[socket.index()].pstate == pstate {
            return;
        }
        self.sync_socket(socket);
        self.sockets[socket.index()].pstate = pstate;
        self.rescale_socket_power(socket);
        self.knob_epoch += 1;
    }

    /// The effective instruction rate of `core` as a fraction of nominal:
    /// duty-cycle fraction × P-state frequency fraction.
    pub fn effective_speed(&self, core: CoreId) -> f64 {
        let socket = self.cfg.topology.socket_of(core);
        self.duty[core.index()].fraction() * self.sockets[socket.index()].pstate.fraction()
    }

    /// Sum of outstanding memory references over the busy cores of `socket`.
    pub fn socket_outstanding_refs(&self, socket: SocketId) -> f64 {
        self.refresh_power_cache(socket);
        let cached = self.power_cache[socket.index()].ocr_sum.get();
        debug_assert_eq!(cached.to_bits(), self.compute_socket_outstanding_refs(socket).to_bits());
        cached
    }

    /// Brute-force recomputation of [`Machine::socket_outstanding_refs`]:
    /// the validation reference for the incremental aggregate.
    fn compute_socket_outstanding_refs(&self, socket: SocketId) -> f64 {
        self.cfg
            .topology
            .cores_of(socket)
            .map(|c| self.activity[c.index()].ocr())
            .sum()
    }

    /// Progress-rate multiplier for memory-bound work on `socket` right now.
    pub fn contention_factor(&self, socket: SocketId) -> f64 {
        self.cfg.memory.contention_factor(self.socket_outstanding_refs(socket))
    }

    /// Memory-concurrency utilization of `socket` in `[0, 1]`.
    pub fn mem_utilization(&self, socket: SocketId) -> f64 {
        self.cfg.memory.utilization(self.socket_outstanding_refs(socket))
    }

    /// Instantaneous power of `socket` (Watts), including leakage at the
    /// present temperature. Exactly zero while the node is unpowered (no
    /// voltage ⇒ no leakage either, however warm the package still is).
    pub fn socket_power_w(&self, socket: SocketId) -> f64 {
        self.sync_socket(socket);
        if !self.powered {
            return 0.0;
        }
        self.socket_power_nonleak_w(socket)
            + self.cfg.thermal.leakage_w(self.sockets[socket.index()].temp_c.get())
    }

    fn socket_power_nonleak_w(&self, socket: SocketId) -> f64 {
        if !self.powered {
            return 0.0;
        }
        self.refresh_power_cache(socket);
        let cached = self.power_cache[socket.index()].nonleak_w.get();
        debug_assert_eq!(cached.to_bits(), self.compute_socket_power_nonleak_w(socket).to_bits());
        cached
    }

    /// Brute-force recomputation of the non-leakage socket power: the
    /// validation reference for the cached aggregate. Reads no cache, so
    /// it is safe to call while the cache is being refreshed.
    fn compute_socket_power_nonleak_w(&self, socket: SocketId) -> f64 {
        if !self.powered {
            return 0.0;
        }
        // DVFS lowers voltage with frequency, so all *dynamic* core power
        // scales by f·V²; the package base and memory system do not.
        let dvfs_scale = self.sockets[socket.index()].pstate.dynamic_power_fraction();
        let cores: f64 = self
            .cfg
            .topology
            .cores_of(socket)
            .map(|c| {
                dvfs_scale
                    * self.cfg.power.core_power_w(
                        self.activity[c.index()].power_state(),
                        self.duty[c.index()].fraction(),
                    )
            })
            .sum();
        let utilization = self.cfg.memory.utilization(self.compute_socket_outstanding_refs(socket));
        self.cfg.power.socket_base_w + cores + self.cfg.memory.power_w(utilization)
    }

    /// Brute-force recomputation of [`Machine::socket_power_w`], bypassing
    /// the incremental per-socket power cache. Exposed so tests can assert
    /// the cached aggregate never drifts from first principles; production
    /// callers should use [`Machine::socket_power_w`].
    pub fn socket_power_brute_force_w(&self, socket: SocketId) -> f64 {
        self.sync_socket(socket);
        if !self.powered {
            return 0.0;
        }
        self.compute_socket_power_nonleak_w(socket)
            + self.cfg.thermal.leakage_w(self.sockets[socket.index()].temp_c.get())
    }

    /// Instantaneous whole-node power (Watts).
    pub fn node_power_w(&self) -> f64 {
        self.cfg.topology.all_sockets().map(|s| self.socket_power_w(s)).sum()
    }

    /// Cumulative energy of `socket` in Joules since construction.
    ///
    /// This is the ground-truth accumulator; privileged software reads the
    /// wrapped 32-bit RAPL view through [`MsrDevice::read_msr`].
    pub fn energy_joules(&self, socket: SocketId) -> f64 {
        self.sync_socket(socket);
        self.sockets[socket.index()].energy_j.get()
    }

    /// Cumulative whole-node energy in Joules.
    pub fn total_energy_joules(&self) -> f64 {
        self.cfg.topology.all_sockets().map(|s| self.energy_joules(s)).sum()
    }

    /// Present package temperature of `socket`, °C.
    pub fn temperature_c(&self, socket: SocketId) -> f64 {
        self.sync_socket(socket);
        self.sockets[socket.index()].temp_c.get()
    }

    /// Advance virtual time by `dt_ns`.
    ///
    /// O(1): the clock moves and integration is deferred to the next
    /// [`sync_socket`](Machine::sync_all) point (a state mutation, a
    /// power/energy/temperature read, or a snapshot). Power is constant over
    /// the un-synced window, so the deferred closed-form integral is exact
    /// and independent of how the window was partitioned into `advance`
    /// calls.
    pub fn advance(&mut self, dt_ns: u64) {
        self.clock_ns += dt_ns;
    }

    /// Serialize the machine's dynamic state (clock, per-core duty and
    /// activity, per-socket temperature/energy/P-state) into `w`.
    ///
    /// Every socket is folded to the current clock first, so the capture is
    /// anchor-free: the analytic-integration state serializes as plain
    /// temperature/energy scalars and restore re-anchors them at the
    /// restored clock. The configuration is *not* captured — a snapshot is
    /// restored into a machine built from the same [`MachineConfig`]
    /// (checked upstream via a fingerprint). The per-socket power caches
    /// are recomputed lazily after restore and are byte-identical to the
    /// captured run's values because the refresh uses the same expression
    /// and summation order.
    pub fn snap_state(&self, w: &mut SnapWriter) {
        self.sync_all();
        w.u64(self.clock_ns);
        w.len(self.duty.len());
        for d in &self.duty {
            w.u8(d.level());
        }
        w.len(self.activity.len());
        for a in &self.activity {
            match a {
                CoreActivity::Idle => w.u8(0),
                CoreActivity::Spin => w.u8(1),
                CoreActivity::Busy { intensity, ocr } => {
                    w.u8(2);
                    w.f64(*intensity);
                    w.f64(*ocr);
                }
            }
        }
        w.len(self.sockets.len());
        for s in &self.sockets {
            w.f64(s.temp_c.get());
            w.f64(s.energy_j.get());
            w.u8(s.pstate.index() as u8);
        }
        w.bool(self.powered);
    }

    /// Restore dynamic state captured by [`Machine::snap_state`] into this
    /// machine, which must have been built from the same configuration.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let clock_ns = r.u64()?;
        let n_duty = r.len()?;
        if n_duty != self.duty.len() {
            return Err(SnapError::Corrupt("core count mismatch in duty state"));
        }
        let mut duty = Vec::with_capacity(n_duty);
        for _ in 0..n_duty {
            duty.push(
                DutyCycle::new(r.u8()?).map_err(|_| SnapError::Corrupt("duty level out of range"))?,
            );
        }
        let n_act = r.len()?;
        if n_act != self.activity.len() {
            return Err(SnapError::Corrupt("core count mismatch in activity state"));
        }
        let mut activity = Vec::with_capacity(n_act);
        for _ in 0..n_act {
            activity.push(match r.u8()? {
                0 => CoreActivity::Idle,
                1 => CoreActivity::Spin,
                2 => CoreActivity::Busy { intensity: r.f64()?, ocr: r.f64()? },
                _ => return Err(SnapError::Corrupt("unknown core activity tag")),
            });
        }
        let n_sock = r.len()?;
        if n_sock != self.sockets.len() {
            return Err(SnapError::Corrupt("socket count mismatch"));
        }
        let mut sockets = Vec::with_capacity(n_sock);
        for _ in 0..n_sock {
            let temp_c = r.f64()?;
            let energy_j = r.f64()?;
            let pstate = PState::new(r.u8()?)
                .ok_or(SnapError::Corrupt("P-state index out of range"))?;
            sockets.push(SocketState {
                temp_c: Cell::new(temp_c),
                energy_j: Cell::new(energy_j),
                anchor_ns: Cell::new(clock_ns),
                pstate,
            });
        }
        let powered = r.bool()?;
        self.clock_ns = clock_ns;
        self.duty = duty;
        self.activity = activity;
        self.sockets = sockets;
        self.powered = powered;
        self.rebuild_core_arrays();
        Ok(())
    }

    fn socket_of_checked(&self, core: CoreId) -> Result<SocketId, MsrError> {
        if self.cfg.topology.contains(core) {
            Ok(self.cfg.topology.socket_of(core))
        } else {
            Err(MsrError::BadCore(core))
        }
    }
}

impl MsrDevice for Machine {
    fn read_msr(&self, core: CoreId, msr: u32) -> Result<u64, MsrError> {
        let socket = self.socket_of_checked(core)?;
        match msr {
            MSR_PKG_ENERGY_STATUS => {
                self.sync_socket(socket);
                let units = self.sockets[socket.index()].energy_j.get() / RAPL_UNIT_JOULES;
                // 32-bit counter: wraps every ~65 kJ (a few minutes under load).
                Ok((units as u128 % (1u128 << 32)) as u64)
            }
            IA32_THERM_STATUS => {
                self.sync_socket(socket);
                Ok(self.cfg.thermal.encode_therm_status(self.sockets[socket.index()].temp_c.get()))
            }
            IA32_CLOCK_MODULATION => Ok(self.duty[core.index()].encode_msr()),
            IA32_PERF_CTL => Ok(self.sockets[socket.index()].pstate.index() as u64),
            other => Err(MsrError::UnknownMsr(other)),
        }
    }

    fn write_msr(&mut self, core: CoreId, msr: u32, value: u64) -> Result<(), MsrError> {
        self.socket_of_checked(core)?;
        match msr {
            IA32_CLOCK_MODULATION => {
                let duty = DutyCycle::decode_msr(value)
                    .map_err(|_| MsrError::InvalidValue { msr, value })?;
                self.set_duty(core, duty);
                Ok(())
            }
            IA32_PERF_CTL => {
                let socket = self.cfg.topology.socket_of(core);
                let pstate = u8::try_from(value)
                    .ok()
                    .and_then(PState::new)
                    .ok_or(MsrError::InvalidValue { msr, value })?;
                self.set_pstate(socket, pstate);
                Ok(())
            }
            MSR_PKG_ENERGY_STATUS | IA32_THERM_STATUS => Err(MsrError::ReadOnly(msr)),
            other => Err(MsrError::UnknownMsr(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(MachineConfig::sandybridge_2x8())
    }

    use crate::dvfs::PState;

    fn busy(intensity: f64, ocr: f64) -> CoreActivity {
        CoreActivity::Busy { intensity, ocr }
    }

    #[test]
    fn idle_node_draws_base_power() {
        let m = machine();
        let p = m.node_power_w();
        // 2 sockets × (base + 8 idle cores) + warm leakage.
        assert!((50.0..=62.0).contains(&p), "idle node {p} W");
    }

    #[test]
    fn sixteen_busy_cores_draw_paper_range() {
        let mut m = machine();
        for c in m.topology().all_cores() {
            m.set_activity(c, busy(0.85, 2.0));
        }
        let p = m.node_power_w();
        assert!((135.0..=165.0).contains(&p), "loaded node {p} W");
    }

    #[test]
    fn energy_is_power_times_time() {
        let mut m = machine();
        for c in m.topology().all_cores() {
            m.set_activity(c, busy(0.5, 1.0));
        }
        let p0 = m.node_power_w();
        m.advance(NS_PER_SEC); // 1 virtual second
        let e = m.total_energy_joules();
        // Power drifts slightly as temperature rises; allow 2 %.
        assert!((e - p0).abs() / p0 < 0.02, "E={e} J, P0={p0} W");
    }

    #[test]
    fn throttled_spinners_save_about_3w_each() {
        let mut m = machine();
        for c in m.topology().all_cores() {
            m.set_activity(c, CoreActivity::Spin);
        }
        let full = m.node_power_w();
        for c in m.topology().all_cores().take(4) {
            m.set_duty(c, DutyCycle::MIN);
        }
        let throttled = m.node_power_w();
        let saved = full - throttled;
        // Paper: "idling four threads saved over 12W".
        assert!((10.0..=14.5).contains(&saved), "saved {saved} W");
    }

    #[test]
    fn rapl_counter_wraps_at_32_bits() {
        let mut m = machine();
        for c in m.topology().all_cores() {
            m.set_activity(c, busy(1.0, 1.0));
        }
        // ~75 W/socket ⇒ wrap period 2^32 × 15.3 µJ ≈ 65.7 kJ ≈ 875 s.
        let before = m.read_msr(CoreId(0), MSR_PKG_ENERGY_STATUS).unwrap();
        assert_eq!(before, 0);
        m.advance(1000 * NS_PER_SEC);
        let raw = m.read_msr(CoreId(0), MSR_PKG_ENERGY_STATUS).unwrap();
        let true_units = m.energy_joules(SocketId(0)) / RAPL_UNIT_JOULES;
        assert!(true_units > u32::MAX as f64, "test must actually wrap");
        assert!(raw <= u32::MAX as u64);
        assert_eq!(raw, (true_units as u128 % (1 << 32)) as u64);
    }

    #[test]
    fn clock_modulation_msr_round_trips() {
        let mut m = machine();
        let v = DutyCycle::new(4).unwrap().encode_msr();
        m.write_msr(CoreId(3), IA32_CLOCK_MODULATION, v).unwrap();
        assert_eq!(m.duty(CoreId(3)).level(), 4);
        assert_eq!(m.read_msr(CoreId(3), IA32_CLOCK_MODULATION).unwrap(), v);
        // Other cores untouched.
        assert_eq!(m.duty(CoreId(2)), DutyCycle::FULL);
    }

    #[test]
    fn energy_status_is_read_only() {
        let mut m = machine();
        assert_eq!(
            m.write_msr(CoreId(0), MSR_PKG_ENERGY_STATUS, 0),
            Err(MsrError::ReadOnly(MSR_PKG_ENERGY_STATUS))
        );
    }

    #[test]
    fn unknown_msr_rejected() {
        let m = machine();
        assert_eq!(m.read_msr(CoreId(0), 0x10), Err(MsrError::UnknownMsr(0x10)));
    }

    #[test]
    fn bad_core_rejected() {
        let m = machine();
        assert_eq!(
            m.read_msr(CoreId(99), MSR_PKG_ENERGY_STATUS),
            Err(MsrError::BadCore(CoreId(99)))
        );
    }

    #[test]
    fn per_socket_contention_is_isolated() {
        let mut m = machine();
        // Load socket 0 heavily with memory traffic; socket 1 idle.
        for c in m.topology().cores_of(SocketId(0)) {
            m.set_activity(c, busy(0.3, 8.0));
        }
        assert!(m.contention_factor(SocketId(0)) < 1.0);
        assert_eq!(m.contention_factor(SocketId(1)), 1.0);
        assert!(m.mem_utilization(SocketId(0)) > 0.9);
        assert_eq!(m.mem_utilization(SocketId(1)), 0.0);
    }

    #[test]
    fn warm_machine_hotter_than_cold() {
        let warm = Machine::new(MachineConfig::sandybridge_2x8());
        let cold = Machine::new(MachineConfig::sandybridge_2x8_cold());
        assert!(warm.temperature_c(SocketId(0)) > cold.temperature_c(SocketId(0)) + 20.0);
        // And a warm package draws more power for identical activity (leakage).
        assert!(warm.node_power_w() > cold.node_power_w());
    }

    #[test]
    fn determinism_same_sequence_same_state() {
        let run = || {
            let mut m = machine();
            for (i, c) in m.topology().all_cores().enumerate() {
                m.set_activity(c, busy(0.1 * (i % 10) as f64, (i % 5) as f64));
            }
            m.advance(12_345_678);
            m.set_duty(CoreId(5), DutyCycle::MIN);
            m.advance(98_765_432);
            (m.total_energy_joules(), m.temperature_c(SocketId(1)), m.now_ns())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn duty_write_latency_matches_250_mem_ops() {
        let cfg = MachineConfig::sandybridge_2x8();
        let ns = cfg.duty_write_latency_ns();
        assert_eq!(ns, (250.0 * cfg.memory.mem_latency_ns) as u64);
        assert!((10_000..=40_000).contains(&ns), "≈250 memory ops, got {ns} ns");
    }

    #[test]
    fn pstate_msr_round_trip_and_package_scope() {
        use crate::msr::IA32_PERF_CTL;
        let mut m = machine();
        m.write_msr(CoreId(2), IA32_PERF_CTL, 1).unwrap();
        assert_eq!(m.pstate(SocketId(0)), PState::new(1).unwrap());
        // Package-scoped: every core of socket 0 reads the same value...
        assert_eq!(m.read_msr(CoreId(7), IA32_PERF_CTL).unwrap(), 1);
        // ...and socket 1 is untouched.
        assert_eq!(m.read_msr(CoreId(8), IA32_PERF_CTL).unwrap(), PState::MAX.index() as u64);
        // Reserved encodings are rejected.
        assert!(m.write_msr(CoreId(0), IA32_PERF_CTL, 99).is_err());
    }

    #[test]
    fn effective_speed_combines_duty_and_pstate() {
        let mut m = machine();
        assert_eq!(m.effective_speed(CoreId(0)), 1.0);
        m.set_duty(CoreId(0), DutyCycle::new(16).unwrap());
        assert!((m.effective_speed(CoreId(0)) - 0.5).abs() < 1e-12);
        m.set_pstate(SocketId(0), PState::floor_of(1.35)); // 1.2 GHz
        let expected = 0.5 * (1.2 / 2.7);
        assert!((m.effective_speed(CoreId(0)) - expected).abs() < 1e-12);
        // A core on the other socket only sees its own package's P-state.
        assert_eq!(m.effective_speed(CoreId(8)), 1.0);
    }

    #[test]
    fn low_pstate_cuts_dynamic_power_superlinearly() {
        let mut m = machine();
        for c in m.topology().all_cores() {
            m.set_activity(c, busy(1.0, 1.0));
        }
        let full = m.node_power_w();
        for s in m.topology().all_sockets() {
            m.set_pstate(s, PState::MIN);
        }
        let scaled = m.node_power_w();
        // Base + memory + leakage are unaffected; core dynamic power drops
        // by f·V² ≈ 0.227, far below the 0.44 frequency ratio.
        assert!(scaled < full, "{scaled} vs {full}");
        let dynamic_full = full - 46.0;
        let dynamic_scaled = scaled - 46.0;
        assert!(
            dynamic_scaled / dynamic_full < 0.5,
            "f·V² must cut dynamic power hard: {dynamic_scaled}/{dynamic_full}"
        );
    }

    /// Partition invariance, the strong form: `advance` only moves the
    /// clock, so however the same window is split across calls, the single
    /// deferred closed-form integral at the final read is evaluated over
    /// the identical `[t₀, t₁]` and the result is **bit**-equal — no
    /// tolerance needed or allowed.
    #[test]
    fn advance_partitioning_is_bit_invariant() {
        let mut a = machine();
        let mut b = machine();
        for c in a.topology().all_cores() {
            a.set_activity(c, busy(0.9, 1.0));
            b.set_activity(c, busy(0.9, 1.0));
        }
        a.advance(10 * NS_PER_SEC);
        for _ in 0..100 {
            b.advance(NS_PER_SEC / 10);
        }
        assert_eq!(a.now_ns(), b.now_ns());
        assert_eq!(a.total_energy_joules().to_bits(), b.total_energy_joules().to_bits());
        assert_eq!(a.temperature_c(SocketId(0)).to_bits(), b.temperature_c(SocketId(0)).to_bits());
    }

    /// Epsilon policy for *interleaved reads*: each mid-window read forces
    /// a sync, splitting one exponential into a product of exponentials.
    /// `e^(−a) · e^(−b)` differs from `e^(−(a+b))` by ≤ a few ULP (~2⁻⁵²
    /// relative) per split, and energy accumulates one rounding per split,
    /// so N splits stay within ~N·4·ε_machine ≈ 1e-13 for N = 100. We
    /// assert a 1e-12 relative bound — an order of magnitude of headroom,
    /// but still ~6 orders tighter than any model-level tolerance. This is
    /// the documented accuracy contract: sync *schedules* may differ
    /// between drivers only if they are identical call-for-call; anything
    /// that merely reads at different times is accurate to this bound.
    #[test]
    fn advance_interleaved_reads_within_epsilon() {
        let mut a = machine();
        let mut b = machine();
        for c in a.topology().all_cores() {
            a.set_activity(c, busy(0.9, 1.0));
            b.set_activity(c, busy(0.9, 1.0));
        }
        a.advance(10 * NS_PER_SEC);
        let ea = a.total_energy_joules();
        let mut eb = 0.0;
        for _ in 0..100 {
            b.advance(NS_PER_SEC / 10);
            eb = b.total_energy_joules(); // forced sync every 0.1 s
        }
        let rel = (ea - eb).abs() / ea;
        assert!(rel < 1e-12, "ea={ea} eb={eb} rel={rel}");
        let (ta, tb) = (a.temperature_c(SocketId(0)), b.temperature_c(SocketId(0)));
        assert!((ta - tb).abs() / ta < 1e-12, "ta={ta} tb={tb}");
    }

    #[test]
    fn redundant_writes_are_true_noops() {
        let mut a = machine();
        let mut b = machine();
        for c in a.topology().all_cores() {
            a.set_activity(c, busy(0.7, 2.0));
            b.set_activity(c, busy(0.7, 2.0));
        }
        a.advance(3 * NS_PER_SEC);
        b.advance(NS_PER_SEC);
        // Redundant writes mid-window on `b` must not create sync points.
        for c in b.topology().all_cores() {
            b.set_activity(c, busy(0.7, 2.0));
            b.set_duty(c, DutyCycle::FULL);
        }
        b.set_pstate(SocketId(0), PState::MAX);
        b.advance(2 * NS_PER_SEC);
        assert_eq!(a.knob_epoch(), b.knob_epoch(), "redundant knob writes must not bump epoch");
        assert_eq!(a.total_energy_joules().to_bits(), b.total_energy_joules().to_bits());
        assert_eq!(a.temperature_c(SocketId(1)).to_bits(), b.temperature_c(SocketId(1)).to_bits());
    }

    #[test]
    fn unpowered_node_draws_nothing_and_cools() {
        let mut m = machine();
        for c in m.topology().all_cores() {
            m.set_activity(c, busy(0.9, 2.0));
        }
        m.advance(2 * NS_PER_SEC);
        let e_off = m.total_energy_joules();
        let t_off = m.temperature_c(SocketId(0));
        m.set_powered(false);
        assert!(!m.powered());
        assert_eq!(m.node_power_w(), 0.0);
        assert_eq!(m.socket_power_brute_force_w(SocketId(0)), 0.0);
        m.advance(30 * NS_PER_SEC);
        // No energy accrues across the outage; the package cools.
        assert_eq!(m.total_energy_joules().to_bits(), e_off.to_bits());
        let t_cooled = m.temperature_c(SocketId(0));
        assert!(t_cooled < t_off, "{t_cooled} !< {t_off}");
        assert!(t_cooled > m.config().thermal.ambient_c);
        // Cooling follows the closed form exactly.
        let expect = m.config().thermal.cool(t_off, 30.0);
        assert_eq!(t_cooled.to_bits(), expect.to_bits());
    }

    #[test]
    fn power_cycle_boots_in_reset_state() {
        let mut m = machine();
        for c in m.topology().all_cores() {
            m.set_activity(c, busy(1.0, 1.0));
            m.set_duty(c, DutyCycle::MIN);
        }
        m.set_pstate(SocketId(1), PState::MIN);
        m.set_powered(false);
        m.advance(5 * NS_PER_SEC);
        m.set_powered(true);
        assert!(m.powered());
        for c in m.topology().all_cores() {
            assert_eq!(m.activity(c), CoreActivity::Idle);
            assert_eq!(m.duty(c), DutyCycle::FULL);
        }
        assert_eq!(m.pstate(SocketId(1)), PState::MAX);
        // Back on: draws idle power again, energy resumes accruing.
        assert!(m.node_power_w() > 0.0);
        let e0 = m.total_energy_joules();
        m.advance(NS_PER_SEC);
        assert!(m.total_energy_joules() > e0);
    }

    #[test]
    fn redundant_set_powered_is_noop() {
        let mut m = machine();
        let epoch = m.knob_epoch();
        m.set_powered(true);
        assert_eq!(m.knob_epoch(), epoch);
        m.set_powered(false);
        let epoch_off = m.knob_epoch();
        m.set_powered(false);
        assert_eq!(m.knob_epoch(), epoch_off);
    }

    #[test]
    fn powered_flag_survives_snapshot_round_trip() {
        let mut m = machine();
        for c in m.topology().all_cores() {
            m.set_activity(c, busy(0.6, 1.0));
        }
        m.advance(NS_PER_SEC);
        m.set_powered(false);
        m.advance(3 * NS_PER_SEC);
        let mut w = SnapWriter::new();
        m.snap_state(&mut w);
        let bytes = w.finish();
        let mut fresh = machine();
        let mut r = SnapReader::new(&bytes);
        fresh.restore_state(&mut r).unwrap();
        r.finish().unwrap();
        assert!(!fresh.powered());
        assert_eq!(fresh.node_power_w(), 0.0);
        // Both machines cool identically after restore.
        m.advance(7 * NS_PER_SEC);
        fresh.advance(7 * NS_PER_SEC);
        assert_eq!(
            m.temperature_c(SocketId(0)).to_bits(),
            fresh.temperature_c(SocketId(0)).to_bits()
        );
        assert_eq!(m.total_energy_joules().to_bits(), fresh.total_energy_joules().to_bits());
    }

    #[test]
    fn knob_epoch_counts_rate_changes_only() {
        let mut m = machine();
        let e0 = m.knob_epoch();
        m.set_activity(CoreId(0), busy(0.5, 1.0));
        assert_eq!(m.knob_epoch(), e0, "activity is not a rate knob");
        m.set_duty(CoreId(0), DutyCycle::MIN);
        assert_eq!(m.knob_epoch(), e0 + 1);
        m.set_duty(CoreId(0), DutyCycle::MIN); // redundant
        assert_eq!(m.knob_epoch(), e0 + 1);
        m.set_pstate(SocketId(1), PState::MIN);
        assert_eq!(m.knob_epoch(), e0 + 2);
    }
}
