//! Outside-in tracing: spans around calls into the repository's crates,
//! recorded only from this crate.
//!
//! A span has a layer, a start, an end and a parent (the span open when it
//! started). Service runs make millions of source calls, so spans are not
//! kept one by one: each closed span is folded into its layer's
//! accumulator (count, total time, self time). Self time is the span's
//! duration minus the time its direct child spans cover.
//!
//! Tracing is off unless [`set_enabled`] turns it on; [`span`] then costs
//! one thread-local flag read.

use std::cell::{Cell, RefCell};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::rc::Rc;
use std::time::Instant;

use maestro_machine::snap::{SnapError, SnapReader, SnapWriter};
use maestro_machine::Machine;
use maestro_runtime::{Monitor, RequestSource, ServiceCounters, ServiceInjection, ThrottleState};

/// The layer boundaries the benchmark times.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `Workload::run` (workloads and runtime together; not separable).
    WorkloadsRun,
    /// `Maestro::try_run_service`, `run_captured`, `resume_captured`.
    RuntimeRun,
    /// `Monitor::fire` of every monitor the facade or benchmark installs.
    CoreFire,
    /// Every `RequestSource` call into the service source.
    ServiceSource,
    /// `Fleet::advance_epochs(1, JOBS)`.
    FleetEpoch,
    /// `MaestroSnapshot::to_bytes`.
    SnapEncode,
    /// `MaestroSnapshot::from_bytes`.
    SnapDecode,
}

/// Number of [`Layer`] variants.
pub const LAYERS: usize = 7;

/// Folded spans of one layer.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct SpanAcc {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanAcc {
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }

    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 * 1e-9
    }

    /// Mean span duration in nanoseconds (0 with no spans).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

#[derive(Default)]
struct Tracer {
    /// Open spans: (layer, nanoseconds covered by closed children).
    stack: Vec<(Layer, u64)>,
    acc: [SpanAcc; LAYERS],
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

/// Turn span recording on or off for this thread.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Run `f` inside a span of `layer` when tracing is on.
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    TRACER.with(|t| t.borrow_mut().stack.push((layer, 0)));
    let start = Instant::now();
    let out = f();
    let dur = start.elapsed().as_nanos() as u64;
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let (l, child) = t
            .stack
            .pop()
            .expect("span stack holds the span just opened");
        debug_assert_eq!(l, layer);
        let acc = &mut t.acc[layer as usize];
        acc.count += 1;
        acc.total_ns += dur;
        acc.self_ns += dur.saturating_sub(child);
        if let Some(parent) = t.stack.last_mut() {
            parent.1 += dur;
        }
    });
    out
}

/// Count one call of `layer` without timing it, when tracing is on: for
/// calls too cheap to time without the timer dominating them.
pub fn count(layer: Layer) {
    if enabled() {
        TRACER.with(|t| t.borrow_mut().acc[layer as usize].count += 1);
    }
}

/// Take the accumulated spans and reset them. Also drops spans left open
/// by a panic that unwound through [`span`].
pub fn take() -> [SpanAcc; LAYERS] {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.stack.clear();
        std::mem::take(&mut t.acc)
    })
}

/// Reset the span stack after a caught panic without losing totals.
pub fn clear_open_spans() {
    TRACER.with(|t| t.borrow_mut().stack.clear());
}

/// A pass-through [`Monitor`] that times `fire`.
pub struct TracedMonitor(pub Box<dyn Monitor>);

impl Monitor for TracedMonitor {
    fn next_due_ns(&self) -> Option<u64> {
        self.0.next_due_ns()
    }

    fn fire(&mut self, machine: &mut Machine, throttle: &mut ThrottleState) {
        span(Layer::CoreFire, || self.0.fire(machine, throttle));
    }

    fn snap_state(&self, w: &mut SnapWriter) {
        self.0.snap_state(w);
    }

    fn restore_state(
        &mut self,
        machine: &Machine,
        r: &mut SnapReader<'_>,
    ) -> Result<(), SnapError> {
        self.0.restore_state(machine, r)
    }

    fn restore_throttle(&self, throttle: &mut ThrottleState) {
        self.0.restore_throttle(throttle);
    }
}

/// Wrap every monitor installed on `m` in a [`TracedMonitor`], keeping
/// their order.
pub fn trace_monitors(m: &mut maestro::Maestro) {
    let monitors = m.runtime_mut().take_monitors();
    for monitor in monitors {
        m.runtime_mut()
            .add_monitor(Box::new(TracedMonitor(monitor)));
    }
}

/// Settled requests between two segment marks of a [`RequestClock`].
pub const SEGMENT_REQUESTS: usize = 1024;

/// Host time of each injected request, from the `poll` that injected it
/// to the `on_complete` that settled it. The map hashes with fixed keys so
/// its layout, and its cost, is the same in every process.
#[derive(Default)]
pub struct RequestClock {
    injected: HashMap<u64, Instant, BuildHasherDefault<DefaultHasher>>,
    /// Settled request latencies, host seconds, in completion order.
    pub settled_s: Vec<f64>,
    /// The host instant of every [`SEGMENT_REQUESTS`]-th settlement. A run
    /// is deterministic, so the marks cut it into the same segments of
    /// work every time it runs.
    pub marks: Vec<Instant>,
    /// Requests still in flight when the run died.
    pub drained: u64,
}

impl RequestClock {
    /// Forget every request, keeping the buffers' capacity; returns how
    /// many requests were settled or drained since the last reset.
    pub fn reset(&mut self) -> u64 {
        let n = self.settled_s.len() as u64 + self.drained;
        self.injected.clear();
        self.settled_s.clear();
        self.marks.clear();
        self.drained = 0;
        n
    }
}

/// A pass-through [`RequestSource`] that times each request on the host
/// and, when tracing is on, times the calls that do work (`poll`,
/// `on_complete`, `drain`) and counts the getters (`next_due_ns`,
/// `exhausted`, `counters`), which cost less than a timer read.
pub struct TimedSource {
    inner: Box<dyn RequestSource>,
    clock: Rc<RefCell<RequestClock>>,
}

impl TimedSource {
    pub fn new(inner: Box<dyn RequestSource>, clock: Rc<RefCell<RequestClock>>) -> Self {
        TimedSource { inner, clock }
    }
}

impl RequestSource for TimedSource {
    fn next_due_ns(&self) -> Option<u64> {
        count(Layer::ServiceSource);
        self.inner.next_due_ns()
    }

    fn poll(&mut self, now_ns: u64, out: &mut Vec<ServiceInjection>) {
        let before = out.len();
        span(Layer::ServiceSource, || self.inner.poll(now_ns, out));
        if out.len() > before {
            let t = Instant::now();
            let mut clock = self.clock.borrow_mut();
            for inj in &out[before..] {
                clock.injected.insert(inj.req_id, t);
            }
        }
    }

    fn on_complete(&mut self, req_id: u64, now_ns: u64, cancelled: bool) {
        let t = Instant::now();
        {
            let mut clock = self.clock.borrow_mut();
            if let Some(t0) = clock.injected.remove(&req_id) {
                clock.settled_s.push(t.duration_since(t0).as_secs_f64());
                if clock.settled_s.len().is_multiple_of(SEGMENT_REQUESTS) {
                    clock.marks.push(t);
                }
            }
        }
        span(Layer::ServiceSource, || {
            self.inner.on_complete(req_id, now_ns, cancelled)
        });
    }

    fn drain(&mut self, now_ns: u64, in_flight: &[u64]) {
        {
            let mut clock = self.clock.borrow_mut();
            for id in in_flight {
                if clock.injected.remove(id).is_some() {
                    clock.drained += 1;
                }
            }
        }
        span(Layer::ServiceSource, || self.inner.drain(now_ns, in_flight));
    }

    fn exhausted(&self) -> bool {
        count(Layer::ServiceSource);
        self.inner.exhausted()
    }

    fn counters(&self) -> ServiceCounters {
        count(Layer::ServiceSource);
        self.inner.counters()
    }

    fn snap_state(&self, w: &mut SnapWriter) {
        self.inner.snap_state(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner.restore_state(r)
    }
}
