//! Nested direct-call probes of the hardware-facing layers.
//!
//! On one loaded 2 × 8 machine, each probe advances the clock by one RCR
//! sample period and then calls one layer, which calls the layers below it:
//!
//! 1. machine: `Machine::advance` + `total_energy_joules` (integration);
//! 2. RAPL: `Machine::advance` + `NodeProbe::sample` on the machine's MSRs;
//! 3. RCR: `Machine::advance` + `RcrDaemon::sample`;
//! 4. controller: `Machine::advance` + `ThrottleController::fire`.
//!
//! A layer's self time is its probe minus the probe below it. The fleet
//! side times `NodeSim::advance_to` over one epoch and
//! `Coordinator::allocate` over one view per node.

use std::hint::black_box;
use std::time::Instant;

use maestro::ThrottleController;
use maestro_fleet::node::{NodeConfig, NodeSim};
use maestro_fleet::{Coordinator, CoordinatorConfig, FleetConfig, NodeView};
use maestro_machine::{CoreActivity, Machine, MachineConfig};
use maestro_rapl::NodeProbe;
use maestro_rcr::{RcrDaemon, DEFAULT_SAMPLE_PERIOD_NS};
use maestro_runtime::{Monitor, ThrottleState};

use crate::stats::median;

/// Batches per probe; the probe reports the median batch.
const BATCHES: usize = 21;

/// Per-call medians, nanoseconds: self time of each hardware-facing layer
/// (the machine's is its whole probe), and the two fleet probes.
#[derive(Copy, Clone, Debug, Default)]
pub struct Probes {
    pub machine_ns: f64,
    pub rapl_ns: f64,
    pub rcr_ns: f64,
    pub controller_ns: f64,
    pub node_epoch_ns: f64,
    pub allocate_ns: f64,
}

fn loaded_machine() -> Machine {
    let mut m = Machine::new(MachineConfig::sandybridge_2x8());
    let cores: Vec<_> = m.topology().all_cores().collect();
    for (i, c) in cores.into_iter().enumerate() {
        m.set_activity(
            c,
            CoreActivity::Busy {
                intensity: 0.5 + 0.05 * (i % 10) as f64,
                ocr: 2.0,
            },
        );
    }
    m
}

/// Per-call time of `calls` calls of `call` on fresh state from `setup`.
fn batch<S>(calls: usize, setup: &mut impl FnMut() -> S, call: &mut impl FnMut(&mut S)) -> f64 {
    let mut state = setup();
    let t0 = Instant::now();
    for _ in 0..calls {
        call(&mut state);
    }
    let dt = t0.elapsed().as_secs_f64() * 1e9 / calls as f64;
    black_box(&mut state);
    dt
}

/// Median over batches of the per-call time of `call`, after one warm-up
/// batch. `setup` builds fresh state for each batch.
fn probe<S>(calls: usize, mut setup: impl FnMut() -> S, mut call: impl FnMut(&mut S)) -> f64 {
    let per_call: Vec<f64> = (0..=BATCHES)
        .map(|_| batch(calls, &mut setup, &mut call))
        .skip(1)
        .collect();
    median(&per_call).expect("probe batches are finite")
}

/// Run every probe; `fleet` supplies the node count and node parameters.
pub fn run(fleet: &FleetConfig) -> Probes {
    const CALLS: usize = 2_000;
    let period = DEFAULT_SAMPLE_PERIOD_NS;
    let mut machine_setup = loaded_machine;
    let mut machine_call = |m: &mut Machine| {
        m.advance(period);
        black_box(m.total_energy_joules());
    };
    let mut rapl_setup = || {
        let m = loaded_machine();
        let p = NodeProbe::new(m.topology());
        (m, p)
    };
    let mut rapl_call = |(m, p): &mut (Machine, NodeProbe)| {
        m.advance(period);
        black_box(p.sample(&*m).expect("fault-free MSR reads succeed"));
    };
    let mut rcr_setup = || {
        let m = loaded_machine();
        let d = RcrDaemon::new(&m);
        (m, d)
    };
    let mut rcr_call = |(m, d): &mut (Machine, RcrDaemon)| {
        m.advance(period);
        black_box(d.sample(m).published());
    };
    let mut controller_setup = || {
        let m = loaded_machine();
        let (c, trace) = ThrottleController::new(&m);
        (m, c, ThrottleState::new(6), trace)
    };
    let mut controller_call =
        |(m, c, throttle, _): &mut (Machine, ThrottleController, ThrottleState, _)| {
            m.advance(period);
            c.fire(m, throttle);
        };
    // The four probes run back to back in every batch, so a layer's self
    // time is a difference of adjacent probes taken under the same host
    // conditions; each is the median of its per-batch differences.
    let mut layers: [Vec<f64>; 4] = Default::default();
    for b in 0..=BATCHES {
        let p = [
            batch(CALLS, &mut machine_setup, &mut machine_call),
            batch(CALLS, &mut rapl_setup, &mut rapl_call),
            batch(CALLS, &mut rcr_setup, &mut rcr_call),
            batch(CALLS, &mut controller_setup, &mut controller_call),
        ];
        if b > 0 {
            layers[0].push(p[0]);
            for i in 1..4 {
                layers[i].push(p[i] - p[i - 1]);
            }
        }
    }
    let [machine_ns, rapl_ns, rcr_ns, controller_ns] =
        layers.map(|v| median(&v).expect("probe batches are finite"));

    // One node of the drill's fleet (node 0 is outside the crash wave and
    // the partition), advanced one epoch per call.
    let node_epoch_ns = probe(
        60,
        || {
            let mut cfg = NodeConfig::new(0, fleet.nodes);
            cfg.floor_w = fleet.floor_w;
            cfg.load = fleet.load;
            (NodeSim::new(cfg, fleet.faults.clone()), 0u64)
        },
        |(node, t)| {
            *t += fleet.epoch_ns;
            node.advance_to(*t);
        },
    );
    let allocate_ns = probe(
        60,
        || {
            let coord = Coordinator::new(CoordinatorConfig {
                nodes: fleet.nodes,
                nodes_per_rack: fleet.nodes_per_rack,
                cluster_cap_w: fleet.cluster_cap_w,
                floor_w: fleet.floor_w,
                epoch_ns: fleet.epoch_ns,
                lease_ttl_ns: fleet.lease_ttl_ns,
                view_stale_after_ns: 2 * fleet.epoch_ns + fleet.epoch_ns / 2,
            });
            (coord, 0u64)
        },
        |(coord, t)| {
            *t += fleet.epoch_ns;
            for id in 0..fleet.nodes {
                let swing = (id % 13) as f64;
                coord.report(
                    id,
                    NodeView {
                        stamp_ns: *t,
                        power_w: 70.0 + swing,
                        demand_w: 90.0 + swing,
                        up: true,
                    },
                );
            }
            black_box(coord.allocate(*t));
        },
    );
    Probes {
        machine_ns,
        rapl_ns,
        rcr_ns,
        controller_ns,
        node_epoch_ns,
        allocate_ns,
    }
}
