//! `fleet-drill`: the `fleet-correlated-failures` recipe (120 nodes; crash
//! wave, rack partition, lost, duplicated and delayed grants, daemon
//! faults), run for more epochs and seeded from the benchmark seed.
//!
//! An operation is one `Fleet::advance_epochs(1, JOBS)`. Machine
//! integration, RAPL, the RCR daemon and supervisor, and leases do all the
//! work, with no scheduler and no kernels: the inverse of `paper-repro`.

use std::time::Instant;

use maestro_fleet::{Fleet, FleetConfig, FleetFaultPlan};

use crate::run::Bench;
use crate::trace::{self, Layer};
use crate::{derive_seed, Round};

/// Coordination epochs per round: twice the registry recipe's 60, so that
/// a round holds the 100 operations p90 needs. Faults all start in the
/// first 60 s; the second minute is the recovered fleet under the load
/// wave.
pub const EPOCHS: u64 = 120;
/// Shard threads. With two shard threads on a two-vCPU host an epoch waits
/// for the slower vCPU, and the epoch-time tail follows the host's load
/// rather than the program.
pub const JOBS: usize = 1;

/// The registry recipe, with the fault seed and the load-wave period drawn
/// from the benchmark seed.
pub fn config(seed: u64) -> FleetConfig {
    let fault_seed = derive_seed(seed, 0xF1EE7);
    let mut cfg = FleetConfig::new(120, 95.0, fault_seed);
    // Load-wave period between 16 s and 24 s, in whole load steps.
    let steps = derive_seed(seed, 0x10AD) % 33;
    cfg.load.wave_period_ns = 16_000_000_000 + steps * cfg.load.step_ns;
    cfg.faults = FleetFaultPlan::new(fault_seed)
        .with_crash_wave(20_000_000_000, 40, 24, 250_000_000)
        .with_partition(30_000_000_000, 45_000_000_000, 80, 24)
        .with_grant_loss_rate(0.10)
        .with_grant_dup_rate(0.05)
        .with_grant_delay(0.20, 800_000_000)
        .with_report_loss_rate(0.10)
        .with_daemon_faults(0.01, 7_000_000_000);
    cfg
}

pub struct FleetDrill {
    cfg: FleetConfig,
}

impl FleetDrill {
    pub fn new(seed: u64) -> Self {
        FleetDrill { cfg: config(seed) }
    }
}

impl Bench for FleetDrill {
    type Inputs = Fleet;

    fn prepare(&mut self, _traced: bool) -> Fleet {
        Fleet::new(self.cfg.clone())
    }

    fn round(&mut self, mut fleet: Fleet, ops: Vec<f64>) -> Round {
        let mut r = Round {
            ops_s: ops,
            ..Round::default()
        };
        for _ in 0..EPOCHS {
            let t0 = Instant::now();
            trace::span(Layer::FleetEpoch, || fleet.advance_epochs(1, JOBS));
            let dt = t0.elapsed().as_secs_f64();
            r.ops_s.push(dt);
            r.parts_s.push(dt);
        }
        let report = fleet.report();
        if report.cap_violations > 0 {
            r.fail(
                EPOCHS,
                format!(
                    "{} cluster-cap violation(s), peak {:.1} W over a {:.1} W cap",
                    report.cap_violations, report.max_cap_sum_w, report.cluster_cap_w
                ),
            );
        }
        let node_s = self.cfg.nodes as f64 * report.virtual_s;
        r.sim_s = node_s;
        r.model.insert("model_energy_j", report.total_energy_j);
        r.model.insert("model_time_s", node_s);
        let c = &mut r.counts;
        c.insert("fleet.grants_sent", report.coordinator.grants_sent as f64);
        c.insert("fleet.stale_views", report.coordinator.stale_views as f64);
        c.insert("fleet.lease_expiries", report.lease_expiries() as f64);
        c.insert("fleet.crashes", report.crashes() as f64);
        c.insert("fleet.restarts", report.restarts() as f64);
        for n in &report.nodes {
            Round::add(c, "fleet.leases_applied", n.stats.leases_applied as f64);
            Round::add(c, "fleet.leases_discarded", n.stats.leases_discarded as f64);
            Round::add(c, "fleet.throttle_steps", n.stats.throttle_steps as f64);
        }
        r
    }
}
