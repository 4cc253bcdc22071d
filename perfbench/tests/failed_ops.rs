//! A failed operation is counted, not fatal: the run still ends with a
//! result line, marked incorrect.

use std::panic::{catch_unwind, AssertUnwindSafe};

use maestro_perfbench::json::parse_result;
use maestro_perfbench::run::{measure, Bench, Options};
use maestro_perfbench::Round;

/// A `paper-repro` stand-in whose round has one cell that panics in its
/// result check, so the Tables IV–VII metrics are never measured.
struct PanickingCell;

const OPS: usize = 120;

impl Bench for PanickingCell {
    type Inputs = ();

    fn prepare(&mut self, _traced: bool) {}

    fn round(&mut self, _: (), ops: Vec<f64>) -> Round {
        let mut r = Round {
            ops_s: ops,
            sim_s: 1.0,
            ..Round::default()
        };
        for i in 0..OPS {
            let out = catch_unwind(AssertUnwindSafe(|| {
                assert!(i != 7, "result check failed");
                1.0
            }));
            let dt = 1e-6 * (i + 1) as f64;
            r.ops_s.push(dt);
            r.parts_s.push(dt);
            match out {
                Ok(joules) => Round::add(&mut r.model, "model_energy_j", joules),
                Err(_) => r.fail(1, format!("cell {i} panicked")),
            }
        }
        r.model.insert("model_time_s", 1.0);
        r
    }
}

#[test]
fn a_panicking_cell_is_counted_and_the_run_still_reports() {
    // Fingerprint records go to a scratch directory of the test build.
    std::env::set_var("CARGO_TARGET_DIR", env!("CARGO_TARGET_TMPDIR"));
    let opts = Options {
        workload: "paper-repro",
        seed: 0xFA11,
        seconds: 1e-3,
        trace: false,
    };
    let out = measure(|| PanickingCell, &opts).expect("the run reports");
    let res = out.result();
    assert!(!res.correct);
    assert_eq!(res.failed, out.attempted / OPS as u64);
    assert!(out.workload_model.is_empty());
    for name in ["energy_saved_pct", "paper_energy_err_pct"] {
        let problem = format!("{name} was not measured");
        assert!(out.problems.contains(&problem), "{:?}", out.problems);
    }
    let line = res.to_json().write().unwrap();
    let back = parse_result(&line, &out.expected_names()).unwrap();
    assert_eq!((back.correct, back.failed), (false, res.failed));
}
