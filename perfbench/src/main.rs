//! `maestro-perfbench --workload W --seed N --seconds S --trace 0|1`
//!
//! Prints a report table, then one JSON result line as the last line of
//! standard output. Exits non-zero without a result line on a usage or
//! measurement error.

use std::process::ExitCode;

use maestro_perfbench::fleet::FleetDrill;
use maestro_perfbench::json::parse_result;
use maestro_perfbench::paper::PaperRepro;
use maestro_perfbench::run::{measure, Options, Outcome, USAGE};
use maestro_perfbench::service::ServiceOpenLoop;
use maestro_perfbench::snapshot::SnapshotFork;

fn run(opts: &Options) -> Result<Outcome, String> {
    match opts.workload {
        "paper-repro" => measure(PaperRepro::new, opts),
        "service-openloop" => measure(|| ServiceOpenLoop::new(opts.seed), opts),
        "fleet-drill" => measure(|| FleetDrill::new(opts.seed), opts),
        "snapshot-fork" => measure(|| SnapshotFork::new(opts.seed), opts),
        other => Err(format!("unknown workload {other}")),
    }
}

fn report(out: &Outcome) {
    let o = &out.opts;
    println!(
        "workload {} seed {} trace {} attempted {} failed {} ops_failed_ratio {}",
        o.workload,
        o.seed,
        u8::from(o.trace),
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted as f64
    );
    let rows = if o.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    for m in rows.iter().chain(&out.workload_model) {
        println!("  {:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for n in &out.notes {
        println!("  {n}");
    }
    for p in &out.problems {
        println!("  problem: {p}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Options::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&opts) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    report(&out);
    // Write with the JSON writer, then read the line back with the strict
    // parser before printing it.
    let line = match out.result().to_json().write() {
        Ok(line) => line,
        Err(e) => {
            eprintln!("error: result not writable: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = parse_result(&line, &out.expected_names()) {
        eprintln!("error: result line does not read back: {e}");
        return ExitCode::FAILURE;
    }
    println!("{line}");
    ExitCode::SUCCESS
}
