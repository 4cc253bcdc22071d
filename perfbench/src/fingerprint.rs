//! Cross-process determinism: the first run of a build with a (workload,
//! seed) pair records its model outputs and work counts; every later run of
//! the same build with the same pair must reproduce them bit for bit.
//!
//! Records live under the Cargo target directory (`CARGO_TARGET_DIR`, or
//! `perfbench/target`), so they are build output and never committed. They
//! are keyed by the executable's size and modification time, so a rebuilt
//! program starts a fresh record.

use std::fmt::Write as _;
use std::path::PathBuf;

use crate::run::Options;
use crate::Round;

fn record_path(opts: &Options) -> Result<PathBuf, String> {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let meta =
        std::fs::metadata(&exe).map_err(|e| format!("cannot stat {}: {e}", exe.display()))?;
    let mtime = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    let build = format!("{:x}-{mtime:x}", meta.len());
    Ok(target
        .join("perfbench-fingerprints")
        .join(format!("{}-{}-{build}.txt", opts.workload, opts.seed)))
}

/// The canonical text of a round's deterministic outputs.
pub fn render(round: &Round) -> String {
    let mut out = String::new();
    for (k, v) in round.model.iter().chain(&round.counts) {
        writeln!(out, "{k} {:016x} {v}", v.to_bits()).expect("writing to a String cannot fail");
    }
    out
}

/// Compare `round` with the recorded outputs for this workload and seed,
/// recording them if this is the first run.
pub fn check(opts: &Options, round: &Round) -> Result<(), String> {
    let path = record_path(opts)?;
    let text = render(round);
    match std::fs::read_to_string(&path) {
        Ok(recorded) if recorded == text => Ok(()),
        Ok(recorded) => {
            let diff: Vec<&str> = text
                .lines()
                .filter(|l| !recorded.lines().any(|r| r == *l))
                .collect();
            Err(format!(
                "outputs differ from an earlier run with seed {} ({}): {}",
                opts.seed,
                path.display(),
                diff.join("; ")
            ))
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            }
            std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
        }
        Err(e) => Err(format!("cannot read {}: {e}", path.display())),
    }
}
