//! Perf-regression gate over `maestro-bench/v1` JSON reports.
//!
//! `maestro-bench gate --current NEW.json --baseline OLD.json` compares a
//! freshly generated perf report against a committed baseline and fails
//! (exit 1) when any criterion is violated. Every criterion is evaluated
//! and rendered — a run with three broken bounds diagnoses all three, not
//! just the first:
//!
//! * `scheduler_steps_per_sec` must stay at least `--min-scheduler-ratio`
//!   (default 3.0) times the baseline. The micro-probe workload is fixed
//!   (4096-task flat bag, 16 workers), so the ratio is comparable across
//!   hosts even though the absolute rates are not.
//! * `total_wall_s` of the current report must stay under `--max-wall-s`
//!   (default 10.0). In CI the current report is the test-scale smoke run,
//!   which finishes in well under a second — this bound catches accidental
//!   O(ticks) regressions, which blow it up by orders of magnitude, without
//!   being sensitive to runner speed.
//! * `service_goodput_rps` (the minimum goodput across the Pareto sweep)
//!   must stay at least `--min-goodput` (default 0 = criterion skipped, so
//!   pre-service baselines keep gating). An overload-handling regression —
//!   broken admission, a retry storm slipping past the budget — collapses
//!   completed-requests-per-second and fails this floor.
//!
//! The reports are the flat hand-rolled JSON written by the CLI's `--json`
//! flag; the vendored serde stub has no JSON backend, so values are pulled
//! out with a scanning extractor that understands exactly that shape (a
//! `"key": number` pair on one line). A gated key must occur once: a second
//! occurrence is an error, so a reordered writer cannot make the gate read
//! the wrong value.

/// Extract the `"key": <number>` value from a flat JSON document.
///
/// This is not a JSON parser — it relies on the `maestro-bench/v1` writer
/// emitting each scalar on its own line — but it fails loudly rather than
/// misreading: `Ok(None)` when the key is missing or its value is not a
/// number, and an error when the key occurs more than once.
pub fn json_number(text: &str, key: &str) -> Result<Option<f64>, String> {
    let needle = format!("\"{key}\":");
    let mut hits = text.match_indices(&needle).map(|(at, _)| at);
    let Some(at) = hits.next() else {
        return Ok(None);
    };
    if hits.next().is_some() {
        return Err(format!("report has more than one \"{key}\""));
    }
    let rest = text[at + needle.len()..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e'))
        .unwrap_or(rest.len());
    Ok(rest[..end].parse().ok())
}

/// The numbers the gate reads from each report.
#[derive(Copy, Clone, Debug)]
pub struct GateInputs {
    /// Scheduler micro-probe throughput (steps per second).
    pub scheduler_steps_per_sec: f64,
    /// Wall-clock of the whole experiment list, in seconds.
    pub total_wall_s: f64,
    /// Minimum service goodput across the Pareto sweep; absent in reports
    /// predating the service scenarios.
    pub service_goodput_rps: Option<f64>,
}

impl GateInputs {
    /// Pull the gated fields out of a `maestro-bench/v1` report, naming
    /// *every* missing required field on failure (not just the first). A
    /// gated key that occurs twice is an error.
    pub fn parse(text: &str) -> Result<Self, String> {
        let scheduler = json_number(text, "scheduler_steps_per_sec")?;
        let wall = json_number(text, "total_wall_s")?;
        let service_goodput_rps = json_number(text, "service_goodput_rps")?;
        let mut missing = Vec::new();
        if scheduler.is_none() {
            missing.push("scheduler_steps_per_sec");
        }
        if wall.is_none() {
            missing.push("total_wall_s");
        }
        if !missing.is_empty() {
            return Err(format!("report has no numeric {}", missing.join(", ")));
        }
        Ok(Self {
            scheduler_steps_per_sec: scheduler.expect("checked above"),
            total_wall_s: wall.expect("checked above"),
            service_goodput_rps,
        })
    }
}

/// One evaluated gate criterion.
#[derive(Clone, Debug)]
pub struct Criterion {
    /// Human-readable measurement-vs-bound line (without the verdict mark).
    pub detail: String,
    /// Whether the bound holds.
    pub ok: bool,
}

/// Every criterion's outcome. All criteria are always evaluated so one
/// gate run diagnoses every violated bound at once.
#[derive(Clone, Debug)]
pub struct GateReport {
    /// The evaluated criteria, in render order.
    pub criteria: Vec<Criterion>,
}

impl GateReport {
    /// Evaluate `current` against `baseline` under the given bounds.
    /// `min_goodput_rps <= 0` skips the service-goodput criterion (for
    /// gating against pre-service baselines without a Pareto block).
    pub fn evaluate(
        current: GateInputs,
        baseline: GateInputs,
        min_scheduler_ratio: f64,
        max_wall_s: f64,
        min_goodput_rps: f64,
    ) -> Self {
        let mut criteria = Vec::new();
        let ratio = current.scheduler_steps_per_sec / baseline.scheduler_steps_per_sec;
        criteria.push(Criterion {
            detail: format!(
                "scheduler micro: {ratio:.2}x baseline (floor {min_scheduler_ratio:.2}x)"
            ),
            ok: ratio >= min_scheduler_ratio,
        });
        criteria.push(Criterion {
            detail: format!(
                "total wall: {:.3} s (ceiling {max_wall_s:.1} s)",
                current.total_wall_s
            ),
            ok: current.total_wall_s <= max_wall_s,
        });
        if min_goodput_rps > 0.0 {
            match current.service_goodput_rps {
                Some(g) => criteria.push(Criterion {
                    detail: format!(
                        "service goodput: {g:.0} rps (floor {min_goodput_rps:.0} rps)"
                    ),
                    ok: g >= min_goodput_rps,
                }),
                None => criteria.push(Criterion {
                    detail: format!(
                        "service goodput: missing from current report \
                         (floor {min_goodput_rps:.0} rps)"
                    ),
                    ok: false,
                }),
            }
        }
        GateReport { criteria }
    }

    /// True when every criterion holds.
    pub fn pass(&self) -> bool {
        self.criteria.iter().all(|c| c.ok)
    }

    /// Human-readable verdict lines — one per criterion, every criterion
    /// rendered whether it passed or not.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.criteria {
            out.push_str(if c.ok { "ok   " } else { "FAIL " });
            out.push_str(&c.detail);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REPORT: &str = r#"{
  "schema": "maestro-bench/v1",
  "pr": "PR6",
  "total_wall_s": 28.1085,
  "micro": {
    "machine_advance_ns_per_op": 22.45,
    "scheduler_steps_per_sec": 2054290
  }
}
"#;

    const REPORT_WITH_SERVICE: &str = r#"{
  "schema": "maestro-bench/v1",
  "pr": "PR9",
  "total_wall_s": 0.9,
  "micro": {
    "scheduler_steps_per_sec": 8000000
  },
  "service": {
    "service_goodput_rps": 35000
  }
}
"#;

    #[test]
    fn extracts_numbers_from_report_shape() {
        assert_eq!(json_number(REPORT, "total_wall_s"), Ok(Some(28.1085)));
        assert_eq!(json_number(REPORT, "scheduler_steps_per_sec"), Ok(Some(2_054_290.0)));
        assert_eq!(json_number(REPORT, "machine_advance_ns_per_op"), Ok(Some(22.45)));
        assert_eq!(json_number(REPORT, "no_such_key"), Ok(None));
        assert_eq!(json_number("{\"k\": \"string\"}", "k"), Ok(None));
        // A key that is only a suffix of another key does not match it.
        assert_eq!(json_number(REPORT, "wall_s"), Ok(None));
    }

    #[test]
    fn duplicate_key_is_an_error() {
        let twice = "{\n  \"total_wall_s\": 1.5,\n  \"x\": {\n    \"total_wall_s\": 9\n  }\n}\n";
        let err = json_number(twice, "total_wall_s").unwrap_err();
        assert!(err.contains("total_wall_s"), "{err}");
        let report = REPORT.replace("\"pr\": \"PR6\",", "\"scheduler_steps_per_sec\": 1,");
        let err = GateInputs::parse(&report).unwrap_err();
        assert!(err.contains("more than one \"scheduler_steps_per_sec\""), "{err}");
    }

    #[test]
    fn committed_baselines_hold_each_gated_key_once() {
        for baseline in [
            include_str!("../../../BENCH_PR5.json"),
            include_str!("../../../BENCH_PR6.json"),
            include_str!("../../../BENCH_PR7.json"),
            include_str!("../../../BENCH_PR8.json"),
            include_str!("../../../BENCH_PR9.json"),
        ] {
            GateInputs::parse(baseline).expect("baseline parses");
        }
    }

    #[test]
    fn parse_names_every_missing_field() {
        let err = GateInputs::parse("{}").unwrap_err();
        assert!(err.contains("scheduler_steps_per_sec"), "{err}");
        assert!(err.contains("total_wall_s"), "{err}");
    }

    #[test]
    fn goodput_field_is_optional_at_parse_time() {
        assert!(GateInputs::parse(REPORT).unwrap().service_goodput_rps.is_none());
        assert_eq!(
            GateInputs::parse(REPORT_WITH_SERVICE).unwrap().service_goodput_rps,
            Some(35_000.0)
        );
    }

    #[test]
    fn gate_passes_on_improvement_within_wall_budget() {
        let baseline = GateInputs::parse(REPORT).unwrap();
        let current = GateInputs {
            scheduler_steps_per_sec: 7_700_000.0,
            total_wall_s: 0.8,
            service_goodput_rps: None,
        };
        let r = GateReport::evaluate(current, baseline, 3.0, 10.0, 0.0);
        assert!(r.pass(), "{}", r.render());
        assert_eq!(r.criteria.len(), 2, "goodput floor of 0 skips that criterion");
    }

    #[test]
    fn gate_fails_on_eroded_speedup_or_blown_wall() {
        let baseline = GateInputs::parse(REPORT).unwrap();
        let slow = GateInputs {
            scheduler_steps_per_sec: 4_000_000.0,
            total_wall_s: 0.8,
            service_goodput_rps: None,
        };
        assert!(!GateReport::evaluate(slow, baseline, 3.0, 10.0, 0.0).pass());
        let long = GateInputs {
            scheduler_steps_per_sec: 8_000_000.0,
            total_wall_s: 11.0,
            service_goodput_rps: None,
        };
        assert!(!GateReport::evaluate(long, baseline, 3.0, 10.0, 0.0).pass());
    }

    #[test]
    fn goodput_floor_gates_service_regressions() {
        let baseline = GateInputs::parse(REPORT).unwrap();
        let healthy = GateInputs::parse(REPORT_WITH_SERVICE).unwrap();
        assert!(GateReport::evaluate(healthy, baseline, 3.0, 10.0, 20_000.0).pass());
        let collapsed = GateInputs { service_goodput_rps: Some(500.0), ..healthy };
        let r = GateReport::evaluate(collapsed, baseline, 3.0, 10.0, 20_000.0);
        assert!(!r.pass());
        assert!(r.render().contains("service goodput: 500 rps"), "{}", r.render());
        // A floor demanded of a report with no service block fails loudly.
        let r = GateReport::evaluate(baseline, baseline, 3.0, 100.0, 20_000.0);
        assert!(!r.pass());
        assert!(r.render().contains("missing"), "{}", r.render());
    }

    #[test]
    fn every_violated_criterion_is_reported_in_one_run() {
        // Three broken bounds at once: the report must name all three.
        let baseline = GateInputs::parse(REPORT).unwrap();
        let bad = GateInputs {
            scheduler_steps_per_sec: 1_000_000.0,
            total_wall_s: 99.0,
            service_goodput_rps: Some(10.0),
        };
        let r = GateReport::evaluate(bad, baseline, 3.0, 10.0, 1_000.0);
        assert!(!r.pass());
        assert_eq!(r.criteria.iter().filter(|c| !c.ok).count(), 3, "{}", r.render());
        let rendered = r.render();
        assert_eq!(rendered.matches("FAIL").count(), 3, "{rendered}");
    }
}
