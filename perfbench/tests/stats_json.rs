//! Unit tests of the result writer and parser, the order statistics, and
//! the agreement between `BENCHMARK.json` and the metrics the program
//! prints.

use maestro_perfbench::json::{parse_result, BenchResult, Json, JsonError, Metric};
use maestro_perfbench::run::{ArgError, Options, END_TO_END, PER_LAYER};
use maestro_perfbench::stats::{
    fold_min, iqr_share, median, percentile, quartiles, samples_beyond, StatsError,
};
use maestro_perfbench::trace::{self, Layer};

fn result() -> BenchResult {
    BenchResult {
        correct: true,
        attempted: 1000,
        failed: 0,
        metrics: vec![
            Metric {
                name: "latency_ms".into(),
                value: 1.2034,
                unit: "ms".into(),
            },
            Metric {
                name: "setup_s".into(),
                value: 0.8127,
                unit: "s".into(),
            },
        ],
    }
}

#[test]
fn result_round_trips_through_writer_and_parser() {
    let line = result().to_json().write().unwrap();
    assert_eq!(
        line,
        r#"{"correct":true,"attempted":1000,"failed":0,"metrics":{"latency_ms":{"value":1.2034,"unit":"ms"},"setup_s":{"value":0.8127,"unit":"s"}}}"#
    );
    assert_eq!(
        parse_result(&line, &["latency_ms", "setup_s"]).unwrap(),
        result()
    );
}

#[test]
fn numbers_keep_all_their_digits() {
    let x = 0.1 + 0.2;
    let text = Json::Num(x).write().unwrap();
    assert_eq!(text, "0.30000000000000004");
    assert_eq!(Json::parse(&text).unwrap(), Json::Num(x));
    assert_eq!(Json::parse("1e-7").unwrap(), Json::Num(1e-7));
}

#[test]
fn writer_rejects_non_finite_numbers_and_duplicate_keys() {
    let mut r = result();
    r.metrics[0].value = f64::NAN;
    assert!(matches!(
        r.to_json().write(),
        Err(JsonError::NonFinite { .. })
    ));
    r.metrics[0].value = f64::INFINITY;
    assert!(matches!(
        r.to_json().write(),
        Err(JsonError::NonFinite { .. })
    ));
    let mut r = result();
    r.metrics[1].name = "latency_ms".into();
    assert!(matches!(
        r.to_json().write(),
        Err(JsonError::DuplicateKey { .. })
    ));
}

#[test]
fn parser_rejects_duplicate_keys() {
    let dup = r#"{"correct":true,"attempted":1,"failed":0,"failed":1,"metrics":{}}"#;
    assert_eq!(
        parse_result(dup, &[]),
        Err(JsonError::DuplicateKey {
            key: "failed".into()
        })
    );
    let dup_metric = r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"a":{"value":1,"unit":"s"},"a":{"value":2,"unit":"s"}}}"#;
    assert_eq!(
        parse_result(dup_metric, &["a"]),
        Err(JsonError::DuplicateKey { key: "a".into() })
    );
}

#[test]
fn parser_rejects_missing_and_unexpected_metrics() {
    let line = result().to_json().write().unwrap();
    assert_eq!(
        parse_result(&line, &["latency_ms", "setup_s", "op_ms_p90"]),
        Err(JsonError::Missing {
            key: "op_ms_p90".into()
        })
    );
    assert_eq!(
        parse_result(&line, &["latency_ms"]),
        Err(JsonError::Unexpected {
            key: "setup_s".into()
        })
    );
    let no_unit = r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"a":{"value":1}}}"#;
    assert_eq!(
        parse_result(no_unit, &["a"]),
        Err(JsonError::Missing { key: "unit".into() })
    );
}

#[test]
fn parser_rejects_non_finite_and_malformed_input() {
    let huge =
        r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"a":{"value":1e999,"unit":"s"}}}"#;
    assert!(matches!(
        parse_result(huge, &["a"]),
        Err(JsonError::NonFinite { .. })
    ));
    for bad in [
        r#"{"a":NaN}"#,
        r#"{"a":1,}"#,
        r#"{"a":01}"#,
        r#"{"a":1} x"#,
        r#"{"a":"\q"}"#,
        r#"{"a":1"#,
        r#"{a:1}"#,
        "",
    ] {
        assert!(
            matches!(Json::parse(bad), Err(JsonError::Syntax { .. })),
            "accepted {bad:?}"
        );
    }
    assert_eq!(
        Json::parse(r#""a\"\\\u0041\n""#).unwrap(),
        Json::Str("a\"\\A\n".into())
    );
}

#[test]
fn parser_checks_counts() {
    let zero = r#"{"correct":true,"attempted":0,"failed":0,"metrics":{}}"#;
    assert!(matches!(
        parse_result(zero, &[]),
        Err(JsonError::Inconsistent { .. })
    ));
    let more_failed = r#"{"correct":false,"attempted":2,"failed":3,"metrics":{}}"#;
    assert!(matches!(
        parse_result(more_failed, &[]),
        Err(JsonError::Inconsistent { .. })
    ));
    let fraction = r#"{"correct":true,"attempted":1.5,"failed":0,"metrics":{}}"#;
    assert!(matches!(
        parse_result(fraction, &[]),
        Err(JsonError::WrongType { .. })
    ));
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]).unwrap(), 2.5);
    assert_eq!(median(&[]), Err(StatsError::TooFew { needed: 1, got: 0 }));
    assert_eq!(median(&[1.0, f64::NAN]), Err(StatsError::NonFinite));
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&v).unwrap(), [2.75, 5.5, 8.25]);
    // statistics.quantiles([3.5, 1.0, 2.0], n=4) == [1.0, 2.0, 3.5]
    assert_eq!(quartiles(&[3.5, 1.0, 2.0]).unwrap(), [1.0, 2.0, 3.5]);
    // statistics.quantiles([5.0, 1.0], n=4) == [0.0, 3.0, 6.0]
    assert_eq!(quartiles(&[5.0, 1.0]).unwrap(), [0.0, 3.0, 6.0]);
    assert_eq!(
        quartiles(&[1.0]),
        Err(StatsError::TooFew { needed: 2, got: 1 })
    );
    assert_eq!(iqr_share(&v).unwrap(), (8.25 - 2.75) / 5.5);
    assert_eq!(iqr_share(&[2.0, 2.0, 2.0]).unwrap(), 0.0);
}

#[test]
fn percentiles_interpolate_between_ranks() {
    let v: Vec<f64> = (0..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 0.5).unwrap(), 50.0);
    assert_eq!(percentile(&v, 0.9).unwrap(), 90.0);
    let w: Vec<f64> = (1..=100).map(f64::from).collect();
    assert!((percentile(&w, 0.9).unwrap() - 90.1).abs() < 1e-9);
    assert_eq!(percentile(&w, 1.5), Err(StatsError::BadQuantile(1.5)));
}

#[test]
fn tail_percentiles_need_ten_samples_beyond() {
    assert_eq!(samples_beyond(100, 0.9), 10);
    assert_eq!(samples_beyond(99, 0.9), 9);
    assert_eq!(samples_beyond(1000, 0.99), 10);
    assert_eq!(samples_beyond(999, 0.99), 9);
    assert_eq!(samples_beyond(10, 0.5), 5);
    let v: Vec<f64> = (0..100).map(f64::from).collect();
    assert!(percentile(&v, 0.9).is_ok());
    assert_eq!(
        percentile(&v[..99], 0.9),
        Err(StatsError::ThinTail {
            q: 0.9,
            n: 99,
            beyond: 9
        })
    );
    // The median needs no tail.
    assert!(percentile(&v[..3], 0.5).is_ok());
}

#[test]
fn fold_min_keeps_the_fastest_repetition_of_each_position() {
    let mut best = Vec::new();
    assert!(fold_min(&mut best, &[3.0, 1.0, 2.0]));
    assert!(fold_min(&mut best, &[2.0, 4.0, 2.5]));
    assert_eq!(best, [2.0, 1.0, 2.0]);
    // A repetition of another length is folded where it overlaps and
    // reported.
    assert!(!fold_min(&mut best, &[1.0, 0.5]));
    assert_eq!(best, [1.0, 0.5, 2.0]);
    assert!(!fold_min(&mut best, &[9.0, 9.0, 9.0, 0.1]));
    assert_eq!(best, [1.0, 0.5, 2.0]);
}

#[test]
fn self_time_excludes_child_spans() {
    trace::set_enabled(true);
    trace::take();
    trace::span(Layer::RuntimeRun, || {
        trace::span(Layer::CoreFire, || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
    });
    trace::set_enabled(false);
    let acc = trace::take();
    let run = acc[Layer::RuntimeRun as usize];
    let fire = acc[Layer::CoreFire as usize];
    assert_eq!((run.count, fire.count), (1, 1));
    assert!(fire.total_ns >= 20_000_000);
    assert_eq!(run.self_ns, run.total_ns - fire.total_ns);
    assert!(run.self_ns < fire.total_ns);
    // Disabled spans record nothing.
    trace::span(Layer::RuntimeRun, || ());
    assert_eq!(trace::take()[Layer::RuntimeRun as usize].count, 0);
}

fn args(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

#[test]
fn options_parse_and_reject_bad_arguments() {
    let o = Options::parse(&args(
        "--workload fleet-drill --seed 7 --seconds 3 --trace 1",
    ))
    .unwrap();
    assert_eq!(
        (o.workload, o.seed, o.seconds, o.trace),
        ("fleet-drill", 7, 3.0, true)
    );
    let o = Options::parse(&args("--workload paper-repro")).unwrap();
    assert_eq!((o.seed, o.trace), (0, false));
    assert_eq!(
        Options::parse(&args("--seed 1")),
        Err(ArgError::Missing("--workload"))
    );
    assert_eq!(
        Options::parse(&args("--workload")),
        Err(ArgError::Missing("--workload"))
    );
    assert_eq!(
        Options::parse(&args("--bogus 1")),
        Err(ArgError::Unknown("--bogus".into()))
    );
    for bad in [
        "--workload nope",
        "--workload paper-repro --seed -1",
        "--workload paper-repro --seconds 0",
        "--workload paper-repro --seconds NaN",
        "--workload paper-repro --trace 2",
    ] {
        assert!(
            matches!(Options::parse(&args(bad)), Err(ArgError::BadValue { .. })),
            "{bad}"
        );
    }
}

#[test]
fn benchmark_json_lists_the_metrics_the_program_prints() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let b = Json::parse(&text).unwrap();
    let listed = |key: &str| -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = b.get(key) else {
            panic!("{key} is not an array")
        };
        items
            .iter()
            .map(|m| match (m.get("name"), m.get("unit")) {
                (Some(Json::Str(n)), Some(Json::Str(u))) => (n.clone(), u.clone()),
                _ => panic!("malformed {key} entry {m:?}"),
            })
            .collect()
    };
    let own = |v: &[(&str, &str)]| -> Vec<(String, String)> {
        v.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(&END_TO_END));
    assert_eq!(listed("per_layer"), own(&PER_LAYER));
}
