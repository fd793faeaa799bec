//! The `ares` benchmark: one command runs a named workload from one process
//! and prints its end-to-end metrics (untraced) or per-layer metrics (traced)
//! as the last line of standard output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mission_batch --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root: the metric names and units are read from
//! `BENCHMARK.json` there, and traced runs write their spans under
//! `perfbench/out/`. See `perfbench/README.md` for the workloads, metrics
//! and checks.

mod common;
mod fleet;
mod ingest;
mod mission;
mod stats;
mod trace;

use ares_bench::artifact::{self, Json};
use ares_sociometrics::engine::{EngineMetrics, Stage};
use common::{Env, Phase};
use stats::Summary;
use std::collections::BTreeMap;
use std::process::ExitCode;
use trace::{Span, Tracer};

const WORKLOADS: [&str; 4] = [
    "mission_batch",
    "archive_analysis",
    "ingest_replay",
    "fleet_soak",
];

/// The layers spans are recorded for, by crate/module name.
const LAYERS: [&str; 7] = [
    "icares",
    "crew",
    "habitat",
    "badge",
    "core.engine",
    "core.fleet",
    "support.ingest",
];

/// Timings reported as median and n, from spans `(layer, op)` or, for the
/// ones spans cannot isolate, from the workload's own samples.
const SPAN_TIMINGS: [(&str, &str, &str); 7] = [
    ("icares.runner_build_s", "icares", "runner_build"),
    (
        "habitat.field_cache_build_s",
        "habitat",
        "field_cache_build",
    ),
    ("crew.truth_open_s", "crew", "truth_open"),
    ("badge.record_day_s", "badge", "record_day"),
    ("core.engine.analyze_day_s", "core.engine", "analyze_day"),
    ("core.engine.badge_day_s", "core.engine", "badge_day"),
    ("support.ingest.spawn_s", "support.ingest", "spawn"),
];
const SAMPLE_TIMINGS: [&str; 3] = [
    "support.ingest.submit_us",
    "support.ingest.finish_s",
    "core.fleet.shard_wall_s",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .filter(|k| ["workload", "seed", "seconds", "trace"].contains(k))
            .ok_or_else(|| format!("unknown argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        kv.insert(key, value);
    }
    let get = |k: &str| {
        kv.get(k)
            .copied()
            .ok_or_else(|| format!("--{k} is required"))
    };
    let workload = get("workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Declared metrics `(name, unit)` of one section of `BENCHMARK.json`.
fn declared(doc: &Json, section: &str) -> Result<Vec<(String, String)>, String> {
    let Some(Json::Arr(items)) = doc.get(section) else {
        return Err(format!("BENCHMARK.json has no {section} list"));
    };
    items
        .iter()
        .map(|m| match (m.get("name"), m.get("unit")) {
            (Some(Json::Str(n)), Some(Json::Str(u))) => Ok((n.clone(), u.clone())),
            _ => Err(format!("malformed metric in {section}")),
        })
        .collect()
}

/// Threads doing the timed work of a workload, by role.
fn threads(workload: &str, cores: usize) -> Vec<(&'static str, usize)> {
    match workload {
        "mission_batch" => vec![("caller", 1), ("engine_workers", 1)],
        "archive_analysis" => vec![("caller", 1), ("engine_workers", cores)],
        "ingest_replay" => vec![("producer", 1), ("shards", ingest::shards(cores))],
        _ => vec![("shards", cores), ("engine_workers_per_shard", 1)],
    }
}

/// Threads whose time the badge layer shares (for `badge.record_share`).
fn record_threads(workload: &str, cores: usize) -> usize {
    if workload == "fleet_soak" {
        cores
    } else {
        1
    }
}

fn run_phase(args: &Args, cores: usize, tr: &Tracer) -> Phase {
    let env = Env {
        seed: args.seed,
        seconds: args.seconds,
        cores,
        tr,
    };
    match args.workload.as_str() {
        "mission_batch" => mission::mission_batch(&env),
        "archive_analysis" => mission::archive_analysis(&env),
        "ingest_replay" => ingest::ingest_replay(&env),
        _ => fleet::fleet_soak(&env),
    }
}

/// Output digests recorded from this benchmark at each scenario's default
/// seed (`ScenarioConfig::default().seed` for the mission and ingest paths,
/// `FleetConfig::default().seed` for the fleet): `(check, seed, digest)`.
const RECORDED_DIGESTS: [(&str, u64, u64); 3] = [
    ("mission", 0x1C_A7E5, 0xd71b_b801_4b8d_ce7e),
    ("ingest", 0x1C_A7E5, 0x7102_be2f_3f79_2fe1),
    ("fleet", 0xF_1EE7, 0x149e_4393_59d4_1a92),
];

/// Whether `digest` matches the one recorded for `(check, seed)`, if any;
/// prints the digest and both check outcomes for the operator.
pub fn recorded_digest_ok(check: &str, seed: u64, digest: u64, cross_ok: bool) -> bool {
    let recorded = RECORDED_DIGESTS
        .iter()
        .find(|(c, s, _)| *c == check && *s == seed)
        .map(|&(_, _, d)| d);
    let ok = recorded.is_none_or(|d| d == digest);
    let verdict = |b: bool| if b { "ok" } else { "MISMATCH" };
    eprintln!(
        "check {check}: digest {digest:#018x}, recorded digest {}, cross-check {}",
        recorded.map_or("none for this seed", |_| verdict(ok)),
        verdict(cross_ok),
    );
    ok
}

/// Per-stage engine time and input records per analyzed day,
/// `core.engine.<stage>_{s,records_in}`; set `phase.days` first.
pub fn set_stage_metrics(phase: &mut Phase, metrics: &EngineMetrics) {
    for stage in Stage::ALL {
        let m = metrics.get(stage);
        let label = stage.label().replace('-', "_");
        phase.set(&format!("core.engine.{label}_s"), phase.per_day(m.wall_s));
        phase.set(
            &format!("core.engine.{label}_records_in"),
            phase.per_day(m.records_in as f64),
        );
    }
}

/// The end-to-end metrics of one phase.
fn end_to_end(phase: &Phase) -> BTreeMap<String, f64> {
    BTreeMap::from([
        (
            "setup_s".to_string(),
            stats::median(&phase.setup_s).unwrap_or(0.0),
        ),
        ("records_per_s".to_string(), phase.records_per_s()),
        ("peak_rss_mib".to_string(), phase.peak_rss_mib),
    ])
}

/// The per-layer metrics of a traced phase, with the tracing overhead
/// measured against the untraced phase that ran before it. Returns the
/// metrics and a human-readable report.
fn per_layer(
    args: &Args,
    cores: usize,
    traced: &Phase,
    untraced: &Phase,
    spans: &[Span],
    main_thread: u32,
) -> (BTreeMap<String, f64>, String) {
    let mut out: BTreeMap<String, f64> = traced.layer.clone();
    let mut report = format!("{} seed {}, host_cores {cores}\n", args.workload, args.seed);
    let mut timing = |name: &str, samples: &[f64], unit: &str| {
        let summary = Summary::of(samples);
        out.insert(name.to_string(), summary.map_or(0.0, |s| s.p50));
        out.insert(format!("{name}.n"), samples.len() as f64);
        let text = summary.map_or_else(|| "n 0".to_string(), |s| s.describe(unit));
        report.push_str(&format!("  {name:<36} {text}\n"));
    };
    for (name, layer, op) in SPAN_TIMINGS {
        timing(name, &trace::durations_s(spans, layer, op), "s");
    }
    for name in SAMPLE_TIMINGS {
        let samples = traced.samples.get(name).map_or(&[][..], Vec::as_slice);
        timing(
            name,
            samples,
            if name.ends_with("_us") { "us" } else { "s" },
        );
    }

    let self_s = trace::layer_self_s(spans);
    for layer in LAYERS.iter().chain([&trace::HARNESS]) {
        out.insert(
            format!("{layer}.self_s"),
            self_s.get(layer).copied().unwrap_or(0.0),
        );
    }
    let timed_wall: f64 = traced.iters.iter().map(|i| i.wall_s).sum();
    let record_busy: f64 = trace::durations_s(spans, "badge", "record_day")
        .iter()
        .sum();
    out.insert("badge.record_busy_s".into(), traced.per_day(record_busy));
    out.insert(
        "badge.record_share".into(),
        record_busy / (record_threads(&args.workload, cores) as f64 * timed_wall),
    );
    // Both per analyzed day, so their ratio is records per busy second.
    let records_out = out.get("badge.records_out").copied().unwrap_or(0.0);
    out.insert(
        "badge.records_per_s".into(),
        if record_busy > 0.0 {
            records_out / traced.per_day(record_busy)
        } else {
            0.0
        },
    );

    let accounted = trace::thread_self_s(spans, main_thread);
    out.insert("trace.wall_s".into(), traced.wall_s);
    out.insert("trace.accounted_frac".into(), accounted / traced.wall_s);
    out.insert("trace.spans".into(), spans.len() as f64);
    let (t, u) = (end_to_end(traced), end_to_end(untraced));
    for (metric, higher_is_better) in [("setup_s", false), ("records_per_s", true)] {
        let (t, u) = (t[metric], u[metric]);
        let overhead = if higher_is_better {
            u / t - 1.0
        } else {
            t / u - 1.0
        };
        out.insert(format!("trace.overhead.{metric}"), overhead);
    }
    // Memory the traced phase keeps for its measurements: the span buffer
    // and the per-call samples.
    let buffer_bytes = std::mem::size_of_val(spans)
        + traced
            .samples
            .values()
            .map(|v| std::mem::size_of_val(v.as_slice()))
            .sum::<usize>();
    out.insert(
        "trace.buffer_mib".into(),
        buffer_bytes as f64 / (1024.0 * 1024.0),
    );
    (out, report)
}

/// Renders the result line: every declared metric, in declared order. A
/// declared metric with no value is an error unless `absent_is_zero` (a
/// per-layer metric of a layer the workload never enters).
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    declared: &[(String, String)],
    values: &BTreeMap<String, f64>,
    absent_is_zero: bool,
) -> Result<String, String> {
    if let Some(extra) = values
        .keys()
        .find(|k| !declared.iter().any(|(n, _)| n == *k))
    {
        return Err(format!(
            "metric {extra:?} is not declared in BENCHMARK.json"
        ));
    }
    let mut metrics = Vec::new();
    for (name, unit) in declared {
        let value = match values.get(name) {
            Some(&v) => v,
            None if absent_is_zero => 0.0,
            None => return Err(format!("no value for end-to-end metric {name}")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = artifact::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let declared = declared(&doc, section)?;
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let untraced = run_phase(&args, cores, &Tracer::new(false));
    let (mut attempted, mut failed) = (untraced.attempted, untraced.failed);
    let values = if args.trace {
        let main_thread = trace::current_thread();
        let tracer = Tracer::new(true);
        let traced = run_phase(&args, cores, &tracer);
        attempted += traced.attempted;
        failed += traced.failed;
        let spans = tracer.spans();
        let (values, report) = per_layer(&args, cores, &traced, &untraced, &spans, main_thread);
        let dir = std::path::Path::new("perfbench/out");
        let stem = format!("{}-seed{}", args.workload, args.seed);
        std::fs::create_dir_all(dir)
            .and_then(|()| {
                std::fs::write(
                    dir.join(format!("{stem}.spans.jsonl")),
                    trace::render(&spans),
                )
            })
            .and_then(|()| std::fs::write(dir.join(format!("{stem}.timings.txt")), &report))
            .map_err(|e| format!("writing the trace: {e}"))?;
        eprintln!("per-layer timings ({}):\n{report}", args.workload);
        values
    } else {
        end_to_end(&untraced)
    };

    let failed_frac = failed as f64 / attempted.max(1) as f64;
    let roles: Vec<String> = threads(&args.workload, cores)
        .iter()
        .map(|(role, n)| format!("\"{role}\": {n}"))
        .collect();
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"host_cores\": {cores}, \
         \"threads\": {{{}}}, \"failed_frac\": {failed_frac}}}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        roles.join(", ")
    );
    let correct = failed == 0 && attempted > 0;
    println!(
        "{}",
        result_line(correct, attempted, failed, &declared, &values, args.trace)?
    );
    Ok(correct)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("output checks failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared_pair() -> Vec<(String, String)> {
        vec![("b_s".into(), "s".into()), ("a".into(), "count".into())]
    }

    #[test]
    fn result_line_lists_every_declared_metric_in_order() {
        let values = BTreeMap::from([("a".to_string(), 3.0), ("b_s".to_string(), 0.125)]);
        let line = result_line(true, 4, 0, &declared_pair(), &values, false).expect("renders");
        let doc = artifact::parse(&line).expect("valid JSON");
        let Some(Json::Obj(members)) = doc.get("metrics") else {
            panic!("no metrics object in {line}");
        };
        let names: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["b_s", "a"]);
        assert_eq!(
            doc.path(&["metrics", "b_s", "value"]).and_then(Json::num),
            Some(0.125)
        );
        assert_eq!(doc.get("attempted").and_then(Json::num), Some(4.0));
        let Json::Obj(top) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }

    #[test]
    fn result_line_rejects_undeclared_and_missing_metrics() {
        let extra = BTreeMap::from([("a".to_string(), 1.0), ("zzz".to_string(), 1.0)]);
        assert!(result_line(true, 1, 0, &declared_pair(), &extra, true).is_err());
        let partial = BTreeMap::from([("a".to_string(), 1.0)]);
        assert!(result_line(true, 1, 0, &declared_pair(), &partial, false).is_err());
        let line = result_line(true, 1, 0, &declared_pair(), &partial, true).expect("renders");
        assert!(line.contains("\"b_s\": {\"value\": 0, \"unit\": \"s\"}"));
        let nan = BTreeMap::from([("a".to_string(), f64::NAN), ("b_s".to_string(), 1.0)]);
        assert!(result_line(true, 1, 0, &declared_pair(), &nan, false).is_err());
    }

    #[test]
    fn declared_metrics_match_the_benchmark_file() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark");
        let doc = artifact::parse(&text).expect("valid JSON");
        let e2e = declared(&doc, "end_to_end").expect("end_to_end list");
        let names: Vec<&str> = e2e.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["setup_s", "records_per_s", "peak_rss_mib"]);
        let layer = declared(&doc, "per_layer").expect("per_layer list");
        for (name, _, _) in SPAN_TIMINGS {
            assert!(layer.iter().any(|(n, _)| n == name), "{name} undeclared");
        }
        for name in SAMPLE_TIMINGS {
            assert!(layer.iter().any(|(n, _)| n == name), "{name} undeclared");
        }
    }
}
