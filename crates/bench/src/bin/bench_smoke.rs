//! Bench smoke: one fast, scriptable measurement of the simulation front end
//! and the staged engine.
//!
//! Records mission day 3 three ways — sequentially through the batched
//! field-cache kernel, fanned out per unit across threads, and through the
//! reference recorder (the scalar tick loop over exact geometry) — checks
//! all three store sets are bit-identical, then runs the columnar store
//! through the engine sequentially and with every available core, and checks
//! the two analyses agree bit for bit. Per-stage timings, the recording wall
//! times and speedup over the reference, the columnar store's memory
//! footprint and the verified determinism flags go to `BENCH_pipeline.json`
//! (or the path given as the first argument), and one compact line per run
//! is appended to `artifacts/bench_history.jsonl` so regressions are visible
//! across runs, not just against the last committed artifact.
//! `scripts/tier1.sh` runs this so every green build leaves a timing
//! artifact behind, and `bench_guard` then fails the build on a lost
//! determinism bit, a non-finite metric, or a kernel throughput regression.
//!
//! On a single-core host neither the parallel engine run nor the parallel
//! recording fan-out can demonstrate a wall-clock speedup, but both are
//! still *measured*, never fabricated: each runs with two workers
//! interleaved on the one core and the ratio (≈1.0 minus scheduling
//! overhead) is reported with its `interleaved` flag set, so it is never
//! read as a parallelism regression. The `speedup_measured` flags are true
//! either way — the numbers always come from two timed runs whose outputs
//! were checked bit-identical.
//!
//! Recording-plane metrics live only in the artifact's top-level `"record"`
//! block (spliced via the same brace-aware member splice the soak bins use),
//! where `bench_guard` enforces its determinism bit and `days_per_s` floor.
//!
//! Throughput is reported on two planes: `mission_days_per_s` is the
//! *analysis* rate (one recorded day through the seven-stage engine,
//! sequentially — the figure the batched kernels move), and
//! `e2e_days_per_s` folds in the simulation front end that produced the
//! telemetry (record + analyze).
//!
//! ```text
//! cargo run --release -p ares-bench --bin bench_smoke [out.json]
//! BENCH_TS=<unix-seconds> … # pins the history timestamp (reproducible CI)
//! ```

use ares_badge::telemetry::TelemetryStore;
use ares_icares::MissionRunner;
use ares_sociometrics::engine::{MissionEngine, Stage};
use ares_sociometrics::report::engine_section;
use std::fmt::Write as _;
use std::time::Instant;

const DAY: u32 = 3;
const HISTORY_PATH: &str = "artifacts/bench_history.jsonl";

fn history_timestamp() -> u64 {
    if let Some(ts) = std::env::var_os("BENCH_TS") {
        if let Some(parsed) = ts.to_str().and_then(|s| s.parse::<u64>().ok()) {
            return parsed;
        }
        eprintln!("BENCH_TS is not a unix-seconds integer; using wall clock");
    }
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_pipeline.json".to_string());

    let runner = MissionRunner::icares();
    let workers = ares_bench::artifact::host_cores();

    // --- Recording front end -----------------------------------------------
    // Warm-up run: builds the RF field cache and faults in the truth tables
    // so the timed runs measure steady-state recording, not setup.
    eprintln!("recording mission day {DAY} (warm-up)…");
    let warm = runner.record_day_stores(DAY);

    eprintln!("recording day {DAY}: sequential, cached…");
    let t0 = Instant::now();
    let stores = runner.record_day_stores(DAY);
    let record_wall_s = t0.elapsed().as_secs_f64();
    assert_eq!(
        warm, stores,
        "recording is not reproducible across repeated runs"
    );
    drop(warm);

    // Fan out across at least two threads so the parallel merge path is
    // exercised (and its determinism verified) even on a single-core host.
    // Like the engine below, a single core cannot show a wall-clock speedup —
    // the two workers run interleaved and the honestly measured ratio lands
    // near 1.0 (minus scheduling overhead), flagged `record_interleaved` so
    // it is never read as a parallelism regression.
    let record_interleaved = workers == 1;
    let record_workers = workers.max(2);
    eprintln!("recording day {DAY}: parallel, cached @{record_workers} workers…");
    let t0 = Instant::now();
    let par_stores = runner.record_day_stores_parallel(DAY, record_workers);
    let record_parallel_wall_s = t0.elapsed().as_secs_f64();
    let parallel_identical = par_stores == stores;
    assert!(
        parallel_identical,
        "determinism violated: parallel recording differs from sequential"
    );
    drop(par_stores);
    let record_speedup = if record_parallel_wall_s > 0.0 {
        record_wall_s / record_parallel_wall_s
    } else {
        0.0
    };
    let record_speedup_measured = true;

    eprintln!("recording day {DAY}: reference (scalar, exact geometry)…");
    let t0 = Instant::now();
    let reference_stores = runner.record_day_reference(DAY);
    let record_reference_wall_s = t0.elapsed().as_secs_f64();
    let reference_identical = reference_stores == stores;
    assert!(
        reference_identical,
        "batched kernel drifted: recording differs from the exact reference"
    );
    drop(reference_stores);

    let record_deterministic = parallel_identical && reference_identical;
    let record_speedup_vs_reference = if record_wall_s > 0.0 {
        record_reference_wall_s / record_wall_s
    } else {
        0.0
    };
    // Recording-plane throughput: mission days recorded per second through
    // the batched kernel (the figure the tier-1 floor guards).
    let record_days_per_s = if record_wall_s > 0.0 {
        1.0 / record_wall_s
    } else {
        0.0
    };

    // --- Analysis engine ----------------------------------------------------
    let store_bytes: u64 = stores.iter().map(TelemetryStore::mem_bytes).sum();
    let ctx = runner.pipeline().context().clone();

    // Warm-up pass on a throwaway engine (first pass pays the allocator).
    let _ = MissionEngine::with_workers(ctx.clone(), 1).analyze_day_stores(DAY, &stores);

    let sequential_engine = MissionEngine::with_workers(ctx.clone(), 1);
    let t0 = Instant::now();
    let sequential = sequential_engine.analyze_day_stores(DAY, &stores);
    let seq_wall_s = t0.elapsed().as_secs_f64();
    let metrics = sequential_engine.metrics();

    // One hardware thread cannot show a wall-clock speedup, but the parallel
    // engine path still deserves a real measurement: run it with two workers
    // interleaved on the single core. The ratio honestly lands near 1.0
    // (minus scheduling overhead) and the determinism check still bites.
    let interleaved = workers == 1;
    let engine_workers = if interleaved { 2 } else { workers };
    let parallel_engine = MissionEngine::with_workers(ctx, engine_workers);
    let t0 = Instant::now();
    let parallel = parallel_engine.analyze_day_stores(DAY, &stores);
    let par_wall_s = t0.elapsed().as_secs_f64();
    let deterministic = parallel == sequential;
    assert!(
        deterministic,
        "determinism violated: parallel day differs from sequential"
    );
    let speedup = if par_wall_s > 0.0 {
        seq_wall_s / par_wall_s
    } else {
        0.0
    };
    let speedup_measured = true;

    // Analysis-plane throughput: one recorded mission day through the staged
    // engine, sequentially. End-to-end folds in the recording front end.
    let mission_days_per_s = if seq_wall_s > 0.0 {
        1.0 / seq_wall_s
    } else {
        0.0
    };
    let e2e_days_per_s = if record_wall_s + seq_wall_s > 0.0 {
        1.0 / (record_wall_s + seq_wall_s)
    } else {
        0.0
    };

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"day\": {DAY},");
    let _ = writeln!(json, "  \"workers\": {workers},");
    let _ = writeln!(json, "  \"mission_days_per_s\": {mission_days_per_s:.6},");
    let _ = writeln!(json, "  \"e2e_days_per_s\": {e2e_days_per_s:.6},");
    let _ = writeln!(json, "  \"sequential_wall_s\": {seq_wall_s:.6},");
    let _ = writeln!(json, "  \"parallel_wall_s\": {par_wall_s:.6},");
    let _ = writeln!(json, "  \"engine_workers\": {engine_workers},");
    let _ = writeln!(json, "  \"speedup\": {speedup:.4},");
    let _ = writeln!(json, "  \"speedup_measured\": {speedup_measured},");
    let _ = writeln!(json, "  \"interleaved\": {interleaved},");
    let _ = writeln!(json, "  \"deterministic\": {deterministic},");
    let _ = writeln!(json, "  \"store_bytes\": {store_bytes},");
    json.push_str("  \"stages\": {\n");
    for (i, stage) in Stage::ALL.into_iter().enumerate() {
        let m = metrics.get(stage);
        let comma = if i + 1 < Stage::ALL.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    \"{}\": {{\"calls\": {}, \"records_in\": {}, \"items_out\": {}, \
             \"wall_s\": {:.6}, \"records_per_s\": {:.1}}}{comma}",
            stage.label(),
            m.calls,
            m.records_in,
            m.items_out,
            m.wall_s,
            m.records_per_s(),
        );
    }
    json.push_str("  }\n}\n");
    std::fs::write(&out_path, &json).expect("write bench artifact");

    // The recording plane gets its own top-level block, spliced through
    // the shared brace-aware helper like every soak bin's member — so later
    // writers (ingest, fleet, scenario) and re-runs of this bin compose
    // without clobbering each other, and `bench_guard` reads one place.
    let record_member = ares_bench::artifact::render_member(
        "record",
        &[
            ("day", DAY.to_string()),
            ("host_cores", workers.to_string()),
            ("wall_s", format!("{record_wall_s:.6}")),
            ("parallel_wall_s", format!("{record_parallel_wall_s:.6}")),
            ("reference_wall_s", format!("{record_reference_wall_s:.6}")),
            ("workers", record_workers.to_string()),
            ("interleaved", record_interleaved.to_string()),
            ("speedup", format!("{record_speedup:.4}")),
            ("speedup_measured", record_speedup_measured.to_string()),
            (
                "speedup_vs_reference",
                format!("{record_speedup_vs_reference:.4}"),
            ),
            ("days_per_s", format!("{record_days_per_s:.6}")),
            ("deterministic", record_deterministic.to_string()),
        ],
    );
    ares_bench::artifact::splice_into_file(&out_path, "record", &record_member);

    // One compact line per run, appended forever: the across-runs record the
    // single-artifact snapshot cannot give.
    let ts = history_timestamp();
    let mut line = String::from("{");
    let _ = write!(line, "\"ts\": {ts}, \"day\": {DAY}, \"workers\": {workers}");
    let _ = write!(
        line,
        ", \"record_wall_s\": {record_wall_s:.6}, \
         \"record_parallel_wall_s\": {record_parallel_wall_s:.6}, \
         \"record_days_per_s\": {record_days_per_s:.6}, \
         \"record_speedup\": {record_speedup:.4}, \
         \"record_interleaved\": {record_interleaved}, \
         \"sequential_wall_s\": {seq_wall_s:.6}"
    );
    let _ = write!(
        line,
        ", \"parallel_wall_s\": {par_wall_s:.6}, \"speedup\": {speedup:.4}, \
         \"interleaved\": {interleaved}"
    );
    let _ = write!(
        line,
        ", \"mission_days_per_s\": {mission_days_per_s:.6}, \
         \"e2e_days_per_s\": {e2e_days_per_s:.6}"
    );
    for stage in Stage::ALL {
        let m = metrics.get(stage);
        let _ = write!(
            line,
            ", \"{}_wall_s\": {:.6}, \"{}_records_per_s\": {:.1}",
            stage.label(),
            m.wall_s,
            stage.label(),
            m.records_per_s(),
        );
    }
    line.push_str("}\n");
    if let Err(e) = std::fs::create_dir_all("artifacts").and_then(|()| {
        use std::io::Write as _;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(HISTORY_PATH)
            .and_then(|mut f| f.write_all(line.as_bytes()))
    }) {
        eprintln!("warning: could not append {HISTORY_PATH}: {e}");
    }

    println!("{}", engine_section(&metrics));
    println!(
        "record day {DAY}: batched {record_wall_s:.2} s ({record_days_per_s:.2} day(s)/s), \
         parallel {record_parallel_wall_s:.2} s @{record_workers} worker(s) \
         → speedup {record_speedup:.2}×{}, reference {record_reference_wall_s:.2} s \
         → {record_speedup_vs_reference:.2}× over the reference",
        if record_interleaved {
            " (interleaved on one core)"
        } else {
            ""
        }
    );
    println!(
        "analyze day {DAY}: sequential {seq_wall_s:.2} s, parallel {par_wall_s:.2} s \
         @{engine_workers} worker(s) → speedup {speedup:.2}×{}",
        if interleaved {
            " (interleaved on one core)"
        } else {
            ""
        }
    );
    println!(
        "throughput: {mission_days_per_s:.3} mission day(s)/s analyzed, \
         {e2e_days_per_s:.3} day(s)/s end to end"
    );
    println!(
        "telemetry footprint: columnar store {:.1} MiB",
        store_bytes as f64 / (1024.0 * 1024.0),
    );
    println!("wrote {out_path}");
}
