//! Scenario-generation soak: dozens of seeded, validated scenarios driven
//! through the full vertical slice.
//!
//! For each seed the soak generates a [`ScenarioSpec`], checks it against
//! the layout rulebook ([`ares_scenario::validate`]), assembles the
//! deployment through [`MissionRunner`] and proves the engine's invariants
//! hold on the *generated* geometry, not just the canonical Lunares world:
//!
//! * recording is bit-identical sequential vs. parallel vs. the reference
//!   recorder — the scalar tick loop over exact geometry — which pins both
//!   the [`RfFieldCache`] purity contract and the batched-kernel
//!   equivalence contract at once (`.to_bits()` RSSI equality, since the
//!   columnar stores compare byte for byte);
//! * batch analysis is bit-identical to the parallel mission engine;
//! * the streaming analyzer, checkpointed mid-feed and restored into a
//!   fresh instance, replays to byte-identical events and checkpoints.
//!
//! The verdicts are spliced into `BENCH_pipeline.json` as a top-level
//! `"scenario_gen"` object and enforced by `bench_guard` behind
//! `scripts/tier1.sh`:
//!
//! * `"scenarios_validated"` ≥ 25 — real scenario diversity, not a smoke;
//! * `"cache_purity_min"` — the worst per-plan field-cache
//!   `resolved_fraction` stays above its floor;
//! * `"deterministic"` — every scenario held every bit-identity above.
//!
//! A per-plan scorecard (including each plan's `resolved_fraction` report
//! row) lands in `artifacts/scenario_scorecard.txt`, and one compact line
//! per run is appended to `artifacts/bench_history.jsonl`.
//!
//! ```text
//! cargo run --release -p ares-bench --bin scenario_soak [out.json]
//! SCENARIO_COUNT=30 …   # scale override
//! BENCH_TS=<unix-seconds> …  # pins the history timestamp
//! ```

use ares_badge::records::{BadgeId, SamplingConfig};
use ares_icares::{MissionRunner, ScenarioConfig, FIRST_INSTRUMENTED_DAY};
use ares_scenario::{generate, validate};
use ares_sociometrics::engine::MissionEngine;
use ares_sociometrics::report::{scenario_section, ScenarioPlanRow};
use ares_sociometrics::streaming::{LiveEvent, StreamingAnalyzer};
use ares_support::ingest::TelemetryRecord;
use std::fmt::Write as _;
use std::time::Instant;

const SCORECARD_PATH: &str = "artifacts/scenario_scorecard.txt";
const HISTORY_PATH: &str = "artifacts/bench_history.jsonl";
/// Badges fed to the streaming replay probe per scenario (a genuine
/// multi-badge interleave while keeping each probe fast).
const STREAM_BADGES: usize = 3;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

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

fn apply_record(
    sa: &mut StreamingAnalyzer,
    badge: BadgeId,
    record: &TelemetryRecord,
    events: &mut Vec<LiveEvent>,
) {
    match record {
        TelemetryRecord::Scan(s) => events.extend(sa.ingest_scan(badge, s)),
        TelemetryRecord::Audio(a) => events.extend(sa.ingest_audio(badge, a)),
        TelemetryRecord::Imu(s) => events.extend(sa.ingest_imu(badge, s)),
        TelemetryRecord::Sync(s) => sa.ingest_sync(badge, s),
        _ => {}
    }
}

/// Streams the day's interleaved feed twice — uninterrupted, and
/// checkpointed at the midpoint then restored into a fresh analyzer — and
/// returns whether events and final checkpoint bytes are identical.
fn streaming_replay_identical(runner: &MissionRunner, day: u32) -> bool {
    let stores = runner.record_day_stores(day);
    let mut feed: Vec<(BadgeId, TelemetryRecord)> = Vec::new();
    for store in stores.iter().take(STREAM_BADGES) {
        let v = store.view();
        for s in v.beacon_scans() {
            feed.push((store.badge, TelemetryRecord::Scan(s)));
        }
        for a in v.audio_frames() {
            feed.push((store.badge, TelemetryRecord::Audio(a)));
        }
        for s in v.imu_samples() {
            feed.push((store.badge, TelemetryRecord::Imu(s)));
        }
        for s in v.sync_samples() {
            feed.push((store.badge, TelemetryRecord::Sync(s)));
        }
    }
    feed.sort_by_key(|(_, r)| r.t_local());
    let ctx = runner.pipeline().context().clone();
    let end = ares_simkit::time::SimTime::from_day_hms(day + 1, 0, 0, 0);

    let mut whole = StreamingAnalyzer::with_context(ctx.clone());
    let mut whole_events = Vec::new();
    for (badge, r) in &feed {
        apply_record(&mut whole, *badge, r, &mut whole_events);
    }

    let cut = feed.len() / 2;
    let mut first = StreamingAnalyzer::with_context(ctx.clone());
    let mut split_events = Vec::new();
    for (badge, r) in &feed[..cut] {
        apply_record(&mut first, *badge, r, &mut split_events);
    }
    let mid_at = feed[..cut]
        .last()
        .map_or(ares_simkit::time::SimTime::EPOCH, |(_, r)| r.t_local());
    let mid = first.checkpoint(mid_at);
    let mut resumed = StreamingAnalyzer::with_context(ctx);
    resumed.restore(&mid);
    for (badge, r) in &feed[cut..] {
        apply_record(&mut resumed, *badge, r, &mut split_events);
    }

    let whole_ckpt = serde_json::to_string(&whole.checkpoint(end));
    let split_ckpt = serde_json::to_string(&resumed.checkpoint(end));
    split_events == whole_events && whole_ckpt == split_ckpt
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_pipeline.json".to_string());
    let count = env_u64("SCENARIO_COUNT", 30);
    let day = FIRST_INSTRUMENTED_DAY;

    eprintln!("scenario_gen: {count} seeded scenarios, recording day {day}…");
    let t0 = Instant::now();
    let mut rows: Vec<ScenarioPlanRow> = Vec::new();
    let mut validated = 0u64;
    let mut all_deterministic = true;
    for seed in 0..count {
        let spec = generate(seed);
        let violations = validate(&spec);
        if violations.is_empty() {
            validated += 1;
        } else {
            eprintln!("scenario_gen: seed {seed} INVALID: {violations:?}");
        }
        let total_width = spec.habitat.total_width();
        let hall_depth = spec.habitat.hall_depth;
        let config = ScenarioConfig {
            truth_days: day,
            sampling: SamplingConfig::fleet(),
            ..ScenarioConfig::from_spec(spec)
        };
        let runner = MissionRunner::new(config);

        // Recording bit-identity: the batched field-cache kernel vs. the
        // scalar exact-geometry reference (the field-cache purity contract
        // on this plan's geometry), and sequential vs. parallel.
        let stores = runner.record_day_stores(day);
        let record_ok = runner.record_day_reference(day) == stores
            && runner.record_day_stores_parallel(day, 4) == stores;

        // Analysis bit-identity: batch fold vs. the parallel mission engine.
        let parallel = MissionEngine::with_workers(runner.pipeline().context_arc(), 4)
            .analyze_days_stores(&[(day, stores)]);
        let batch = serde_json::to_string(&runner.run_days(day, day, |_| {}));
        let analyze_ok = batch == serde_json::to_string(&parallel);

        // Streaming bit-identity: checkpoint/restore replay of the live feed.
        let stream_ok = streaming_replay_identical(&runner, day);

        let deterministic = record_ok && analyze_ok && stream_ok;
        if !deterministic {
            eprintln!(
                "scenario_gen: seed {seed} DIVERGED \
                 (record {record_ok}, analyze {analyze_ok}, stream {stream_ok})"
            );
            all_deterministic = false;
        }

        let cache = runner.world().field_cache();
        rows.push(ScenarioPlanRow {
            seed,
            total_width_m: total_width,
            hall_depth_m: hall_depth,
            pure_fraction: cache.pure_fraction(),
            resolved_fraction: cache.resolved_fraction(),
            violations: violations.len(),
            deterministic,
        });
    }
    let wall_s = t0.elapsed().as_secs_f64();

    let cache_purity_min = rows
        .iter()
        .map(|r| r.resolved_fraction)
        .fold(1.0f64, f64::min);
    let section = scenario_section(&rows);
    if let Err(e) =
        std::fs::create_dir_all("artifacts").and_then(|()| std::fs::write(SCORECARD_PATH, &section))
    {
        eprintln!("warning: could not write {SCORECARD_PATH}: {e}");
    }

    let member = ares_bench::artifact::render_member(
        "scenario_gen",
        &[
            ("scenarios", count.to_string()),
            ("scenarios_validated", validated.to_string()),
            ("cache_purity_min", format!("{cache_purity_min:.6}")),
            ("deterministic", all_deterministic.to_string()),
            ("wall_s", format!("{wall_s:.6}")),
            ("host_cores", ares_bench::artifact::host_cores().to_string()),
        ],
    );
    ares_bench::artifact::splice_into_file(&out_path, "scenario_gen", &member);

    let ts = history_timestamp();
    let mut line = String::from("{");
    let _ = write!(
        line,
        "\"ts\": {ts}, \"scenario_count\": {count}, \"scenario_validated\": {validated}, \
         \"scenario_cache_purity_min\": {cache_purity_min:.6}, \
         \"scenario_deterministic\": {all_deterministic}, \"scenario_wall_s\": {wall_s:.6}"
    );
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

    println!("{section}");
    println!(
        "scenario soak: {validated}/{count} validated, cache purity min {cache_purity_min:.5}, \
         deterministic: {all_deterministic}, {wall_s:.2} s"
    );
    println!("wrote {out_path} and {SCORECARD_PATH}");
    assert_eq!(validated, count, "generated scenarios failed validation");
    assert!(
        all_deterministic,
        "scenario determinism probe failed — see {out_path} and stderr"
    );
}
