//! Fleet soak: hundreds of seeded habitat variants behind one sharded,
//! deterministic scheduler.
//!
//! Instantiates a fleet of ICAres-style habitats ([`FleetScenario`]: one
//! interned world/roster/schedule/context shared by every variant), fans the
//! `(habitat, badge, day)` work units across shards through the generalized
//! [`MissionEngine`] executor, and aggregates the per-shard
//! [`EngineMetrics`] into a fleet scorecard — badge-days/s, recorded bytes,
//! per-stage throughput — plus a CTMC availability drill of each shard's
//! replicated analysis service through the support crate's failure detector.
//!
//! Two verdicts are spliced into `BENCH_pipeline.json` as a top-level
//! `"fleet"` object and enforced by `bench_guard` behind `scripts/tier1.sh`:
//!
//! * `"badge_days"` ≥ 1,000 — the soak actually ran at fleet scale;
//! * `"fleet_deterministic"` — spot-checked habitats re-recorded and
//!   re-analyzed out of band (fresh runner, different worker counts) are
//!   byte-identical to what the sharded scheduler produced.
//!
//! A human-readable scorecard lands in `artifacts/fleet_scorecard.txt`, and
//! one compact line per run is appended to `artifacts/bench_history.jsonl`.
//!
//! ```text
//! cargo run --release -p ares-bench --bin fleet_soak [out.json]
//! FLEET_HABITATS=200 FLEET_SHARDS=4 FLEET_DAYS=1 …  # scale overrides
//! BENCH_TS=<unix-seconds> …                         # pins the history timestamp
//! ```

use ares_icares::{FleetScenario, FIRST_INSTRUMENTED_DAY};
use ares_simkit::time::SimDuration;
use ares_sociometrics::engine::MissionEngine;
use ares_sociometrics::fleet::{run_fleet, FleetConfig, FleetRun};
use ares_sociometrics::pipeline::MissionAnalysis;
use ares_sociometrics::report::{fleet_section, FleetShardRow};
use ares_support::bus::{Bus, Message, Topic};
use ares_support::failover::{drill_shard_availability, ShardAvailability};
use std::fmt::Write as _;

const SCORECARD_PATH: &str = "artifacts/fleet_scorecard.txt";
const HISTORY_PATH: &str = "artifacts/bench_history.jsonl";
/// Replicas per shard analysis service in the availability drill.
const DRILL_REPLICAS: u32 = 3;

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

fn rendered(analysis: &MissionAnalysis) -> String {
    serde_json::to_string(analysis).expect("mission analysis serializes")
}

/// Re-records and re-analyzes one habitat out of band — fresh runner sharing
/// only the interned deployment, explicit worker count — and returns the
/// serialized analysis for byte comparison against the scheduler's output.
fn probe(scenario: &FleetScenario, config: &FleetConfig, habitat: u32, workers: usize) -> String {
    let runner = scenario.open_runner(config, habitat);
    let days: Vec<_> = (config.first_day..=config.last_day)
        .map(|day| (day, runner.record_day_stores(day)))
        .collect();
    let engine = MissionEngine::with_workers(scenario.context().clone(), workers);
    rendered(&engine.analyze_days_stores(&days))
}

/// Spot-checks determinism: a handful of habitats, re-run standalone at
/// several worker counts, must be byte-identical to the sharded fleet run.
fn determinism_probe(scenario: &FleetScenario, config: &FleetConfig, run: &FleetRun) -> bool {
    let picks = [0, config.habitats / 2, config.habitats.saturating_sub(1)];
    let mut ok = true;
    let mut checked = Vec::new();
    for habitat in picks {
        if checked.contains(&habitat) {
            continue;
        }
        checked.push(habitat);
        let fleet_bytes = rendered(&run.outcomes[habitat as usize].analysis);
        for workers in [1usize, 4] {
            if probe(scenario, config, habitat, workers) != fleet_bytes {
                eprintln!("fleet: habitat {habitat} DIVERGED at {workers} worker(s)");
                ok = false;
            }
        }
    }
    ok
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_pipeline.json".to_string());

    let config = FleetConfig {
        seed: env_u64("FLEET_SEED", 0xF1EE7),
        habitats: env_u64("FLEET_HABITATS", 200) as u32,
        crews: env_u64("FLEET_CREWS", 8) as u32,
        first_day: FIRST_INSTRUMENTED_DAY,
        last_day: FIRST_INSTRUMENTED_DAY + env_u64("FLEET_DAYS", 1) as u32 - 1,
        shards: env_u64("FLEET_SHARDS", 4) as usize,
        workers: env_u64("FLEET_WORKERS", 1) as usize,
        batch: env_u64("FLEET_BATCH", 4) as usize,
    };

    eprintln!(
        "fleet: {} habitats × {} crew variants, days {}–{}, {} shards × {} workers…",
        config.habitats,
        config.crews,
        config.first_day,
        config.last_day,
        config.shards,
        config.workers,
    );
    let scenario = FleetScenario::icares();
    let run = run_fleet(&config, &scenario);
    let scorecard = &run.scorecard;

    eprintln!("fleet: determinism probe (standalone re-runs at 1 and 4 workers)…");
    let fleet_deterministic = determinism_probe(&scenario, &config, &run);

    // Availability drill: each shard's replicated analysis service against a
    // month of seeded exponential failures (mean 8 h up, 20 min repair),
    // observed through the real failure detector vs. the CTMC closed form.
    let drills: Vec<ShardAvailability> = (0..config.shards)
        .map(|shard| {
            drill_shard_availability(
                config.seed,
                shard,
                DRILL_REPLICAS,
                SimDuration::from_hours(8),
                SimDuration::from_mins(20),
                SimDuration::from_days(30),
                SimDuration::from_secs(30),
            )
        })
        .collect();

    // Shard health goes over the habitat bus like every other plane's.
    let bus = Bus::new();
    let fleet_sub = bus.subscribe(Topic::Fleet);
    for (report, drill) in run.shards.iter().zip(&drills) {
        bus.publish(
            Topic::Fleet,
            Message {
                from: format!("fleet-shard{:03}", report.shard),
                payload: format!(
                    "{{\"shard\": {}, \"habitats\": {}, \"badge_days\": {}, \
                     \"availability\": {:.6}}}",
                    report.shard, report.habitats, report.badge_days, drill.observed
                ),
            },
        );
    }
    let health_rows = fleet_sub.drain().len();
    assert_eq!(health_rows, run.shards.len(), "every shard reported health");

    let rows: Vec<FleetShardRow> = run
        .shards
        .iter()
        .zip(&drills)
        .map(|(r, d)| FleetShardRow {
            shard: r.shard,
            habitats: r.habitats,
            badge_days: r.badge_days,
            bytes: r.bytes,
            wall_s: r.wall_s,
            availability_observed: d.observed,
            availability_model: d.model,
            failovers: d.failovers,
        })
        .collect();
    let section = fleet_section(scorecard, &rows);
    if let Err(e) =
        std::fs::create_dir_all("artifacts").and_then(|()| std::fs::write(SCORECARD_PATH, &section))
    {
        eprintln!("warning: could not write {SCORECARD_PATH}: {e}");
    }

    let avail_obs_mean = drills.iter().map(|d| d.observed).sum::<f64>() / drills.len() as f64;
    let avail_model_mean = drills.iter().map(|d| d.model).sum::<f64>() / drills.len() as f64;
    let failovers: u64 = drills.iter().map(|d| d.failovers).sum();
    let member = ares_bench::artifact::render_member(
        "fleet",
        &[
            ("habitats", scorecard.config.habitats.to_string()),
            ("crews", scorecard.config.crews.to_string()),
            ("first_day", scorecard.config.first_day.to_string()),
            ("last_day", scorecard.config.last_day.to_string()),
            ("host_cores", ares_bench::artifact::host_cores().to_string()),
            ("shards", scorecard.config.shards.to_string()),
            ("workers", scorecard.config.workers.to_string()),
            ("badge_days", scorecard.badge_days.to_string()),
            ("bytes_recorded", scorecard.bytes_recorded.to_string()),
            ("wall_s", format!("{:.6}", scorecard.wall_s)),
            (
                "badge_days_per_s",
                format!("{:.2}", scorecard.badge_days_per_s),
            ),
            ("availability_observed", format!("{avail_obs_mean:.6}")),
            ("availability_ctmc", format!("{avail_model_mean:.6}")),
            ("drill_failovers", failovers.to_string()),
            ("fleet_deterministic", fleet_deterministic.to_string()),
        ],
    );
    ares_bench::artifact::splice_into_file(&out_path, "fleet", &member);

    // One compact line per run, appended forever.
    let ts = history_timestamp();
    let mut line = String::from("{");
    let _ = write!(
        line,
        "\"ts\": {ts}, \"fleet_habitats\": {}, \"fleet_badge_days\": {}, \
         \"fleet_wall_s\": {:.6}, \"fleet_badge_days_per_s\": {:.2}, \
         \"fleet_deterministic\": {fleet_deterministic}",
        scorecard.config.habitats,
        scorecard.badge_days,
        scorecard.wall_s,
        scorecard.badge_days_per_s,
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
        "fleet soak: {} badge-days over {} habitats in {:.2} s → {:.1} badge-days/s, \
         deterministic: {fleet_deterministic}",
        scorecard.badge_days,
        scorecard.config.habitats,
        scorecard.wall_s,
        scorecard.badge_days_per_s,
    );
    println!("wrote {out_path} and {SCORECARD_PATH}");
    assert!(
        fleet_deterministic,
        "fleet determinism probe failed — see {out_path} and stderr"
    );
}
