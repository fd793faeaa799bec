//! `mission_batch` and `archive_analysis`: the canonical ICAres-1 (Lunares)
//! mission, days 2–14, through the offline record → analyze pipeline.

use crate::common::{
    digest, peak_rss_mib, repeated_setup, sample_index, timed_loop, Env, Iter, Phase,
};
use crate::trace::{SpanId, Tracer};
use ares_badge::records::BadgeId;
use ares_badge::telemetry::TelemetryStore;
use ares_crew::schedule::MISSION_DAYS;
use ares_icares::{MissionRunner, ScenarioConfig, FIRST_INSTRUMENTED_DAY};
use ares_sociometrics::engine::{
    analyze_badge_day, assemble_day, EngineMetrics, MissionContext, MissionEngine,
};
use ares_sociometrics::pipeline::{BadgeDay, DayAnalysis, MissionAnalysis};
use std::time::Instant;

fn days() -> impl Iterator<Item = u32> {
    FIRST_INSTRUMENTED_DAY..=MISSION_DAYS
}

fn mission_days() -> u64 {
    u64::from(MISSION_DAYS - FIRST_INSTRUMENTED_DAY + 1)
}

fn records(stores: &[TelemetryStore]) -> u64 {
    stores.iter().map(|s| s.record_count() as u64).sum()
}

fn store_bytes(stores: &[TelemetryStore]) -> u64 {
    stores.iter().map(TelemetryStore::mem_bytes).sum()
}

/// Runner build and the lazy RF field-cache build, in their layers' spans.
fn build_runner(env: &Env<'_>, root: Option<SpanId>) -> (MissionRunner, f64) {
    let tr = env.tr;
    let runner = tr.scope("icares", "runner_build", root, |_| {
        MissionRunner::new(ScenarioConfig {
            seed: env.seed,
            ..ScenarioConfig::default()
        })
    });
    let cache = tr.scope("habitat", "field_cache_build", root, |_| {
        runner.world().field_cache_arc()
    });
    (runner, cache.resolved_fraction())
}

/// Analyzes one day the way the traced run does it: the public per-badge
/// kernel and day assembly, each in its own span, with the stage split
/// taken from the `EngineMetrics` they fill.
fn analyze_day_traced(
    tr: &Tracer,
    ctx: &MissionContext,
    day: u32,
    stores: &[TelemetryStore],
    metrics: &mut EngineMetrics,
    parent: Option<SpanId>,
) -> DayAnalysis {
    let badges: Vec<BadgeDay> = stores
        .iter()
        .filter(|s| s.badge != BadgeId::REFERENCE)
        .map(|s| {
            tr.scope("core.engine", "badge_day", parent, |_| {
                analyze_badge_day(ctx, day, s.view(), metrics)
            })
        })
        .collect();
    tr.scope("core.engine", "assemble", parent, |_| {
        assemble_day(ctx, day, stores, badges, metrics)
    })
}

/// Engine-side per-layer values shared by both mission workloads; set
/// `phase.days` first.
fn engine_layer(phase: &mut Phase, metrics: &EngineMetrics, workers: usize, analysis_wall_s: f64) {
    crate::set_stage_metrics(phase, metrics);
    if analysis_wall_s > 0.0 {
        phase.set(
            "core.engine.worker_busy_frac",
            metrics.total_wall_s() / (workers as f64 * analysis_wall_s),
        );
    }
}

/// `mission_batch`: one caller thread records a day, then a 1-worker
/// engine analyzes it, day by day, in whole passes over the mission. Each
/// day is one sample.
pub fn mission_batch(env: &Env<'_>) -> Phase {
    let tr = env.tr;
    let mut phase = Phase::default();
    let phase_t0 = Instant::now();
    let ((runner, resolved), setup_s) = repeated_setup(tr, |root| build_runner(env, root));
    phase.setup_s = setup_s;
    phase.set("habitat.field_cache_resolved_fraction", resolved);
    let ctx = runner.pipeline().context_arc();
    let engine = MissionEngine::with_workers(ctx.clone(), 1);
    let sampled_day = days()
        .nth(sample_index(env.seed, days().count()))
        .expect("in range");

    let mut metrics = EngineMetrics::new();
    // Digests only, so that memory does not grow with the passes run.
    let mut passes: Vec<u64> = Vec::new();
    let mut sampled: Option<DayAnalysis> = None;
    let (mut analyze_s, mut records_out, mut max_bytes) = (0.0, 0u64, 0u64);
    let iters = tr.scope(crate::trace::HARNESS, "timed", None, |root| {
        timed_loop(env.seconds, 1, || {
            let mut mission = MissionAnalysis::new(&ctx.plan);
            let mut samples = Vec::new();
            for day in days() {
                let t0 = Instant::now();
                let stores = tr.scope("badge", "record_day", root, |_| {
                    runner.record_day_stores(day)
                });
                let n_records = records(&stores);
                let t_an = Instant::now();
                let analysis = tr.scope("core.engine", "analyze_day", root, |day_span| {
                    let a = if tr.enabled() {
                        analyze_day_traced(tr, &ctx, day, &stores, &mut metrics, day_span)
                    } else {
                        engine.analyze_day_stores(day, &stores)
                    };
                    mission.account_recorded(stores.iter().map(|s| s.bytes_written).sum());
                    a
                });
                analyze_s += t_an.elapsed().as_secs_f64();
                if passes.is_empty() && day == sampled_day {
                    sampled = Some(analysis.clone());
                }
                max_bytes = max_bytes.max(store_bytes(&stores));
                tr.scope("core.engine", "absorb", root, |_| mission.absorb(analysis));
                records_out += n_records;
                samples.push(Iter {
                    records: n_records as f64,
                    wall_s: t0.elapsed().as_secs_f64(),
                });
            }
            passes.push(digest(&mission));
            samples
        })
    });
    phase.peak_rss_mib = peak_rss_mib();
    phase.wall_s = phase_t0.elapsed().as_secs_f64();

    // Checks, outside the timed region: every pass reproduces the first, the
    // default seed reproduces its recorded digest, and the sampled day,
    // re-recorded on the parallel path and analyzed at another worker count,
    // matches the timed run's analysis of it.
    let first = passes[0];
    let bad_passes = passes.iter().filter(|&&d| d != first).count() as u64;
    let stores = runner.record_day_stores_parallel(sampled_day, env.cores.max(2));
    let again = MissionEngine::with_workers(ctx.clone(), env.cores.max(2))
        .analyze_day_stores(sampled_day, &stores);
    let unit_ok = sampled
        .as_ref()
        .is_some_and(|a| digest(a) == digest(&again));
    let default_ok = crate::recorded_digest_ok("mission", env.seed, first, unit_ok);
    let n_days = passes.len() as u64 * mission_days();
    let bad = if default_ok && unit_ok {
        bad_passes * mission_days()
    } else {
        n_days
    };
    phase.ops(n_days, bad);
    phase.days = n_days;

    if !tr.enabled() {
        metrics = engine.metrics();
    }
    engine_layer(&mut phase, &metrics, 1, analyze_s);
    phase.set("badge.records_out", phase.per_day(records_out as f64));
    phase.set("badge.store_bytes", max_bytes as f64);
    phase.iters = iters;
    phase
}

/// `archive_analysis`: days 2–14 are recorded during set-up and held; the
/// engine re-analyzes the whole archive at `cores` workers, pass after pass.
pub fn archive_analysis(env: &Env<'_>) -> Phase {
    let tr = env.tr;
    let workers = env.cores;
    let mut phase = Phase::default();
    let phase_t0 = Instant::now();
    let ((runner, resolved, archive), setup_s) = repeated_setup(tr, |root| {
        let (runner, resolved) = build_runner(env, root);
        let archive: Vec<(u32, Vec<TelemetryStore>)> = days()
            .map(|day| {
                let stores = tr.scope("badge", "prerecord_day", root, |_| {
                    runner.record_day_stores_parallel(day, workers)
                });
                (day, stores)
            })
            .collect();
        (runner, resolved, archive)
    });
    phase.setup_s = setup_s;
    phase.set("habitat.field_cache_resolved_fraction", resolved);
    let ctx = runner.pipeline().context_arc();
    let engine = MissionEngine::with_workers(ctx.clone(), workers);
    let n_records: u64 = archive.iter().map(|(_, s)| records(s)).sum();

    let mut passes: Vec<u64> = Vec::new();
    let iters = tr.scope(crate::trace::HARNESS, "timed", None, |root| {
        timed_loop(env.seconds, 1, || {
            let t0 = Instant::now();
            let mission = tr.scope("core.engine", "pass", root, |_| {
                engine.analyze_days_stores(&archive)
            });
            let wall_s = t0.elapsed().as_secs_f64();
            passes.push(digest(&mission));
            vec![Iter {
                records: n_records as f64,
                wall_s,
            }]
        })
    });
    phase.peak_rss_mib = peak_rss_mib();
    phase.wall_s = phase_t0.elapsed().as_secs_f64();

    // Checks: every pass reproduces the first, the default seed reproduces
    // the recorded digest, and the sampled day, re-recorded on the
    // sequential path, equals the archived (parallel-path) stores.
    let first = passes[0];
    let bad_passes = passes.iter().filter(|&&d| d != first).count() as u64;
    let (day, held) = &archive[sample_index(env.seed, archive.len())];
    let unit_ok = runner.record_day_stores(*day) == *held;
    let default_ok = crate::recorded_digest_ok("mission", env.seed, first, unit_ok);
    let n = passes.len() as u64;
    phase.ops(n, if default_ok && unit_ok { bad_passes } else { n });
    phase.days = n * mission_days();

    let wall: f64 = iters.iter().map(|i| i.wall_s).sum();
    engine_layer(&mut phase, &engine.metrics(), workers, wall);
    phase.set(
        "badge.store_bytes",
        archive.iter().map(|(_, s)| store_bytes(s)).sum::<u64>() as f64,
    );
    phase.iters = iters;
    phase
}
