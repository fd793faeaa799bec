//! `fleet_soak`: many short missions — seeded crew variants of the ICAres-1
//! habitat, one day each — sharded across threads by `run_fleet`.

use crate::common::{
    digest, peak_rss_mib, repeated_setup, sample_index, timed_loop, Env, Iter, Phase,
};
use crate::trace::{SpanId, Tracer};
use ares_badge::telemetry::TelemetryStore;
use ares_icares::{FleetScenario, FIRST_INSTRUMENTED_DAY};
use ares_sociometrics::engine::{EngineMetrics, MissionEngine};
use ares_sociometrics::fleet::{run_fleet, FleetConfig, HabitatSource, OpenHabitat, ShardReport};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Habitats per fleet run: enough that the seed's draw of crew variants
/// averages out, few enough that several runs fit in a measured phase.
const HABITATS: u32 = 48;
const CREWS: u32 = 8;
/// Fleet runs per measured phase at least: one run of several seconds is too
/// short a window on a shared host.
const RUNS_MIN: usize = 2;

fn config(env: &Env<'_>) -> FleetConfig {
    FleetConfig {
        seed: env.seed,
        habitats: HABITATS,
        crews: CREWS,
        first_day: FIRST_INSTRUMENTED_DAY,
        last_day: FIRST_INSTRUMENTED_DAY,
        shards: env.cores,
        workers: 1,
        batch: 1,
    }
}

/// Wraps the scenario's habitat source: counts recorded records, keeps a
/// gauge of the store bytes held at once across shards and, when tracing,
/// puts each `open` (crew truth generation) and each day recording in a
/// span on the shard thread, parented on the fleet run.
struct Counted<'a> {
    inner: &'a FleetScenario,
    tr: &'a Tracer,
    parent: Option<SpanId>,
    records: AtomicU64,
    /// Store bytes each shard holds for its current batch. A shard's last
    /// batch stays counted until the run ends, so the peak can include it
    /// while the other shards finish.
    held: Vec<AtomicU64>,
    in_flight: AtomicU64,
    peak_bytes: AtomicU64,
}

impl<'a> Counted<'a> {
    fn new(
        inner: &'a FleetScenario,
        tr: &'a Tracer,
        parent: Option<SpanId>,
        shards: usize,
    ) -> Self {
        Counted {
            inner,
            tr,
            parent,
            records: AtomicU64::new(0),
            held: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            in_flight: AtomicU64::new(0),
            peak_bytes: AtomicU64::new(0),
        }
    }
}

impl HabitatSource for Counted<'_> {
    fn open(&self, config: &FleetConfig, habitat: u32) -> OpenHabitat<'_> {
        // `run_fleet` gives habitat `h` to shard `h % shards` and drops a
        // batch's stores before it opens the first habitat of the next one.
        let shards = config.shards.max(1);
        let shard = habitat as usize % shards;
        if (habitat as usize / shards).is_multiple_of(config.batch.max(1)) {
            let freed = self.held[shard].swap(0, Ordering::Relaxed);
            self.in_flight.fetch_sub(freed, Ordering::Relaxed);
        }
        let opened = self.tr.scope("crew", "truth_open", self.parent, |_| {
            self.inner.open(config, habitat)
        });
        let recorder = opened.recorder;
        OpenHabitat {
            ctx: opened.ctx,
            recorder: Box::new(move |day| {
                let stores: Vec<TelemetryStore> =
                    self.tr
                        .scope("badge", "record_day", self.parent, |_| recorder(day));
                let n: usize = stores.iter().map(TelemetryStore::record_count).sum();
                let bytes: u64 = stores.iter().map(TelemetryStore::mem_bytes).sum();
                self.records.fetch_add(n as u64, Ordering::Relaxed);
                self.held[shard].fetch_add(bytes, Ordering::Relaxed);
                let now = self.in_flight.fetch_add(bytes, Ordering::Relaxed) + bytes;
                self.peak_bytes.fetch_max(now, Ordering::Relaxed);
                stores
            }),
        }
    }
}

pub fn fleet_soak(env: &Env<'_>) -> Phase {
    let tr = env.tr;
    let cfg = config(env);
    let mut phase = Phase::default();
    let phase_t0 = Instant::now();
    let ((scenario, resolved), setup_s) = repeated_setup(tr, |root| {
        let scenario = tr.scope("icares", "runner_build", root, |_| FleetScenario::icares());
        let first = tr.scope("crew", "open_runner", root, |_| {
            scenario.open_runner(&cfg, 0)
        });
        let resolved = tr
            .scope("habitat", "field_cache_build", root, |_| {
                first.world().field_cache_arc()
            })
            .resolved_fraction();
        (scenario, resolved)
    });
    phase.setup_s = setup_s;
    phase.set("habitat.field_cache_resolved_fraction", resolved);

    // Per run: each habitat's analysis digest, the shard reports and the
    // run's wall. The analyses themselves are dropped, so that memory does
    // not grow with the runs.
    let mut runs: Vec<(Vec<u64>, Vec<ShardReport>, f64)> = Vec::new();
    let mut records_out = 0u64;
    let mut peak_bytes = 0u64;
    let iters = tr.scope(crate::trace::HARNESS, "timed", None, |root| {
        timed_loop(env.seconds, RUNS_MIN, || {
            let t0 = Instant::now();
            let (run, source) = tr.scope("core.fleet", "run", root, |run_span| {
                let source = Counted::new(&scenario, tr, run_span, cfg.shards);
                (run_fleet(&cfg, &source), source)
            });
            let wall_s = t0.elapsed().as_secs_f64();
            let n = source.records.load(Ordering::Relaxed);
            records_out += n;
            peak_bytes = peak_bytes.max(source.peak_bytes.load(Ordering::Relaxed));
            let digests = run.outcomes.iter().map(|o| digest(&o.analysis)).collect();
            runs.push((digests, run.shards, run.scorecard.wall_s));
            vec![Iter {
                records: n as f64,
                wall_s,
            }]
        })
    });
    phase.peak_rss_mib = peak_rss_mib();
    phase.wall_s = phase_t0.elapsed().as_secs_f64();

    // Checks: every run reproduces the first habitat for habitat, and one
    // seeded spot habitat, re-run standalone at another worker count, is
    // byte-identical to the sharded run's analysis of it.
    let first = runs[0].0.clone();
    let spot = sample_index(env.seed, cfg.habitats as usize);
    let runner = scenario.open_runner(&cfg, spot as u32);
    let days: Vec<(u32, Vec<TelemetryStore>)> = (cfg.first_day..=cfg.last_day)
        .map(|day| (day, runner.record_day_stores(day)))
        .collect();
    let standalone = MissionEngine::with_workers(scenario.context().clone(), cfg.workers + 1)
        .analyze_days_stores(&days);
    let spot_ok = digest(&standalone) == first[spot];
    let mut bad = 0u64;
    for (d, _, _) in &runs {
        bad += if spot_ok {
            d.iter().zip(&first).filter(|(a, b)| a != b).count() as u64
        } else {
            u64::from(cfg.habitats)
        };
    }
    let n = u64::from(cfg.habitats) * runs.len() as u64;
    if !crate::recorded_digest_ok("fleet", env.seed, digest(&first), spot_ok) {
        bad = n;
    }
    phase.ops(n, bad);
    phase.days = n * u64::from(cfg.last_day - cfg.first_day + 1);

    // Per-layer values from the scheduler's shard reports.
    let mut metrics = EngineMetrics::new();
    let mut shard_walls = Vec::new();
    let (mut skews, mut idle) = (Vec::new(), Vec::new());
    for (_, shards, wall) in &runs {
        let walls: Vec<f64> = shards.iter().map(|s| s.wall_s).collect();
        for s in shards {
            metrics.merge(&s.metrics);
        }
        let max = walls.iter().copied().fold(0.0, f64::max);
        let min = walls.iter().copied().fold(f64::INFINITY, f64::min);
        if min > 0.0 {
            skews.push(max / min);
        }
        if *wall > 0.0 {
            idle.push(1.0 - walls.iter().sum::<f64>() / (walls.len() as f64 * wall));
        }
        shard_walls.extend(walls);
    }
    crate::set_stage_metrics(&mut phase, &metrics);
    let wall: f64 = iters.iter().map(|i| i.wall_s).sum();
    let threads = (cfg.shards * cfg.workers) as f64;
    phase.set(
        "core.engine.worker_busy_frac",
        metrics.total_wall_s() / (threads * wall),
    );
    phase.set(
        "core.fleet.shard_skew",
        crate::stats::median(&skews).unwrap_or(0.0),
    );
    phase.set(
        "core.fleet.idle_frac",
        crate::stats::median(&idle).unwrap_or(0.0),
    );
    phase
        .samples
        .insert("core.fleet.shard_wall_s".into(), shard_walls);
    phase.set("badge.records_out", phase.per_day(records_out as f64));
    phase.set("badge.store_bytes", peak_bytes as f64);
    phase.iters = iters;
    phase
}
