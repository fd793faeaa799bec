//! `ingest_replay`: catch-up upload of one recorded day after a link outage,
//! replayed for two tenants through the sharded streaming ingest service as
//! a closed loop (each submit returns before the next is sent).

use crate::common::{digest, peak_rss_mib, repeated_setup, timed_loop, Env, Iter, Phase};
use crate::trace::SpanId;
use ares_badge::records::{BadgeId, BeaconScan};
use ares_badge::telemetry::TelemetryStore;
use ares_icares::{MissionRunner, ScenarioConfig};
use ares_simkit::time::SimTime;
use ares_sociometrics::engine::{EngineMetrics, MissionContext, MissionEngine};
use ares_sociometrics::pipeline::MissionAnalysis;
use ares_support::bus::Bus;
use ares_support::chaos::FaultPlan;
use ares_support::ingest::{
    BackpressurePolicy, IngestConfig, IngestRunReport, IngestServer, ShardReport, TelemetryRecord,
    TenantId,
};
use std::time::Instant;

const DAY: u32 = 3;
const TENANTS: [TenantId; 2] = [TenantId(0), TenantId(1)];
/// Replays per measured phase at least: one replay of several seconds is too
/// short a window on a shared host.
const REPLAYS_MIN: usize = 2;
/// Queue depth is sampled once per this many submits in the traced run.
const DEPTH_EVERY: usize = 256;

/// Flattens recorded per-badge stores into one multiplexed wire feed, stably
/// ordered by badge-local timestamp (the `ingest_soak` feed).
fn flatten(stores: &[TelemetryStore]) -> Vec<(BadgeId, TelemetryRecord)> {
    let mut feed: Vec<(BadgeId, TelemetryRecord)> = Vec::new();
    for store in stores {
        let v = store.view();
        let b = store.badge;
        feed.extend(v.scan_hits().map(|(t, hits)| {
            (
                b,
                TelemetryRecord::Scan(BeaconScan {
                    t_local: t,
                    hits: hits.to_vec(),
                }),
            )
        }));
        feed.extend(v.audio_frames().map(|a| (b, TelemetryRecord::Audio(a))));
        feed.extend(v.imu_samples().map(|s| (b, TelemetryRecord::Imu(s))));
        feed.extend(v.env_samples().map(|e| (b, TelemetryRecord::Env(e))));
        feed.extend(
            v.proximity_obs()
                .map(|p| (b, TelemetryRecord::Proximity(p))),
        );
        feed.extend(v.ir_contacts().map(|c| (b, TelemetryRecord::Ir(c))));
        feed.extend(v.sync_samples().map(|s| (b, TelemetryRecord::Sync(s))));
    }
    feed.sort_by_key(|(_, r)| r.t_local());
    feed
}

/// Shard threads: every core but the producer's, at least one.
pub fn shards(cores: usize) -> usize {
    cores.saturating_sub(1).max(1)
}

fn config(cores: usize) -> IngestConfig {
    IngestConfig {
        shards: shards(cores),
        policy: BackpressurePolicy::Block,
        ..IngestConfig::icares_day(DAY)
    }
}

fn spawn(env: &Env<'_>, ctx: &MissionContext, parent: Option<SpanId>) -> IngestServer {
    env.tr.scope("support.ingest", "spawn", parent, |_| {
        IngestServer::spawn(config(env.cores), ctx, Bus::new(), &FaultPlan::new(7))
    })
}

/// A spawned server that is shut down and joined when dropped unused, so a
/// set-up whose server is never replayed leaves no shard thread behind.
struct Spawned(Option<IngestServer>);

impl Drop for Spawned {
    fn drop(&mut self) {
        if let Some(server) = self.0.take() {
            let _ = server.finish();
        }
    }
}

/// One replay's outcome, for the checks and the per-layer values. The
/// tenants' analyses are kept as digests only, so that memory does not grow
/// with the replays.
struct Replay {
    /// Each tenant's analysis digest, in `TENANTS` order.
    digests: Vec<Option<u64>>,
    applied: u64,
    dropped: u64,
    refused: u64,
    /// The shard reports, without their tenant reports.
    shards: Vec<ShardReport>,
}

impl Replay {
    fn new(mut report: IngestRunReport, refused: u64) -> Self {
        let digests = TENANTS
            .iter()
            .map(|&t| report.tenant(t).map(|r| digest(&r.analysis)))
            .collect();
        let (applied, dropped) = (report.records_applied(), report.records_dropped());
        for shard in &mut report.shards {
            shard.tenants.clear();
        }
        Replay {
            digests,
            applied,
            dropped,
            refused,
            shards: report.shards,
        }
    }
}

pub fn ingest_replay(env: &Env<'_>) -> Phase {
    let tr = env.tr;
    let mut phase = Phase::default();
    let phase_t0 = Instant::now();
    let ((runner, resolved, stores, feed, server), setup_s) = repeated_setup(tr, |root| {
        let runner = tr.scope("icares", "runner_build", root, |_| {
            MissionRunner::new(ScenarioConfig {
                seed: env.seed,
                ..ScenarioConfig::default()
            })
        });
        let resolved = tr
            .scope("habitat", "field_cache_build", root, |_| {
                runner.world().field_cache_arc()
            })
            .resolved_fraction();
        let stores = tr.scope("badge", "prerecord_day", root, |_| {
            runner.record_day_stores(DAY)
        });
        let feed = flatten(&stores);
        let server = Spawned(Some(spawn(env, runner.pipeline().context(), root)));
        (runner, resolved, stores, feed, server)
    });
    phase.setup_s = setup_s;
    phase.set("habitat.field_cache_resolved_fraction", resolved);
    let ctx = runner.pipeline().context_arc();
    let submitted = (feed.len() * TENANTS.len()) as u64;

    let mut server = server;
    let mut replays: Vec<Replay> = Vec::new();
    let mut submit_ns: Vec<u32> = Vec::new();
    let mut depth_samples: Vec<f64> = Vec::new();
    let mut finish_s: Vec<f64> = Vec::new();
    let iters = tr.scope(crate::trace::HARNESS, "timed", None, |root| {
        timed_loop(env.seconds, REPLAYS_MIN, || {
            let server = server.0.take().unwrap_or_else(|| spawn(env, &ctx, root));
            let t0 = Instant::now();
            let mut refused = 0u64;
            tr.scope(crate::trace::HARNESS, "feed", root, |feed_span| {
                if tr.enabled() {
                    let mut total_ns = 0u64;
                    for (i, &(badge, ref record)) in feed.iter().enumerate() {
                        for tenant in TENANTS {
                            let record = record.clone();
                            let t = Instant::now();
                            let ok = server.submit(tenant, badge, record);
                            let ns = t.elapsed().as_nanos() as u64;
                            total_ns += ns;
                            submit_ns.push(u32::try_from(ns).unwrap_or(u32::MAX));
                            refused += u64::from(!ok);
                        }
                        if i % DEPTH_EVERY == 0 {
                            let depth: usize = (0..config(env.cores).shards)
                                .map(|s| server.queue_depth(s))
                                .sum();
                            depth_samples.push(depth as f64);
                        }
                    }
                    tr.aggregate("support.ingest", "submit", feed_span, total_ns, submitted);
                } else {
                    for &(badge, ref record) in &feed {
                        for tenant in TENANTS {
                            refused += u64::from(!server.submit(tenant, badge, record.clone()));
                        }
                    }
                }
            });
            let t_close = Instant::now();
            let report = tr.scope("support.ingest", "finish", root, |_| {
                let day_end = SimTime::from_day_hms(DAY + 1, 0, 0, 0);
                for tenant in TENANTS {
                    server.end_day(tenant, DAY, day_end);
                }
                server.finish()
            });
            let close_s = t_close.elapsed().as_secs_f64();
            finish_s.push(close_s);
            let wall_s = t0.elapsed().as_secs_f64();
            replays.push(Replay::new(report, refused));
            vec![Iter {
                records: submitted as f64,
                wall_s,
            }]
        })
    });
    phase.peak_rss_mib = peak_rss_mib();
    phase.wall_s = phase_t0.elapsed().as_secs_f64();

    // Checks: every record applied (none refused or dropped), and each
    // tenant's analysis byte-identical to the batch engine on the same
    // stores.
    let held_bytes: u64 = stores.iter().map(TelemetryStore::mem_bytes).sum();
    // The service does not account SD-card bytes, so the batch side folds
    // the day into a fresh `MissionAnalysis` without them.
    let mut batch = MissionAnalysis::new(&ctx.plan);
    batch.absorb(MissionEngine::with_workers(ctx.clone(), 1).analyze_day_stores(DAY, &stores));
    let expected = digest(&batch);
    let mut bad = 0u64;
    for r in &replays {
        let complete = r.applied == submitted && r.dropped == 0;
        let identical = r.digests.iter().all(|&d| d == Some(expected));
        bad += if complete && identical {
            r.refused
        } else {
            submitted
        };
    }
    if !crate::recorded_digest_ok("ingest", env.seed, expected, bad == 0) {
        bad = submitted * replays.len() as u64;
    }
    phase.ops(submitted * replays.len() as u64, bad);
    phase.days = (replays.len() * TENANTS.len()) as u64;

    // Per-layer values from the service's own reports.
    let mut metrics = EngineMetrics::new();
    let (mut wal, mut checkpoints, mut peak, mut dropped) = (0u64, 0u64, 0usize, 0u64);
    for r in &replays {
        for s in &r.shards {
            metrics.merge(&s.metrics);
            wal += s.wal_appended;
            checkpoints += s.checkpoints;
            peak = peak.max(s.queue_peak);
        }
        dropped += r.dropped;
    }
    crate::set_stage_metrics(&mut phase, &metrics);
    let close: f64 = finish_s.iter().sum();
    if close > 0.0 {
        phase.set(
            "core.engine.worker_busy_frac",
            metrics.total_wall_s() / close,
        );
    }
    let n = replays.len() as f64;
    phase.set(
        "support.ingest.day_end_engine_s",
        metrics.total_wall_s() / n,
    );
    phase.set("support.ingest.wal_appended", wal as f64 / n);
    phase.set("support.ingest.checkpoints", checkpoints as f64 / n);
    phase.set("support.ingest.queue_peak", peak as f64);
    phase.set("support.ingest.records_dropped", dropped as f64);
    if !depth_samples.is_empty() {
        phase.set(
            "support.ingest.queue_depth_mean",
            depth_samples.iter().sum::<f64>() / depth_samples.len() as f64,
        );
    }
    phase.set("badge.store_bytes", held_bytes as f64);
    phase.samples.insert(
        "support.ingest.submit_us".into(),
        submit_ns.iter().map(|&ns| f64::from(ns) * 1e-3).collect(),
    );
    phase
        .samples
        .insert("support.ingest.finish_s".into(), finish_s);
    phase.iters = iters;
    phase
}
