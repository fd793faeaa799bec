//! Ingest soak: sustained-throughput and chaos-recovery measurement of the
//! multi-tenant streaming ingest service.
//!
//! Records mission day 3, flattens the per-badge stores into one multiplexed
//! wire feed, and pushes it through [`ares_support::ingest::IngestServer`]
//! twice: once clean (the throughput baseline) and once under a fault plan
//! that kills shard 0's primary at noon, forcing a heartbeat-timeout
//! failover, a checkpoint-vault restore and a WAL gap replay mid-day. The
//! two runs' per-tenant `MissionAnalysis` artifacts are compared as
//! serialized bytes: any divergence sets `"recovery_divergent": true` in the
//! artifact, which `scripts/tier1.sh` treats as a build failure — alongside
//! a sustained-records/s floor, so the front door can neither silently
//! corrupt recovery nor silently collapse in throughput.
//!
//! Results are spliced into `BENCH_pipeline.json` (or the path given as the
//! first argument) as a top-level `"ingest"` object, and a human-readable
//! reliability scorecard — engine stage timings plus per-shard ingest
//! health, checkpoint wall time included — lands in
//! `artifacts/ingest_scorecard.txt`. The artifact's `clean_checkpoint_s` is
//! the clean run's checkpoint wall time summed over shards.
//!
//! ```text
//! cargo run --release -p ares-bench --bin ingest_soak [out.json]
//! ```

use ares_badge::records::BadgeId;
use ares_badge::telemetry::TelemetryStore;
use ares_icares::MissionRunner;
use ares_simkit::time::SimTime;
use ares_sociometrics::pipeline::MissionAnalysis;
use ares_sociometrics::report::engine_section_with_ingest;
use ares_support::bus::Bus;
use ares_support::chaos::{Fault, FaultPlan};
use ares_support::ingest::{
    BackpressurePolicy, IngestConfig, IngestRunReport, IngestServer, TelemetryRecord, TenantId,
};
use std::time::Instant;

const DAY: u32 = 3;
const SCORECARD_PATH: &str = "artifacts/ingest_scorecard.txt";

/// Flattens recorded per-badge stores into one multiplexed wire feed, stably
/// ordered by badge-local timestamp.
fn flatten(stores: &[TelemetryStore]) -> Vec<(BadgeId, TelemetryRecord)> {
    let mut feed: Vec<(BadgeId, TelemetryRecord)> = Vec::new();
    for store in stores {
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
        for e in v.env_samples() {
            feed.push((store.badge, TelemetryRecord::Env(e)));
        }
        for p in v.proximity_obs() {
            feed.push((store.badge, TelemetryRecord::Proximity(p)));
        }
        for c in v.ir_contacts() {
            feed.push((store.badge, TelemetryRecord::Ir(c)));
        }
        for s in v.sync_samples() {
            feed.push((store.badge, TelemetryRecord::Sync(s)));
        }
    }
    feed.sort_by_key(|(_, r)| r.t_local());
    feed
}

/// Streams the feed to two tenants (one per shard), closes the day, and
/// reports both the run outcome and the submit-to-finish wall time.
fn drive(
    ctx: &ares_sociometrics::engine::MissionContext,
    feed: &[(BadgeId, TelemetryRecord)],
    plan: &FaultPlan,
) -> (IngestRunReport, f64) {
    let cfg = IngestConfig {
        policy: BackpressurePolicy::Block,
        ..IngestConfig::icares_day(DAY)
    };
    let t0 = Instant::now();
    let server = IngestServer::spawn(cfg, ctx, Bus::new(), plan);
    for &(badge, ref record) in feed {
        assert!(server.submit(TenantId(0), badge, record.clone()));
        assert!(server.submit(TenantId(1), badge, record.clone()));
    }
    let day_end = SimTime::from_day_hms(DAY + 1, 0, 0, 0);
    server.end_day(TenantId(0), DAY, day_end);
    server.end_day(TenantId(1), DAY, day_end);
    let report = server.finish();
    (report, t0.elapsed().as_secs_f64())
}

fn rendered(analysis: &MissionAnalysis) -> String {
    serde_json::to_string(analysis).expect("mission analysis serializes")
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_pipeline.json".to_string());

    let runner = MissionRunner::icares();
    let ctx = runner.pipeline().context().clone();
    eprintln!("recording mission day {DAY}…");
    let stores = runner.record_day_stores(DAY);
    let feed = flatten(&stores);
    let cfg = IngestConfig::icares_day(DAY);
    // Every record goes to both tenants — one per shard — so the submitted
    // volume is twice the feed.
    let submitted = (feed.len() as u64) * 2 + 2;

    eprintln!(
        "soak: {} records × 2 tenants through {} shards (clean run)…",
        feed.len(),
        cfg.shards
    );
    let (baseline, clean_wall_s) = drive(&ctx, &feed, &FaultPlan::new(7));
    let sustained_records_per_s = if clean_wall_s > 0.0 {
        submitted as f64 / clean_wall_s
    } else {
        0.0
    };

    // Wall time the clean run's shards spent taking checkpoints: the share
    // of `clean_wall_s` the recovery protocol costs.
    let clean_checkpoint_s: f64 = baseline.shards.iter().map(|s| s.checkpoint_s).sum();

    eprintln!("soak: same feed, shard 0 primary killed at noon (chaos run)…");
    let plan = FaultPlan::new(7).with(Fault::ReplicaCrash {
        replica: cfg.replica(0, 0),
        at: SimTime::from_day_hms(DAY, 12, 0, 0),
        recover_at: None,
    });
    let (faulted, chaos_wall_s) = drive(&ctx, &feed, &plan);

    // Recovery divergence: any tenant whose recovered analysis is not
    // byte-identical to the clean run's.
    let mut recovery_divergent = false;
    for tenant in [TenantId(0), TenantId(1)] {
        let base = baseline.tenant(tenant).expect("baseline tenant");
        let fault = faulted.tenant(tenant).expect("faulted tenant");
        if base.records != fault.records || rendered(&base.analysis) != rendered(&fault.analysis) {
            recovery_divergent = true;
            eprintln!("soak: tenant {tenant:?} DIVERGED after recovery");
        }
    }
    let drill = &faulted.shards[0];
    let drill_exercised = drill.failovers >= 1 && drill.replays >= 1 && drill.wal_replayed > 0;
    if !drill_exercised {
        // A drill that silently didn't happen must not pass as "no
        // divergence" — surface it through the same tier-1 tripwire.
        recovery_divergent = true;
        eprintln!("soak: chaos drill did not exercise failover + vault replay");
    }

    // The producer and every shard are busy threads: with more of them than
    // cores they time-share, so the sustained rate is an interleaved one.
    let host_cores = ares_bench::artifact::host_cores();
    let interleaved = 1 + cfg.shards > host_cores;
    let ingest = ares_bench::artifact::render_member(
        "ingest",
        &[
            ("day", DAY.to_string()),
            ("host_cores", host_cores.to_string()),
            ("interleaved", interleaved.to_string()),
            ("shards", cfg.shards.to_string()),
            ("tenants", "2".to_string()),
            ("records_submitted", submitted.to_string()),
            ("clean_wall_s", format!("{clean_wall_s:.6}")),
            (
                "sustained_records_per_s",
                format!("{sustained_records_per_s:.1}"),
            ),
            ("chaos_wall_s", format!("{chaos_wall_s:.6}")),
            ("failovers", faulted.failovers().to_string()),
            ("vault_restores", drill.replays.to_string()),
            ("wal_replayed", drill.wal_replayed.to_string()),
            (
                "checkpoints",
                faulted
                    .shards
                    .iter()
                    .map(|s| s.checkpoints)
                    .sum::<u64>()
                    .to_string(),
            ),
            ("clean_checkpoint_s", format!("{clean_checkpoint_s:.6}")),
            ("records_dropped", faulted.records_dropped().to_string()),
            ("recovery_divergent", recovery_divergent.to_string()),
        ],
    );
    ares_bench::artifact::splice_into_file(&out_path, "ingest", &ingest);

    // Reliability scorecard: the chaos run's engine stage timings (replays
    // included) plus per-shard ingest health, in mission-report form.
    let scorecard = engine_section_with_ingest(&drill.metrics, &faulted.report_rows());
    if let Err(e) = std::fs::create_dir_all("artifacts")
        .and_then(|()| std::fs::write(SCORECARD_PATH, &scorecard))
    {
        eprintln!("warning: could not write {SCORECARD_PATH}: {e}");
    }

    println!("{scorecard}");
    println!(
        "soak day {DAY}: clean {clean_wall_s:.2} s → {sustained_records_per_s:.0} records/s \
         sustained ({submitted} submitted, {clean_checkpoint_s:.3} s in checkpoints)"
    );
    println!(
        "chaos drill: {chaos_wall_s:.2} s, {} failover(s), {} vault restore(s), \
         {} WAL entries replayed, divergent: {recovery_divergent}",
        faulted.failovers(),
        drill.replays,
        drill.wal_replayed,
    );
    println!("wrote {out_path} and {SCORECARD_PATH}");
    assert!(
        !recovery_divergent,
        "recovery divergence — see {out_path} and stderr"
    );
}
