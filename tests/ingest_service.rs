//! End-to-end drill for the multi-tenant streaming ingest service: kill a
//! shard's primary mid-day, let the failure detector promote a backup, and
//! prove that recovery from the checkpoint vault plus WAL replay yields a
//! `MissionAnalysis` **byte-identical** to an unfaulted run — and to the
//! offline batch engine on the same recorded day.

use ares::badge::records::BadgeId;
use ares::badge::telemetry::TelemetryStore;
use ares::icares::MissionRunner;
use ares::simkit::time::SimTime;
use ares::sociometrics::engine::{analyze_day_stores, EngineMetrics, MissionContext};
use ares::sociometrics::pipeline::MissionAnalysis;
use ares::support::bus::Bus;
use ares::support::chaos::{Fault, FaultPlan};
use ares::support::ingest::{
    BackpressurePolicy, IngestConfig, IngestRunReport, IngestServer, TelemetryRecord, TenantId,
};

const DAY: u32 = 3;

/// Flattens recorded per-badge stores into one multiplexed wire feed, stably
/// ordered by badge-local timestamp (ties keep per-badge arrival order, so
/// re-assembly in the shard reproduces the stores bit-for-bit).
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

/// Streams the feed to two tenants (one per shard) and closes the day.
fn drive(
    ctx: &MissionContext,
    feed: &[(BadgeId, TelemetryRecord)],
    plan: &FaultPlan,
) -> IngestRunReport {
    let cfg = IngestConfig {
        policy: BackpressurePolicy::Block,
        ..IngestConfig::icares_day(DAY)
    };
    let server = IngestServer::spawn(cfg, ctx, Bus::new(), plan);
    for &(badge, ref record) in feed {
        assert!(server.submit(TenantId(0), badge, record.clone()));
        assert!(server.submit(TenantId(1), badge, record.clone()));
    }
    let day_end = SimTime::from_day_hms(DAY + 1, 0, 0, 0);
    server.end_day(TenantId(0), DAY, day_end);
    server.end_day(TenantId(1), DAY, day_end);
    server.finish()
}

fn rendered(analysis: &MissionAnalysis) -> String {
    serde_json::to_string(analysis).expect("mission analysis serializes")
}

#[test]
fn killed_shard_recovers_byte_identical_to_unfaulted_run() {
    let runner = MissionRunner::icares();
    let ctx = runner.pipeline().context().clone();
    let stores = runner.record_day_stores(DAY);
    let feed = flatten(&stores);
    assert!(feed.len() > 100_000, "a real day: {} records", feed.len());

    let cfg = IngestConfig::icares_day(DAY);
    // Kill shard 0's initial primary at noon, permanently. Shard 1 (tenant 1)
    // runs the whole day unfaulted and doubles as the in-run control.
    let plan = FaultPlan::new(7).with(Fault::ReplicaCrash {
        replica: cfg.replica(0, 0),
        at: SimTime::from_day_hms(DAY, 12, 0, 0),
        recover_at: None,
    });

    let baseline = drive(&ctx, &feed, &FaultPlan::new(7));
    let faulted = drive(&ctx, &feed, &plan);

    // The drill actually happened: a failover, a vault restore, WAL replay.
    let shard0 = &faulted.shards[0];
    assert!(shard0.failovers >= 1, "no failover on the killed shard");
    assert!(shard0.replays >= 1, "promotion must restore from the vault");
    assert!(shard0.wal_replayed > 0, "promotion must replay the WAL gap");
    assert!(
        shard0.checkpoints >= 1,
        "the primary checkpointed before dying"
    );
    assert_eq!(faulted.shards[1].failovers, 0, "shard 1 untouched");

    // Byte identity: the recovered tenant's analysis equals the unfaulted
    // run's, structurally and on the wire.
    for tenant in [TenantId(0), TenantId(1)] {
        let base = baseline.tenant(tenant).expect("baseline tenant");
        let fault = faulted.tenant(tenant).expect("faulted tenant");
        assert_eq!(
            base.records, fault.records,
            "tenant {tenant:?} applied-record counts diverged"
        );
        assert_eq!(
            base.analysis, fault.analysis,
            "tenant {tenant:?} analysis diverged after recovery"
        );
        assert_eq!(
            rendered(&base.analysis),
            rendered(&fault.analysis),
            "tenant {tenant:?} serialized bytes diverged"
        );
    }

    // And both agree with the offline batch engine on the same stores: the
    // streaming front door is a transport, not a different analysis.
    let mut metrics = EngineMetrics::new();
    let mut batch = MissionAnalysis::new(&ctx.plan);
    batch.absorb(analyze_day_stores(&ctx, DAY, &stores, &mut metrics));
    let streamed = &faulted.tenant(TenantId(0)).expect("tenant 0").analysis;
    assert_eq!(
        rendered(&batch),
        rendered(streamed),
        "streamed analysis diverged from batch"
    );
}
