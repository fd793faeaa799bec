//! Multi-tenant streaming ingest: the analyzer as a long-running service.
//!
//! The paper's Section VI support system is always on: telemetry from every
//! badge in every habitat keeps arriving, and analysis must keep up without
//! Earth in the loop. This module is the front door. An [`IngestServer`]
//! runs one OS thread per *shard*; every tenant (one habitat/mission) is
//! pinned to exactly one shard so cross-badge analysis (meetings, company
//! time) always sees the whole crew. Producers hand records to
//! [`IngestServer::submit`], which routes them onto the shard's bounded queue
//! with an explicit [`BackpressurePolicy`]: block the producer, or shed the
//! record and count the loss per [`RecordKind`] — drops are typed, surfaced
//! on the support bus ([`Topic::Ingest`]) and in the mission report, never
//! silent. The shard drains its queue in batches (everything queued, under
//! one lock and one producer wake-up) and handles each batch in FIFO order.
//!
//! ## Recovery protocol
//!
//! Each shard simulates a replicated analysis service, exactly as the chaos
//! drills do: [`ReplicatedService`] detects failures from heartbeats, a
//! [`CheckpointVault`] holds the latest replicated [`ShardCheckpoint`], and a
//! per-shard write-ahead log records every ingested entry *before* it is
//! applied. The data path is:
//!
//! 1. every entry is appended to the WAL under a monotone sequence number;
//! 2. if a live primary exists, the entry is applied to the live state and
//!    the primary's cursor advances to that sequence number;
//! 3. on the checkpoint cadence, a serving primary snapshots all tenant
//!    state plus its cursor into the vault (unless a `BusDrop` fault has the
//!    replication link down), and the WAL is truncated up to the cursor. The
//!    day's telemetry is not copied: each badge's day store is a list of
//!    sealed, immutable `Arc<TelemetryStore>` segments plus an open tail
//!    that `apply` appends to. A checkpoint seals the tail into one more
//!    segment and shares the list with the vault, so it costs O(records
//!    since the last checkpoint), not O(records so far today). Day end
//!    concatenates the segments, which yields exactly the store one
//!    uninterrupted append would have built;
//! 4. when [`FaultPlan`] faults kill the primary, the failure detector
//!    promotes a backup, which restores the vault's latest checkpoint and
//!    replays every WAL entry past the checkpoint cursor.
//!
//! Because entries reach the WAL before they reach the analyzer, application
//! is deterministic, and checkpoint restore is exact, the recovered state is
//! **byte-identical** to an unfaulted run — the same bit-determinism
//! contract the batch engine holds at any worker count, now held across
//! crash-and-recover. `tests/ingest_service.rs` and the `ingest_soak` bench
//! binary assert it end to end.

use crate::bus::{Bus, Message, Topic};
use crate::chaos::{FaultPlan, FaultScheduler};
use crate::failover::{CheckpointVault, FailoverEvent, ReplicaId, ReplicatedService};
use ares_badge::records::{
    AudioFrame, BadgeId, BeaconScan, EnvSample, ImuSample, IrContact, ProximityObs, SyncSample,
};
use ares_badge::telemetry::TelemetryStore;
use ares_simkit::series::Interval;
use ares_simkit::time::{SimDuration, SimTime};
use ares_sociometrics::engine::{analyze_day_stores, EngineMetrics, MissionContext};
use ares_sociometrics::pipeline::MissionAnalysis;
use ares_sociometrics::report::IngestShardRow;
use ares_sociometrics::streaming::{AnalyzerCheckpoint, CheckpointCadence, StreamingAnalyzer};
use crossbeam::channel::{bounded, Receiver, Sender, TrySendError};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One tenant of the ingest service: a habitat/mission whose badges form a
/// single analysis domain. All of a tenant's telemetry lands on one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u16);

/// One telemetry record from one badge, as it arrives at the front door.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryRecord {
    /// A BLE beacon scan.
    Scan(BeaconScan),
    /// A microphone feature frame.
    Audio(AudioFrame),
    /// An inertial feature window.
    Imu(ImuSample),
    /// An environmental sample.
    Env(EnvSample),
    /// An inter-badge proximity observation.
    Proximity(ProximityObs),
    /// An infrared face-to-face contact.
    Ir(IrContact),
    /// A time-sync exchange with the reference badge.
    Sync(SyncSample),
}

impl TelemetryRecord {
    /// The badge-local timestamp carried by the record.
    #[must_use]
    pub fn t_local(&self) -> SimTime {
        match self {
            TelemetryRecord::Scan(r) => r.t_local,
            TelemetryRecord::Audio(r) => r.t_local,
            TelemetryRecord::Imu(r) => r.t_local,
            TelemetryRecord::Env(r) => r.t_local,
            TelemetryRecord::Proximity(r) => r.t_local,
            TelemetryRecord::Ir(r) => r.t_local,
            TelemetryRecord::Sync(r) => r.t_local,
        }
    }

    /// The record's sensor family (the key of the typed drop counters).
    #[must_use]
    pub fn kind(&self) -> RecordKind {
        match self {
            TelemetryRecord::Scan(_) => RecordKind::Scan,
            TelemetryRecord::Audio(_) => RecordKind::Audio,
            TelemetryRecord::Imu(_) => RecordKind::Imu,
            TelemetryRecord::Env(_) => RecordKind::Env,
            TelemetryRecord::Proximity(_) => RecordKind::Proximity,
            TelemetryRecord::Ir(_) => RecordKind::Ir,
            TelemetryRecord::Sync(_) => RecordKind::Sync,
        }
    }
}

/// The seven telemetry families, for typed shed counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RecordKind {
    /// BLE beacon scans.
    Scan,
    /// Microphone feature frames.
    Audio,
    /// Inertial windows.
    Imu,
    /// Environmental samples.
    Env,
    /// Proximity observations.
    Proximity,
    /// Infrared contacts.
    Ir,
    /// Time-sync exchanges.
    Sync,
}

impl RecordKind {
    /// All families, in counter order.
    pub const ALL: [RecordKind; 7] = [
        RecordKind::Scan,
        RecordKind::Audio,
        RecordKind::Imu,
        RecordKind::Env,
        RecordKind::Proximity,
        RecordKind::Ir,
        RecordKind::Sync,
    ];

    /// Stable lowercase label for reports and bus payloads.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RecordKind::Scan => "scan",
            RecordKind::Audio => "audio",
            RecordKind::Imu => "imu",
            RecordKind::Env => "env",
            RecordKind::Proximity => "proximity",
            RecordKind::Ir => "ir",
            RecordKind::Sync => "sync",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// What a producer experiences when a shard's queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// The producer blocks until the shard drains a slot. Lossless; the
    /// badge uplink slows instead of the habitat losing telemetry.
    Block,
    /// The record is dropped and counted per [`RecordKind`]; the producer
    /// keeps going. Lossy but never stalls a real-time source.
    Shed,
}

/// Configuration of one [`IngestServer`].
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Number of shard threads.
    pub shards: usize,
    /// Simulated analysis replicas per shard (primary + backups).
    pub replicas_per_shard: u8,
    /// Bounded capacity of each shard's telemetry queue, in messages
    /// (records, day ends and control messages alike). The shard drains the
    /// whole queue into its current batch at once, so up to twice this many
    /// messages can be in flight per shard: one batch being processed plus a
    /// refilled queue.
    pub queue_capacity: usize,
    /// What happens to producers when a queue is full.
    pub policy: BackpressurePolicy,
    /// The service span; the shard clock starts at `span.start`.
    pub span: Interval,
    /// Checkpoint cadence of each shard's primary.
    pub checkpoint_every: SimDuration,
    /// Heartbeat deadline of the per-shard failure detector.
    pub heartbeat_deadline: SimDuration,
    /// Publish a [`Topic::Ingest`] shed notice every this many drops.
    pub drop_publish_every: u64,
}

impl IngestConfig {
    /// The ICARES defaults for serving one mission day: two shards, three
    /// replicas each, a 15-minute checkpoint cadence and a 5-minute
    /// failure-detector deadline (the drill settings of `ChaosMission`).
    #[must_use]
    pub fn icares_day(day: u32) -> Self {
        let start = SimTime::from_day_hms(day, 0, 0, 0);
        IngestConfig {
            shards: 2,
            replicas_per_shard: 3,
            queue_capacity: 1024,
            policy: BackpressurePolicy::Block,
            span: Interval::new(start, start + SimDuration::from_hours(24)),
            checkpoint_every: SimDuration::from_mins(15),
            heartbeat_deadline: SimDuration::from_mins(5),
            drop_publish_every: 256,
        }
    }

    /// The shard a tenant is pinned to.
    #[must_use]
    pub fn shard_of(&self, tenant: TenantId) -> usize {
        tenant.0 as usize % self.shards
    }

    /// The global [`ReplicaId`] of a shard's `local`-th replica. Fault plans
    /// target these ids: `replica(0, 0)` is shard 0's initial primary.
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of range for the configured replica count.
    #[must_use]
    pub fn replica(&self, shard: usize, local: u8) -> ReplicaId {
        assert!(
            local < self.replicas_per_shard,
            "replica index out of range"
        );
        ReplicaId(u8::try_from(shard).expect("shard fits u8") * self.replicas_per_shard + local)
    }

    fn replica_set(&self, shard: usize) -> Vec<ReplicaId> {
        (0..self.replicas_per_shard)
            .map(|i| self.replica(shard, i))
            .collect()
    }
}

/// Per-tenant state replicated in a [`ShardCheckpoint`]. The day's stores
/// are the live state's sealed segments, shared rather than copied.
#[derive(Debug, Clone)]
pub struct TenantCheckpoint {
    analyzer: AnalyzerCheckpoint,
    day_stores: Vec<(BadgeId, Vec<Arc<TelemetryStore>>)>,
    analysis: MissionAnalysis,
    records: u64,
    days: u64,
}

/// Everything a promoted backup needs to resume a shard: all tenant state
/// plus the WAL cursor the snapshot covers.
#[derive(Debug, Clone)]
pub struct ShardCheckpoint {
    taken_at: SimTime,
    cursor: u64,
    tenants: Vec<(TenantId, TenantCheckpoint)>,
}

impl ShardCheckpoint {
    /// When the snapshot was taken.
    #[must_use]
    pub fn taken_at(&self) -> SimTime {
        self.taken_at
    }

    /// The WAL sequence number the snapshot covers: replay starts after it.
    #[must_use]
    pub fn cursor(&self) -> u64 {
        self.cursor
    }
}

/// A shard's message queue entries.
#[derive(Debug)]
enum ShardMsg {
    Record {
        tenant: TenantId,
        badge: BadgeId,
        record: TelemetryRecord,
    },
    DayEnd {
        tenant: TenantId,
        day: u32,
        at: SimTime,
    },
    /// Test hook: the shard acks on `ack`, then parks until `parked`
    /// disconnects, letting tests fill the bounded queue deterministically.
    Pause {
        ack: Sender<()>,
        parked: Receiver<()>,
    },
    Shutdown,
}

/// A WAL entry: the data-plane payload of a [`ShardMsg`], sequence-numbered.
enum WalEntry {
    Record {
        tenant: TenantId,
        badge: BadgeId,
        record: TelemetryRecord,
    },
    DayEnd {
        tenant: TenantId,
        day: u32,
    },
}

/// One badge's telemetry so far today: immutable segments sealed by earlier
/// checkpoints (shared with the vault) plus the open tail `apply` appends to.
struct DayStore {
    sealed: Vec<Arc<TelemetryStore>>,
    tail: TelemetryStore,
}

impl DayStore {
    fn new(badge: BadgeId) -> Self {
        DayStore {
            sealed: Vec::new(),
            tail: TelemetryStore::new(badge),
        }
    }

    /// Seals a non-empty tail into a new segment and returns the segment
    /// list to share with a checkpoint. No record is copied.
    fn seal(&mut self) -> Vec<Arc<TelemetryStore>> {
        if self.tail.record_count() > 0 {
            let badge = self.tail.badge;
            let tail = std::mem::replace(&mut self.tail, TelemetryStore::new(badge));
            self.sealed.push(Arc::new(tail));
        }
        self.sealed.clone()
    }

    /// The whole day as one store: the segments concatenated in order, which
    /// equals pushing every record into a single store (`Column::push` is a
    /// stable sorted insert). Segments still shared with the vault are
    /// copied; the rest are moved.
    fn concat(self) -> TelemetryStore {
        let mut store = TelemetryStore::new(self.tail.badge);
        for segment in self.sealed {
            store.append(Arc::unwrap_or_clone(segment));
        }
        store.append(self.tail);
        store
    }
}

/// Live (unreplicated) per-tenant state owned by a shard's primary.
struct TenantLive {
    analyzer: StreamingAnalyzer,
    day_stores: BTreeMap<BadgeId, DayStore>,
    analysis: MissionAnalysis,
    records: u64,
    days: u64,
}

impl TenantLive {
    fn fresh(ctx: &MissionContext) -> Self {
        TenantLive {
            analyzer: StreamingAnalyzer::with_context(ctx.clone()),
            day_stores: BTreeMap::new(),
            analysis: MissionAnalysis::new(&ctx.plan),
            records: 0,
            days: 0,
        }
    }

    /// Snapshots the tenant, sealing every badge's open tail so the vault
    /// and the live state share all of today's telemetry.
    fn checkpoint(&mut self, now: SimTime) -> TenantCheckpoint {
        TenantCheckpoint {
            analyzer: self.analyzer.checkpoint(now),
            day_stores: self
                .day_stores
                .iter_mut()
                .map(|(&badge, day)| (badge, day.seal()))
                .collect(),
            analysis: self.analysis.clone(),
            records: self.records,
            days: self.days,
        }
    }

    fn restore(ctx: &MissionContext, ckpt: &TenantCheckpoint) -> Self {
        let mut analyzer = StreamingAnalyzer::with_context(ctx.clone());
        analyzer.restore(&ckpt.analyzer);
        TenantLive {
            analyzer,
            day_stores: ckpt
                .day_stores
                .iter()
                .map(|(badge, sealed)| {
                    let day = DayStore {
                        sealed: sealed.clone(),
                        tail: TelemetryStore::new(*badge),
                    };
                    (*badge, day)
                })
                .collect(),
            analysis: ckpt.analysis.clone(),
            records: ckpt.records,
            days: ckpt.days,
        }
    }
}

/// The deterministic data plane of one shard: everything [`DataPlane::apply`]
/// reads or writes, kept apart from the WAL so an entry can be applied by
/// reference straight out of it.
struct DataPlane {
    ctx: MissionContext,
    live: BTreeMap<TenantId, TenantLive>,
    metrics: EngineMetrics,
}

impl DataPlane {
    /// Exactly this function runs both live and during replay, so recovered
    /// state cannot diverge.
    fn apply(&mut self, entry: &WalEntry) {
        match entry {
            WalEntry::Record {
                tenant,
                badge,
                record,
            } => {
                let live = self
                    .live
                    .entry(*tenant)
                    .or_insert_with(|| TenantLive::fresh(&self.ctx));
                let store = &mut live
                    .day_stores
                    .entry(*badge)
                    .or_insert_with(|| DayStore::new(*badge))
                    .tail;
                match record {
                    TelemetryRecord::Scan(r) => {
                        store.push_scan(r);
                        let _ = live.analyzer.ingest_scan(*badge, r);
                    }
                    TelemetryRecord::Audio(r) => {
                        store.push_audio(*r);
                        let _ = live.analyzer.ingest_audio(*badge, r);
                    }
                    TelemetryRecord::Imu(r) => {
                        store.push_imu(*r);
                        let _ = live.analyzer.ingest_imu(*badge, r);
                    }
                    TelemetryRecord::Env(r) => store.push_env(*r),
                    TelemetryRecord::Proximity(r) => store.push_proximity(*r),
                    TelemetryRecord::Ir(r) => store.push_ir(*r),
                    TelemetryRecord::Sync(r) => {
                        store.push_sync(*r);
                        live.analyzer.ingest_sync(*badge, r);
                    }
                }
                live.records += 1;
            }
            WalEntry::DayEnd { tenant, day } => {
                let live = self
                    .live
                    .entry(*tenant)
                    .or_insert_with(|| TenantLive::fresh(&self.ctx));
                let stores: Vec<TelemetryStore> = std::mem::take(&mut live.day_stores)
                    .into_values()
                    .map(DayStore::concat)
                    .collect();
                let analysis = analyze_day_stores(&self.ctx, *day, &stores, &mut self.metrics);
                live.analysis.absorb(analysis);
                live.days += 1;
            }
        }
    }
}

/// Per-shard observability counters, written only by producers: typed drop
/// counts and the queue's high-water mark. The shard thread only reads them
/// into its report. Both are statistics that publish no other data, hence
/// `Relaxed`.
#[derive(Debug)]
struct ShardStats {
    dropped: [AtomicU64; 7],
    queue_peak: AtomicUsize,
}

impl ShardStats {
    fn new() -> Self {
        ShardStats {
            dropped: std::array::from_fn(|_| AtomicU64::new(0)),
            queue_peak: AtomicUsize::new(0),
        }
    }

    fn dropped_total(&self) -> u64 {
        self.dropped.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

/// Final per-tenant results of an ingest run.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// The accumulated mission analysis — the byte-identity artifact.
    pub analysis: MissionAnalysis,
    /// Telemetry records applied for this tenant.
    pub records: u64,
    /// Live events the streaming analyzer emitted.
    pub events: u64,
    /// Mission days folded into `analysis`.
    pub days: u64,
}

/// Final per-shard results of an ingest run.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// The shard index.
    pub shard: usize,
    /// WAL entries appended (records + day ends).
    pub wal_appended: u64,
    /// Failovers: backups promoted after a primary loss.
    pub failovers: u64,
    /// Recoveries that restored from a vault checkpoint.
    pub replays: u64,
    /// WAL entries re-applied across all recoveries.
    pub wal_replayed: u64,
    /// The widest checkpoint-to-promotion gap closed by WAL replay.
    pub max_replay_gap: SimDuration,
    /// Checkpoints accepted by the vault.
    pub checkpoints: u64,
    /// Checkpoints lost to `BusDrop` replication outages.
    pub checkpoints_dropped: u64,
    /// Checkpoint offers the vault rejected as stale.
    pub checkpoints_rejected: u64,
    /// Wall time spent taking checkpoints (s). Measured beside the data
    /// path, never fed into it.
    pub checkpoint_s: f64,
    /// Records shed at the front door, per family label.
    pub dropped: Vec<(&'static str, u64)>,
    /// High-water mark of the shard's bounded queue.
    pub queue_peak: usize,
    /// Per-tenant results, sorted by tenant id.
    pub tenants: Vec<(TenantId, TenantReport)>,
    /// Engine metrics for all day analyses this shard ran (replays included).
    pub metrics: EngineMetrics,
    /// The failure detector's event log.
    pub failover_log: Vec<(SimTime, FailoverEvent)>,
}

/// The collected outcome of [`IngestServer::finish`].
#[derive(Debug, Clone)]
pub struct IngestRunReport {
    /// Per-shard reports, in shard order.
    pub shards: Vec<ShardReport>,
}

impl IngestRunReport {
    /// Looks up one tenant's report.
    #[must_use]
    pub fn tenant(&self, tenant: TenantId) -> Option<&TenantReport> {
        self.shards
            .iter()
            .flat_map(|s| &s.tenants)
            .find(|(t, _)| *t == tenant)
            .map(|(_, r)| r)
    }

    /// Total records applied across all shards and tenants.
    #[must_use]
    pub fn records_applied(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| &s.tenants)
            .map(|(_, r)| r.records)
            .sum()
    }

    /// Total records shed at the front door.
    #[must_use]
    pub fn records_dropped(&self) -> u64 {
        self.shards
            .iter()
            .flat_map(|s| &s.dropped)
            .map(|&(_, n)| n)
            .sum()
    }

    /// Total failovers survived.
    #[must_use]
    pub fn failovers(&self) -> u64 {
        self.shards.iter().map(|s| s.failovers).sum()
    }

    /// Rows for [`ares_sociometrics::report::ingest_section`] — the bridge
    /// from the ingest plane into the mission report.
    #[must_use]
    pub fn report_rows(&self) -> Vec<IngestShardRow> {
        self.shards
            .iter()
            .map(|s| IngestShardRow {
                shard: s.shard,
                queue_depth: 0,
                ingested: s.tenants.iter().map(|(_, r)| r.records).sum(),
                dropped: s
                    .dropped
                    .iter()
                    .map(|&(label, n)| (label.to_string(), n))
                    .collect(),
                queue_peak: s.queue_peak,
                failovers: s.failovers,
                checkpoints: s.checkpoints,
                checkpoint_s: s.checkpoint_s,
            })
            .collect()
    }
}

/// Guard returned by [`IngestServer::pause_shard`]; dropping it resumes the
/// shard.
#[derive(Debug)]
pub struct PauseGuard {
    _tx: Sender<()>,
}

/// The multi-tenant ingest front door. See the module docs for the
/// recovery protocol.
#[derive(Debug)]
pub struct IngestServer {
    config: IngestConfig,
    txs: Vec<Sender<ShardMsg>>,
    handles: Vec<JoinHandle<ShardReport>>,
    stats: Vec<Arc<ShardStats>>,
    bus: Bus,
}

impl IngestServer {
    /// Spawns one worker thread per shard and starts serving. Faults in
    /// `plan` are compiled per shard and drive the failure simulation.
    ///
    /// # Panics
    ///
    /// Panics if the config has zero shards, replicas, or queue capacity.
    #[must_use]
    pub fn spawn(config: IngestConfig, ctx: &MissionContext, bus: Bus, plan: &FaultPlan) -> Self {
        assert!(config.shards > 0, "need at least one shard");
        assert!(config.replicas_per_shard > 0, "need at least one replica");
        assert!(config.queue_capacity > 0, "queue capacity must be positive");
        let horizon = config.span.end + SimDuration::from_hours(24);
        let mut txs = Vec::with_capacity(config.shards);
        let mut handles = Vec::with_capacity(config.shards);
        let mut stats = Vec::with_capacity(config.shards);
        for shard in 0..config.shards {
            let (tx, rx) = bounded(config.queue_capacity);
            let shard_stats = Arc::new(ShardStats::new());
            let worker = ShardWorker::new(
                shard,
                &config,
                ctx.clone(),
                bus.clone(),
                FaultScheduler::compile(plan, horizon),
                rx,
                Arc::clone(&shard_stats),
            );
            handles.push(
                std::thread::Builder::new()
                    .name(format!("ingest-shard-{shard}"))
                    .spawn(move || worker.run())
                    .expect("spawn shard thread"),
            );
            txs.push(tx);
            stats.push(shard_stats);
        }
        IngestServer {
            config,
            txs,
            handles,
            stats,
            bus,
        }
    }

    /// Offers one record. Returns whether it was enqueued: under
    /// [`BackpressurePolicy::Block`] this blocks until the shard has room
    /// and always returns `true`; under [`BackpressurePolicy::Shed`] a full
    /// queue drops the record, bumps the typed counter, and returns `false`.
    pub fn submit(&self, tenant: TenantId, badge: BadgeId, record: TelemetryRecord) -> bool {
        let shard = self.config.shard_of(tenant);
        let kind = record.kind();
        let msg = ShardMsg::Record {
            tenant,
            badge,
            record,
        };
        match self.config.policy {
            BackpressurePolicy::Block => {
                assert!(
                    self.txs[shard].send(msg).is_ok(),
                    "shard {shard} thread gone"
                );
                self.enqueued(shard);
                true
            }
            BackpressurePolicy::Shed => match self.txs[shard].try_send(msg) {
                Ok(()) => {
                    self.enqueued(shard);
                    true
                }
                Err(TrySendError::Full(_)) => {
                    let stats = &self.stats[shard];
                    let n = stats.dropped[kind.index()].fetch_add(1, Ordering::Relaxed) + 1;
                    let total = stats.dropped_total();
                    if (total - 1).is_multiple_of(self.config.drop_publish_every) {
                        self.bus.publish(
                            Topic::Ingest,
                            Message {
                                from: format!("ingest/shard{shard}"),
                                payload: format!(
                                    "{{\"shed\": \"{}\", \"kind_dropped\": {n}, \
                                     \"shard_dropped\": {total}}}",
                                    kind.label()
                                ),
                            },
                        );
                    }
                    false
                }
                Err(TrySendError::Disconnected(_)) => {
                    panic!("shard {shard} thread gone")
                }
            },
        }
    }

    /// Marks the end of `tenant`'s mission day `day` at time `at`: the shard
    /// runs the seven-stage day analysis and folds it into the tenant's
    /// `MissionAnalysis`. Day ends are never shed — this always blocks.
    pub fn end_day(&self, tenant: TenantId, day: u32, at: SimTime) {
        let shard = self.config.shard_of(tenant);
        assert!(
            self.txs[shard]
                .send(ShardMsg::DayEnd { tenant, day, at })
                .is_ok(),
            "shard {shard} thread gone"
        );
        self.enqueued(shard);
    }

    /// Parks a shard until the returned guard is dropped. Test hook: with a
    /// shard parked, the bounded queue fills deterministically and both
    /// backpressure policies can be observed without racing the consumer.
    /// Returns only once the shard has actually parked (it drains anything
    /// queued ahead of the pause first).
    #[must_use]
    pub fn pause_shard(&self, shard: usize) -> PauseGuard {
        let (ack_tx, ack_rx) = bounded(1);
        let (tx, rx) = bounded(1);
        assert!(
            self.txs[shard]
                .send(ShardMsg::Pause {
                    ack: ack_tx,
                    parked: rx,
                })
                .is_ok(),
            "shard {shard} thread gone"
        );
        ack_rx.recv().expect("shard acked the pause");
        PauseGuard { _tx: tx }
    }

    /// Folds a shard queue's length after a successful send into its
    /// high-water mark. The channel reads its length under its own lock, so
    /// the peak never exceeds the configured capacity.
    fn enqueued(&self, shard: usize) {
        self.stats[shard]
            .queue_peak
            .fetch_max(self.txs[shard].len(), Ordering::Relaxed);
    }

    /// Current depth of a shard's bounded queue: messages enqueued and not
    /// yet drained by the shard, read from the channel itself (so it never
    /// exceeds [`IngestConfig::queue_capacity`]). Control messages count
    /// while queued. Records the shard has already drained into its current
    /// batch are no longer counted.
    #[must_use]
    pub fn queue_depth(&self, shard: usize) -> usize {
        self.txs[shard].len()
    }

    /// Records shed so far on a shard, per family.
    #[must_use]
    pub fn dropped(&self, shard: usize) -> Vec<(&'static str, u64)> {
        RecordKind::ALL
            .into_iter()
            .map(|k| {
                (
                    k.label(),
                    self.stats[shard].dropped[k.index()].load(Ordering::Relaxed),
                )
            })
            .collect()
    }

    /// Shuts every shard down, joins the workers, and returns the collected
    /// run report.
    ///
    /// # Panics
    ///
    /// Panics if a shard thread panicked.
    #[must_use]
    pub fn finish(self) -> IngestRunReport {
        for (shard, tx) in self.txs.iter().enumerate() {
            assert!(
                tx.send(ShardMsg::Shutdown).is_ok(),
                "shard {shard} thread gone"
            );
        }
        drop(self.txs);
        let shards = self
            .handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect();
        IngestRunReport { shards }
    }
}

/// The state owned by one shard thread.
struct ShardWorker {
    shard: usize,
    bus: Bus,
    sched: FaultScheduler,
    rx: Receiver<ShardMsg>,
    stats: Arc<ShardStats>,
    replicas: Vec<ReplicaId>,
    service: ReplicatedService,
    vault: CheckpointVault<ShardCheckpoint>,
    cadence: CheckpointCadence,
    wal: Vec<(u64, WalEntry)>,
    seq: u64,
    cursor: u64,
    clock: SimTime,
    plane: DataPlane,
    failovers: u64,
    replays: u64,
    wal_replayed: u64,
    max_replay_gap: SimDuration,
    checkpoints: u64,
    checkpoints_dropped: u64,
    checkpoint_time: Duration,
}

impl ShardWorker {
    fn new(
        shard: usize,
        config: &IngestConfig,
        ctx: MissionContext,
        bus: Bus,
        sched: FaultScheduler,
        rx: Receiver<ShardMsg>,
        stats: Arc<ShardStats>,
    ) -> Self {
        let start = config.span.start;
        let replicas = config.replica_set(shard);
        ShardWorker {
            shard,
            bus,
            sched,
            rx,
            stats,
            service: ReplicatedService::new(
                format!("ingest-shard-{shard}"),
                &replicas,
                config.heartbeat_deadline,
                start,
            ),
            replicas,
            vault: CheckpointVault::new(),
            cadence: CheckpointCadence::new(start, config.checkpoint_every),
            wal: Vec::new(),
            seq: 0,
            cursor: 0,
            clock: start,
            plane: DataPlane {
                ctx,
                live: BTreeMap::new(),
                metrics: EngineMetrics::new(),
            },
            failovers: 0,
            replays: 0,
            wal_replayed: 0,
            max_replay_gap: SimDuration::ZERO,
            checkpoints: 0,
            checkpoints_dropped: 0,
            checkpoint_time: Duration::ZERO,
        }
    }

    /// Drains the queue in batches — everything queued at once, under one
    /// lock and at most one producer wake-up — and handles each batch in
    /// FIFO order, so per-message processing is exactly that of a
    /// one-at-a-time receive.
    fn run(mut self) -> ShardReport {
        let mut batch = VecDeque::new();
        'serve: while self.rx.recv_batch(&mut batch).is_ok() {
            while let Some(msg) = batch.pop_front() {
                match msg {
                    ShardMsg::Record {
                        tenant,
                        badge,
                        record,
                    } => {
                        self.advance(record.t_local());
                        self.append_and_apply(WalEntry::Record {
                            tenant,
                            badge,
                            record,
                        });
                    }
                    ShardMsg::DayEnd { tenant, day, at } => {
                        self.advance(at);
                        self.append_and_apply(WalEntry::DayEnd { tenant, day });
                    }
                    ShardMsg::Pause { ack, parked } => {
                        let _ = ack.send(());
                        // Blocks until the guard (the sender) is dropped;
                        // the rest of the batch waits in `batch`.
                        let _ = parked.recv();
                    }
                    ShardMsg::Shutdown => break 'serve,
                }
            }
        }
        self.into_report()
    }

    /// Advances the shard clock monotonically and runs the control plane:
    /// heartbeats from scheduler-alive replicas, failure detection, and —
    /// on a promotion — recovery from the vault plus WAL replay.
    fn advance(&mut self, t: SimTime) {
        self.clock = self.clock.max(t);
        for i in 0..self.replicas.len() {
            let rid = self.replicas[i];
            if self.sched.heartbeat_delivered(rid, self.clock) {
                self.service.heartbeat(rid, self.clock);
            }
        }
        for ev in self.service.tick(self.clock) {
            match ev {
                FailoverEvent::Promoted(p) => {
                    self.failovers += 1;
                    self.recover();
                    self.publish_control(&format!(
                        "{{\"promoted\": {}, \"at\": \"{}\"}}",
                        p.0, self.clock
                    ));
                }
                FailoverEvent::ServiceDown => {
                    self.publish_control(&format!("{{\"service_down\": \"{}\"}}", self.clock));
                }
                _ => {}
            }
        }
    }

    /// Rebuilds the live state as a freshly promoted backup would: restore
    /// the vault's latest checkpoint (or start empty) and replay every WAL
    /// entry past its cursor.
    fn recover(&mut self) {
        let plane = &mut self.plane;
        plane.live.clear();
        self.cursor = 0;
        if let Some((at, ckpt)) = self.vault.latest() {
            self.cursor = ckpt.cursor;
            for (tenant, tckpt) in &ckpt.tenants {
                plane
                    .live
                    .insert(*tenant, TenantLive::restore(&plane.ctx, tckpt));
            }
            self.replays += 1;
            let gap = self.clock - at;
            if gap > self.max_replay_gap {
                self.max_replay_gap = gap;
            }
        }
        let cursor = self.cursor;
        for (s, entry) in self.wal.iter().filter(|&&(s, _)| s > cursor) {
            plane.apply(entry);
            self.cursor = *s;
            self.wal_replayed += 1;
        }
    }

    /// WAL-appends an entry, then — if a live primary is serving — applies
    /// it from the WAL and advances the cursor, and takes any due checkpoint.
    fn append_and_apply(&mut self, entry: WalEntry) {
        self.seq += 1;
        self.wal.push((self.seq, entry));
        let serving = self
            .service
            .primary()
            .is_some_and(|p| self.sched.replica_alive(p, self.clock));
        if !serving {
            return;
        }
        let (_, entry) = self.wal.last().expect("just appended");
        self.plane.apply(entry);
        self.cursor = self.seq;
        if self.cadence.due(self.clock) {
            self.take_checkpoint();
        }
    }

    fn take_checkpoint(&mut self) {
        if self.sched.bus_drop_active(self.clock) {
            // Replication link down: the snapshot never reaches the vault.
            self.checkpoints_dropped += 1;
            return;
        }
        let t0 = Instant::now();
        let now = self.clock;
        let snapshot = ShardCheckpoint {
            taken_at: now,
            cursor: self.cursor,
            tenants: self
                .plane
                .live
                .iter_mut()
                .map(|(t, l)| (*t, l.checkpoint(now)))
                .collect(),
        };
        let cursor = self.cursor;
        if self.vault.offer(now, snapshot) {
            self.checkpoints += 1;
            self.wal.retain(|&(s, _)| s > cursor);
        }
        self.checkpoint_time += t0.elapsed();
    }

    fn publish_control(&self, payload: &str) {
        self.bus.publish(
            Topic::Ingest,
            Message {
                from: format!("ingest/shard{}", self.shard),
                payload: payload.to_string(),
            },
        );
    }

    fn into_report(self) -> ShardReport {
        let dropped = RecordKind::ALL
            .into_iter()
            .map(|k| {
                (
                    k.label(),
                    self.stats.dropped[k.index()].load(Ordering::Relaxed),
                )
            })
            .collect();
        ShardReport {
            shard: self.shard,
            wal_appended: self.seq,
            failovers: self.failovers,
            replays: self.replays,
            wal_replayed: self.wal_replayed,
            max_replay_gap: self.max_replay_gap,
            checkpoints: self.checkpoints,
            checkpoints_dropped: self.checkpoints_dropped,
            checkpoints_rejected: self.vault.rejected(),
            checkpoint_s: self.checkpoint_time.as_secs_f64(),
            dropped,
            queue_peak: self.stats.queue_peak.load(Ordering::Relaxed),
            tenants: self
                .plane
                .live
                .into_iter()
                .map(|(t, l)| {
                    (
                        t,
                        TenantReport {
                            analysis: l.analysis,
                            records: l.records,
                            events: l.analyzer.events_emitted(),
                            days: l.days,
                        },
                    )
                })
                .collect(),
            metrics: self.plane.metrics,
            failover_log: self.service.log().to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::Fault;
    use ares_habitat::beacons::BeaconId;

    fn sync_at(day: u32, h: u32, m: u32, s: u32) -> TelemetryRecord {
        let t = SimTime::from_day_hms(day, h, m, s);
        TelemetryRecord::Sync(SyncSample {
            t_local: t,
            t_reference: t,
        })
    }

    /// A small synthetic three-badge feed over `minutes` from `h:00` of
    /// `day`: every 5 s each badge scans, hears and moves (enough fixes for
    /// the day analysis to resolve carriers); every minute it syncs, hears a
    /// neighbour and logs an IR contact delivered 45 s late — the
    /// out-of-order mirrored-contact case the stores' sorted insert repairs.
    fn synthetic_feed(day: u32, h: u32, minutes: u32) -> Vec<(BadgeId, TelemetryRecord)> {
        let t0 = SimTime::from_day_hms(day, h, 0, 0);
        let mut feed = Vec::new();
        for step in 0..minutes * 12 {
            let t = t0 + SimDuration::from_secs(i64::from(step) * 5);
            for b in 0..3u8 {
                let badge = BadgeId(b);
                let beacon = u8::try_from((step / 120 + u32::from(b)) % 8).expect("small");
                let level = f64::from(step % 7) + f64::from(b);
                feed.push((
                    badge,
                    TelemetryRecord::Scan(BeaconScan {
                        t_local: t,
                        hits: vec![
                            (BeaconId(beacon), -58.0 - level),
                            (BeaconId((beacon + 1) % 8), -71.5 + level),
                        ],
                    }),
                ));
                feed.push((
                    badge,
                    TelemetryRecord::Audio(AudioFrame {
                        t_local: t,
                        level_db: 45.0 + level,
                        voiced: step % 4 < 2,
                        f0_hz: (step % 4 < 2).then_some(120.0 + level),
                    }),
                ));
                feed.push((
                    badge,
                    TelemetryRecord::Imu(ImuSample {
                        t_local: t,
                        accel_var: 0.05 + 0.01 * level,
                        accel_mean: 9.81,
                        step_hz: None,
                    }),
                ));
                if step % 12 == 0 {
                    let other = BadgeId((b + 1) % 3);
                    feed.push((
                        badge,
                        TelemetryRecord::Sync(SyncSample {
                            t_local: t,
                            t_reference: t + SimDuration::from_millis(i64::from(b)),
                        }),
                    ));
                    feed.push((
                        badge,
                        TelemetryRecord::Proximity(ProximityObs {
                            t_local: t,
                            other,
                            rssi: -66.0 - level,
                        }),
                    ));
                    feed.push((
                        badge,
                        TelemetryRecord::Ir(IrContact {
                            t_local: t - SimDuration::from_secs(45),
                            other,
                        }),
                    ));
                }
            }
        }
        feed
    }

    /// One tenant on one shard: each `(day, feed)` is streamed and then
    /// closed at `day_end_at(day)`.
    fn drive_days(
        days: &[(u32, Vec<(BadgeId, TelemetryRecord)>)],
        day_end_at: impl Fn(u32) -> SimTime,
        plan: &FaultPlan,
    ) -> IngestRunReport {
        let ctx = MissionContext::icares();
        let server = IngestServer::spawn(
            config(1, 256, BackpressurePolicy::Block),
            &ctx,
            Bus::new(),
            plan,
        );
        for (day, feed) in days {
            for (badge, record) in feed {
                assert!(server.submit(TenantId(0), *badge, record.clone()));
            }
            server.end_day(TenantId(0), *day, day_end_at(*day));
        }
        server.finish()
    }

    /// The tenant's results must match the unfaulted run's exactly. The
    /// `Debug` rendering prints every float at round-trip precision, so equal
    /// renderings mean bit-identical analyses.
    fn assert_same_tenant(base: &IngestRunReport, faulted: &IngestRunReport) {
        let base = base.tenant(TenantId(0)).expect("baseline tenant");
        let fault = faulted.tenant(TenantId(0)).expect("faulted tenant");
        assert!(
            base.analysis.daily.iter().flatten().any(Option::is_some),
            "the feed must yield a non-empty analysis to compare"
        );
        assert_eq!(base.records, fault.records);
        assert_eq!(base.days, fault.days);
        assert_eq!(base.events, fault.events);
        assert_eq!(base.analysis, fault.analysis);
        assert_eq!(
            format!("{:?}", base.analysis),
            format!("{:?}", fault.analysis)
        );
    }

    fn primary_crash(at: SimTime) -> FaultPlan {
        FaultPlan::new(1).with(Fault::ReplicaCrash {
            replica: config(1, 1, BackpressurePolicy::Block).replica(0, 0),
            at,
            recover_at: None,
        })
    }

    #[test]
    fn consecutive_checkpoints_share_every_sealed_segment() {
        let mut plane = DataPlane {
            ctx: MissionContext::icares(),
            live: BTreeMap::new(),
            metrics: EngineMetrics::new(),
        };
        let feed = synthetic_feed(1, 8, 30);
        let (early, late) = feed.split_at(feed.len() / 2);
        let apply_all = |plane: &mut DataPlane, part: &[(BadgeId, TelemetryRecord)]| {
            for (badge, record) in part {
                plane.apply(&WalEntry::Record {
                    tenant: TenantId(0),
                    badge: *badge,
                    record: record.clone(),
                });
            }
        };
        let now = SimTime::from_day_hms(1, 9, 0, 0);
        apply_all(&mut plane, early);
        let live = plane.live.get_mut(&TenantId(0)).expect("tenant");
        let first = live.checkpoint(now);
        apply_all(&mut plane, late);
        let live = plane.live.get_mut(&TenantId(0)).expect("tenant");
        let second = live.checkpoint(now);
        let third = live.checkpoint(now);
        assert_eq!(first.day_stores.len(), 3, "every badge checkpointed");
        for ((a, segs_a), (b, segs_b)) in first.day_stores.iter().zip(&second.day_stores) {
            assert_eq!(a, b);
            // The second checkpoint reuses every segment of the first and
            // seals exactly one new one: no earlier record was copied.
            assert_eq!(segs_b.len(), segs_a.len() + 1);
            assert!(segs_a.iter().zip(segs_b).all(|(x, y)| Arc::ptr_eq(x, y)));
        }
        for ((_, segs_b), (_, segs_c)) in second.day_stores.iter().zip(&third.day_stores) {
            // Nothing arrived in between: nothing new to seal.
            assert_eq!(segs_b.len(), segs_c.len());
            assert!(segs_b.iter().zip(segs_c).all(|(x, y)| Arc::ptr_eq(x, y)));
        }
        // The vault's segments concatenate to exactly the store one
        // uninterrupted push sequence builds, late IR contacts included.
        for (badge, segs) in &third.day_stores {
            let mut whole = TelemetryStore::new(*badge);
            for (_, record) in feed.iter().filter(|(b, _)| b == badge) {
                match record {
                    TelemetryRecord::Scan(r) => whole.push_scan(r),
                    TelemetryRecord::Audio(r) => whole.push_audio(*r),
                    TelemetryRecord::Imu(r) => whole.push_imu(*r),
                    TelemetryRecord::Env(r) => whole.push_env(*r),
                    TelemetryRecord::Proximity(r) => whole.push_proximity(*r),
                    TelemetryRecord::Ir(r) => whole.push_ir(*r),
                    TelemetryRecord::Sync(r) => whole.push_sync(*r),
                }
            }
            let day = DayStore {
                sealed: segs.clone(),
                tail: TelemetryStore::new(*badge),
            };
            assert_eq!(day.concat(), whole);
        }
    }

    #[test]
    fn primary_killed_before_the_first_checkpoint_recovers_byte_identical() {
        // The first checkpoint is due at 00:15; the primary dies at 00:05 and
        // the backup is promoted at about 00:10 with an empty vault, so it
        // replays the whole WAL.
        let days = [(1, synthetic_feed(1, 0, 60))];
        let day_end = |d| SimTime::from_day_hms(d + 1, 0, 0, 0);
        let base = drive_days(&days, day_end, &FaultPlan::new(1));
        let faulted = drive_days(
            &days,
            day_end,
            &primary_crash(SimTime::from_day_hms(1, 0, 5, 0)),
        );
        let shard = &faulted.shards[0];
        assert!(shard.failovers >= 1, "the primary was lost");
        assert_eq!(shard.replays, 0, "no checkpoint existed to restore");
        assert!(shard.wal_replayed > 0, "recovery replayed the WAL");
        assert!(shard.checkpoints >= 1, "the backup checkpoints on");
        assert_same_tenant(&base, &faulted);
    }

    #[test]
    fn primary_killed_after_a_day_end_before_the_next_checkpoint_recovers_byte_identical() {
        // Day 1 runs 08:00-10:00 and closes at 09:59:50; the last checkpoint
        // was at 09:45 and the next is due at 10:00. The primary dies at
        // 09:59:55, so the promoted backup restores the 09:45 snapshot
        // (sealed day-1 segments) and replays the day's tail plus the day
        // end from the WAL before day 2 arrives.
        let days = [
            (1, synthetic_feed(1, 8, 120)),
            (2, synthetic_feed(2, 8, 60)),
        ];
        let day_end = |d| {
            if d == 1 {
                SimTime::from_day_hms(1, 9, 59, 50)
            } else {
                SimTime::from_day_hms(d + 1, 0, 0, 0)
            }
        };
        let base = drive_days(&days, day_end, &FaultPlan::new(1));
        let faulted = drive_days(
            &days,
            day_end,
            &primary_crash(SimTime::from_day_hms(1, 9, 59, 55)),
        );
        let shard = &faulted.shards[0];
        assert!(shard.failovers >= 1, "the primary was lost");
        assert!(shard.replays >= 1, "recovery restored the vault snapshot");
        assert!(shard.wal_replayed > 0, "recovery replayed the WAL tail");
        assert_eq!(faulted.tenant(TenantId(0)).expect("tenant").days, 2);
        assert_same_tenant(&base, &faulted);
    }

    fn config(shards: usize, capacity: usize, policy: BackpressurePolicy) -> IngestConfig {
        IngestConfig {
            shards,
            queue_capacity: capacity,
            policy,
            ..IngestConfig::icares_day(1)
        }
    }

    #[test]
    fn tenants_pin_to_shards_and_replica_ids_are_global() {
        let cfg = config(2, 16, BackpressurePolicy::Block);
        assert_eq!(cfg.shard_of(TenantId(0)), 0);
        assert_eq!(cfg.shard_of(TenantId(1)), 1);
        assert_eq!(cfg.shard_of(TenantId(2)), 0);
        // Replica ids never collide across shards: fault plans can target
        // exactly one shard's primary.
        assert_eq!(cfg.replica(0, 0), ReplicaId(0));
        assert_eq!(cfg.replica(0, 2), ReplicaId(2));
        assert_eq!(cfg.replica(1, 0), ReplicaId(3));
        assert_eq!(cfg.replica(1, 2), ReplicaId(5));
    }

    #[test]
    fn record_kinds_cover_every_record() {
        let t = SimTime::from_day_hms(1, 8, 0, 0);
        let records = [
            TelemetryRecord::Scan(BeaconScan {
                t_local: t,
                hits: Vec::new(),
            }),
            TelemetryRecord::Audio(AudioFrame {
                t_local: t,
                level_db: 40.0,
                voiced: false,
                f0_hz: None,
            }),
            TelemetryRecord::Imu(ImuSample {
                t_local: t,
                accel_var: 0.1,
                accel_mean: 9.8,
                step_hz: None,
            }),
            TelemetryRecord::Env(EnvSample {
                t_local: t,
                temperature_c: 21.0,
                pressure_hpa: 1013.0,
                light_lux: 300.0,
            }),
            TelemetryRecord::Proximity(ProximityObs {
                t_local: t,
                other: BadgeId(1),
                rssi: -60.0,
            }),
            TelemetryRecord::Ir(IrContact {
                t_local: t,
                other: BadgeId(1),
            }),
            sync_at(1, 8, 0, 0),
        ];
        let kinds: Vec<RecordKind> = records.iter().map(TelemetryRecord::kind).collect();
        assert_eq!(kinds, RecordKind::ALL.to_vec());
        for r in &records {
            assert_eq!(r.t_local(), t);
        }
    }

    #[test]
    fn shed_policy_drops_typed_counts_and_publishes_on_the_bus() {
        let ctx = MissionContext::icares();
        let bus = Bus::new();
        let shed_watch = bus.subscribe(Topic::Ingest);
        let mut cfg = config(1, 4, BackpressurePolicy::Shed);
        cfg.drop_publish_every = 3;
        let server = IngestServer::spawn(cfg, &ctx, bus, &FaultPlan::new(1));
        let pause = server.pause_shard(0);
        // With the shard parked the bounded queue fills deterministically:
        // four fit, the rest shed.
        let mut accepted = 0;
        for i in 0..10u32 {
            if server.submit(TenantId(0), BadgeId(0), sync_at(1, 8, 0, i)) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 4);
        assert_eq!(server.queue_depth(0), 4);
        let dropped = server.dropped(0);
        assert!(dropped.contains(&("sync", 6)), "typed counter: {dropped:?}");
        assert_eq!(
            shed_watch.drain().len(),
            2,
            "drops 1 and 4 publish at cadence 3"
        );
        drop(pause);
        let report = server.finish();
        assert_eq!(report.records_applied(), 4);
        assert_eq!(report.records_dropped(), 6);
        assert_eq!(report.shards[0].queue_peak, 4);
        let rows = report.report_rows();
        assert_eq!(rows[0].dropped_total(), 6);
        assert_eq!(rows[0].queue_peak, 4);
    }

    #[test]
    fn block_policy_is_lossless_even_through_a_full_queue() {
        let ctx = MissionContext::icares();
        let cfg = config(1, 2, BackpressurePolicy::Block);
        let server = std::sync::Arc::new(IngestServer::spawn(
            cfg,
            &ctx,
            Bus::new(),
            &FaultPlan::new(1),
        ));
        let pause = server.pause_shard(0);
        let producer = {
            let server = std::sync::Arc::clone(&server);
            std::thread::spawn(move || {
                // Far more than capacity 2: the producer must block on the
                // parked shard, then drain completely once it resumes.
                for i in 0..500u32 {
                    assert!(server.submit(TenantId(0), BadgeId(0), sync_at(1, 9, i / 60, i % 60)));
                }
            })
        };
        drop(pause);
        producer.join().expect("producer");
        let server = std::sync::Arc::into_inner(server).expect("sole owner");
        let report = server.finish();
        assert_eq!(report.records_applied(), 500, "nothing lost under Block");
        assert_eq!(report.records_dropped(), 0);
        let tenant = report.tenant(TenantId(0)).expect("tenant served");
        assert_eq!(tenant.records, 500);
        // The peak is the channel's own length, read under its lock: it can
        // never exceed the capacity, however the producer and the batch
        // drain interleave.
        let peak = report.shards[0].queue_peak;
        assert!((1..=2).contains(&peak), "queue peak {peak} vs capacity 2");
    }

    #[test]
    fn records_drained_behind_a_pause_apply_in_order_after_it_lifts() {
        let ctx = MissionContext::icares();
        let feed = synthetic_feed(1, 8, 60);
        let (behind, rest) = feed.split_at(40);
        let days = [(1, feed.clone())];
        let day_end = |d| SimTime::from_day_hms(d + 1, 0, 0, 0);
        let base = drive_days(&days, day_end, &FaultPlan::new(1));

        let server = IngestServer::spawn(
            config(1, 64, BackpressurePolicy::Block),
            &ctx,
            Bus::new(),
            &FaultPlan::new(1),
        );
        let first = server.pause_shard(0);
        std::thread::scope(|s| {
            // A second pause queues behind the first while the shard is
            // parked; its `pause_shard` returns only once the shard reaches
            // it.
            let second = s.spawn(|| server.pause_shard(0));
            while server.queue_depth(0) == 0 {
                std::thread::yield_now();
            }
            for (badge, record) in behind {
                assert!(server.submit(TenantId(0), *badge, record.clone()));
            }
            assert_eq!(server.queue_depth(0), 1 + behind.len());
            // Resuming lets the shard drain the pause and the 40 records in
            // one batch, then park again on the pause with the records
            // still held in that batch.
            drop(first);
            let second = second.join().expect("second pause");
            assert_eq!(server.queue_depth(0), 0, "the records left the queue");
            drop(second);
        });
        for (badge, record) in rest {
            assert!(server.submit(TenantId(0), *badge, record.clone()));
        }
        server.end_day(TenantId(0), 1, day_end(1));
        let faulted = server.finish();
        let applied = u64::try_from(feed.len()).expect("small feed");
        assert_eq!(faulted.records_applied(), applied, "none lost");
        assert_eq!(faulted.shards[0].wal_appended, applied + 1);
        // Same records, same order: the analysis, the streamed events and
        // the counts all match the uninterrupted run.
        assert_same_tenant(&base, &faulted);
    }

    #[test]
    fn day_end_folds_an_analysis_and_checkpoints_follow_cadence() {
        let ctx = MissionContext::icares();
        let cfg = config(1, 64, BackpressurePolicy::Block);
        let server = IngestServer::spawn(cfg, &ctx, Bus::new(), &FaultPlan::new(1));
        // One record per minute for two hours: the 15-minute cadence should
        // accept several checkpoints along the way.
        for m in 0..120u32 {
            let _ = server.submit(TenantId(0), BadgeId(0), sync_at(1, 8 + m / 60, m % 60, 0));
        }
        server.end_day(TenantId(0), 1, SimTime::from_day_hms(2, 0, 0, 0));
        let report = server.finish();
        let shard = &report.shards[0];
        assert!(shard.checkpoints >= 7, "cadence ran: {}", shard.checkpoints);
        assert_eq!(shard.checkpoints_dropped, 0);
        assert_eq!(shard.failovers, 0, "no faults, no failovers");
        let tenant = report.tenant(TenantId(0)).expect("tenant served");
        assert_eq!(tenant.days, 1);
        assert_eq!(tenant.records, 120);
    }
}
