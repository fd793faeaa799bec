//! The mission engine: staged analysis kernels shared by the batch path and
//! the streaming analyzer, plus a deterministic parallel executor — the one
//! analysis API over recorded columnar telemetry.
//!
//! The paper's analysis of 150 GiB of badge data is a staged per-badge-day
//! workflow — clock-correct, localize, classify wear/walking/speech, resolve
//! identity, aggregate — and Section VI argues the habitat must run those
//! analyses autonomously and continuously on-site. This module makes the
//! stage boundary a first-class structure:
//!
//! * [`MissionContext`] — the deployment metadata (floor plan, beacons,
//!   schedule, [`PipelineParams`]) passed **by reference** everywhere instead
//!   of being re-threaded through each call.
//! * Stage kernels ([`stage_sync_fit`], [`stage_localize`], [`stage_wear`],
//!   [`stage_activity`], [`stage_speech`], [`stage_stays`],
//!   [`stage_identity`]) — the per-badge-day passes with typed artifacts.
//!   The batch path composes them via [`analyze_badge_day`]; the
//!   streaming analyzer applies the *same* frame/window/scan rules
//!   incrementally (see [`crate::speech::frame_qualifies`],
//!   [`crate::wear::window_on_body`], [`crate::localization::ScanSmoother`]).
//! * [`StageMetrics`] / [`EngineMetrics`] — a per-stage instrumentation seam
//!   recording records in, items out and wall time.
//! * [`MissionEngine`] — a deterministic parallel executor: badge-days fan
//!   out across a scoped worker pool and the results are merged in canonical
//!   day/badge order, so the parallel [`MissionAnalysis`] is bit-identical
//!   to the sequential one regardless of worker count or scheduling.

use crate::activity::{self, ActivityTrack};
use crate::anomaly::{self, Identification};
use crate::localization::{self, PositionTrack};
use crate::meetings;
use crate::occupancy::{self, PassageMatrix, Stay};
use crate::pipeline::{AstronautDaily, BadgeDay, DayAnalysis, MissionAnalysis, PipelineParams};
use crate::speech::{self, SpeechTrack};
use crate::sync::SyncCorrection;
use crate::wear::{self, WearTrack};
use ares_badge::records::BadgeId;
use ares_badge::telemetry::{TelemetryStore, TelemetryView};
use ares_crew::roster::AstronautId;
use ares_crew::schedule::Schedule;
use ares_habitat::beacons::{BeaconDeployment, BeaconIndex};
use ares_habitat::floorplan::FloorPlan;
use ares_simkit::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The deployment metadata every analysis stage reads: floor plan, beacon
/// placements, mission schedule and the pipeline tunables. Built once,
/// passed by reference everywhere.
#[derive(Debug, Clone)]
pub struct MissionContext {
    /// The habitat floor plan.
    pub plan: FloorPlan,
    /// The beacon deployment.
    pub beacons: BeaconDeployment,
    /// The mission schedule (planned activities, for identity scoring and
    /// meeting classification).
    pub schedule: Schedule,
    /// All pipeline tunables.
    pub params: PipelineParams,
    /// Dense by-id beacon lookup, built once from `beacons` — the localize
    /// hot path resolves a beacon per advertisement, millions per day.
    beacon_index: BeaconIndex,
}

impl MissionContext {
    /// Assembles a context from its parts.
    #[must_use]
    pub fn new(
        plan: FloorPlan,
        beacons: BeaconDeployment,
        schedule: Schedule,
        params: PipelineParams,
    ) -> Self {
        let beacon_index = beacons.index();
        MissionContext {
            plan,
            beacons,
            schedule,
            params,
            beacon_index,
        }
    }

    /// The pre-built dense beacon lookup (mirrors `beacons` as constructed).
    #[must_use]
    pub fn beacon_index(&self) -> &BeaconIndex {
        &self.beacon_index
    }

    /// The canonical ICAres-1 deployment with default parameters.
    #[must_use]
    pub fn icares() -> Self {
        let plan = FloorPlan::lunares();
        let beacons = BeaconDeployment::icares(&plan);
        MissionContext::new(plan, beacons, Schedule::icares(), PipelineParams::default())
    }

    /// The nominal owner of a badge unit per the assignment sheet.
    #[must_use]
    pub fn nominal_owner(badge: BadgeId) -> Option<AstronautId> {
        (badge.0 < 6).then(|| AstronautId::ALL[badge.0 as usize])
    }

    /// The analyzed daytime window of a mission day (07:00–21:00).
    #[must_use]
    pub fn day_window(day: u32) -> (SimTime, SimTime) {
        (
            SimTime::from_day_hms(day, 7, 0, 0),
            SimTime::from_day_hms(day, 21, 0, 0),
        )
    }
}

/// One stage of the per-badge-day analysis workflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Stage {
    /// Clock-correction fit against the reference badge.
    SyncFit,
    /// Room classification and in-room positioning.
    Localize,
    /// Worn vs. off-body classification.
    Wear,
    /// Walking-bout detection.
    Activity,
    /// The 15-s / 60 dB / 20 % speech rule and self-speech attribution.
    Speech,
    /// Stay segmentation from the localized track.
    Stays,
    /// Carrier identification (badge-swap detection).
    Identity,
    /// Day-level assembly: identity resolution, meetings, aggregates.
    Assemble,
}

impl Stage {
    /// All stages in execution order.
    pub const ALL: [Stage; 8] = [
        Stage::SyncFit,
        Stage::Localize,
        Stage::Wear,
        Stage::Activity,
        Stage::Speech,
        Stage::Stays,
        Stage::Identity,
        Stage::Assemble,
    ];

    /// A short fixed-width label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Stage::SyncFit => "sync-fit",
            Stage::Localize => "localize",
            Stage::Wear => "wear",
            Stage::Activity => "activity",
            Stage::Speech => "speech",
            Stage::Stays => "stays",
            Stage::Identity => "identity",
            Stage::Assemble => "assemble",
        }
    }

    fn index(self) -> usize {
        Stage::ALL.iter().position(|&s| s == self).expect("listed")
    }
}

/// Accumulated instrumentation of one stage: how many times it ran, how many
/// records it consumed, how many artifacts it produced, and how long it took.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct StageMetrics {
    /// Stage invocations.
    pub calls: u64,
    /// Input records consumed (scans, frames, IMU windows… stage-specific).
    pub records_in: u64,
    /// Artifacts produced (fixes, intervals, stays… stage-specific).
    pub items_out: u64,
    /// Total wall time, seconds.
    pub wall_s: f64,
}

impl StageMetrics {
    /// Input throughput in records per second (0 when no time was measured).
    ///
    /// Guarded against zero and denormal wall times: the result is always
    /// finite, so serialized metrics (`BENCH_pipeline.json`) can never
    /// contain `inf`/`NaN`.
    #[must_use]
    pub fn records_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            let r = self.records_in as f64 / self.wall_s;
            if r.is_finite() {
                r
            } else {
                0.0
            }
        } else {
            0.0
        }
    }
}

/// Per-stage metrics for a whole engine run. Counts are deterministic;
/// wall times are whatever the hardware did.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EngineMetrics {
    stages: [StageMetrics; 8],
}

impl EngineMetrics {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        EngineMetrics::default()
    }

    /// Folds one stage invocation in.
    pub fn record(&mut self, stage: Stage, records_in: u64, items_out: u64, wall_s: f64) {
        let m = &mut self.stages[stage.index()];
        m.calls += 1;
        m.records_in += records_in;
        m.items_out += items_out;
        m.wall_s += wall_s;
    }

    /// The accumulated metrics of one stage.
    #[must_use]
    pub fn get(&self, stage: Stage) -> StageMetrics {
        self.stages[stage.index()]
    }

    /// Merges another accumulator into this one (sums everything).
    pub fn merge(&mut self, other: &EngineMetrics) {
        for stage in Stage::ALL {
            let o = other.get(stage);
            let m = &mut self.stages[stage.index()];
            m.calls += o.calls;
            m.records_in += o.records_in;
            m.items_out += o.items_out;
            m.wall_s += o.wall_s;
        }
    }

    /// Total wall time across all stages, seconds.
    #[must_use]
    pub fn total_wall_s(&self) -> f64 {
        self.stages.iter().map(|m| m.wall_s).sum()
    }

    /// Renders a per-stage table (stage, calls, records in, items out, wall
    /// time, throughput).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out =
            String::from("stage      calls   records-in   items-out    wall-s      rec/s\n");
        for stage in Stage::ALL {
            let m = self.get(stage);
            out.push_str(&format!(
                "{:<9} {:>6} {:>12} {:>11} {:>9.3} {:>10.0}\n",
                stage.label(),
                m.calls,
                m.records_in,
                m.items_out,
                m.wall_s,
                m.records_per_s(),
            ));
        }
        out
    }
}

/// Stage kernel: fits the clock correction from a badge's sync exchanges.
#[must_use]
pub fn stage_sync_fit(view: TelemetryView<'_>) -> SyncCorrection {
    SyncCorrection::fit_view(view.sync)
}

/// Stage kernel: localizes a badge's scan column onto reference time.
#[must_use]
pub fn stage_localize(
    ctx: &MissionContext,
    view: TelemetryView<'_>,
    corr: &SyncCorrection,
) -> PositionTrack {
    localization::localize_scans(
        view.scans,
        corr,
        &ctx.beacon_index,
        &ctx.plan,
        &ctx.params.localization,
    )
}

/// Stage kernel: classifies worn vs. off-body time.
#[must_use]
pub fn stage_wear(
    ctx: &MissionContext,
    view: TelemetryView<'_>,
    corr: &SyncCorrection,
) -> WearTrack {
    wear::detect_wear_iter(view.imu_samples(), corr, &ctx.params.wear)
}

/// Stage kernel: detects walking bouts over worn time.
#[must_use]
pub fn stage_activity(
    ctx: &MissionContext,
    view: TelemetryView<'_>,
    corr: &SyncCorrection,
    wear_track: &WearTrack,
) -> ActivityTrack {
    activity::detect_walking_iter(view.imu_samples(), corr, wear_track, &ctx.params.activity)
}

/// Stage kernel: applies the paper's speech rules to the audio stream.
///
/// Drives the batched [`speech::analyze_view`] kernel directly over the
/// columnar audio view — bit-identical to the scalar
/// [`speech::analyze_iter`] over [`TelemetryView::audio_frames`].
#[must_use]
pub fn stage_speech(
    ctx: &MissionContext,
    view: TelemetryView<'_>,
    corr: &SyncCorrection,
) -> SpeechTrack {
    speech::analyze_view(view.audio, corr, &ctx.params.speech)
}

/// Stage kernel: segments room stays from a localized track.
#[must_use]
pub fn stage_stays(track: &PositionTrack) -> Vec<Stay> {
    occupancy::segment_stays(track, SimDuration::from_secs(5))
}

/// Stage kernel: scores which astronaut carried the badge this day.
#[must_use]
pub fn stage_identity(
    ctx: &MissionContext,
    day: u32,
    badge: BadgeId,
    track: &PositionTrack,
) -> Identification {
    anomaly::identify_carrier(
        track,
        day,
        MissionContext::nominal_owner(badge),
        &ctx.schedule,
        &ctx.params.identity,
    )
}

/// Runs all per-badge stages over one badge-day, recording per-stage metrics.
///
/// This is the unit of work the parallel executor fans out; the sequential
/// [`analyze_day_stores`] calls it in store order, and both produce
/// identical [`BadgeDay`]s.
#[must_use]
pub fn analyze_badge_day(
    ctx: &MissionContext,
    day: u32,
    view: TelemetryView<'_>,
    metrics: &mut EngineMetrics,
) -> BadgeDay {
    let t0 = Instant::now();
    let corr = stage_sync_fit(view);
    metrics.record(
        Stage::SyncFit,
        view.sync.len() as u64,
        1,
        t0.elapsed().as_secs_f64(),
    );

    let t0 = Instant::now();
    let track = stage_localize(ctx, view, &corr);
    metrics.record(
        Stage::Localize,
        view.scans.len() as u64,
        track.fixes.len() as u64,
        t0.elapsed().as_secs_f64(),
    );

    let t0 = Instant::now();
    let wear_track = stage_wear(ctx, view, &corr);
    metrics.record(
        Stage::Wear,
        view.imu.len() as u64,
        wear_track.worn.intervals().len() as u64,
        t0.elapsed().as_secs_f64(),
    );

    let t0 = Instant::now();
    let act = stage_activity(ctx, view, &corr, &wear_track);
    metrics.record(
        Stage::Activity,
        view.imu.len() as u64,
        act.walking.intervals().len() as u64,
        t0.elapsed().as_secs_f64(),
    );

    let t0 = Instant::now();
    let sp = stage_speech(ctx, view, &corr);
    metrics.record(
        Stage::Speech,
        view.audio.len() as u64,
        sp.intervals.len() as u64,
        t0.elapsed().as_secs_f64(),
    );

    let t0 = Instant::now();
    let stays = stage_stays(&track);
    metrics.record(
        Stage::Stays,
        track.fixes.len() as u64,
        stays.len() as u64,
        t0.elapsed().as_secs_f64(),
    );

    let t0 = Instant::now();
    let identification = stage_identity(ctx, day, view.badge, &track);
    metrics.record(
        Stage::Identity,
        stays.len() as u64,
        1,
        t0.elapsed().as_secs_f64(),
    );

    BadgeDay {
        badge: view.badge,
        corr,
        track,
        wear: wear_track,
        activity: act,
        speech: sp,
        stays,
        identification,
    }
}

/// Day-level assembly: identity resolution, meetings, passages, daily
/// aggregates, private conversations, room climate. Purely sequential — it
/// needs every badge of the day — and deterministic given `badges` in
/// canonical (store) order.
#[must_use]
pub fn assemble_day(
    ctx: &MissionContext,
    day: u32,
    stores: &[TelemetryStore],
    badges: Vec<BadgeDay>,
    metrics: &mut EngineMetrics,
) -> DayAnalysis {
    let t0 = Instant::now();
    let (day_start, day_end) = MissionContext::day_window(day);

    // Identity resolution: one badge per astronaut, best score wins.
    let mut carrier_of: [Option<usize>; 6] = [None; 6];
    let mut order: Vec<usize> = (0..badges.len()).collect();
    order.sort_by(|&a, &b| {
        badges[b]
            .identification
            .score
            .partial_cmp(&badges[a].identification.score)
            .expect("finite scores")
    });
    let mut swaps = Vec::new();
    for idx in order {
        let Some(who) = badges[idx].identification.carrier else {
            continue;
        };
        if carrier_of[who.index()].is_none() {
            carrier_of[who.index()] = Some(idx);
            if badges[idx].identification.mismatch {
                if let Some(nominal) = MissionContext::nominal_owner(badges[idx].badge) {
                    swaps.push((badges[idx].badge, nominal, who));
                }
            }
        }
    }

    // Meetings & passages from resolved identities.
    let mut stays_by_ast: [Vec<Stay>; 6] = Default::default();
    let mut speech_by_ast: [Option<&SpeechTrack>; 6] = [None; 6];
    for a in AstronautId::ALL {
        if let Some(idx) = carrier_of[a.index()] {
            stays_by_ast[a.index()] = badges[idx]
                .stays
                .iter()
                .copied()
                .filter(|s| s.interval.end > day_start && s.interval.start < day_end)
                .collect();
            speech_by_ast[a.index()] = Some(&badges[idx].speech);
        }
    }
    let detected_meetings = meetings::detect_meetings(
        &stays_by_ast,
        &speech_by_ast,
        &ctx.schedule,
        &ctx.params.meetings,
    );
    let mut passages = PassageMatrix::new();
    for sts in &stays_by_ast {
        passages.accumulate(sts);
    }

    // Daily aggregates.
    let mut daily: [Option<AstronautDaily>; 6] = [None; 6];
    for a in AstronautId::ALL {
        let Some(idx) = carrier_of[a.index()] else {
            continue;
        };
        let b = &badges[idx];
        let worn = b.wear.worn.clip(day_start, day_end).total_duration();
        let walking = b.activity.walking.clip(day_start, day_end).total_duration();
        daily[a.index()] = Some(AstronautDaily {
            walking_fraction: activity::walking_fraction(&b.activity, &b.wear, day_start, day_end),
            heard_fraction: speech::heard_fraction(&b.speech, day_start, day_end),
            worn_fraction: wear::worn_fraction(&b.wear, day_start, day_end),
            active_fraction: wear::active_fraction(&b.wear, day_start, day_end),
            self_talk_h: speech::self_talk_duration(&b.speech, day_start, day_end).as_hours_f64(),
            worn_h: worn.as_hours_f64(),
            walking_h: walking.as_hours_f64(),
            mean_accel_var: b.activity.mean_accel_var,
        });
    }

    let private_pairs = private_conversations(stores, &badges, &carrier_of, &speech_by_ast);

    // Room climate: join every carried badge's env column with its track.
    let mut climate_sums = [(0.0f64, 0u64); 10];
    for store in stores {
        let Some(bd) = badges.iter().find(|b| b.badge == store.badge) else {
            continue;
        };
        for (t_local, s) in store.env.view().iter() {
            let t = bd.corr.to_reference(t_local);
            if let Some(fix) = bd.track.at(t) {
                let slot = &mut climate_sums[fix.room.index()];
                slot.0 += s.temperature_c;
                slot.1 += 1;
            }
        }
    }
    let reference_env = stores
        .iter()
        .find(|s| s.badge == BadgeId::REFERENCE)
        .map(|s| s.view().env_samples().collect())
        .unwrap_or_default();

    let records_in: u64 = stores.iter().map(|s| s.env.len() as u64).sum();
    let out = DayAnalysis {
        day,
        badges,
        carrier_of,
        meetings: detected_meetings,
        passages,
        daily,
        swaps,
        private_pairs,
        climate_sums,
        reference_env,
    };
    metrics.record(
        Stage::Assemble,
        records_in,
        out.meetings.len() as u64,
        t0.elapsed().as_secs_f64(),
    );
    out
}

/// Analyzes one day of columnar telemetry sequentially: per-badge stages in
/// store order over zero-copy views, then day-level assembly.
#[must_use]
pub fn analyze_day_stores(
    ctx: &MissionContext,
    day: u32,
    stores: &[TelemetryStore],
    metrics: &mut EngineMetrics,
) -> DayAnalysis {
    let badges: Vec<BadgeDay> = badge_stores(stores)
        .map(|store| analyze_badge_day(ctx, day, store.view(), metrics))
        .collect();
    assemble_day(ctx, day, stores, badges, metrics)
}

/// The stores that carry per-badge analysis work: every unit except the
/// reference badge (whose environmental stream only feeds assembly).
fn badge_stores(stores: &[TelemetryStore]) -> impl Iterator<Item = &TelemetryStore> {
    stores
        .iter()
        .filter(|store| store.badge != BadgeId::REFERENCE)
}

/// Private-conversation mining: "the infrared transceiver … enables assessing
/// whether two badges are truly close and face each other, so that it is
/// likely that their bearers may be having a conversation."
///
/// A minute counts as private conversation for a pair when (a) their badges
/// exchanged IR contacts in that minute, (b) neither badge saw a third badge
/// over IR, and (c) at least one of the pair's badges heard speech.
fn private_conversations(
    stores: &[TelemetryStore],
    badges: &[BadgeDay],
    carrier_of: &[Option<usize>; 6],
    speech_by_ast: &[Option<&SpeechTrack>; 6],
) -> Vec<(AstronautId, AstronautId, f64)> {
    use std::collections::{BTreeMap, BTreeSet};
    // Badge unit → resolved astronaut.
    let mut who: BTreeMap<BadgeId, usize> = BTreeMap::new();
    for (ai, slot) in carrier_of.iter().enumerate() {
        if let Some(idx) = slot {
            who.insert(badges[*idx].badge, ai);
        }
    }
    let minute = SimDuration::from_secs(60);
    // (astronaut, minute-index) → set of IR partners.
    let mut partners: BTreeMap<(usize, i64), BTreeSet<usize>> = BTreeMap::new();
    for store in stores {
        let Some(&me) = who.get(&store.badge) else {
            continue;
        };
        let Some(bd) = badges.iter().find(|b| b.badge == store.badge) else {
            continue;
        };
        for (t_local, c) in store.ir.view().iter() {
            let Some(&other) = who.get(&c.other) else {
                continue;
            };
            let t = bd.corr.to_reference(t_local);
            let w = t.as_micros().div_euclid(minute.as_micros());
            partners.entry((me, w)).or_default().insert(other);
        }
    }
    let mut hours: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    for (&(me, w), set) in &partners {
        if set.len() != 1 {
            continue; // a third party was in view — not private
        }
        let other = *set.iter().next().expect("len checked");
        if me >= other {
            continue; // count each pair-minute once, from the lower index
        }
        // The partner must also see only `me` in this minute (if it saw
        // anyone at all).
        if partners
            .get(&(other, w))
            .is_some_and(|s| s.len() > 1 || !s.contains(&me))
        {
            continue;
        }
        // Speech evidence from either badge.
        let mid = SimTime::from_micros(w * minute.as_micros() + minute.as_micros() / 2);
        let talked = [me, other].iter().any(|&i| {
            speech_by_ast[i].is_some_and(|tr| {
                tr.heard.contains(mid)
                    || tr.heard.contains(mid - SimDuration::from_secs(20))
                    || tr.heard.contains(mid + SimDuration::from_secs(20))
            })
        });
        if talked {
            *hours.entry((me, other)).or_insert(0.0) += 1.0 / 60.0;
        }
    }
    hours
        .into_iter()
        .map(|((x, y), h)| (AstronautId::ALL[x], AstronautId::ALL[y], h))
        .collect()
}

/// The deterministic parallel executor.
///
/// Badge-days are independent until day-level assembly, so they fan out
/// across a scoped worker pool (work-stealing over an atomic cursor) and
/// land in pre-assigned result slots. Assembly and mission aggregation then
/// run sequentially in canonical day/badge order — the output is therefore
/// **bit-identical** to the sequential path for any worker count and any
/// scheduling, and only the wall-clock (and the wall-time entries of the
/// metrics) varies.
#[derive(Debug)]
pub struct MissionEngine {
    ctx: Arc<MissionContext>,
    workers: usize,
    metrics: Mutex<EngineMetrics>,
}

/// One unit of parallel work: a badge-day of one habitat, carrying the
/// context it must be analyzed under. Single-habitat paths pass the engine's
/// own context; the fleet path threads each habitat's interned context
/// through, which is what generalizes the work unit from `(badge, day)` to
/// `(habitat, badge, day)` without duplicating the executor.
#[derive(Clone, Copy)]
struct UnitTask<'a> {
    ctx: &'a MissionContext,
    day: u32,
    view: TelemetryView<'a>,
}

/// One habitat's input to the batch loop: its context and its recorded
/// days in canonical order.
type HabitatBatch<'a> = (&'a MissionContext, &'a [(u32, Vec<TelemetryStore>)]);

/// One habitat's recorded days plus its interned context — the batch unit
/// the fleet scheduler hands to [`MissionEngine::analyze_fleet_stores`].
#[derive(Debug)]
pub struct HabitatDays {
    /// Fleet-wide habitat index.
    pub habitat: u32,
    /// The habitat's interned mission context (Arc-shared across habitats
    /// with identical deployments).
    pub ctx: Arc<MissionContext>,
    /// Recorded columnar telemetry per day, in canonical day order.
    pub days: Vec<(u32, Vec<TelemetryStore>)>,
}

impl MissionEngine {
    /// An engine over a context, with one worker per available core.
    #[must_use]
    pub fn new(ctx: impl Into<Arc<MissionContext>>) -> Self {
        let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        MissionEngine::with_workers(ctx, workers)
    }

    /// An engine with an explicit worker count (clamped to ≥ 1).
    #[must_use]
    pub fn with_workers(ctx: impl Into<Arc<MissionContext>>, workers: usize) -> Self {
        MissionEngine {
            ctx: ctx.into(),
            workers: workers.max(1),
            metrics: Mutex::new(EngineMetrics::new()),
        }
    }

    /// The mission context.
    #[must_use]
    pub fn context(&self) -> &MissionContext {
        &self.ctx
    }

    /// The interned context handle (cheap to clone into other engines and
    /// fleet batches).
    #[must_use]
    pub fn context_arc(&self) -> Arc<MissionContext> {
        Arc::clone(&self.ctx)
    }

    /// The worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// A snapshot of the accumulated per-stage metrics.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked while holding the metrics lock.
    #[must_use]
    pub fn metrics(&self) -> EngineMetrics {
        self.metrics.lock().expect("metrics lock").clone()
    }

    fn merge_metrics(&self, local: &EngineMetrics) {
        self.metrics.lock().expect("metrics lock").merge(local);
    }

    /// Fans badge-day tasks out across the worker pool; results come back in
    /// task order regardless of which worker ran what. Each task carries its
    /// own context, so one pool serves single-habitat and fleet batches
    /// alike.
    fn fan_out(&self, tasks: &[UnitTask<'_>]) -> Vec<BadgeDay> {
        let workers = self.workers.min(tasks.len().max(1));
        if workers == 1 {
            let mut local = EngineMetrics::new();
            let out = tasks
                .iter()
                .map(|&t| analyze_badge_day(t.ctx, t.day, t.view, &mut local))
                .collect();
            self.merge_metrics(&local);
            return out;
        }
        let slots: Vec<Mutex<Option<BadgeDay>>> = tasks.iter().map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        crossbeam::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    let mut local = EngineMetrics::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&t) = tasks.get(i) else {
                            break;
                        };
                        let analyzed = analyze_badge_day(t.ctx, t.day, t.view, &mut local);
                        *slots[i].lock().expect("unshared slot") = Some(analyzed);
                    }
                    self.merge_metrics(&local);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("unshared slot")
                    .expect("every task ran")
            })
            .collect()
    }

    /// Analyzes one day of columnar telemetry, fanning zero-copy badge views
    /// across workers. Bit-identical to [`analyze_day_stores`].
    #[must_use]
    pub fn analyze_day_stores(&self, day: u32, stores: &[TelemetryStore]) -> DayAnalysis {
        let tasks: Vec<UnitTask<'_>> = badge_stores(stores)
            .map(|store| UnitTask {
                ctx: &self.ctx,
                day,
                view: store.view(),
            })
            .collect();
        let badges = self.fan_out(&tasks);
        let mut local = EngineMetrics::new();
        let out = assemble_day(&self.ctx, day, stores, badges, &mut local);
        self.merge_metrics(&local);
        out
    }

    /// Analyzes a batch of recorded days, fanning **all** badge-day views
    /// across workers at once, then assembling and absorbing each day in
    /// canonical order. Bit-identical to analyzing each day sequentially and
    /// absorbing in day order (including the recorded-byte accounting).
    #[must_use]
    pub fn analyze_days_stores(&self, days: &[(u32, Vec<TelemetryStore>)]) -> MissionAnalysis {
        self.analyze_batch(&[(&self.ctx, days)])
            .pop()
            .expect("one habitat in, one mission out")
    }

    /// Analyzes a fleet batch — several habitats' recorded days, each under
    /// its own interned context — by fanning **all** `(habitat, badge, day)`
    /// units across one worker pool, then assembling and absorbing each
    /// habitat's days in canonical `(habitat, day, badge)` order.
    ///
    /// Per-habitat output is bit-identical to running that habitat alone
    /// through [`MissionEngine::analyze_days_stores`] with any worker count:
    /// habitats share no mutable state, every unit lands in a pre-assigned
    /// slot, and assembly is sequential in canonical order.
    #[must_use]
    pub fn analyze_fleet_stores(&self, batch: &[HabitatDays]) -> Vec<(u32, MissionAnalysis)> {
        let habitats: Vec<HabitatBatch<'_>> = batch
            .iter()
            .map(|hab| (&*hab.ctx, hab.days.as_slice()))
            .collect();
        batch
            .iter()
            .map(|hab| hab.habitat)
            .zip(self.analyze_batch(&habitats))
            .collect()
    }

    /// The one batch loop behind [`Self::analyze_days_stores`] and
    /// [`Self::analyze_fleet_stores`]: fans every badge-day of every habitat
    /// across the pool, then per habitat and day, in canonical order, takes
    /// that day's badge results, assembles the day, accounts its recorded
    /// bytes and absorbs it into the habitat's mission.
    fn analyze_batch(&self, habitats: &[HabitatBatch<'_>]) -> Vec<MissionAnalysis> {
        let tasks: Vec<UnitTask<'_>> = habitats
            .iter()
            .flat_map(|&(ctx, days)| {
                days.iter().flat_map(move |&(day, ref stores)| {
                    badge_stores(stores).map(move |store| UnitTask {
                        ctx,
                        day,
                        view: store.view(),
                    })
                })
            })
            .collect();
        let mut analyzed = self.fan_out(&tasks).into_iter();
        let mut local = EngineMetrics::new();
        let mut out = Vec::with_capacity(habitats.len());
        for &(ctx, days) in habitats {
            let mut mission = MissionAnalysis::new(&ctx.plan);
            for (day, stores) in days {
                let n = badge_stores(stores).count();
                let badges: Vec<BadgeDay> = analyzed.by_ref().take(n).collect();
                let day_analysis = assemble_day(ctx, *day, stores, badges, &mut local);
                mission.account_recorded(stores.iter().map(|s| s.bytes_written).sum());
                mission.absorb(day_analysis);
            }
            out.push(mission);
        }
        self.merge_metrics(&local);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_accumulate_and_merge() {
        let mut a = EngineMetrics::new();
        a.record(Stage::Localize, 100, 90, 0.5);
        a.record(Stage::Localize, 50, 40, 0.25);
        let mut b = EngineMetrics::new();
        b.record(Stage::Localize, 10, 10, 0.25);
        b.record(Stage::Speech, 7, 3, 0.1);
        a.merge(&b);
        let loc = a.get(Stage::Localize);
        assert_eq!(loc.calls, 3);
        assert_eq!(loc.records_in, 160);
        assert_eq!(loc.items_out, 140);
        assert!((loc.wall_s - 1.0).abs() < 1e-12);
        assert!((loc.records_per_s() - 160.0).abs() < 1e-9);
        assert_eq!(a.get(Stage::Speech).calls, 1);
        assert!(a.render().contains("localize"));
    }

    #[test]
    fn throughput_is_always_finite() {
        // Zero wall time → 0, never NaN.
        let zero = StageMetrics {
            calls: 1,
            records_in: 10,
            items_out: 0,
            wall_s: 0.0,
        };
        assert_eq!(zero.records_per_s(), 0.0);
        // Denormal wall time overflowing the division → 0, never inf.
        let mut m = EngineMetrics::new();
        m.record(Stage::Localize, u64::MAX, 0, f64::MIN_POSITIVE / 4.0);
        let r = m.get(Stage::Localize).records_per_s();
        assert!(r.is_finite(), "throughput {r} must be finite");
    }

    #[test]
    fn empty_day_parallel_matches_sequential() {
        let engine = MissionEngine::with_workers(MissionContext::icares(), 4);
        let parallel = engine.analyze_day_stores(3, &[]);
        let mut metrics = EngineMetrics::new();
        let sequential = analyze_day_stores(engine.context(), 3, &[], &mut metrics);
        assert_eq!(parallel, sequential);
        assert!(parallel.badges.is_empty());
    }

    #[test]
    fn nominal_owners() {
        assert_eq!(
            MissionContext::nominal_owner(BadgeId(0)),
            Some(AstronautId::A)
        );
        assert_eq!(
            MissionContext::nominal_owner(BadgeId(5)),
            Some(AstronautId::F)
        );
        assert_eq!(MissionContext::nominal_owner(BadgeId(7)), None);
        assert_eq!(MissionContext::nominal_owner(BadgeId::REFERENCE), None);
    }
}
