//! `ares-sociometrics` — the offline sociometric analysis pipeline.
//!
//! This crate is the primary contribution of the reproduction: the analysis
//! system that turned ICAres-1's 150 GiB of badge recordings into the paper's
//! findings. It consumes [`ares_badge`] columnar telemetry stores (drifting
//! local clocks, lossy radio, identity mix-ups and all) and produces room
//! occupancy, movement, speech, meeting and social-network results:
//!
//! * [`sync`] — clock correction against the reference badge.
//! * [`localization`] — room classification, in-room trilateration, 28 cm
//!   heatmaps (Fig. 3).
//! * [`occupancy`] — stay segmentation with the 10-s dwell filter, the room
//!   passage matrix (Fig. 2), stay-duration statistics.
//! * [`wear`] — worn vs. active classification (the 63 % / 84 % statistics).
//! * [`activity`] — walking detection (Fig. 4).
//! * [`speech`] — the 15-s / 60 dB / 20 % interval rule (Fig. 6), self-speech
//!   attribution and the screen-reader filter.
//! * [`meetings`] — co-presence meetings and their dynamics (Fig. 5).
//! * [`proximity`] — 868 MHz badge-to-badge co-location and meeting
//!   cross-validation.
//! * [`social`] — company time, pairwise hours, Kleinberg authority
//!   (Table I).
//! * [`anomaly`] — badge-swap detection and identity repair.
//! * [`environment`] — room-climate recovery and the artificial-day-length
//!   estimator (the habitat ran on Martian time).
//! * [`engine`] — the staged mission engine: the shared [`engine::MissionContext`],
//!   the per-badge-day stage kernels, per-stage metrics, and the
//!   deterministic parallel executor [`engine::MissionEngine`] — the one
//!   analysis API.
//! * [`fleet`] — the fleet-scale mission service: hundreds of seeded habitat
//!   variants sharded behind one deterministic scheduler, with a fleet
//!   scorecard aggregated across shards.
//! * [`pipeline`] — the analysis data model: tunables, per-day and
//!   mission-level results.
//! * [`streaming`] — the bounded-memory real-time analyzer (the mission
//!   support system's substrate; Section VI), built on the same stage
//!   kernels as the batch path.
//! * [`report`] — Table I and the headline statistics.
//! * [`validation`] — cross-checking sensor findings against the classic
//!   evening surveys.
//!
//! # Examples
//!
//! ```no_run
//! use ares_sociometrics::engine::{MissionContext, MissionEngine};
//!
//! let engine = MissionEngine::with_workers(MissionContext::icares(), 1);
//! // Each entry: a mission day and the telemetry stores recorded that day.
//! # let days: Vec<(u32, Vec<ares_badge::telemetry::TelemetryStore>)> = Vec::new();
//! let mission = engine.analyze_days_stores(&days);
//! let table = ares_sociometrics::report::table_one(&mission);
//! println!("{}", table.render());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod activity;
pub mod anomaly;
pub mod engine;
pub mod environment;
pub mod fleet;
pub mod localization;
pub mod meetings;
pub mod occupancy;
pub mod pipeline;
pub mod proximity;
pub mod report;
pub mod social;
pub mod speech;
pub mod streaming;
pub mod sync;
pub mod validation;
pub mod wear;

/// Convenient glob-import of the most used pipeline types.
pub mod prelude {
    pub use crate::activity::{ActivityParams, ActivityTrack};
    pub use crate::anomaly::{Identification, IdentityParams};
    pub use crate::engine::{
        EngineMetrics, HabitatDays, MissionContext, MissionEngine, Stage, StageMetrics,
    };
    pub use crate::fleet::{
        run_fleet, FleetConfig, FleetRun, FleetScorecard, HabitatOutcome, HabitatSource,
        OpenHabitat, ShardReport,
    };
    pub use crate::localization::{Fix, Heatmap, LocalizationParams, PositionTrack, ScanSmoother};
    pub use crate::meetings::{MeetingObs, MeetingParams};
    pub use crate::occupancy::{PassageMatrix, Stay, StayStats};
    pub use crate::pipeline::{DayAnalysis, MissionAnalysis, PipelineParams};
    pub use crate::report::{
        fleet_section, headline_stats, scenario_section, table_one, FleetShardRow, HeadlineStats,
        ScenarioPlanRow, TableOne,
    };
    pub use crate::social::{CompanyMatrix, PairwiseLedger};
    pub use crate::speech::{SpeechParams, SpeechTrack};
    pub use crate::streaming::{IncrementalSync, LiveEvent, StreamingAnalyzer};
    pub use crate::sync::SyncCorrection;
    pub use crate::validation::{cross_check, CrossCheck, CrossCheckItem};
    pub use crate::wear::{WearParams, WearTrack};
}
