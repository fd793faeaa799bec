//! `ares-badge` — the sociometric badge device model.
//!
//! The paper's custom wearable (140 mm × 84 mm × 10 mm, 111 g) carried an
//! accelerometer, magnetometer, gyroscope, thermometer, barometer, light
//! sensor and a microphone *feature extractor* (never raw audio), plus three
//! wireless interfaces: an 868 MHz radio, a BLE radio and an infrared
//! transceiver. This crate models that device faithfully enough that the
//! offline pipeline sees the same data pathologies the real deployment did:
//! drifting local clocks, lossy radio links, doorway beacon leakage, off-body
//! badges quietly recording on a desk, muffled microphones, and identity
//! mix-ups after badge swaps.
//!
//! * [`records`] — the on-card record types (row form of single records).
//! * [`clockdrift`] — per-unit drifting clocks; the reference badge timeline.
//! * [`world`] — habitat + channels + badge↔wearer mapping.
//! * [`sensors`] — IMU and environmental feature models.
//! * [`mic`] — microphone feature frames.
//! * [`scanner`] — BLE beacon scans.
//! * [`links`] — 868 MHz proximity, infrared contacts, time-sync exchanges.
//! * [`power`] — battery and overnight charging.
//! * [`storage`] — SD volume accounting and the on-card scan codec.
//! * [`recorder`] — the day-by-day firmware recorder.
//! * [`telemetry`] — the columnar (struct-of-arrays) telemetry store and
//!   its zero-copy views: the one recorded form of a badge's span.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod clockdrift;
pub mod links;
pub mod mic;
pub mod power;
pub mod recorder;
pub mod records;
pub mod scanner;
pub mod sensors;
pub mod storage;
pub mod telemetry;
pub mod world;

/// Physical constants of the badge hardware, from the paper.
pub mod device {
    /// Badge width (mm).
    pub const WIDTH_MM: f64 = 140.0;
    /// Badge height (mm).
    pub const HEIGHT_MM: f64 = 84.0;
    /// Badge thickness (mm).
    pub const THICKNESS_MM: f64 = 10.0;
    /// Total weight including electronics, battery, casing and cord (g).
    pub const WEIGHT_G: f64 = 111.0;
}

/// Convenient glob-import of the most used badge types.
pub mod prelude {
    pub use crate::clockdrift::ClockSet;
    pub use crate::recorder::Recorder;
    pub use crate::records::{
        AudioFrame, BadgeId, BeaconScan, EnvSample, ImuSample, IrContact, ProximityObs,
        SamplingConfig, SyncSample,
    };
    pub use crate::telemetry::{TelemetryStore, TelemetryView};
    pub use crate::world::World;
}
