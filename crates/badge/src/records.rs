//! Record types written by a badge to its SD card.
//!
//! These are the row forms of single records — what the sensor models emit
//! and what the columnar [`crate::telemetry::TelemetryStore`] appends via its
//! `push_*` methods. A badge's recorded span lives only in the store.
//!
//! All timestamps are **badge-local**: each badge stamps records with its own
//! drifting clock. The offline pipeline (`ares-sociometrics::sync`) maps them
//! back to the reference timeline before any cross-badge analysis — exactly
//! the procedure used after ICAres-1.

use ares_habitat::beacons::BeaconId;
use ares_simkit::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Identifier of a physical badge unit.
///
/// Units 0–5 are initially assigned to astronauts A–F, 6–11 are the six
/// redundant backups, and [`BadgeId::REFERENCE`] is the permanently charged
/// reference badge at the station.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct BadgeId(pub u8);

impl BadgeId {
    /// The reference badge at the charging station.
    pub const REFERENCE: BadgeId = BadgeId(12);

    /// The badge initially assigned to the astronaut with dense index `i`.
    #[must_use]
    pub fn primary(i: usize) -> BadgeId {
        BadgeId(i as u8)
    }

    /// Whether this unit is one of the six backups.
    #[must_use]
    pub fn is_backup(self) -> bool {
        (6..=11).contains(&self.0)
    }
}

impl std::fmt::Display for BadgeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "badge{:02}", self.0)
    }
}

/// One BLE scan: the beacon advertisements heard in one scan window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BeaconScan {
    /// Badge-local timestamp of the scan.
    pub t_local: SimTime,
    /// `(beacon, RSSI dBm)` for every advertisement received.
    pub hits: Vec<(BeaconId, f64)>,
}

/// One microphone feature frame (the badge never stores raw audio).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AudioFrame {
    /// Badge-local timestamp of the frame start.
    pub t_local: SimTime,
    /// A-weighted level over the frame (dB SPL).
    pub level_db: f64,
    /// Whether voice-band energy dominated the frame.
    pub voiced: bool,
    /// Estimated fundamental frequency when voiced (Hz).
    pub f0_hz: Option<f64>,
}

/// One inertial feature window (accelerometer + gyroscope summary).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ImuSample {
    /// Badge-local timestamp of the window start.
    pub t_local: SimTime,
    /// Variance of acceleration magnitude over the window ((m/s²)²).
    pub accel_var: f64,
    /// Mean acceleration magnitude (m/s²).
    pub accel_mean: f64,
    /// Dominant step-band frequency, if any (Hz).
    pub step_hz: Option<f64>,
}

/// One environmental sample (thermometer, barometer, light sensor).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnvSample {
    /// Badge-local timestamp.
    pub t_local: SimTime,
    /// Temperature (°C).
    pub temperature_c: f64,
    /// Pressure (hPa).
    pub pressure_hpa: f64,
    /// Illuminance (lux).
    pub light_lux: f64,
}

/// One 868 MHz inter-badge proximity observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProximityObs {
    /// Badge-local timestamp.
    pub t_local: SimTime,
    /// The badge heard.
    pub other: BadgeId,
    /// Received signal strength (dBm).
    pub rssi: f64,
}

/// One infrared face-to-face contact.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IrContact {
    /// Badge-local timestamp.
    pub t_local: SimTime,
    /// The facing badge.
    pub other: BadgeId,
}

/// One opportunistic time-sync exchange with the reference badge.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SyncSample {
    /// This badge's local time at the exchange.
    pub t_local: SimTime,
    /// The reference badge's local time in the same exchange.
    pub t_reference: SimTime,
}

/// Sampling configuration of the badge firmware.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SamplingConfig {
    /// BLE scan period.
    pub scan_period: SimDuration,
    /// Audio feature frame length.
    pub audio_frame: SimDuration,
    /// IMU feature window length.
    pub imu_window: SimDuration,
    /// Environmental sampling period.
    pub env_period: SimDuration,
    /// 868 MHz proximity ping period.
    pub proximity_period: SimDuration,
    /// Infrared sampling period.
    pub ir_period: SimDuration,
    /// Time-sync attempt period.
    pub sync_period: SimDuration,
    /// Raw on-card data rate while actively sampling (B/s) — dominated by
    /// high-rate audio features and raw IMU streams.
    pub raw_rate_active_bps: u64,
    /// Raw rate while docked (environmental only, B/s).
    pub raw_rate_docked_bps: u64,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig {
            scan_period: SimDuration::from_secs(1),
            audio_frame: SimDuration::from_millis(500),
            imu_window: SimDuration::from_secs(1),
            env_period: SimDuration::from_secs(60),
            proximity_period: SimDuration::from_secs(5),
            ir_period: SimDuration::from_secs(1),
            sync_period: SimDuration::from_mins(5),
            raw_rate_active_bps: 40_500,
            raw_rate_docked_bps: 1_800,
        }
    }
}

impl SamplingConfig {
    /// The fleet-scale sampling profile: every stream decimated ~5× against
    /// the canonical deployment so hundreds of habitats fit in one soak run.
    ///
    /// The analysis pipeline makes no assumptions about these rates beyond
    /// monotonic timestamps, so fleet runs stay bit-deterministic — they just
    /// carry less telemetry per badge-day than the paper's deployment.
    #[must_use]
    pub fn fleet() -> Self {
        SamplingConfig {
            scan_period: SimDuration::from_secs(5),
            audio_frame: SimDuration::from_millis(2500),
            imu_window: SimDuration::from_secs(5),
            env_period: SimDuration::from_secs(300),
            proximity_period: SimDuration::from_secs(25),
            ir_period: SimDuration::from_secs(5),
            sync_period: SimDuration::from_mins(10),
            raw_rate_active_bps: 8_100,
            raw_rate_docked_bps: 360,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn badge_id_classes() {
        assert_eq!(BadgeId::primary(2), BadgeId(2));
        assert!(BadgeId(7).is_backup());
        assert!(!BadgeId(3).is_backup());
        assert!(!BadgeId::REFERENCE.is_backup());
        assert_eq!(format!("{}", BadgeId(4)), "badge04");
    }
}
