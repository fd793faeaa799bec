//! Inertial and environmental sensor models.
//!
//! Sensors never see ground truth directly: they sample noisy features from
//! it, exactly the features the real badge firmware extracted on-device
//! (variance of acceleration magnitude, step-band frequency, ambient
//! temperature/pressure/light).

use crate::records::{EnvSample, ImuSample};
use crate::world::World;
use ares_crew::truth::WearState;
use ares_habitat::rooms::RoomId;
use ares_simkit::time::SimTime;
use rand::Rng;
use rand_distr::{Distribution, Normal};

/// Parameters of the inertial feature model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImuModel {
    /// Mean acceleration-magnitude variance while walking ((m/s²)²).
    pub walk_var: f64,
    /// Variance while worn but stationary (breathing, posture sway).
    pub still_var: f64,
    /// Variance when the badge lies on a desk or charger (electronic noise).
    pub off_body_var: f64,
    /// Mean step frequency while walking (Hz).
    pub step_hz: f64,
}

impl Default for ImuModel {
    fn default() -> Self {
        ImuModel {
            walk_var: 1.3,
            still_var: 0.035,
            off_body_var: 0.0004,
            step_hz: 1.85,
        }
    }
}

impl ImuModel {
    /// Samples one IMU feature window for a badge.
    ///
    /// `energy_scale` is the wearer's bodily energy (derived from the
    /// personality's mobility); it scales both walking and stationary
    /// variance, which is what makes "average daily acceleration" differ
    /// between astronauts in the paper's sense.
    pub fn sample(
        &self,
        t_local: SimTime,
        wear: WearState,
        walking: bool,
        energy_scale: f64,
        rng: &mut impl Rng,
    ) -> ImuSample {
        ImuSampler::new(*self, energy_scale).sample(t_local, wear, walking, rng)
    }
}

/// A per-unit IMU sampler with the wearer's energy scale folded in and every
/// per-window `Normal` constructed once instead of per sample.
#[derive(Debug, Clone)]
pub struct ImuSampler {
    walk: Normal,
    still: Normal,
    off_body: Normal,
    step: Normal,
    mean: Normal,
}

impl ImuSampler {
    /// Builds a sampler for one unit-day; `energy_scale` is the carrier's
    /// bodily energy (1.0 for uncarried units).
    #[must_use]
    pub fn new(model: ImuModel, energy_scale: f64) -> Self {
        ImuSampler {
            walk: Normal::new(model.walk_var * energy_scale, 0.22).expect("sd > 0"),
            still: Normal::new(model.still_var * energy_scale, 0.012).expect("sd > 0"),
            off_body: Normal::new(model.off_body_var, 0.00018).expect("sd > 0"),
            step: Normal::new(model.step_hz, 0.12).expect("sd > 0"),
            mean: Normal::new(9.81, 0.04).expect("sd > 0"),
        }
    }

    /// Samples one IMU feature window (see [`ImuModel::sample`]).
    pub fn sample(
        &self,
        t_local: SimTime,
        wear: WearState,
        walking: bool,
        rng: &mut impl Rng,
    ) -> ImuSample {
        let (var, step) = match wear {
            WearState::Worn if walking => {
                let v = self.walk.sample(rng).max(0.4);
                let s = self.step.sample(rng);
                (v, Some(s.clamp(1.2, 2.6)))
            }
            WearState::Worn => (self.still.sample(rng).max(0.003), None),
            WearState::LeftAt(_) | WearState::Docked => (self.off_body.sample(rng).max(1e-5), None),
        };
        let mean = self.mean.sample(rng);
        ImuSample {
            t_local,
            accel_var: var,
            accel_mean: mean,
            step_hz: step,
        }
    }
}

/// An environmental sampler with the measurement-noise distributions hoisted
/// out of the per-sample path. The badge's room is resolved by the caller
/// (field cache or exact polygon test), not re-derived per sample.
#[derive(Debug, Clone)]
pub struct EnvSampler {
    temp: Normal,
    pressure: Normal,
}

impl Default for EnvSampler {
    fn default() -> Self {
        EnvSampler {
            temp: Normal::new(0.0, 0.25).expect("sd > 0"),
            pressure: Normal::new(0.0, 0.35).expect("sd > 0"),
        }
    }
}

impl EnvSampler {
    /// Samples one environmental record for a badge in `room`.
    pub fn sample(
        &self,
        world: &World,
        room: RoomId,
        t_true: SimTime,
        t_local: SimTime,
        rng: &mut impl Rng,
    ) -> EnvSample {
        let temp = world.env.temperature_c(room, t_true) + self.temp.sample(rng);
        let pressure = world.env.pressure_hpa(t_true) + self.pressure.sample(rng);
        let light = (world.env.light_lux(room, t_true) * rng.gen_range(0.92..1.08)).max(0.0);
        EnvSample {
            t_local,
            temperature_c: temp,
            pressure_hpa: pressure,
            light_lux: light,
        }
    }
}

/// Samples one environmental record for a badge (exact-geometry façade over
/// [`EnvSampler`]).
pub fn sample_env(
    world: &World,
    badge_pos: ares_simkit::geometry::Point2,
    t_true: SimTime,
    t_local: SimTime,
    rng: &mut impl Rng,
) -> EnvSample {
    EnvSampler::default().sample(world, world.room_at(badge_pos), t_true, t_local, rng)
}

/// Classifier threshold separating on-body from off-body accelerometer
/// variance; shared with the pipeline's wear detector so both sides agree on
/// the device physics (the pipeline still works from recorded data only).
pub const OFF_BODY_VAR_THRESHOLD: f64 = 0.002;

/// Threshold separating walking from stationary wear.
pub const WALK_VAR_THRESHOLD: f64 = 0.35;

#[cfg(test)]
mod tests {
    use super::*;
    use ares_simkit::geometry::Point2;
    use ares_simkit::rng::SeedTree;

    #[test]
    fn imu_classes_are_separable() {
        let model = ImuModel::default();
        let mut rng = SeedTree::new(3).stream("imu");
        let t = SimTime::from_secs(0);
        for _ in 0..300 {
            let walk = model.sample(t, WearState::Worn, true, 1.0, &mut rng);
            assert!(
                walk.accel_var > WALK_VAR_THRESHOLD,
                "walk var {}",
                walk.accel_var
            );
            assert!(walk.step_hz.is_some());
            let still = model.sample(t, WearState::Worn, false, 1.0, &mut rng);
            assert!(still.accel_var < WALK_VAR_THRESHOLD);
            assert!(still.accel_var > OFF_BODY_VAR_THRESHOLD);
            let off = model.sample(t, WearState::Docked, false, 1.0, &mut rng);
            assert!(off.accel_var < OFF_BODY_VAR_THRESHOLD);
            assert!(off.step_hz.is_none());
        }
    }

    #[test]
    fn energy_scale_shifts_variance() {
        let model = ImuModel::default();
        let mut rng = SeedTree::new(4).stream("imu2");
        let t = SimTime::from_secs(0);
        let mean = |scale: f64, rng: &mut rand::rngs::StdRng| -> f64 {
            (0..500)
                .map(|_| model.sample(t, WearState::Worn, true, scale, rng).accel_var)
                .sum::<f64>()
                / 500.0
        };
        let hi = mean(1.3, &mut rng);
        let lo = mean(0.8, &mut rng);
        assert!(hi > lo + 0.3, "energetic wearers show more acceleration");
    }

    #[test]
    fn env_tracks_room_fields() {
        let world = World::icares();
        let mut rng = SeedTree::new(5).stream("env");
        let t = SimTime::from_day_hms(3, 13, 0, 0);
        let kitchen = world.plan.room_center(ares_habitat::rooms::RoomId::Kitchen);
        let storage = world.plan.room_center(ares_habitat::rooms::RoomId::Storage);
        let mean_t = |p: Point2, rng: &mut rand::rngs::StdRng| -> f64 {
            (0..100)
                .map(|_| sample_env(&world, p, t, t, rng).temperature_c)
                .sum::<f64>()
                / 100.0
        };
        assert!(mean_t(kitchen, &mut rng) > mean_t(storage, &mut rng) + 3.0);
    }
}
