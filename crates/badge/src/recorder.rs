//! The firmware recorder: turns ground truth into badge telemetry, day by day.
//!
//! One [`Recorder::record_day`] call produces the columnar telemetry stores
//! of all 13 units for one mission day — every sensor stream sampled at its
//! configured rate, stamped with the unit's drifting local clock. Recording
//! day-by-day keeps memory bounded (the real mission wrote to SD cards; we
//! hand each day to the pipeline and drop it).
//!
//! Recording is organised unit-by-unit: a shared per-day precomputation
//! resolves every unit's position, wear state and room once per master tick,
//! then each unit replays the day against that table on its **own** seeded
//! RNG stream. Because no randomness is shared across units, the per-unit
//! jobs can fan out across worker threads and the merged result is
//! bit-identical to the sequential order for any worker count.
//!
//! The per-unit replay is a **run-length batched kernel** over the RF field
//! cache: astronauts dwell, so a unit's `(position, room)` is constant for
//! long stretches of consecutive ticks. All geometry derived from the dwell
//! point — the scan plan (candidate beacons with lane-batched mean RSSI),
//! the station sync link's mean, the room's ambient noise floor — is hoisted
//! to the run boundary, and the tick loop only performs the draws. Rooms and
//! wall counts come from the cache, which only tabulates cells it can prove
//! constant; every hoisted value is exactly what a per-tick exact evaluation
//! would produce, and the culls only skip packets the channel would reject
//! *before* drawing.
//!
//! [`Recorder::record_day_reference`] is that per-tick exact evaluation: the
//! plain scalar tick loop over exact geometry (polygon room tests and a wall
//! scan per packet), reading no field-cache value. It shares neither
//! optimisation with the production kernel, and the two record
//! bit-identical stores — the contract every recording determinism test
//! pins.

use crate::clockdrift::{ClockSet, UNIT_COUNT};
use crate::links;
use crate::mic::{self, MicModel, MicSampler};
use crate::records::{BadgeId, ProximityObs, SamplingConfig, SyncSample};
use crate::scanner;
use crate::sensors::{EnvSampler, ImuModel, ImuSampler};
use crate::storage::StorageMeter;
use crate::telemetry::TelemetryStore;
use crate::world::World;
use ares_crew::roster::{AstronautId, Roster};
use ares_crew::truth::{MissionTruth, PathCursor, SpeechSegment, WearState};
use ares_habitat::rooms::RoomId;
use ares_simkit::geometry::Point2;
use ares_simkit::rng::SeedTree;
use ares_simkit::time::{SimDuration, SimTime};
use rand::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Mission-wide recording context.
#[derive(Debug)]
pub struct Recorder<'a> {
    world: &'a World,
    roster: &'a Roster,
    truth: &'a MissionTruth,
    clocks: ClockSet,
    config: SamplingConfig,
    seed: SeedTree,
    /// Days on which astronaut A's badge sat muffled under the lab apron.
    muffled_days: Vec<u32>,
}

/// One unit's resolved state at one master tick.
#[derive(Debug, Clone, Copy, PartialEq)]
struct UnitTick {
    pos: Point2,
    wear: WearState,
    /// Room from the field cache (the batched kernel's lookup; the
    /// reference resolves its own with the exact polygon test).
    room: RoomId,
    /// Raw `is_walking` of the carrier (false for uncarried units); the
    /// kernel still ANDs it with `wear.is_worn()` like the scalar path.
    walking: bool,
}

/// Shared per-day context, computed once before the per-unit fan-out.
struct DayPrecomp {
    day: u32,
    start: SimTime,
    duty_end: SimTime,
    night_end: SimTime,
    noise_adjust: f64,
    day_speech: Vec<SpeechSegment>,
    carriers: Vec<Option<AstronautId>>,
    ticks: usize,
    /// Flat tick-major SoA table: unit `u` at tick `k` is
    /// `states[k * UNIT_COUNT + u]`.
    states: Vec<UnitTick>,
}

impl DayPrecomp {
    /// All units' states at tick `k`.
    fn tick_states(&self, k: usize) -> &[UnitTick] {
        &self.states[k * UNIT_COUNT..(k + 1) * UNIT_COUNT]
    }
}

impl<'a> Recorder<'a> {
    /// Creates a recorder; clock drifts and muffle days are drawn from the
    /// seed.
    #[must_use]
    pub fn new(
        world: &'a World,
        roster: &'a Roster,
        truth: &'a MissionTruth,
        config: SamplingConfig,
        seed: SeedTree,
    ) -> Self {
        let clocks = ClockSet::generate(&seed);
        let mut rng = seed.child("badge").stream("muffle");
        let muffled_days = (2..=14u32).filter(|_| rng.gen::<f64>() < 0.35).collect();
        Recorder {
            world,
            roster,
            truth,
            clocks,
            config,
            seed,
            muffled_days,
        }
    }

    /// The clock set in use (tests compare pipeline corrections against it).
    #[must_use]
    pub fn clocks(&self) -> &ClockSet {
        &self.clocks
    }

    /// The sampling configuration.
    #[must_use]
    pub fn config(&self) -> &SamplingConfig {
        &self.config
    }

    /// Records one mission day (1-based) for all units, appending every
    /// sensor stream directly into columnar [`TelemetryStore`]s, on up to
    /// `workers` threads (one unit per job).
    ///
    /// The recorded span covers the duty day plus the overnight docking
    /// period before the next morning (sync exchanges happen at the
    /// charger). Each unit draws from its own seeded stream, so the result is
    /// bit-identical for any worker count; the canonical unit order is
    /// restored by slot-indexed merging (write-once slots — no locks, no
    /// copies on merge).
    #[must_use]
    pub fn record_day(&self, day: u32, workers: usize) -> Vec<TelemetryStore> {
        let pre = self.precompute_day(day);
        let workers = workers.clamp(1, UNIT_COUNT);
        let mut stores: Vec<TelemetryStore> = if workers == 1 {
            (0..UNIT_COUNT)
                .map(|i| self.record_unit_day(&pre, i))
                .collect()
        } else {
            let slots: Vec<OnceLock<TelemetryStore>> =
                (0..UNIT_COUNT).map(|_| OnceLock::new()).collect();
            let cursor = AtomicUsize::new(0);
            crossbeam::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= UNIT_COUNT {
                            break;
                        }
                        slots[i]
                            .set(self.record_unit_day(&pre, i))
                            .expect("unshared slot");
                    });
                }
            });
            slots
                .into_iter()
                .map(|slot| slot.into_inner().expect("every unit ran"))
                .collect()
        };
        self.finish_day(&pre, &mut stores);
        stores
    }

    /// Records one mission day with the plain per-tick loop over exact
    /// geometry — the bit-identity oracle for [`Recorder::record_day`]
    /// (equivalence tests, `scenario_soak` and `bench_smoke` compare against
    /// it). Sequential and several times slower; never a production path.
    #[must_use]
    pub fn record_day_reference(&self, day: u32) -> Vec<TelemetryStore> {
        let pre = self.precompute_day(day);
        let mut stores: Vec<TelemetryStore> = (0..UNIT_COUNT)
            .map(|i| self.record_unit_day_reference(&pre, i))
            .collect();
        self.finish_day(&pre, &mut stores);
        stores
    }

    /// The shared post-merge steps: IR mirroring and storage accounting.
    fn finish_day(&self, pre: &DayPrecomp, stores: &mut [TelemetryStore]) {
        // IR contacts are recorded on the lower-id unit only so far; mirror
        // them onto the partner, stamped with the partner's own clock at the
        // same true instant. The partner's stamp can land out of time order;
        // the column's sorted insert repairs that on append.
        let mut mirrored: Vec<(usize, crate::records::IrContact)> = Vec::new();
        for store in stores.iter() {
            for (t_local, c) in store.ir.view().iter() {
                let t_true = self.clocks.clock(store.badge).true_time(t_local);
                mirrored.push((
                    c.other.0 as usize,
                    crate::records::IrContact {
                        t_local: self.clocks.clock(c.other).local_time(t_true),
                        other: store.badge,
                    },
                ));
            }
        }
        for (idx, contact) in mirrored {
            stores[idx].push_ir(contact);
        }

        // Storage accounting.
        for (idx, store) in stores.iter_mut().enumerate() {
            let mut meter = StorageMeter::new();
            if pre.carriers[idx].is_some() {
                meter.record_active(&self.config, pre.duty_end - pre.start);
                meter.record_docked(&self.config, pre.night_end - pre.duty_end);
            } else {
                meter.record_docked(&self.config, pre.night_end - pre.start);
            }
            store.bytes_written = meter.bytes();
        }
    }

    /// Resolves everything the per-unit jobs share: the day's constants, the
    /// speech overlapping the duty window, and every unit's position, wear
    /// state, field-cache room and walking flag at each master tick.
    ///
    /// The per-tick lookups run behind monotone cursors (amortized O(1) per
    /// tick instead of a binary search), which is bit-identical to the plain
    /// `Series`/`IntervalSet` lookups for the tick loop's ordered times.
    fn precompute_day(&self, day: u32) -> DayPrecomp {
        let start = SimTime::from_day_hms(day, 7, 0, 0);
        let duty_end = SimTime::from_day_hms(day, 21, 0, 0);
        let night_end = SimTime::from_day_hms(day + 1, 6, 55, 0);
        let noise_adjust = if self.world.incidents.talk_mood(day) < 0.5 {
            -4.0
        } else {
            0.0
        };
        let day_speech = self
            .truth
            .speech
            .iter()
            .filter(|s| s.interval.end > start && s.interval.start < duty_end)
            .copied()
            .collect();
        let carriers: Vec<Option<AstronautId>> = (0..UNIT_COUNT)
            .map(|i| self.world.carrier_of(BadgeId(i as u8), day))
            .collect();
        let tick = SimDuration::from_secs(1);
        let ticks = ((duty_end - start).as_micros() / tick.as_micros()) as usize;
        let station_room = self.world.cached_room_at(self.world.station);
        let docked = UnitTick {
            pos: self.world.station,
            wear: WearState::Docked,
            room: station_room,
            walking: false,
        };
        let mut states = vec![docked; ticks * UNIT_COUNT];
        for (u, carrier) in carriers.iter().enumerate() {
            // Uncarried units sit docked at the station all day — the fill
            // value already says so.
            let Some(c) = carrier else { continue };
            let a = self.truth.of(*c);
            let mut wear_cur = a.wear.cursor();
            let mut path_cur = a.path_cursor();
            let mut walk_cur = a.walking.cursor();
            let mut prev_pos = Point2::new(f64::NAN, f64::NAN);
            let mut prev_room = station_room;
            let mut t = start;
            for k in 0..ticks {
                // Same as `World::badge_position`/`badge_wear` with the
                // carrier hoisted; rooms are reused across ticks at the same
                // position (the lookup is a pure function of it).
                let wear = wear_cur.at(t).map_or(WearState::Docked, |s| s.value);
                let pos = match wear {
                    WearState::Worn => path_cur.position(t).unwrap_or(self.world.station),
                    WearState::LeftAt(p) => p,
                    WearState::Docked => self.world.station,
                };
                let room = if pos == prev_pos {
                    prev_room
                } else {
                    self.world.cached_room_at(pos)
                };
                prev_pos = pos;
                prev_room = room;
                states[k * UNIT_COUNT + u] = UnitTick {
                    pos,
                    wear,
                    room,
                    walking: walk_cur.contains(t),
                };
                t += tick;
            }
        }
        DayPrecomp {
            day,
            start,
            duty_end,
            night_end,
            noise_adjust,
            day_speech,
            carriers,
            ticks,
            states,
        }
    }

    /// Records one unit's full day (duty + overnight) on the unit's own
    /// seeded stream with the run-length batched kernel. No randomness is
    /// shared with other units; bytes are bit-identical to
    /// [`Recorder::record_unit_day_reference`].
    fn record_unit_day(&self, pre: &DayPrecomp, idx: usize) -> TelemetryStore {
        let unit = BadgeId(idx as u8);
        let mut rng = self
            .seed
            .child("badge")
            .stream_indexed("recorder-unit-day", (u64::from(pre.day) << 8) | idx as u64);
        let mut store = TelemetryStore::new(unit);
        let clock = self.clocks.clock(unit);
        let carrier = pre.carriers[idx];
        let active_unit = carrier.is_some() || unit == BadgeId::REFERENCE;
        let tick = SimDuration::from_secs(1);
        let env = EnvSampler::default();

        // --- Daytime sampling at the 1 Hz master tick --------------------
        // Uncarried primaries record nothing during the day; backups and the
        // reference sample environment/sync only (the firmware sleeps while
        // charging), which is what makes badges "active" for only part of
        // the daytime.
        if active_unit || matches!(unit, BadgeId(6..=11)) {
            let energy = carrier
                .map(|c| 0.8 + 0.4 * self.roster.member(c).profile.mobility)
                .unwrap_or(1.0);
            let muffled = carrier == Some(AstronautId::A) && self.muffled_days.contains(&pre.day);
            let imu = ImuSampler::new(ImuModel::default(), energy);
            let mic_sampler = MicSampler::new(MicModel::default(), pre.noise_adjust, muffled);

            // Monotone cursors. Speech speakers and wearer facings need
            // separate cursor sets: audio frames advance past the tick
            // instant before the IR block reads it.
            let mut speakers: Vec<PathCursor<'_>> = self
                .truth
                .astronauts
                .iter()
                .map(ares_crew::truth::AstronautTruth::path_cursor)
                .collect();
            let mut facings: Vec<Option<PathCursor<'_>>> = pre
                .carriers
                .iter()
                .map(|c| c.map(|c| self.truth.of(c).path_cursor()))
                .collect();

            // Scratch buffers (allocated once per unit-day) and the per-run
            // hoisted state, rebuilt whenever the unit's position changes.
            let mut scan_plan: Vec<scanner::ScanPlanEntry> = Vec::new();
            let mut dist_scratch: Vec<f64> = Vec::new();
            let mut wall_scratch: Vec<f64> = Vec::new();
            let mut mean_scratch: Vec<f64> = Vec::new();
            let mut active_buf: Vec<&SpeechSegment> = Vec::new();
            let mut prox_units: Vec<(BadgeId, Point2, RoomId)> = Vec::with_capacity(UNIT_COUNT);
            let mut prox_obs: Vec<ProximityObs> = Vec::new();
            let mut run_pos = Point2::new(f64::NAN, f64::NAN);
            let mut sync_mean = 0.0f64;
            let mut noise_floor = 0.0f64;

            let af = self.config.audio_frame.as_micros();
            let frames_per_tick = (tick.as_micros() / af).max(1);
            let mut speech_cursor = 0usize;
            let mut t = pre.start;
            for k in 0..pre.ticks {
                let tick_states = pre.tick_states(k);
                let ut = tick_states[idx];
                let elapsed = (t - pre.start).as_micros();
                let t_local = clock.local_time(t);
                if ut.pos != run_pos {
                    // New dwell run: one geometry resolution for the whole
                    // run (NaN sentinel forces a build on the first tick).
                    run_pos = ut.pos;
                    scanner::scan_plan_into(
                        self.world,
                        ut.room,
                        ut.pos,
                        &mut scan_plan,
                        &mut dist_scratch,
                        &mut wall_scratch,
                        &mut mean_scratch,
                    );
                    sync_mean = links::sync_link_mean(self.world, ut.pos);
                    noise_floor = MicModel::noise_floor(ut.room);
                }
                // A docked badge (EVA, exercise, forgotten on the charger)
                // pauses full sampling; environment and sync continue below.
                let sampling = carrier.is_some() && !matches!(ut.wear, WearState::Docked);
                if sampling {
                    // BLE scan: replay the run's plan, draws only, hits
                    // straight into the flat scan column.
                    if elapsed % self.config.scan_period.as_micros() == 0 {
                        store.scans.push(
                            t_local,
                            scanner::scan_from_plan(self.world, &scan_plan, &mut rng),
                        );
                    }
                    // IMU window (walking flag precomputed per tick).
                    if elapsed % self.config.imu_window.as_micros() == 0 {
                        let walking = ut.walking && ut.wear.is_worn();
                        store.push_imu(imu.sample(t_local, ut.wear, walking, &mut rng));
                    }
                    // Audio frames (two per second at the default config).
                    if elapsed % af == 0 {
                        mic::active_segments_into(
                            &pre.day_speech,
                            &mut speech_cursor,
                            t,
                            tick,
                            &mut active_buf,
                        );
                        for f in 0..frames_per_tick {
                            let ft = t + SimDuration::from_micros(f * af);
                            store.push_audio(mic_sampler.frame_batched(
                                self.world,
                                &mut speakers,
                                noise_floor,
                                ut.pos,
                                ut.room,
                                ft,
                                clock.local_time(ft),
                                &active_buf,
                                &mut rng,
                            ));
                        }
                    }
                    // Proximity sweep (scratch buffers, no per-sweep
                    // allocation).
                    if elapsed % self.config.proximity_period.as_micros() == 0 {
                        prox_units.clear();
                        prox_units.extend(
                            tick_states
                                .iter()
                                .enumerate()
                                .map(|(j, s)| (BadgeId(j as u8), s.pos, s.room)),
                        );
                        prox_obs.clear();
                        links::proximity_sweep_into(
                            self.world,
                            unit,
                            ut.pos,
                            ut.room,
                            &prox_units,
                            t_local,
                            &mut rng,
                            &mut prox_obs,
                        );
                        for o in prox_obs.drain(..) {
                            store.push_proximity(o);
                        }
                    }
                    // Infrared exchanges (only toward higher unit ids to
                    // sample each pair once; mirrored onto the partner after
                    // the merge). An unworn badge faces nobody, so the whole
                    // block is skipped — the scalar path would `continue` on
                    // every pair with no draws either way. Wear states come
                    // from the precomputed table and facings from the
                    // monotone cursors instead of `worn_facing`'s per-call
                    // carrier inversion; the values are identical.
                    if elapsed % self.config.ir_period.as_micros() == 0 && ut.wear.is_worn() {
                        for (j, other) in tick_states.iter().enumerate().skip(idx + 1) {
                            if pre.carriers[j].is_none() {
                                continue;
                            }
                            if ut.pos.distance(other.pos) > self.world.ir.range_m {
                                continue;
                            }
                            if !other.wear.is_worn() {
                                continue;
                            }
                            let fa = facings[idx].as_mut().and_then(|c| c.facing(t));
                            let fb = facings[j].as_mut().and_then(|c| c.facing(t));
                            let (Some(fa), Some(fb)) = (fa, fb) else {
                                continue;
                            };
                            if links::ir_exchange(
                                self.world, ut.pos, fa, ut.wear, ut.room, other.pos, fb,
                                other.wear, other.room, &mut rng,
                            ) {
                                let contact = crate::records::IrContact {
                                    t_local,
                                    other: BadgeId(j as u8),
                                };
                                store.push_ir(contact);
                            }
                        }
                    }
                }
                // Environment (all active units, including reference/backups).
                if elapsed % self.config.env_period.as_micros() == 0 {
                    store.push_env(env.sample(self.world, ut.room, t, t_local, &mut rng));
                }
                // Sync attempts, against the run's hoisted station-link mean
                // (the reference unit never syncs to itself and never draws).
                if elapsed % self.config.sync_period.as_micros() == 0 {
                    if let Some(s) = links::sync_attempt_with_mean(
                        self.world,
                        &self.clocks,
                        unit,
                        sync_mean,
                        t,
                        &mut rng,
                    ) {
                        store.push_sync(s);
                    }
                }
                t += tick;
            }
        }

        self.record_unit_overnight(
            pre,
            unit,
            &mut rng,
            &mut store,
            |p| self.world.cached_room_at(p),
            |p, t, rng| {
                let mean = links::sync_link_mean(self.world, p);
                links::sync_attempt_with_mean(self.world, &self.clocks, unit, mean, t, rng)
            },
        );
        store
    }

    /// Records one unit's full day with the plain per-tick loop over exact
    /// geometry (the bit-identity oracle for [`Recorder::record_unit_day`]).
    /// It takes positions and wear states from the shared precomputation but
    /// resolves every room itself with [`World::room_at`], so no field-cache
    /// value reaches it.
    fn record_unit_day_reference(&self, pre: &DayPrecomp, idx: usize) -> TelemetryStore {
        let unit = BadgeId(idx as u8);
        let mut rng = self
            .seed
            .child("badge")
            .stream_indexed("recorder-unit-day", (u64::from(pre.day) << 8) | idx as u64);
        let mut store = TelemetryStore::new(unit);
        let clock = self.clocks.clock(unit);
        let carrier = pre.carriers[idx];
        let active_unit = carrier.is_some() || unit == BadgeId::REFERENCE;
        let tick = SimDuration::from_secs(1);
        let env = EnvSampler::default();

        if active_unit || matches!(unit, BadgeId(6..=11)) {
            let energy = carrier
                .map(|c| 0.8 + 0.4 * self.roster.member(c).profile.mobility)
                .unwrap_or(1.0);
            let muffled = carrier == Some(AstronautId::A) && self.muffled_days.contains(&pre.day);
            let imu = ImuSampler::new(ImuModel::default(), energy);
            let mic_sampler = MicSampler::new(MicModel::default(), pre.noise_adjust, muffled);
            let mut speech_cursor = 0usize;
            let mut t = pre.start;
            for k in 0..pre.ticks {
                let tick_states = pre.tick_states(k);
                let ut = tick_states[idx];
                let (pos, wear) = (ut.pos, ut.wear);
                let room = self.world.room_at(pos);
                let elapsed = (t - pre.start).as_micros();
                let t_local = clock.local_time(t);
                let sampling = carrier.is_some() && !matches!(wear, WearState::Docked);
                if sampling {
                    // BLE scan.
                    if elapsed % self.config.scan_period.as_micros() == 0 {
                        store
                            .push_scan(&scanner::scan_in(self.world, room, pos, t_local, &mut rng));
                    }
                    // IMU window.
                    if elapsed % self.config.imu_window.as_micros() == 0 {
                        let walking = carrier
                            .map(|c| self.truth.of(c).is_walking(t) && wear.is_worn())
                            .unwrap_or(false);
                        store.push_imu(imu.sample(t_local, wear, walking, &mut rng));
                    }
                    // Audio frames (two per second at the default config).
                    let af = self.config.audio_frame.as_micros();
                    if elapsed % af == 0 {
                        let frames_per_tick = (tick.as_micros() / af).max(1);
                        let active =
                            mic::active_segments(&pre.day_speech, &mut speech_cursor, t, tick);
                        for f in 0..frames_per_tick {
                            let ft = t + SimDuration::from_micros(f * af);
                            store.push_audio(mic_sampler.frame(
                                self.world,
                                self.truth,
                                pos,
                                ft,
                                clock.local_time(ft),
                                &active,
                                &mut rng,
                            ));
                        }
                    }
                    // Proximity sweep.
                    if elapsed % self.config.proximity_period.as_micros() == 0 {
                        let units: Vec<(BadgeId, Point2)> = tick_states
                            .iter()
                            .enumerate()
                            .map(|(j, s)| (BadgeId(j as u8), s.pos))
                            .collect();
                        for o in
                            links::proximity_sweep(self.world, unit, pos, &units, t_local, &mut rng)
                        {
                            store.push_proximity(o);
                        }
                    }
                    // Infrared exchanges (only toward higher unit ids to
                    // sample each pair once; mirrored onto the partner after
                    // the merge).
                    if elapsed % self.config.ir_period.as_micros() == 0 {
                        for (j, other) in tick_states.iter().enumerate().skip(idx + 1) {
                            let other_id = BadgeId(j as u8);
                            if pre.carriers[j].is_none() {
                                continue;
                            }
                            if pos.distance(other.pos) > self.world.ir.range_m {
                                continue;
                            }
                            let (Some(fa), Some(fb)) = (
                                links::worn_facing(self.world, unit, t, self.truth),
                                links::worn_facing(self.world, other_id, t, self.truth),
                            ) else {
                                continue;
                            };
                            // Both facings exist only for worn badges, so
                            // the exact visibility test and its one draw are
                            // all that is left.
                            if self.world.ir.detect(
                                &self.world.plan,
                                pos,
                                fa,
                                other.pos,
                                fb,
                                &mut rng,
                            ) {
                                store.push_ir(crate::records::IrContact {
                                    t_local,
                                    other: other_id,
                                });
                            }
                        }
                    }
                }
                // Environment (all active units, including reference/backups).
                if elapsed % self.config.env_period.as_micros() == 0 {
                    store.push_env(env.sample(self.world, room, t, t_local, &mut rng));
                }
                // Sync attempts.
                if elapsed % self.config.sync_period.as_micros() == 0 {
                    if let Some(s) =
                        links::sync_attempt(self.world, &self.clocks, unit, pos, t, &mut rng)
                    {
                        store.push_sync(s);
                    }
                }
                t += tick;
            }
        }

        self.record_unit_overnight(
            pre,
            unit,
            &mut rng,
            &mut store,
            |p| self.world.room_at(p),
            |p, t, rng| links::sync_attempt(self.world, &self.clocks, unit, p, t, rng),
        );
        store
    }

    /// The overnight tail shared by both kernels: docked sampling (sparse)
    /// plus dense sync at the charger. Continues on the unit-day's RNG
    /// stream, so it must run after the daytime draws. `room_at` and `sync`
    /// carry the calling kernel's geometry — field-cache lookups for the
    /// batched kernel, exact tests for the reference.
    fn record_unit_overnight<R: Rng>(
        &self,
        pre: &DayPrecomp,
        unit: BadgeId,
        rng: &mut R,
        store: &mut TelemetryStore,
        room_at: impl Fn(Point2) -> RoomId,
        sync: impl Fn(Point2, SimTime, &mut R) -> Option<SyncSample>,
    ) {
        let clock = self.clocks.clock(unit);
        let env = EnvSampler::default();
        let mut tn = pre.duty_end;
        while tn < pre.night_end {
            let pos = self.world.badge_position(unit, tn, self.truth);
            let t_local = clock.local_time(tn);
            if (tn - pre.duty_end).as_micros() % self.config.env_period.as_micros() == 0 {
                store.push_env(env.sample(self.world, room_at(pos), tn, t_local, rng));
            }
            if let Some(s) = sync(pos, tn, rng) {
                store.push_sync(s);
            }
            tn += self.config.sync_period;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ares_crew::behavior::{BehaviorConfig, BehaviorSim};
    use ares_crew::incidents::IncidentScript;
    use ares_crew::schedule::Schedule;

    fn setup() -> (World, Roster, MissionTruth) {
        let world = World::icares();
        let roster = Roster::icares();
        let schedule = Schedule::icares();
        let incidents = IncidentScript::icares();
        let truth = BehaviorSim::new(
            &roster,
            &schedule,
            &incidents,
            &world.plan,
            BehaviorConfig::default(),
        )
        .generate();
        (world, roster, truth)
    }

    #[test]
    fn one_day_recording_has_all_streams() {
        let (world, roster, truth) = setup();
        let rec = Recorder::new(
            &world,
            &roster,
            &truth,
            SamplingConfig::default(),
            SeedTree::new(99),
        );
        let day = rec.record_day(3, 1);
        assert_eq!(day.len(), UNIT_COUNT);
        let b0 = day.iter().find(|s| s.badge == BadgeId(0)).unwrap();
        assert!(!b0.scans.is_empty(), "scans");
        assert!(!b0.audio.is_empty(), "audio");
        assert!(!b0.imu.is_empty(), "imu");
        assert!(!b0.env.is_empty(), "env");
        assert!(!b0.proximity.is_empty(), "proximity");
        assert!(!b0.sync.is_empty(), "sync");
        assert!(b0.bytes_written > 1_000_000_000, "raw volume");
        // The reference unit records env + no scans.
        let r = day.iter().find(|s| s.badge == BadgeId::REFERENCE).unwrap();
        assert!(r.scans.is_empty());
        assert!(!r.env.is_empty());
    }

    #[test]
    fn timestamps_are_local_not_true() {
        let (world, roster, truth) = setup();
        let rec = Recorder::new(
            &world,
            &roster,
            &truth,
            SamplingConfig::default(),
            SeedTree::new(99),
        );
        let day = rec.record_day(2, 1);
        // The first scan may come well after 07:00 (the badge sleeps while
        // docked), so recover the true sampling instant from the stamp: it
        // must sit on the scan-period grid, and the stamp must be that grid
        // instant's *local* image — offset by the unit's drifting clock.
        let unit = BadgeId(0);
        let clock = rec.clocks().clock(unit);
        let store = day.iter().find(|s| s.badge == unit).unwrap();
        let scan0 = store.scans.view().ts()[0];
        let true_start = SimTime::from_day_hms(2, 7, 0, 0);
        let period = SamplingConfig::default().scan_period.as_micros();
        let since_start = (clock.true_time(scan0) - true_start).as_micros();
        let grid = true_start
            + ares_simkit::time::SimDuration::from_micros(
                (since_start + period / 2) / period * period,
            );
        assert_eq!(scan0, clock.local_time(grid));
        assert_ne!(scan0, grid, "the clock offset must be visible");
    }

    #[test]
    fn ir_contacts_are_mirrored() {
        let (world, roster, truth) = setup();
        let rec = Recorder::new(
            &world,
            &roster,
            &truth,
            SamplingConfig::default(),
            SeedTree::new(99),
        );
        let day = rec.record_day(3, 1);
        let total: usize = day.iter().map(|l| l.ir.len()).sum();
        assert!(total > 0, "some IR contacts on a normal day");
        assert_eq!(total % 2, 0, "contacts recorded pairwise");
    }

    #[test]
    fn batched_kernel_matches_the_exact_reference() {
        let (world, roster, truth) = setup();
        let rec = Recorder::new(
            &world,
            &roster,
            &truth,
            SamplingConfig::default(),
            SeedTree::new(99),
        );
        // Day 2 includes the A/B badge swap, so carrier hoisting is covered.
        let batched = rec.record_day(2, 1);
        assert_eq!(batched, rec.record_day_reference(2));
        assert_eq!(batched, rec.record_day(2, 2));
    }
}
