//! The microphone feature extractor.
//!
//! "We used it to detect the presence of human speech, its loudness, and
//! frequency … we did not, however, record raw data from conversations."
//!
//! The model turns ground-truth speech segments into per-frame features at
//! the badge: sound level attenuated by spherical spreading and walls, a
//! voiced flag, and the dominant source's fundamental frequency. A badge worn
//! incorrectly (astronaut A's exposure problem) records muffled levels.
//!
//! [`MicSampler`] has two frame kernels with the same draws:
//! [`MicSampler::frame`] walks exact geometry (the reference recorder's
//! path) and [`MicSampler::frame_batched`] reads speaker rooms from the RF
//! field cache and culls segments that provably cannot beat the noise (the
//! production path).

use crate::records::AudioFrame;
use crate::world::World;
use ares_crew::truth::{MissionTruth, PathCursor, SpeechSegment};
use ares_habitat::rooms::RoomId;
use ares_simkit::geometry::Point2;
use ares_simkit::time::{SimDuration, SimTime};
use rand::Rng;
use rand_distr::{Distribution, Normal};

/// Parameters of the microphone model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicModel {
    /// Attenuation per crossed wall (dB) — speech barely penetrates the
    /// metal modules.
    pub wall_loss_db: f64,
    /// Minimum level for the voiced-band detector to fire (dB SPL at badge).
    pub voiced_floor_db: f64,
    /// Margin above ambient noise required to call a frame voiced (dB).
    pub voiced_margin_db: f64,
    /// Level penalty of a muffled (badly worn) badge (dB).
    pub muffle_db: f64,
}

impl Default for MicModel {
    fn default() -> Self {
        MicModel {
            wall_loss_db: 26.0,
            voiced_floor_db: 45.0,
            voiced_margin_db: 3.0,
            muffle_db: 5.0,
        }
    }
}

impl MicModel {
    /// Ambient noise floor of a room (dB SPL), before daily modulation.
    #[must_use]
    pub fn noise_floor(room: RoomId) -> f64 {
        match room {
            RoomId::Workshop => 47.0, // 3-D printers, tools
            RoomId::Kitchen => 44.5,
            RoomId::Main => 43.0,
            RoomId::Storage => 41.0,
            RoomId::Hangar => 39.0,
            _ => 40.0,
        }
    }

    /// The level of a speech source at a listening position.
    #[must_use]
    pub fn received_level(
        &self,
        world: &World,
        seg_level_1m_db: f64,
        source_pos: Point2,
        badge_pos: Point2,
    ) -> f64 {
        let d = source_pos.distance(badge_pos).max(0.3);
        let walls = world.plan.walls_crossed(source_pos, badge_pos);
        seg_level_1m_db - 20.0 * d.log10() - walls as f64 * self.wall_loss_db
    }
}

/// A per-unit microphone sampler with the noise/f0/wobble distributions and
/// the day's muffle/quietness constants hoisted out of the per-frame path.
///
/// Both frame kernels draw the same randomness in the same order: the
/// ambient-noise draw happens before the segment loop, the segment loop
/// itself never draws, and the voiced decision (which gates the f0 draw)
/// depends only on the best level. The batched kernel's cull only drops
/// segments whose level *upper bound* (wall-count lower bound) already
/// cannot exceed the realized noise, and such segments can neither fire the
/// voiced branch nor lift the non-voiced level above the noise it is clamped
/// to.
#[derive(Debug, Clone)]
pub struct MicSampler {
    model: MicModel,
    noise_adjust_db: f64,
    muffle_db: f64,
    noise: Normal,
    f0: Normal,
    wobble: Normal,
}

impl MicSampler {
    /// Builds a sampler for one unit-day. `noise_adjust_db` captures
    /// mission-wide quietness (days 11–12 had "much less other noise
    /// recorded"); `muffled` models a badly exposed microphone.
    #[must_use]
    pub fn new(model: MicModel, noise_adjust_db: f64, muffled: bool) -> Self {
        MicSampler {
            model,
            noise_adjust_db,
            muffle_db: if muffled { model.muffle_db } else { 0.0 },
            noise: Normal::new(0.0, 1.4).expect("sd > 0"),
            f0: Normal::new(0.0, 2.0).expect("sd > 0"),
            wobble: Normal::new(0.0, 0.6).expect("sd > 0"),
        }
    }

    /// Extracts one audio frame at the badge over exact geometry: the
    /// badge's room from [`World::room_at`] and a wall scan per active
    /// segment ([`MicModel::received_level`]). `active` holds the speech
    /// segments overlapping the frame. The scalar reference for
    /// [`MicSampler::frame_batched`].
    #[allow(clippy::too_many_arguments)]
    pub fn frame(
        &self,
        world: &World,
        truth: &MissionTruth,
        badge_pos: Point2,
        t_true: SimTime,
        t_local: SimTime,
        active: &[&SpeechSegment],
        rng: &mut impl Rng,
    ) -> AudioFrame {
        let noise = MicModel::noise_floor(world.room_at(badge_pos))
            + self.noise_adjust_db
            + self.noise.sample(rng);
        let mut best: Option<(f64, f64)> = None; // (level, f0)
        for seg in active {
            let Some(pos) = truth.of(seg.source.located_with()).position(t_true) else {
                continue;
            };
            let level = self
                .model
                .received_level(world, seg.level_db, pos, badge_pos);
            if best.is_none_or(|(b, _)| level > b) {
                best = Some((level, seg.f0_hz));
            }
        }
        self.finish(best, noise, t_local, rng)
    }

    /// [`MicSampler::frame`] for the run-length batched recording kernel:
    /// the room's ambient floor is hoisted per run (`noise_floor` must be
    /// [`MicModel::noise_floor`]`(badge_room)`), speaker positions come from
    /// monotone [`PathCursor`]s (indexed by astronaut) instead of a
    /// per-segment binary search, and speaker rooms come from the field
    /// cache: a same-room speaker needs no wall scan (convex rooms), and a
    /// cross-room one whose wall-floor bound cannot beat the noise is culled
    /// (see the type docs). Every substitution is bit-identical, so the frame
    /// and its RNG consumption match the exact path.
    #[allow(clippy::too_many_arguments)]
    pub fn frame_batched(
        &self,
        world: &World,
        speakers: &mut [PathCursor<'_>],
        noise_floor: f64,
        badge_pos: Point2,
        badge_room: RoomId,
        t_true: SimTime,
        t_local: SimTime,
        active: &[&SpeechSegment],
        rng: &mut impl Rng,
    ) -> AudioFrame {
        let noise = noise_floor + self.noise_adjust_db + self.noise.sample(rng);
        let mut best: Option<(f64, f64)> = None; // (level, f0)
        for seg in active {
            let Some(pos) = speakers[seg.source.located_with().index()].position(t_true) else {
                continue;
            };
            let d = pos.distance(badge_pos).max(0.3);
            let spread = seg.level_db - 20.0 * d.log10();
            let speaker_room = world.cached_room_at(pos);
            let level = if speaker_room == badge_room {
                // Convex rooms: zero wall crossings by construction.
                spread
            } else {
                let bound = spread
                    - world.plan.wall_floor(speaker_room, badge_room) as f64
                        * self.model.wall_loss_db;
                if bound - self.muffle_db <= noise {
                    // Provably cannot beat ambient noise: skip the wall
                    // scan (output-identical, see type docs).
                    continue;
                }
                spread - world.plan.walls_crossed(pos, badge_pos) as f64 * self.model.wall_loss_db
            };
            if best.is_none_or(|(b, _)| level > b) {
                best = Some((level, seg.f0_hz));
            }
        }
        self.finish(best, noise, t_local, rng)
    }

    /// The draws after the segment scan, shared by both frame kernels: the
    /// voiced decision on the best `(level, f0)`, the f0 estimate and the
    /// level wobble.
    fn finish(
        &self,
        best: Option<(f64, f64)>,
        noise: f64,
        t_local: SimTime,
        rng: &mut impl Rng,
    ) -> AudioFrame {
        let muffle = self.muffle_db;
        let (mut level, voiced, f0) = match best {
            Some((speech, f0))
                if speech - muffle > noise + self.model.voiced_margin_db
                    && speech - muffle > self.model.voiced_floor_db =>
            {
                let f0_est = f0 + self.f0.sample(rng);
                (speech - muffle, true, Some(f0_est))
            }
            Some((speech, _)) => ((speech - muffle).max(noise), false, None),
            None => (noise, false, None),
        };
        level += self.wobble.sample(rng);
        AudioFrame {
            t_local,
            level_db: level,
            voiced,
            f0_hz: f0,
        }
    }
}

/// Gathers the speech segments overlapping a frame from a pre-sorted slice,
/// advancing `cursor` monotonically (amortized O(1) per frame).
pub fn active_segments<'a>(
    speech: &'a [SpeechSegment],
    cursor: &mut usize,
    frame_start: SimTime,
    frame_len: SimDuration,
) -> Vec<&'a SpeechSegment> {
    let frame_end = frame_start + frame_len;
    // Advance past segments that ended before this frame. Segments are sorted
    // by start; starts are close enough to ends (utterances ≤ 12 s) that a
    // small look-back window suffices.
    while *cursor < speech.len()
        && speech[*cursor].interval.end + SimDuration::from_secs(15) < frame_start
    {
        *cursor += 1;
    }
    let mut out = Vec::new();
    let mut i = *cursor;
    while i < speech.len() && speech[i].interval.start < frame_end {
        if speech[i].interval.end > frame_start {
            out.push(&speech[i]);
        }
        i += 1;
    }
    out
}

/// [`active_segments`] writing into a caller-owned buffer, so the tick loop
/// allocates nothing: `out` is cleared and refilled with the same segments in
/// the same order.
pub fn active_segments_into<'a>(
    speech: &'a [SpeechSegment],
    cursor: &mut usize,
    frame_start: SimTime,
    frame_len: SimDuration,
    out: &mut Vec<&'a SpeechSegment>,
) {
    out.clear();
    let frame_end = frame_start + frame_len;
    while *cursor < speech.len()
        && speech[*cursor].interval.end + SimDuration::from_secs(15) < frame_start
    {
        *cursor += 1;
    }
    let mut i = *cursor;
    while i < speech.len() && speech[i].interval.start < frame_end {
        if speech[i].interval.end > frame_start {
            out.push(&speech[i]);
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::cell_edge_lattice;
    use ares_crew::roster::AstronautId;
    use ares_crew::truth::{AstronautTruth, PathPoint, VoiceSource};
    use ares_simkit::rng::SeedTree;
    use ares_simkit::series::Interval;

    /// Ground truth with astronaut `i` standing still at `positions[i]`.
    fn truth_with_speakers_at(positions: &[Point2]) -> MissionTruth {
        let mut astronauts: Vec<AstronautTruth> =
            (0..6).map(|_| AstronautTruth::default()).collect();
        for (a, &pos) in astronauts.iter_mut().zip(positions) {
            a.path
                .push(SimTime::from_secs(0), PathPoint { pos, facing: 0.0 });
        }
        MissionTruth {
            astronauts,
            speech: Vec::new(),
            meetings: Vec::new(),
        }
    }

    fn truth_with_speaker_at(pos: Point2) -> MissionTruth {
        truth_with_speakers_at(&[pos])
    }

    fn seg_by(speaker: AstronautId, level: f64, a: i64, b: i64) -> SpeechSegment {
        SpeechSegment {
            source: VoiceSource::Astronaut(speaker),
            interval: Interval::new(SimTime::from_secs(a), SimTime::from_secs(b)),
            level_db: level,
            f0_hz: 205.0,
        }
    }

    fn seg(level: f64, a: i64, b: i64) -> SpeechSegment {
        seg_by(AstronautId::A, level, a, b)
    }

    #[test]
    fn close_speech_is_voiced_far_speech_is_not() {
        let world = World::icares();
        let mic = MicSampler::new(MicModel::default(), 0.0, false);
        let mut rng = SeedTree::new(1).stream("mic");
        let kitchen = world.plan.room_center(RoomId::Kitchen);
        let truth = truth_with_speaker_at(kitchen);
        let s = seg(68.0, 0, 10);
        let t = SimTime::from_secs(5);
        // Badge 1.2 m from the speaker: voiced, level near 66 dB.
        let near = mic.frame(
            &world,
            &truth,
            kitchen + ares_simkit::geometry::Vec2::new(1.2, 0.0),
            t,
            t,
            &[&s],
            &mut rng,
        );
        assert!(near.voiced, "near frame must be voiced");
        assert!(
            (near.level_db - 66.4).abs() < 4.0,
            "level {}",
            near.level_db
        );
        // Badge across the habitat (office): walls kill it.
        let office = world.plan.room_center(RoomId::Office);
        let far = mic.frame(&world, &truth, office, t, t, &[&s], &mut rng);
        assert!(!far.voiced);
        assert!(far.level_db < 50.0);
    }

    #[test]
    fn muffled_badge_loses_detections_at_range() {
        let world = World::icares();
        let clear = MicSampler::new(MicModel::default(), 0.0, false);
        let muffled = MicSampler::new(MicModel::default(), 0.0, true);
        let mut rng = SeedTree::new(2).stream("mic2");
        let kitchen = world.plan.room_center(RoomId::Kitchen);
        let truth = truth_with_speaker_at(kitchen);
        let s = seg(58.0, 0, 10);
        let t = SimTime::from_secs(5);
        // Stay inside the kitchen: offset along the room's long axis.
        let pos = kitchen + ares_simkit::geometry::Vec2::new(0.0, 1.9);
        let mut clear_voiced = 0;
        let mut muffled_voiced = 0;
        for _ in 0..200 {
            if clear
                .frame(&world, &truth, pos, t, t, &[&s], &mut rng)
                .voiced
            {
                clear_voiced += 1;
            }
            if muffled
                .frame(&world, &truth, pos, t, t, &[&s], &mut rng)
                .voiced
            {
                muffled_voiced += 1;
            }
        }
        assert!(
            clear_voiced > muffled_voiced + 30,
            "{clear_voiced} vs {muffled_voiced}"
        );
    }

    #[test]
    fn quiet_days_lower_the_floor() {
        let world = World::icares();
        let mut rng = SeedTree::new(3).stream("mic3");
        let p = world.plan.room_center(RoomId::Biolab);
        let truth = truth_with_speaker_at(p);
        let t = SimTime::from_secs(0);
        let mean = |adj: f64, rng: &mut rand::rngs::StdRng| -> f64 {
            let mic = MicSampler::new(MicModel::default(), adj, false);
            (0..200)
                .map(|_| mic.frame(&world, &truth, p, t, t, &[], rng).level_db)
                .sum::<f64>()
                / 200.0
        };
        let normal = mean(0.0, &mut rng);
        let quiet = mean(-4.0, &mut rng);
        assert!(normal - quiet > 3.0);
    }

    #[test]
    fn frame_batched_matches_exact_frame_on_the_cell_edge_lattice() {
        // A's voice comes from the main hall's centre (behind walls for most
        // peripheral rooms) and B–F speak from doorway centres (cross-room
        // yet wall-free for one side), so the same-room shortcut, the
        // wall-floor cull and the exact wall scan all decide frames here.
        let world = World::icares();
        let mut speakers = vec![world.plan.room_center(RoomId::Main)];
        speakers.extend(world.plan.doors().iter().take(5).map(|d| d.center));
        let truth = truth_with_speakers_at(&speakers);
        let segs: Vec<SpeechSegment> = AstronautId::ALL
            .into_iter()
            .map(|a| seg_by(a, 78.0, 0, 10))
            .collect();
        let mut sets: Vec<Vec<&SpeechSegment>> = segs.iter().map(|s| vec![s]).collect();
        sets.push(segs.iter().collect());
        let t = SimTime::from_secs(5);
        let mut cursors: Vec<PathCursor<'_>> = truth
            .astronauts
            .iter()
            .map(AstronautTruth::path_cursor)
            .collect();
        let (mut voiced, mut case) = (0, 0u64);
        for pos in cell_edge_lattice(&world) {
            let room = world.cached_room_at(pos);
            for muffled in [false, true] {
                let mic = MicSampler::new(MicModel::default(), 0.0, muffled);
                for active in &sets {
                    let seed = SeedTree::new(97).stream_indexed("mic-edge", case);
                    case += 1;
                    let (mut rng_cached, mut rng_exact) = (seed.clone(), seed);
                    let cached = mic.frame_batched(
                        &world,
                        &mut cursors,
                        MicModel::noise_floor(room),
                        pos,
                        room,
                        t,
                        t,
                        active,
                        &mut rng_cached,
                    );
                    let exact = mic.frame(&world, &truth, pos, t, t, active, &mut rng_exact);
                    let at = format!("at ({}, {}), muffled {muffled}", pos.x, pos.y);
                    assert_eq!(cached, exact, "{at}");
                    assert_eq!(cached.level_db.to_bits(), exact.level_db.to_bits(), "{at}");
                    assert_eq!(
                        cached.f0_hz.map(f64::to_bits),
                        exact.f0_hz.map(f64::to_bits),
                        "{at}"
                    );
                    assert_eq!(rng_cached.gen::<u64>(), rng_exact.gen::<u64>(), "{at}");
                    voiced += usize::from(exact.voiced);
                }
            }
        }
        assert!(
            voiced > 0 && voiced < case as usize,
            "{voiced} of {case} voiced"
        );
    }

    #[test]
    fn active_segments_windowing() {
        let speech = vec![seg(60.0, 0, 5), seg(60.0, 10, 20), seg(60.0, 30, 31)];
        let mut cursor = 0;
        let hits = active_segments(
            &speech,
            &mut cursor,
            SimTime::from_secs(12),
            SimDuration::from_secs(1),
        );
        assert_eq!(hits.len(), 1);
        let none = active_segments(
            &speech,
            &mut cursor,
            SimTime::from_secs(25),
            SimDuration::from_secs(1),
        );
        assert!(none.is_empty());
        let last = active_segments(
            &speech,
            &mut cursor,
            SimTime::from_secs(30),
            SimDuration::from_secs(1),
        );
        assert_eq!(last.len(), 1);
    }
}
