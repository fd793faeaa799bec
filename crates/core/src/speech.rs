//! Speech analysis from microphone feature frames.
//!
//! Three layers:
//!
//! * **Heard speech** (Fig. 6): "A 15 s interval is considered as speech if
//!   there are voice frequencies detected of at least 60 dB and for at least
//!   20 % of the interval. The boundary values were determined experimentally
//!   and correspond to a conversation at a distance of at most 2.5 m."
//! * **Self speech** (Table I b): frames loud enough to be the wearer's own
//!   voice at collar distance are attributed to the wearer.
//! * **Synthetic-voice filtering**: astronaut A's screen reader produces
//!   flat-pitched speech at A's badge. The original algorithm mistook it for
//!   A talking; the fixed algorithm — implemented here — rejects runs of
//!   utterances with near-constant fundamental frequency in the TTS band.

use crate::sync::SyncCorrection;
use ares_badge::records::AudioFrame;
use ares_badge::telemetry::{AudioPayload, ColumnView};
use ares_simkit::series::{Interval, IntervalSet};
use ares_simkit::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Speech-detector parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpeechParams {
    /// Interval length (the paper's 15 s).
    pub interval: SimDuration,
    /// Minimum frame level for a voiced frame to count (dB SPL).
    pub level_threshold_db: f64,
    /// Minimum fraction of qualifying frames for an interval to be speech.
    pub frame_quorum: f64,
    /// Level above which a voiced frame is the wearer's own voice (collar
    /// distance boosts the wearer ~10 dB over anyone a metre away).
    pub self_level_db: f64,
    /// F0 above which a voice is classified female (Hz).
    pub gender_split_hz: f64,
    /// The TTS band of A's screen reader (Hz).
    pub synthetic_band_hz: (f64, f64),
    /// Maximum F0 spread (std dev of per-utterance medians) across
    /// consecutive in-band utterances for a run to be synthetic (Hz).
    pub synthetic_max_spread_hz: f64,
    /// Whether to filter synthetic voices at all (the "unfixed" algorithm of
    /// the original deployment sets this to false — an ablation).
    pub filter_synthetic: bool,
}

impl Default for SpeechParams {
    fn default() -> Self {
        SpeechParams {
            interval: SimDuration::from_secs(15),
            level_threshold_db: 60.0,
            frame_quorum: 0.20,
            self_level_db: 70.5,
            gender_split_hz: 165.0,
            synthetic_band_hz: (140.0, 160.0),
            synthetic_max_spread_hz: 4.0,
            filter_synthetic: true,
        }
    }
}

/// One analyzed 15-second interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpeechInterval {
    /// Interval start (reference time, grid-aligned).
    pub start: SimTime,
    /// Number of frames recorded in the interval.
    pub frames: usize,
    /// Number of voiced frames at or above the level threshold.
    pub qualifying: usize,
    /// Whether the interval counts as speech under the paper's rule.
    pub speech: bool,
    /// Mean level of qualifying frames (dB), 0 if none.
    pub mean_level_db: f64,
    /// Mean level of *all* voiced frames regardless of threshold (dB), 0 if
    /// none — the uncensored loudness used for meeting dynamics (a hushed
    /// meeting must read quieter than a loud lunch even though the threshold
    /// censors its far frames).
    pub mean_voiced_db: f64,
}

/// The speech analysis of one badge log.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SpeechTrack {
    /// Per-15-s interval classification, in time order.
    pub intervals: Vec<SpeechInterval>,
    /// Merged spans of heard speech.
    pub heard: IntervalSet,
    /// Spans attributed to the wearer's own voice (synthetic runs removed
    /// when filtering is on).
    pub self_talk: IntervalSet,
    /// Spans rejected as synthetic (screen-reader) voice.
    pub synthetic: IntervalSet,
    /// Median F0 of self-attributed frames (Hz), 0 if none.
    pub self_f0_hz: f64,
}

/// Stage kernel: whether one audio frame counts toward the paper's speech
/// rule — voiced, at or above the level threshold. Shared verbatim by the
/// batch interval classifier and the streaming analyzer.
#[must_use]
pub fn frame_qualifies(frame: &AudioFrame, params: &SpeechParams) -> bool {
    frame.voiced && frame.level_db >= params.level_threshold_db
}

/// Stage kernel: the paper's interval rule — "a 15 s interval is considered
/// as speech if there are voice frequencies detected of at least 60 dB and
/// for at least 20 % of the interval". Shared by batch and streaming.
#[must_use]
pub fn interval_is_speech(frames: usize, qualifying: usize, params: &SpeechParams) -> bool {
    frames > 0 && qualifying as f64 / frames as f64 >= params.frame_quorum
}

/// A self-voiced utterance assembled from consecutive frames.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Utterance {
    interval: Interval,
    f0_hz: f64,
}

/// Analyzes any audio frame stream — the scalar reference kernel, and the
/// bit-identity oracle for the batched [`analyze_view`].
#[must_use]
pub fn analyze_iter(
    audio: impl Iterator<Item = AudioFrame>,
    corr: &SyncCorrection,
    params: &SpeechParams,
) -> SpeechTrack {
    let frames: Vec<(SimTime, AudioFrame)> =
        audio.map(|f| (corr.to_reference(f.t_local), f)).collect();
    let intervals = classify_intervals(&frames, params);
    // Self-speech utterances (collar-level frames only).
    let utterances = assemble_utterances(&frames, params.self_level_db);
    // Synthetic detection runs on *heard-level* utterances: the screen
    // reader sits at screen distance, so most of its frames land below the
    // collar threshold — scanning only self-level utterances misses the
    // runs entirely (the original deployment's bug, in a second guise).
    let candidates = assemble_utterances(&frames, params.level_threshold_db);
    assemble_track(intervals, &utterances, &candidates, params)
}

/// [`analyze_iter`] over the columnar audio view — the batched hot path driven by
/// the engine.
///
/// One fused pass replaces the scalar kernel's frame materialization and
/// three separate sweeps: reference times come from the lane-batched
/// [`SyncCorrection::to_reference_batch`]; the 15-s bucket is tracked as a
/// cached `[start, start + interval)` window so the integer-division
/// `floor_to` only runs when a frame leaves the window (bit-equal, since
/// `floor_to(t) == start` exactly when `t` is inside it); level sums
/// accumulate through branch-free selects (adding a literal `+0.0` for
/// non-qualifying frames, which cannot change any reachable sum — the
/// accumulators start at `+0.0` and can never become `-0.0`); and utterance
/// assembly runs over a pre-filtered candidate list ([`Utterance`] runs only
/// ever contain voiced, pitched frames at or above the lower of the two
/// level thresholds, and skipped frames could only have forced a flush that
/// the next retained frame or end-of-stream forces anyway, with the same run
/// contents — this relies on reference times being non-decreasing, which the
/// sorted audio column plus any sane correction guarantees).
///
/// The resulting track is bit-identical to [`analyze_iter`] on the same
/// frames — the contract `tests/batched_kernels.rs` enforces.
#[must_use]
pub fn analyze_view(
    audio: ColumnView<'_, AudioPayload>,
    corr: &SyncCorrection,
    params: &SpeechParams,
) -> SpeechTrack {
    let mut tref: Vec<SimTime> = Vec::with_capacity(audio.len());
    corr.to_reference_batch(audio.ts(), &mut tref);
    let payloads = audio.payloads();
    let min_level = params.self_level_db.min(params.level_threshold_db);

    let mut intervals: Vec<SpeechInterval> = Vec::new();
    let mut cands: Vec<(SimTime, f64, f64)> = Vec::new();
    let mut have = false;
    let mut bstart = SimTime::EPOCH;
    let mut bend = SimTime::EPOCH;
    let (mut frames_n, mut qual, mut lsum, mut voiced_n, mut vsum) =
        (0usize, 0usize, 0.0f64, 0usize, 0.0f64);
    for (p, &t) in payloads.iter().zip(&tref) {
        if !(have && t >= bstart && t < bend) {
            if have {
                intervals.push(finish_interval(
                    (bstart, frames_n, qual, lsum, voiced_n, vsum),
                    params,
                ));
            }
            bstart = t.floor_to(params.interval);
            bend = bstart + params.interval;
            have = true;
            (frames_n, qual, lsum, voiced_n, vsum) = (0, 0, 0.0, 0, 0.0);
        }
        frames_n += 1;
        let level = p.level_db;
        let voiced = p.voiced;
        voiced_n += usize::from(voiced);
        vsum += if voiced { level } else { 0.0 };
        let q = voiced && level >= params.level_threshold_db;
        qual += usize::from(q);
        lsum += if q { level } else { 0.0 };
        if voiced && level >= min_level {
            if let Some(f0) = p.f0_hz {
                cands.push((t, level, f0));
            }
        }
    }
    if have {
        intervals.push(finish_interval(
            (bstart, frames_n, qual, lsum, voiced_n, vsum),
            params,
        ));
    }
    let utterances = utterances_from_candidates(&cands, params.self_level_db);
    let candidates = utterances_from_candidates(&cands, params.level_threshold_db);
    assemble_track(intervals, &utterances, &candidates, params)
}

/// The shared tail of [`analyze_iter`] and [`analyze_view`]: heard-span
/// extraction, synthetic-run marking, self-talk filtering, and the F0
/// median — one implementation, so the two paths cannot diverge past the
/// utterance stage.
fn assemble_track(
    intervals: Vec<SpeechInterval>,
    utterances: &[Utterance],
    candidates: &[Utterance],
    params: &SpeechParams,
) -> SpeechTrack {
    let heard = IntervalSet::from_intervals(
        intervals
            .iter()
            .filter(|iv| iv.speech)
            .map(|iv| Interval::new(iv.start, iv.start + params.interval))
            .collect(),
    );
    let candidate_flags = mark_synthetic_runs(candidates, params);
    let synthetic_set = IntervalSet::from_intervals(
        candidates
            .iter()
            .zip(&candidate_flags)
            .filter(|&(_, &flag)| flag)
            .map(|(u, _)| u.interval)
            .collect(),
    );
    let mut self_spans = Vec::new();
    let mut f0s = Vec::new();
    for u in utterances {
        let synthetic = synthetic_set
            .intervals()
            .iter()
            .any(|iv| iv.overlaps(&u.interval));
        if synthetic && params.filter_synthetic {
            continue;
        }
        self_spans.push(u.interval);
        f0s.push(u.f0_hz);
    }
    SpeechTrack {
        intervals,
        heard,
        self_talk: IntervalSet::from_intervals(self_spans),
        synthetic: if params.filter_synthetic {
            synthetic_set
        } else {
            IntervalSet::new()
        },
        self_f0_hz: ares_simkit::stats::median(&f0s),
    }
}

fn classify_intervals(
    frames: &[(SimTime, AudioFrame)],
    params: &SpeechParams,
) -> Vec<SpeechInterval> {
    let mut out: Vec<SpeechInterval> = Vec::new();
    let mut cur: Option<(SimTime, usize, usize, f64, usize, f64)> = None;
    for &(t, f) in frames {
        let bucket = t.floor_to(params.interval);
        if cur.map(|c| c.0) != Some(bucket) {
            if let Some(c) = cur {
                out.push(finish_interval(c, params));
            }
            cur = Some((bucket, 0, 0, 0.0, 0, 0.0));
        }
        let c = cur.as_mut().expect("just set");
        c.1 += 1;
        if f.voiced {
            c.4 += 1;
            c.5 += f.level_db;
            if frame_qualifies(&f, params) {
                c.2 += 1;
                c.3 += f.level_db;
            }
        }
    }
    if let Some(c) = cur {
        out.push(finish_interval(c, params));
    }
    out
}

fn finish_interval(
    (start, frames, qualifying, level_sum, voiced, voiced_sum): (
        SimTime,
        usize,
        usize,
        f64,
        usize,
        f64,
    ),
    params: &SpeechParams,
) -> SpeechInterval {
    let speech = interval_is_speech(frames, qualifying, params);
    SpeechInterval {
        start,
        frames,
        qualifying,
        speech,
        mean_level_db: if qualifying > 0 {
            level_sum / qualifying as f64
        } else {
            0.0
        },
        mean_voiced_db: if voiced > 0 {
            voiced_sum / voiced as f64
        } else {
            0.0
        },
    }
}

fn assemble_utterances(frames: &[(SimTime, AudioFrame)], level_db: f64) -> Vec<Utterance> {
    let mut out = Vec::new();
    let mut run: Vec<(SimTime, f64)> = Vec::new();
    let gap = SimDuration::from_millis(1200);
    let frame_len = SimDuration::from_millis(500);
    let mut flush = |run: &mut Vec<(SimTime, f64)>| {
        if run.len() >= 2 {
            let f0s: Vec<f64> = run.iter().map(|&(_, f)| f).collect();
            out.push(Utterance {
                interval: Interval::new(run[0].0, run[run.len() - 1].0 + frame_len),
                f0_hz: ares_simkit::stats::median(&f0s),
            });
        }
        run.clear();
    };
    for &(t, f) in frames {
        let is_self = f.voiced && f.level_db >= level_db && f.f0_hz.is_some();
        if is_self {
            if run.last().is_some_and(|&(lt, _)| t - lt > gap) {
                flush(&mut run);
            }
            run.push((t, f.f0_hz.expect("checked")));
        } else if run.last().is_some_and(|&(lt, _)| t - lt > gap) {
            flush(&mut run);
        }
    }
    flush(&mut run);
    out
}

/// [`assemble_utterances`] over a pre-filtered candidate list of
/// `(t_ref, level_db, f0_hz)` triples — every frame that is voiced, pitched,
/// and at or above the *lower* of the two assembly thresholds, in stream
/// order. Frames dropped from the list can never join a run at any
/// `level_db` the caller passes, and the flushes they might have forced
/// happen with identical run contents at the next candidate or end of
/// stream (reference times are non-decreasing), so the output is bit-equal
/// to the scalar assembly over the full frame list.
fn utterances_from_candidates(cands: &[(SimTime, f64, f64)], level_db: f64) -> Vec<Utterance> {
    let mut out = Vec::new();
    let mut run: Vec<(SimTime, f64)> = Vec::new();
    let mut f0s: Vec<f64> = Vec::new();
    let gap = SimDuration::from_millis(1200);
    let frame_len = SimDuration::from_millis(500);
    let mut flush = |run: &mut Vec<(SimTime, f64)>, f0s: &mut Vec<f64>| {
        if run.len() >= 2 {
            f0s.clear();
            f0s.extend(run.iter().map(|&(_, f)| f));
            out.push(Utterance {
                interval: Interval::new(run[0].0, run[run.len() - 1].0 + frame_len),
                f0_hz: ares_simkit::stats::median_mut(f0s),
            });
        }
        run.clear();
    };
    for &(t, level, f0) in cands {
        if run.last().is_some_and(|&(lt, _)| t - lt > gap) {
            flush(&mut run, &mut f0s);
        }
        if level >= level_db {
            run.push((t, f0));
        }
    }
    flush(&mut run, &mut f0s);
    out
}

/// Marks utterances that belong to a synthetic (screen-reader) run: at least
/// three consecutive utterances within 90 s, all inside the TTS band, with a
/// tiny F0 spread. A single human utterance that happens to land in the band
/// survives (humans vary pitch between utterances; TTS does not).
fn mark_synthetic_runs(utterances: &[Utterance], params: &SpeechParams) -> Vec<bool> {
    let mut flags = vec![false; utterances.len()];
    let (lo, hi) = params.synthetic_band_hz;
    let window = SimDuration::from_secs(90);
    let mut i = 0;
    while i < utterances.len() {
        if utterances[i].f0_hz < lo || utterances[i].f0_hz > hi {
            i += 1;
            continue;
        }
        // Extend a run of in-band utterances with small spacing.
        let mut j = i;
        while j + 1 < utterances.len()
            && utterances[j + 1].f0_hz >= lo
            && utterances[j + 1].f0_hz <= hi
            && utterances[j + 1].interval.start - utterances[j].interval.end < window
        {
            j += 1;
        }
        let run = &utterances[i..=j];
        if run.len() >= 3 {
            // Robust spread: the std dev of the per-utterance medians. The
            // max−min range grows with run length under frame-level F0
            // noise, so long reader sessions would escape a range test;
            // the std dev stays flat for TTS and large for humans.
            let mut stats = ares_simkit::stats::Running::new();
            for u in run {
                stats.push(u.f0_hz);
            }
            if stats.std_dev() <= params.synthetic_max_spread_hz {
                for flag in &mut flags[i..=j] {
                    *flag = true;
                }
            }
        }
        i = j + 1;
    }
    flags
}

/// Fraction of recorded 15-s intervals classified as speech within a window
/// — one point of Fig. 6.
#[must_use]
pub fn heard_fraction(track: &SpeechTrack, from: SimTime, to: SimTime) -> f64 {
    let mut recorded = 0usize;
    let mut speech = 0usize;
    for iv in &track.intervals {
        if iv.start >= from && iv.start < to && iv.frames > 0 {
            recorded += 1;
            if iv.speech {
                speech += 1;
            }
        }
    }
    if recorded == 0 {
        0.0
    } else {
        speech as f64 / recorded as f64
    }
}

/// Total self-talk duration within a window.
#[must_use]
pub fn self_talk_duration(track: &SpeechTrack, from: SimTime, to: SimTime) -> SimDuration {
    track.self_talk.clip(from, to).total_duration()
}

/// Gender classification from the track's self-speech F0.
#[must_use]
pub fn classify_register(track: &SpeechTrack, params: &SpeechParams) -> Option<&'static str> {
    if track.self_f0_hz <= 0.0 {
        return None;
    }
    Some(if track.self_f0_hz >= params.gender_split_hz {
        "female"
    } else {
        "male"
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ares_badge::records::BadgeId;
    use ares_badge::telemetry::TelemetryStore;

    fn frame(t_ms: i64, level: f64, voiced: bool, f0: Option<f64>) -> AudioFrame {
        AudioFrame {
            t_local: SimTime::from_micros(t_ms * 1000),
            level_db: level,
            voiced,
            f0_hz: f0,
        }
    }

    fn log_of(frames: Vec<AudioFrame>) -> TelemetryStore {
        let mut log = TelemetryStore::new(BadgeId(0));
        for f in frames {
            log.push_audio(f);
        }
        log
    }

    #[test]
    fn interval_rule_matches_paper_thresholds() {
        // 30 frames per 15 s window; 6 qualifying = exactly 20 %.
        let mut frames = Vec::new();
        for i in 0..30 {
            let voiced = i < 6;
            frames.push(frame(
                i * 500,
                if voiced { 62.0 } else { 45.0 },
                voiced,
                voiced.then_some(200.0),
            ));
        }
        // Second window: only 5 qualify (16.7 %).
        for i in 30..60 {
            let voiced = i < 35;
            frames.push(frame(
                i * 500,
                if voiced { 62.0 } else { 45.0 },
                voiced,
                voiced.then_some(200.0),
            ));
        }
        let track = analyze_iter(
            log_of(frames).view().audio_frames(),
            &SyncCorrection::identity(),
            &SpeechParams::default(),
        );
        assert_eq!(track.intervals.len(), 2);
        assert!(track.intervals[0].speech, "20 % exactly qualifies");
        assert!(!track.intervals[1].speech);
    }

    #[test]
    fn loud_but_unvoiced_frames_do_not_count() {
        let frames: Vec<AudioFrame> = (0..30).map(|i| frame(i * 500, 70.0, false, None)).collect();
        let track = analyze_iter(
            log_of(frames).view().audio_frames(),
            &SyncCorrection::identity(),
            &SpeechParams::default(),
        );
        assert!(!track.intervals[0].speech);
    }

    #[test]
    fn self_speech_attribution_by_level() {
        let mut frames = Vec::new();
        // Own voice: 76 dB. Partner: 67 dB.
        for i in 0..10 {
            frames.push(frame(i * 500, 76.0, true, Some(204.0)));
        }
        for i in 10..20 {
            frames.push(frame(i * 500, 67.0, true, Some(120.0)));
        }
        let track = analyze_iter(
            log_of(frames).view().audio_frames(),
            &SyncCorrection::identity(),
            &SpeechParams::default(),
        );
        let d = track.self_talk.total_duration().as_secs_f64();
        assert!((d - 5.0).abs() < 1.0, "self talk {d}");
        assert_eq!(
            classify_register(&track, &SpeechParams::default()),
            Some("female")
        );
    }

    #[test]
    fn screen_reader_runs_are_filtered() {
        let mut frames = Vec::new();
        // Three flat 150 Hz utterances separated by 2 s silences.
        let mut t = 0;
        for _ in 0..3 {
            for _ in 0..12 {
                frames.push(frame(t, 73.0, true, Some(150.3)));
                t += 500;
            }
            for _ in 0..4 {
                frames.push(frame(t, 42.0, false, None));
                t += 500;
            }
        }
        // Then a genuine human utterance at 205 Hz.
        for _ in 0..8 {
            frames.push(frame(t, 76.0, true, Some(205.0)));
            t += 500;
        }
        let track = analyze_iter(
            log_of(frames).view().audio_frames(),
            &SyncCorrection::identity(),
            &SpeechParams::default(),
        );
        assert!(
            track.synthetic.total_duration() > SimDuration::from_secs(14),
            "synthetic spans {:?}",
            track.synthetic
        );
        let self_d = track.self_talk.total_duration().as_secs_f64();
        assert!((self_d - 4.0).abs() < 1.5, "human self talk {self_d}");
        // Without the fix, the reader would be attributed to the wearer.
        let unfixed = SpeechParams {
            filter_synthetic: false,
            ..Default::default()
        };
        let naive = analyze_iter(
            log_of_frames_clone().view().audio_frames(),
            &SyncCorrection::identity(),
            &unfixed,
        );
        assert!(naive.self_talk.total_duration().as_secs_f64() > 18.0);

        fn log_of_frames_clone() -> TelemetryStore {
            let mut frames = Vec::new();
            let mut t = 0;
            for _ in 0..3 {
                for _ in 0..12 {
                    frames.push(AudioFrame {
                        t_local: SimTime::from_micros(t * 1000),
                        level_db: 73.0,
                        voiced: true,
                        f0_hz: Some(150.3),
                    });
                    t += 500;
                }
                for _ in 0..4 {
                    frames.push(AudioFrame {
                        t_local: SimTime::from_micros(t * 1000),
                        level_db: 42.0,
                        voiced: false,
                        f0_hz: None,
                    });
                    t += 500;
                }
            }
            for _ in 0..8 {
                frames.push(AudioFrame {
                    t_local: SimTime::from_micros(t * 1000),
                    level_db: 76.0,
                    voiced: true,
                    f0_hz: Some(205.0),
                });
                t += 500;
            }
            log_of(frames)
        }
    }

    #[test]
    fn varying_pitch_in_band_is_not_synthetic() {
        // Three utterances whose medians span 20 Hz — a human male, not TTS.
        let mut frames = Vec::new();
        let mut t = 0;
        for f0 in [142.0, 151.0, 159.0] {
            for _ in 0..10 {
                frames.push(frame(t, 74.0, true, Some(f0)));
                t += 500;
            }
            for _ in 0..4 {
                frames.push(frame(t, 42.0, false, None));
                t += 500;
            }
        }
        let track = analyze_iter(
            log_of(frames).view().audio_frames(),
            &SyncCorrection::identity(),
            &SpeechParams::default(),
        );
        assert!(track.synthetic.is_empty());
        assert!(track.self_talk.total_duration() > SimDuration::from_secs(12));
    }

    #[test]
    fn heard_fraction_counts_recorded_intervals_only() {
        let mut frames = Vec::new();
        // One speech window, one silent window; a third window unrecorded.
        for i in 0..30 {
            frames.push(frame(i * 500, 63.0, true, Some(190.0)));
        }
        for i in 30..60 {
            frames.push(frame(i * 500, 41.0, false, None));
        }
        let track = analyze_iter(
            log_of(frames).view().audio_frames(),
            &SyncCorrection::identity(),
            &SpeechParams::default(),
        );
        let f = heard_fraction(&track, SimTime::from_secs(0), SimTime::from_secs(45));
        assert!((f - 0.5).abs() < 1e-9);
    }
}
