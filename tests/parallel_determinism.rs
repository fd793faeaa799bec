//! The parallel executor's determinism guarantee, end to end.
//!
//! The [`ares_sociometrics::engine::MissionEngine`] fans badge-days across a
//! scoped worker pool and merges results in canonical day/badge order, so its
//! `MissionAnalysis` must be **bit-identical** (`PartialEq` over every f64)
//! to the sequential pipeline's — for any worker count, on the full ICAres
//! scenario.

use ares_icares::scenario::{MissionRunner, FIRST_INSTRUMENTED_DAY};
use ares_sociometrics::engine::{MissionEngine, Stage};
use ares_sociometrics::pipeline::MissionAnalysis;

#[test]
fn parallel_mission_is_bit_identical_to_sequential() {
    let runner = MissionRunner::icares();

    // Record every instrumented day once; fold the sequential analysis as we
    // go (this is exactly what `MissionRunner::run_days` does).
    let mut sequential = MissionAnalysis::new(&runner.pipeline().context().plan);
    let mut days = Vec::new();
    for day in FIRST_INSTRUMENTED_DAY..=ares_crew::schedule::MISSION_DAYS {
        let (stores, analysis) = runner.run_day(day);
        sequential.account_recorded(stores.iter().map(|s| s.bytes_written).sum());
        sequential.absorb(analysis);
        days.push((day, stores));
    }
    assert!(!sequential.meetings.is_empty(), "sanity: mission has data");

    let badge_days: u64 = days
        .iter()
        .map(|(_, stores)| {
            stores
                .iter()
                .filter(|s| s.badge != ares_badge::records::BadgeId::REFERENCE)
                .count() as u64
        })
        .sum();

    for workers in [1usize, 2, 4] {
        let engine = MissionEngine::with_workers(runner.pipeline().context_arc(), workers);
        let parallel = engine.analyze_days_stores(&days);
        assert_eq!(
            parallel, sequential,
            "parallel MissionAnalysis diverged with {workers} worker(s)"
        );
        // The metric *counts* are deterministic too: every badge-day ran
        // every per-badge stage exactly once, regardless of scheduling.
        let metrics = engine.metrics();
        for stage in [
            Stage::SyncFit,
            Stage::Localize,
            Stage::Wear,
            Stage::Activity,
            Stage::Speech,
            Stage::Stays,
            Stage::Identity,
        ] {
            assert_eq!(
                metrics.get(stage).calls,
                badge_days,
                "{} calls with {workers} worker(s)",
                stage.label()
            );
        }
        assert_eq!(metrics.get(Stage::Assemble).calls, days.len() as u64);
    }
}

/// The batched SoA kernels behind the store path must be *bit*-identical to
/// their scalar references on real mission data — positions compared through
/// `f64::to_bits`, not tolerance — and stay so under every worker count the
/// executor supports (the test above already pins the full analysis at
/// 1/2/4 workers; this pins the kernels themselves).
#[test]
fn batched_kernels_are_bit_identical_to_scalar_on_mission_data() {
    use ares_sociometrics::localization::{localize_scans, localize_scans_scalar};
    use ares_sociometrics::speech::{analyze_iter, analyze_view};
    use ares_sociometrics::sync::SyncCorrection;

    let runner = MissionRunner::icares();
    let stores = runner.record_day_stores(FIRST_INSTRUMENTED_DAY);
    let ctx = runner.pipeline().context_arc();
    let mut nonempty = 0;
    for store in &stores {
        let view = store.view();
        let corr = SyncCorrection::fit_view(view.sync);

        let scalar = localize_scans_scalar(
            view.scans,
            &corr,
            ctx.beacon_index(),
            &ctx.plan,
            &ctx.params.localization,
        );
        let batched = localize_scans(
            view.scans,
            &corr,
            ctx.beacon_index(),
            &ctx.plan,
            &ctx.params.localization,
        );
        assert_eq!(scalar, batched, "batched localize diverged from scalar");
        for (a, b) in scalar.fixes.samples().iter().zip(batched.fixes.samples()) {
            assert_eq!(a.value.position.x.to_bits(), b.value.position.x.to_bits());
            assert_eq!(a.value.position.y.to_bits(), b.value.position.y.to_bits());
        }
        nonempty += usize::from(!scalar.fixes.samples().is_empty());

        let s = analyze_iter(view.audio_frames(), &corr, &ctx.params.speech);
        let b = analyze_view(view.audio, &corr, &ctx.params.speech);
        assert_eq!(s, b, "batched speech diverged from scalar");
        for (si, bi) in s.intervals.iter().zip(&b.intervals) {
            assert_eq!(si.mean_level_db.to_bits(), bi.mean_level_db.to_bits());
            assert_eq!(si.mean_voiced_db.to_bits(), bi.mean_voiced_db.to_bits());
        }
        assert_eq!(s.self_f0_hz.to_bits(), b.self_f0_hz.to_bits());
    }
    assert!(nonempty > 0, "sanity: day had localizable badges");
}
