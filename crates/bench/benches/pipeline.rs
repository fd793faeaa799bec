//! Pipeline-stage benchmarks: what it costs to turn one day of badge
//! recordings into the paper's analyses.
//!
//! The per-stage benchmarks call the *engine stage kernels* — the same
//! functions the batch path, the streaming analyzer and the parallel
//! executor share — on a realistic day-3 recording of badge 0 (astronaut
//! A's), generated once up front. The `mission-engine` group measures the
//! deterministic parallel executor at 1 and N workers on the full day.

use ares_badge::records::BadgeId;
use ares_badge::telemetry::TelemetryStore;
use ares_icares::MissionRunner;
use ares_sociometrics::engine::{
    analyze_badge_day, stage_activity, stage_localize, stage_speech, stage_stays, stage_sync_fit,
    stage_wear, EngineMetrics, MissionContext, MissionEngine,
};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

/// Badge 0's (astronaut A's) recorded day 3.
fn badge0_day3(runner: &MissionRunner) -> TelemetryStore {
    runner
        .record_day_stores(3)
        .into_iter()
        .find(|s| s.badge == BadgeId(0))
        .expect("badge 0 recorded")
}

fn bench_pipeline_stages(c: &mut Criterion) {
    let runner = MissionRunner::icares();
    let store = badge0_day3(&runner);
    let view = store.view();
    let ctx = runner.pipeline().context().clone();
    let corr = stage_sync_fit(view);

    let mut g = c.benchmark_group("pipeline-stages");
    g.sample_size(10);

    g.throughput(Throughput::Elements(view.sync.len() as u64));
    g.bench_function("sync fit", |b| {
        b.iter(|| black_box(stage_sync_fit(view)));
    });

    g.throughput(Throughput::Elements(view.scans.len() as u64));
    g.bench_function("localize full day", |b| {
        b.iter(|| black_box(stage_localize(&ctx, view, &corr)));
    });

    let track = stage_localize(&ctx, view, &corr);
    g.throughput(Throughput::Elements(track.fixes.len() as u64));
    g.bench_function("segment stays", |b| {
        b.iter(|| black_box(stage_stays(&track)));
    });

    let wear = stage_wear(&ctx, view, &corr);
    g.throughput(Throughput::Elements(view.imu.len() as u64));
    g.bench_function("wear detection", |b| {
        b.iter(|| black_box(stage_wear(&ctx, view, &corr)));
    });
    g.bench_function("walking detection", |b| {
        b.iter(|| black_box(stage_activity(&ctx, view, &corr, &wear)));
    });

    g.throughput(Throughput::Elements(view.audio.len() as u64));
    g.bench_function("speech analysis full day", |b| {
        b.iter(|| black_box(stage_speech(&ctx, view, &corr)));
    });

    let records =
        (view.sync.len() + view.scans.len() + view.audio.len() + view.imu.len() + view.env.len())
            as u64;
    g.throughput(Throughput::Elements(records));
    g.bench_function("badge-day (all stages, metered)", |b| {
        b.iter(|| {
            let mut metrics = EngineMetrics::new();
            black_box(analyze_badge_day(&ctx, 3, view, &mut metrics));
            black_box(metrics)
        });
    });
    g.finish();
}

fn bench_full_day(c: &mut Criterion) {
    let runner = MissionRunner::icares();
    let stores = runner.record_day_stores(3);
    let mut g = c.benchmark_group("pipeline-end-to-end");
    g.sample_size(10);
    g.bench_function("analyze one mission day (13 units)", |b| {
        b.iter(|| black_box(runner.pipeline().analyze_day_stores(3, &stores)));
    });
    g.finish();
}

fn bench_mission_engine(c: &mut Criterion) {
    let runner = MissionRunner::icares();
    let stores = runner.record_day_stores(3);
    let ctx = runner.pipeline().context_arc();
    let n = std::thread::available_parallelism()
        .map_or(2, usize::from)
        .max(2);

    let mut g = c.benchmark_group("mission-engine");
    g.sample_size(10);
    for workers in [1usize, n] {
        let engine = MissionEngine::with_workers(ctx.clone(), workers);
        g.bench_function(
            &format!("analyze one day on stores @{workers} worker(s)"),
            |b| {
                b.iter(|| black_box(engine.analyze_day_stores(3, &stores)));
            },
        );
    }
    g.finish();
}

fn bench_recording(c: &mut Criterion) {
    let runner = MissionRunner::icares();
    let mut g = c.benchmark_group("recording");
    g.sample_size(10);
    g.bench_function("record one mission day (all sensors, 1 Hz)", |b| {
        b.iter(|| black_box(runner.record_day_stores(3)));
    });
    g.finish();
}

fn bench_hits(c: &mut Criterion) {
    use ares_crew::roster::AstronautId;
    use ares_sociometrics::social::CompanyMatrix;
    let mut m = CompanyMatrix::new();
    for (i, x) in AstronautId::ALL.into_iter().enumerate() {
        for &y in &AstronautId::ALL[i + 1..] {
            m.add_pair_hours(x, y, (i as f64 + 1.5) * 3.0);
        }
    }
    let mut g = c.benchmark_group("social");
    g.bench_function("HITS authority (60 iterations)", |b| {
        b.iter(|| black_box(m.hits_authority(60)));
    });
    g.finish();
}

fn bench_streaming(c: &mut Criterion) {
    use ares_sociometrics::streaming::StreamingAnalyzer;
    let runner = MissionRunner::icares();
    let store = badge0_day3(&runner);
    let (badge, v) = (store.badge, store.view());
    // Materialize the row feed once, outside the timed loop.
    let sync: Vec<_> = v.sync_samples().collect();
    let scans: Vec<_> = v.beacon_scans().collect();
    let audio: Vec<_> = v.audio_frames().collect();
    let imu: Vec<_> = v.imu_samples().collect();
    let ctx = MissionContext::icares();
    let mut g = c.benchmark_group("streaming");
    g.sample_size(10);
    let records = (scans.len() + audio.len() + imu.len()) as u64;
    g.throughput(Throughput::Elements(records));
    g.bench_function("ingest one badge-day (live events)", |b| {
        b.iter(|| {
            let mut sa = StreamingAnalyzer::with_context(ctx.clone());
            for s in &sync {
                sa.ingest_sync(badge, s);
            }
            let mut events = 0u64;
            for s in &scans {
                events += sa.ingest_scan(badge, s).len() as u64;
            }
            for f in &audio {
                events += sa.ingest_audio(badge, f).len() as u64;
            }
            for s in &imu {
                events += sa.ingest_imu(badge, s).len() as u64;
            }
            black_box(events)
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_pipeline_stages,
    bench_full_day,
    bench_mission_engine,
    bench_recording,
    bench_hits,
    bench_streaming
);
criterion_main!(benches);
