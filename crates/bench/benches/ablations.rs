//! Ablation benchmarks for the design choices DESIGN.md calls out.
//!
//! These measure *quality* (error, misclassification) rather than only
//! speed; Criterion reports the runtime cost of each variant while the
//! printed summaries record the accuracy trade-off.

use ares_badge::scanner;
use ares_badge::world::World;
use ares_habitat::beacons::BeaconDeployment;
use ares_habitat::rooms::RoomId;
use ares_simkit::rng::SeedTree;
use ares_simkit::time::SimTime;
use ares_sociometrics::localization::{
    classify_room, estimate_position, merge_scans, LocalizationParams,
};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// Localization ablation: Gauss–Newton refinement vs plain weighted
/// centroid, with and without RSSI smoothing.
fn ablation_localization(c: &mut Criterion) {
    let world = World::icares();
    let truth =
        world.plan.room_center(RoomId::Workshop) + ares_simkit::geometry::Vec2::new(1.3, 1.1);
    let mut rng = SeedTree::new(11).stream("abl-loc");
    // Pre-generate scans.
    let scans: Vec<_> = (0..500)
        .map(|i| scanner::scan(&world, truth, SimTime::from_secs(i), &mut rng))
        .filter(|s| classify_room(s, &world.beacons) == Some(RoomId::Workshop))
        .collect();
    let refined = LocalizationParams::default();
    let coarse = LocalizationParams {
        gn_iterations: 0,
        ..refined
    };

    let eval = |params: &LocalizationParams, smooth: bool| -> f64 {
        let mut err = 0.0;
        let mut n = 0;
        let mut window: Vec<&ares_badge::records::BeaconScan> = Vec::new();
        for s in &scans {
            window.push(s);
            if window.len() > 5 {
                window.remove(0);
            }
            let scan = if smooth {
                merge_scans(&window)
            } else {
                (*s).clone()
            };
            err += estimate_position(&scan, RoomId::Workshop, &world.beacons, &world.plan, params)
                .distance(truth);
            n += 1;
        }
        err / f64::from(n)
    };

    println!("\n[ablation] in-room localization mean error (m):");
    println!("  centroid, raw RSSI:       {:.3}", eval(&coarse, false));
    println!("  centroid, smoothed RSSI:  {:.3}", eval(&coarse, true));
    println!("  GN+prior, raw RSSI:       {:.3}", eval(&refined, false));
    println!(
        "  GN+prior, smoothed RSSI:  {:.3}  <- production path",
        eval(&refined, true)
    );

    let mut g = c.benchmark_group("ablation-localization");
    g.sample_size(10);
    g.bench_function("centroid", |b| b.iter(|| black_box(eval(&coarse, true))));
    g.bench_function("gauss-newton+prior", |b| {
        b.iter(|| black_box(eval(&refined, true)))
    });
    g.finish();
}

/// Beacon-density ablation: room-classification accuracy at 3/2/1 beacons
/// per room.
fn ablation_beacon_density(c: &mut Criterion) {
    let plan = ares_habitat::floorplan::FloorPlan::lunares();
    let full = BeaconDeployment::icares(&plan);
    println!("\n[ablation] room accuracy & fix rate vs beacon density:");
    for per_room in [3, 2, 1] {
        let dep = full.thinned(per_room);
        let world = World::icares().with_beacons(dep.clone());
        let mut rng = SeedTree::new(12).stream_indexed("abl-dens", per_room as u64);
        let mut correct = 0u32;
        let mut empty = 0u32;
        let mut total = 0u32;
        for room in RoomId::FIG2 {
            let pos = plan.room_center(room);
            for i in 0..100 {
                total += 1;
                let s = scanner::scan(&world, pos, SimTime::from_secs(i), &mut rng);
                if s.hits.is_empty() {
                    empty += 1;
                } else if classify_room(&s, &dep) == Some(room) {
                    correct += 1;
                }
            }
        }
        println!(
            "  {} beacons/room ({:>2} total): {:.1} % correct, {:.1} % empty scans",
            per_room,
            dep.len(),
            f64::from(correct) / f64::from(total) * 100.0,
            f64::from(empty) / f64::from(total) * 100.0
        );
    }
    let mut g = c.benchmark_group("ablation-beacon-density");
    for per_room in [3usize, 1] {
        let dep = full.thinned(per_room);
        let world = World::icares().with_beacons(dep);
        let pos = plan.room_center(RoomId::Office);
        g.bench_function(&format!("scan @{per_room}/room"), |b| {
            let mut rng = SeedTree::new(13).stream("abl-dens-b");
            let mut t = 0i64;
            b.iter(|| {
                t += 1;
                black_box(scanner::scan(&world, pos, SimTime::from_secs(t), &mut rng))
            });
        });
    }
    g.finish();
}

/// Speech-threshold ablation: how the paper's 60 dB / 20 % rule behaves when
/// moved (the "boundary values were determined experimentally" sweep).
fn ablation_speech_thresholds(c: &mut Criterion) {
    use ares_icares::MissionRunner;
    use ares_sociometrics::speech::{analyze_view, heard_fraction, SpeechParams};
    use ares_sociometrics::sync::SyncCorrection;
    let runner = MissionRunner::icares();
    let store = runner
        .record_day_stores(3)
        .into_iter()
        .find(|s| s.badge == ares_badge::records::BadgeId(2))
        .unwrap();
    let audio = store.audio.view();
    let corr = SyncCorrection::fit_view(store.sync.view());
    let from = SimTime::from_day_hms(3, 7, 0, 0);
    let to = SimTime::from_day_hms(3, 21, 0, 0);
    println!("\n[ablation] day-3 heard-speech fraction (badge02 / astronaut C) vs thresholds:");
    for level in [55.0, 60.0, 65.0] {
        for quorum in [0.1, 0.2, 0.35] {
            let params = SpeechParams {
                level_threshold_db: level,
                frame_quorum: quorum,
                ..Default::default()
            };
            let track = analyze_view(audio, &corr, &params);
            println!(
                "  ≥{level:.0} dB, ≥{:.0} % frames: fraction {:.3}",
                quorum * 100.0,
                heard_fraction(&track, from, to)
            );
        }
    }
    let mut g = c.benchmark_group("ablation-speech");
    g.sample_size(10);
    g.bench_function("analyze day @60dB/20%", |b| {
        b.iter(|| black_box(analyze_view(audio, &corr, &SpeechParams::default())));
    });
    g.finish();
}

/// The 10-second dwell filter ablation: passage counts with and without it.
fn ablation_dwell_filter(c: &mut Criterion) {
    use ares_icares::MissionRunner;
    use ares_simkit::time::SimDuration;
    use ares_sociometrics::occupancy::{segment_stays, PassageMatrix};
    let runner = MissionRunner::icares();
    let (_, analysis) = runner.run_day(3);
    println!("\n[ablation] day-3 passages with vs without the 10-s dwell filter:");
    let mut with = PassageMatrix::new();
    let mut without = PassageMatrix::new();
    for b in &analysis.badges {
        // With: the production stays (filter applied inside segment_stays).
        with.accumulate(&b.stays);
        // Without: re-segment with the raw runs kept (simulate by counting
        // every room flip as a passage — rebuild from fixes).
        let mut raw_stays = Vec::new();
        let fixes = b.track.fixes.samples();
        if !fixes.is_empty() {
            let mut start = fixes[0].t;
            let mut room = fixes[0].value.room;
            let mut last = fixes[0].t;
            for f in &fixes[1..] {
                if f.value.room != room || f.t - last > SimDuration::from_secs(5) {
                    raw_stays.push(ares_sociometrics::occupancy::Stay {
                        room,
                        interval: ares_simkit::series::Interval::new(
                            start,
                            last + SimDuration::from_secs(1),
                        ),
                    });
                    start = f.t;
                    room = f.value.room;
                }
                last = f.t;
            }
        }
        without.accumulate(&raw_stays);
    }
    println!(
        "  with filter: {} passages; without: {} (door-leak inflation ×{:.2})",
        with.total(),
        without.total(),
        f64::from(without.total()) / f64::from(with.total().max(1))
    );
    let mut g = c.benchmark_group("ablation-dwell");
    g.sample_size(10);
    let track = analysis.badges[0].track.clone();
    g.bench_function("segment stays (production)", |b| {
        b.iter(|| black_box(segment_stays(&track, SimDuration::from_secs(5))));
    });
    g.finish();
}

/// Modality ablation: co-presence hours from beacon localization vs the
/// independent 868 MHz proximity radio.
fn ablation_proximity_vs_localization(c: &mut Criterion) {
    use ares_icares::MissionRunner;
    use ares_sociometrics::proximity::{ColocationIndex, ProximityParams};
    let runner = MissionRunner::icares();
    let (stores, analysis) = runner.run_day(3);
    let views: Vec<_> = stores
        .iter()
        .filter_map(|store| {
            analysis
                .badges
                .iter()
                .find(|b| b.badge == store.badge)
                .map(|b| (store.view(), &b.corr))
        })
        .collect();
    let index = ColocationIndex::build(&views, &ProximityParams::default());
    println!("\n[ablation] day-3 pairwise co-presence, two modalities (hours):");
    use ares_crew::roster::AstronautId as Id;
    for (x, y) in [(Id::A, Id::F), (Id::D, Id::E), (Id::B, Id::D)] {
        let bx = analysis.carrier_of[x.index()].map(|i| analysis.badges[i].badge);
        let by = analysis.carrier_of[y.index()].map(|i| analysis.badges[i].badge);
        let prox = match (bx, by) {
            (Some(a), Some(b)) => index.pair_hours(a, b),
            _ => 0.0,
        };
        let loc: f64 = analysis
            .meetings
            .iter()
            .filter(|m| m.has_pair(x, y))
            .map(|m| m.duration().as_hours_f64())
            .sum();
        println!("  {x}-{y}: localization {loc:.2} h, proximity {prox:.2} h");
    }
    let mut g = c.benchmark_group("ablation-modalities");
    g.sample_size(10);
    g.bench_function("build colocation index (full day)", |b| {
        b.iter(|| black_box(ColocationIndex::build(&views, &ProximityParams::default())));
    });
    g.finish();
}

criterion_group!(
    benches,
    ablation_localization,
    ablation_beacon_density,
    ablation_speech_thresholds,
    ablation_dwell_filter,
    ablation_proximity_vs_localization
);
criterion_main!(benches);
