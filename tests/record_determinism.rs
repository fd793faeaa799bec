//! The recording front end's determinism guarantees, end to end.
//!
//! [`ares_badge::recorder::Recorder`] fans per-unit recording jobs across a
//! scoped worker pool, each unit drawing from its own seeded stream, and its
//! run-length batched kernel replaces per-packet geometry with RF field-cache
//! lookups hoisted per dwell run — so a recorded day must be
//! **bit-identical** (`PartialEq` over every sample of every stream) across
//! worker counts *and* to the reference recorder (the scalar tick loop over
//! exact geometry), on the full ICAres scenario.

use ares_icares::MissionRunner;

const DAY: u32 = 3;

#[test]
fn parallel_recording_is_bit_identical_to_sequential() {
    let runner = MissionRunner::icares();
    let sequential = runner.record_day_stores(DAY);
    assert!(
        sequential.iter().any(|s| !s.scans.is_empty()),
        "sanity: the day has data"
    );
    for workers in [1usize, 2, 4] {
        let parallel = runner.record_day_stores_parallel(DAY, workers);
        assert_eq!(
            parallel, sequential,
            "recorded day diverged with {workers} worker(s)"
        );
    }
}

#[test]
fn exact_geometry_recording_matches_cached() {
    let runner = MissionRunner::icares();
    let cached = runner.record_day_stores(DAY);
    let exact = runner.record_day_reference(DAY);
    assert_eq!(
        exact, cached,
        "batched field-cache kernel drifted from the exact scalar reference"
    );
}
