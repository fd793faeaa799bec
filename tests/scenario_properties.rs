//! Scenario-diversity properties: the engine's invariants must hold on
//! *generated* worlds, not just the canonical Lunares one.
//!
//! The generator is required to emit validator-clean, deterministic specs
//! for every seed; a sampled subset is driven through the full vertical
//! slice — record, analyze — proving recording stays bit-identical across
//! sequential/parallel/exact-geometry paths (the `RfFieldCache` purity
//! contract on arbitrary generated geometry) and batch analysis matches the
//! parallel mission engine byte for byte.

use ares::badge::records::SamplingConfig;
use ares::icares::{MissionRunner, ScenarioConfig, FIRST_INSTRUMENTED_DAY};
use ares::scenario::{generate, validate, ScenarioSpec};
use ares::sociometrics::engine::MissionEngine;
use proptest::prelude::*;
use serde::{Deserialize, Serialize};

#[test]
fn lunares_is_one_spec_among_many() {
    // The canonical spec reports exactly its historical sleep/hygiene zoning
    // violation; generated scenarios must come back clean.
    let v = validate(&ScenarioSpec::lunares());
    assert_eq!(v.len(), 1);
    assert_eq!(v[0].rule, "zoning");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every seed yields a deterministic, validator-clean, serde-stable spec.
    #[test]
    fn generated_specs_are_valid_and_deterministic(seed in 0u64..10_000) {
        let spec = generate(seed);
        let violations = validate(&spec);
        prop_assert!(violations.is_empty(), "seed {seed}: {violations:?}");
        prop_assert_eq!(&generate(seed), &spec, "seed {} not deterministic", seed);
        let back = ScenarioSpec::from_value(&spec.to_value()).expect("deserializes");
        prop_assert_eq!(back, spec);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A generated scenario records and analyzes without panics, and the
    /// recording front end is bit-identical sequential vs. parallel vs. the
    /// reference recorder (scalar tick loop, exact geometry) — `.to_bits()`
    /// RSSI equality, since the columnar
    /// stores compare byte for byte — while batch analysis matches the
    /// parallel engine.
    #[test]
    fn generated_scenarios_hold_the_determinism_contract(seed in 0u64..200) {
        let day = FIRST_INSTRUMENTED_DAY;
        let config = ScenarioConfig {
            truth_days: day,
            sampling: SamplingConfig::fleet(),
            ..ScenarioConfig::from_spec(generate(seed))
        };
        let runner = MissionRunner::new(config);
        let stores = runner.record_day_stores(day);
        prop_assert!(
            runner.record_day_stores_parallel(day, 4) == stores,
            "seed {seed}: parallel recording diverged"
        );
        prop_assert!(
            runner.record_day_reference(day) == stores,
            "seed {seed}: batched kernel diverged from the exact reference"
        );
        let parallel = MissionEngine::with_workers(runner.pipeline().context_arc(), 4)
            .analyze_days_stores(&[(day, stores)]);
        let batch = runner.run_days(day, day, |_| {});
        prop_assert_eq!(
            serde_json::to_string(&batch),
            serde_json::to_string(&parallel),
            "seed {} batch vs parallel analysis diverged",
            seed
        );
    }
}
