//! What every workload shares: the run environment, the timed loop, the
//! per-phase record, output digests and the process's peak memory.

use crate::trace::{SpanId, Tracer};
use serde::Serialize;
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups per phase: at least this many, and more until
/// [`SETUP_BUDGET_S`] of set-up has been measured. `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Set-up time to measure at least, so that short set-ups are sampled often.
pub const SETUP_BUDGET_S: f64 = 2.0;

/// The inputs of one measured phase.
pub struct Env<'a> {
    /// Workload seed; it feeds `ScenarioConfig.seed` / `FleetConfig.seed`.
    pub seed: u64,
    /// Timed-loop budget.
    pub seconds: f64,
    /// `available_parallelism` of the host.
    pub cores: usize,
    pub tr: &'a Tracer,
}

/// One timed sample: the telemetry records it took through the workload's
/// path, and its wall time.
#[derive(Debug, Clone, Copy)]
pub struct Iter {
    pub records: f64,
    pub wall_s: f64,
}

/// Everything one phase (untraced or traced) measured.
#[derive(Debug, Default)]
pub struct Phase {
    pub setup_s: Vec<f64>,
    pub iters: Vec<Iter>,
    /// Days analyzed in the timed loop (tenant-days on `ingest_replay`,
    /// habitat-days on `fleet_soak`). Per-layer counts and busy times are
    /// divided by it, so they do not grow with the iterations that fit in
    /// `--seconds`.
    pub days: u64,
    /// Wall time of the whole phase (set-ups, timed loop), for accounting.
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub peak_rss_mib: f64,
    /// Workload-specific per-layer values, by metric name.
    pub layer: BTreeMap<String, f64>,
    /// Per-layer timing samples not taken from spans, by metric name.
    pub samples: BTreeMap<String, Vec<f64>>,
}

impl Phase {
    /// Counts `n` operations, `bad` of which failed a check.
    pub fn ops(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.layer.insert(name.to_string(), value);
    }

    /// A timed-loop total per analyzed day (see [`Phase::days`]).
    #[must_use]
    pub fn per_day(&self, total: f64) -> f64 {
        total / self.days.max(1) as f64
    }

    /// Telemetry records per second over the timed loop: all the samples'
    /// records over all their wall time. Pooled rather than a median of the
    /// samples' rates, because on `ingest_replay` and `fleet_soak` a run holds
    /// only two to four samples.
    #[must_use]
    pub fn records_per_s(&self) -> f64 {
        let records: f64 = self.iters.iter().map(|i| i.records).sum();
        let wall: f64 = self.iters.iter().map(|i| i.wall_s).sum();
        if wall > 0.0 {
            records / wall
        } else {
            0.0
        }
    }
}

/// Runs `setup` inside harness spans, [`SETUPS`] times or more (see
/// [`SETUP_BUDGET_S`]), and returns the last result with every set-up's wall
/// time. The previous result is dropped before the next set-up starts, so no
/// set-up runs beside another's memory.
pub fn repeated_setup<T>(tr: &Tracer, mut setup: impl FnMut(Option<SpanId>) -> T) -> (T, Vec<f64>) {
    let mut kept: Option<T> = None;
    let mut times: Vec<f64> = Vec::new();
    while times.len() < SETUPS || times.iter().sum::<f64>() < SETUP_BUDGET_S {
        tr.scope(crate::trace::HARNESS, "teardown", None, |_| {
            drop(kept.take())
        });
        let t0 = Instant::now();
        kept = Some(tr.scope(crate::trace::HARNESS, "setup", None, &mut setup));
        times.push(t0.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), times)
}

/// Runs whole iterations until at least `seconds` have been measured and at
/// least `min_iterations` have run. An iteration yields one or more samples.
pub fn timed_loop(
    seconds: f64,
    min_iterations: usize,
    mut iteration: impl FnMut() -> Vec<Iter>,
) -> Vec<Iter> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    for done in 1.. {
        out.extend(iteration());
        if done >= min_iterations && t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    out
}

/// FNV-1a over a value's serialized JSON: equal digests mean byte-identical
/// outputs.
#[must_use]
pub fn digest<T: Serialize>(value: &T) -> u64 {
    let text = serde_json::to_string(value).expect("analysis serializes");
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A seed-derived index in `0..n`, for the sampled cross-check unit.
#[must_use]
pub fn sample_index(seed: u64, n: usize) -> usize {
    (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % n.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ares_icares::FleetScenario;
    use ares_sociometrics::engine::MissionEngine;
    use ares_sociometrics::fleet::FleetConfig;

    /// Records and analyzes habitat 0's first day from scratch.
    fn habitat_digest(seed: u64) -> u64 {
        let scenario = FleetScenario::icares();
        let config = FleetConfig {
            seed,
            first_day: 2,
            last_day: 2,
            ..FleetConfig::default()
        };
        let runner = scenario.open_runner(&config, 0);
        let days = vec![(2, runner.record_day_stores(2))];
        digest(
            &MissionEngine::with_workers(scenario.context().clone(), 1).analyze_days_stores(&days),
        )
    }

    #[test]
    fn digest_is_stable_across_runs_of_one_seed() {
        assert_eq!(habitat_digest(11), habitat_digest(11));
        assert_ne!(habitat_digest(11), habitat_digest(12));
    }

    #[test]
    fn digest_tells_values_apart() {
        assert_eq!(digest(&vec![1u32, 2]), digest(&vec![1u32, 2]));
        assert_ne!(digest(&vec![1u32, 2]), digest(&vec![2u32, 1]));
    }

    #[test]
    fn timed_loop_runs_whole_iterations_until_the_budget_is_spent() {
        let mut calls = 0;
        let out = timed_loop(0.0, 1, || {
            calls += 1;
            vec![
                Iter {
                    records: 1.0,
                    wall_s: 1.0
                };
                2
            ]
        });
        assert_eq!((calls, out.len()), (1, 2));
        calls = 0;
        timed_loop(0.0, 3, || {
            calls += 1;
            Vec::new()
        });
        assert_eq!(calls, 3);
        let t0 = Instant::now();
        let out = timed_loop(0.05, 1, || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            vec![Iter {
                records: 1.0,
                wall_s: 0.01,
            }]
        });
        let elapsed = t0.elapsed().as_secs_f64();
        assert!(
            out.len() >= 5 && elapsed < 0.2,
            "{} iterations in {elapsed} s",
            out.len()
        );
    }

    #[test]
    fn records_per_s_pools_the_samples() {
        let mut phase = Phase {
            iters: vec![
                Iter {
                    records: 10.0,
                    wall_s: 1.0,
                },
                Iter {
                    records: 10.0,
                    wall_s: 4.0,
                },
                Iter {
                    records: 30.0,
                    wall_s: 1.0,
                },
            ],
            ..Phase::default()
        };
        assert_eq!(phase.records_per_s(), 50.0 / 6.0);
        phase.days = 4;
        assert_eq!(phase.per_day(2.0), 0.5);
    }

    #[test]
    fn sample_index_stays_in_range() {
        for seed in 0..1000 {
            assert!(sample_index(seed, 13) < 13);
        }
        assert_eq!(sample_index(7, 0), 0);
    }
}
