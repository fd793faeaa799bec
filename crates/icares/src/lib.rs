//! `ares-icares` — the end-to-end ICAres-1 reproduction scenario.
//!
//! Assembles the whole vertical slice of the reproduction:
//!
//! * [`scenario`] — ground truth → day-by-day columnar badge telemetry →
//!   the analysis engine, via [`MissionRunner`].
//! * [`figures`] — generators for Fig. 2–6, Table I and the prose statistics,
//!   with ASCII renderings and CSV exports.
//! * [`calibration`] — the paper's reported values and the automated shape
//!   checks recorded in `EXPERIMENTS.md`.
//! * [`export`] — writes every regenerated artifact to disk (CSV/JSON/text).
//!
//! # Examples
//!
//! ```no_run
//! use ares_crew::schedule::MISSION_DAYS;
//! use ares_icares::{figures, MissionRunner, FIRST_INSTRUMENTED_DAY};
//!
//! let runner = MissionRunner::icares();
//! let mission = runner.run_days(FIRST_INSTRUMENTED_DAY, MISSION_DAYS, |_| {});
//! println!("{}", figures::figure2(&mission).render());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod calibration;
pub mod export;
pub mod figures;
pub mod scenario;

pub use scenario::{FleetScenario, MissionRunner, ScenarioConfig, FIRST_INSTRUMENTED_DAY};
