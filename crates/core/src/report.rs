//! Mission reporting: the paper's Table I, the headline statistics, and the
//! mission engine's per-stage workload section.

use crate::engine::EngineMetrics;
use crate::pipeline::MissionAnalysis;
use crate::social::normalize_scores;
use ares_crew::roster::AstronautId;
use serde::{Deserialize, Serialize};

/// The paper's Table I: "Average and normalized parameters measured for the
/// crew during the mission." Company and authority are n/a for astronauts
/// with insufficient data (C, who left on day 4, in the canonical run);
/// talking and walking are rates per recorded time, so C is included and —
/// as in the paper — tops both columns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableOne {
    /// Normalized accompanied time; `None` = n/a.
    pub company: [Option<f64>; 6],
    /// Normalized Kleinberg authority; `None` = n/a.
    pub authority: [Option<f64>; 6],
    /// Normalized fraction of recorded time with self speech.
    pub talking: [Option<f64>; 6],
    /// Normalized fraction of recorded time spent walking.
    pub walking: [Option<f64>; 6],
}

/// Minimum recorded (worn) hours for company/authority to be reported.
pub const MIN_HOURS_FOR_CENTRALITY: f64 = 60.0;

/// Builds Table I from the mission aggregates.
#[must_use]
pub fn table_one(mission: &MissionAnalysis) -> TableOne {
    // Exclude astronauts with too little mission coverage from the
    // centrality columns (C left on day 4 → "n/a" in the paper).
    let mut excluded: Vec<AstronautId> = Vec::new();
    for a in AstronautId::ALL {
        let (worn_h, _, _) = mission.totals(a);
        if worn_h < MIN_HOURS_FOR_CENTRALITY {
            excluded.push(a);
        }
    }
    // "Centrality measured as amount of time spent accompanied": attended
    // meeting hours, not pairwise sums.
    let company_raw = mission.accompanied_h;
    let auth_raw = mission.company.hits_authority(60);

    // Talking / walking are rates per recorded time, so the short-lived C is
    // comparable with the rest (and normalizes to 1.00 in the paper).
    let mut talking_raw = [0.0f64; 6];
    let mut walking_raw = [0.0f64; 6];
    for a in AstronautId::ALL {
        let (worn_h, talk_h, walk_h) = mission.totals(a);
        if worn_h > 1.0 {
            talking_raw[a.index()] = talk_h / worn_h;
            walking_raw[a.index()] = walk_h / worn_h;
        }
    }

    TableOne {
        company: normalize_scores(&company_raw, &excluded),
        authority: normalize_scores(&auth_raw, &excluded),
        talking: normalize_scores(&talking_raw, &[]),
        walking: normalize_scores(&walking_raw, &[]),
    }
}

impl TableOne {
    /// Renders the table in the paper's layout.
    #[must_use]
    pub fn render(&self) -> String {
        let fmt = |v: Option<f64>| match v {
            Some(x) => format!("{x:.2}"),
            None => "n/a".to_string(),
        };
        let mut out = String::from("id  company  authority  talking  walking\n");
        for a in AstronautId::ALL {
            let i = a.index();
            out.push_str(&format!(
                "{}   {:>7}  {:>9}  {:>7}  {:>7}\n",
                a,
                fmt(self.company[i]),
                fmt(self.authority[i]),
                fmt(self.talking[i]),
                fmt(self.walking[i]),
            ));
        }
        out
    }

    /// The astronaut with the top score in a column (ignoring n/a).
    #[must_use]
    pub fn top_of(column: &[Option<f64>; 6]) -> Option<AstronautId> {
        AstronautId::ALL
            .into_iter()
            .filter_map(|a| column[a.index()].map(|v| (a, v)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"))
            .map(|(a, _)| a)
    }
}

/// Headline statistics reported in the paper's prose.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HeadlineStats {
    /// Total recorded volume (GiB) — paper: ≈150 GiB.
    pub recorded_gib: f64,
    /// Mean fraction of daytime badges were worn — paper: 63 %.
    pub mean_worn_fraction: f64,
    /// Mean fraction of daytime badges were active — paper: 84 %.
    pub mean_active_fraction: f64,
    /// Worn fraction over the first three instrumented days — paper: ≈80 %.
    pub early_worn_fraction: f64,
    /// Worn fraction over the last three days — paper: ≈50 %.
    pub late_worn_fraction: f64,
}

/// Computes the headline statistics.
#[must_use]
pub fn headline_stats(mission: &MissionAnalysis) -> HeadlineStats {
    let mut worn = Vec::new();
    let mut active = Vec::new();
    let mut early = Vec::new();
    let mut late = Vec::new();
    let n_days = mission.daily.len();
    for (di, day) in mission.daily.iter().enumerate() {
        for a in day.iter().flatten() {
            worn.push(a.worn_fraction);
            active.push(a.active_fraction);
            if di < 4 {
                early.push(a.worn_fraction);
            }
            if di + 3 >= n_days {
                late.push(a.worn_fraction);
            }
        }
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    HeadlineStats {
        recorded_gib: mission.bytes_recorded as f64 / (1u64 << 30) as f64,
        mean_worn_fraction: mean(&worn),
        mean_active_fraction: mean(&active),
        early_worn_fraction: mean(&early),
        late_worn_fraction: mean(&late),
    }
}

/// Renders the engine's per-stage metrics as a mission-report section: the
/// workload gauge behind "run the analyses as fast as the hardware allows".
#[must_use]
pub fn engine_section(metrics: &EngineMetrics) -> String {
    format!(
        "analysis engine workload\n{}total stage wall time: {:.3} s\n",
        metrics.render(),
        metrics.total_wall_s()
    )
}

/// One ingest shard's health row for the mission report: how much telemetry
/// landed, what backpressure shed (per sensor family), how deep the bounded
/// queue ran, how often the shard failed over, and what its checkpoints
/// cost. Built by the support crate's ingest server; defined here so the
/// report can render it without a dependency cycle.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct IngestShardRow {
    /// Shard index.
    pub shard: usize,
    /// Records applied to tenant state.
    pub ingested: u64,
    /// Records shed at the front door, per family label (zeros included).
    pub dropped: Vec<(String, u64)>,
    /// Current bounded-queue depth when the row was sampled (zero after a
    /// clean drain).
    pub queue_depth: usize,
    /// High-water mark of the bounded queue over the run.
    pub queue_peak: usize,
    /// Backup promotions the shard survived.
    pub failovers: u64,
    /// Checkpoints the vault accepted.
    pub checkpoints: u64,
    /// Wall time the shard spent taking checkpoints (s).
    pub checkpoint_s: f64,
}

impl IngestShardRow {
    /// Total records shed across all families.
    #[must_use]
    pub fn dropped_total(&self) -> u64 {
        self.dropped.iter().map(|&(_, n)| n).sum()
    }
}

/// Renders the ingest-plane health section: one row per shard plus a
/// breakdown of non-zero typed drop counters — backpressure shedding is
/// mission-report-visible, not buried in bus counters.
#[must_use]
pub fn ingest_section(rows: &[IngestShardRow]) -> String {
    let mut out = String::from(
        "ingest service health\n\
         shard  ingested  dropped  depth  peak  failovers  checkpoints  ckpt-s\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>5}  {:>8}  {:>7}  {:>5}  {:>4}  {:>9}  {:>11}  {:>6.3}\n",
            r.shard,
            r.ingested,
            r.dropped_total(),
            r.queue_depth,
            r.queue_peak,
            r.failovers,
            r.checkpoints,
            r.checkpoint_s,
        ));
    }
    let shed: Vec<String> = rows
        .iter()
        .flat_map(|r| {
            r.dropped
                .iter()
                .filter(|&&(_, n)| n > 0)
                .map(|(k, n)| format!("shard {} {k}: {n}", r.shard))
        })
        .collect();
    if shed.is_empty() {
        out.push_str("no records shed\n");
    } else {
        out.push_str(&format!("shed breakdown: {}\n", shed.join(", ")));
    }
    out
}

/// The engine workload section followed by the ingest health section — the
/// full "how the analysis plane ran" report when telemetry arrived through
/// the streaming front door.
#[must_use]
pub fn engine_section_with_ingest(metrics: &EngineMetrics, rows: &[IngestShardRow]) -> String {
    format!("{}\n{}", engine_section(metrics), ingest_section(rows))
}

/// One fleet shard's row for the mission report: workload plus the
/// availability drill verdict. The availability numbers come from the
/// support crate's CTMC drill; defined here so the report can render them
/// without a dependency cycle.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FleetShardRow {
    /// Shard index.
    pub shard: usize,
    /// Habitats the shard owned.
    pub habitats: u32,
    /// Badge-days the shard analyzed.
    pub badge_days: u64,
    /// Telemetry bytes the shard recorded.
    pub bytes: u64,
    /// Shard wall time, seconds.
    pub wall_s: f64,
    /// Observed availability of the shard's replicated service (fraction of
    /// detector ticks with a serving primary).
    pub availability_observed: f64,
    /// The CTMC steady-state availability prediction.
    pub availability_model: f64,
    /// Failovers the drill exercised.
    pub failovers: u64,
}

/// Renders the fleet scorecard: one row per shard (workload + availability
/// drill), fleet totals and the merged per-stage engine table.
#[must_use]
pub fn fleet_section(scorecard: &crate::fleet::FleetScorecard, rows: &[FleetShardRow]) -> String {
    let mut out = String::from(
        "fleet mission service\n\
         shard  habitats  badge-days       bytes    wall-s  avail-obs  avail-ctmc  failovers\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>5}  {:>8}  {:>10}  {:>10}  {:>8.2}  {:>9.5}  {:>10.5}  {:>9}\n",
            r.shard,
            r.habitats,
            r.badge_days,
            r.bytes,
            r.wall_s,
            r.availability_observed,
            r.availability_model,
            r.failovers,
        ));
    }
    let c = &scorecard.config;
    out.push_str(&format!(
        "fleet: {} habitats × {} crew variants, days {}–{}, {} shards × {} workers\n",
        c.habitats, c.crews, c.first_day, c.last_day, c.shards, c.workers,
    ));
    out.push_str(&format!(
        "totals: {} badge-days, {:.1} MiB recorded, {:.2} s wall → {:.1} badge-days/s\n\n",
        scorecard.badge_days,
        scorecard.bytes_recorded as f64 / (1u64 << 20) as f64,
        scorecard.wall_s,
        scorecard.badge_days_per_s,
    ));
    out.push_str(&engine_section(&scorecard.metrics));
    out
}

/// One generated scenario's row for the scenario-generation report: the
/// plan's RF field-cache certification (per-plan `resolved_fraction` and
/// pure-cell fraction) plus the soak verdicts for that seed.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ScenarioPlanRow {
    /// Generator seed the scenario came from.
    pub seed: u64,
    /// Total width of the module row, metres.
    pub total_width_m: f64,
    /// Hall depth, metres.
    pub hall_depth_m: f64,
    /// Fraction of field-cache cells that are pure (single wall count).
    pub pure_fraction: f64,
    /// Fraction of `(source, cell)` entries answerable without the oracle.
    pub resolved_fraction: f64,
    /// Validator violations (0 for every generated scenario).
    pub violations: usize,
    /// Whether recording and analysis replayed bit-identically (sequential
    /// vs. parallel vs. exact geometry, batch vs. streamed-and-restored).
    pub deterministic: bool,
}

/// Renders the scenario-generation scorecard: one row per generated plan
/// with its field-cache certification, then the fleet-wide minima.
#[must_use]
pub fn scenario_section(rows: &[ScenarioPlanRow]) -> String {
    let mut out = String::from(
        "scenario generation\n\
         seed   width-m  hall-m  cache-pure  cache-resolved  violations  deterministic\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:>4}  {:>8.2}  {:>6.2}  {:>10.5}  {:>14.5}  {:>10}  {:>13}\n",
            r.seed,
            r.total_width_m,
            r.hall_depth_m,
            r.pure_fraction,
            r.resolved_fraction,
            r.violations,
            r.deterministic,
        ));
    }
    if !rows.is_empty() {
        let purity_min = rows.iter().map(|r| r.resolved_fraction).fold(1.0, f64::min);
        let pure_min = rows.iter().map(|r| r.pure_fraction).fold(1.0, f64::min);
        let all_deterministic = rows.iter().all(|r| r.deterministic);
        out.push_str(&format!(
            "{} scenarios: min cache-resolved {:.5}, min cache-pure {:.5}, deterministic: {}\n",
            rows.len(),
            purity_min,
            pure_min,
            all_deterministic,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::AstronautDaily;
    use ares_habitat::floorplan::FloorPlan;

    fn daily(worn: f64, talk: f64, walk: f64) -> AstronautDaily {
        AstronautDaily {
            walking_fraction: walk / worn.max(1e-9),
            heard_fraction: 0.4,
            worn_fraction: worn / 14.0,
            active_fraction: 0.9,
            self_talk_h: talk,
            worn_h: worn,
            walking_h: walk,
            mean_accel_var: 0.05,
        }
    }

    fn mission_with_dailies() -> MissionAnalysis {
        let plan = FloorPlan::lunares();
        let mut m = MissionAnalysis::new(&plan);
        // 13 days for everyone but C (3 days), with C's *rates* the highest.
        for day in 0..13 {
            let mut row = [None; 6];
            row[AstronautId::A.index()] = Some(daily(9.0, 0.9, 0.35));
            row[AstronautId::B.index()] = Some(daily(9.0, 0.85, 0.40));
            if day < 3 {
                row[AstronautId::C.index()] = Some(daily(9.0, 1.6, 0.95));
            }
            row[AstronautId::D.index()] = Some(daily(9.0, 0.9, 0.65));
            row[AstronautId::E.index()] = Some(daily(9.0, 0.8, 0.45));
            row[AstronautId::F.index()] = Some(daily(9.0, 1.1, 0.70));
            m.daily.push(row);
        }
        m
    }

    #[test]
    fn c_is_excluded_from_centrality_but_tops_rates() {
        let m = mission_with_dailies();
        let t = table_one(&m);
        assert_eq!(t.company[AstronautId::C.index()], None, "C company n/a");
        assert_eq!(t.authority[AstronautId::C.index()], None);
        assert_eq!(t.talking[AstronautId::C.index()], Some(1.0));
        assert_eq!(t.walking[AstronautId::C.index()], Some(1.0));
        assert_eq!(TableOne::top_of(&t.talking), Some(AstronautId::C));
    }

    #[test]
    fn render_has_six_rows() {
        let m = mission_with_dailies();
        let t = table_one(&m);
        let s = t.render();
        assert_eq!(s.lines().count(), 7);
        assert!(s.contains("n/a"));
    }

    #[test]
    fn headline_stats_mean_fractions() {
        let m = mission_with_dailies();
        let h = headline_stats(&m);
        assert!((h.mean_worn_fraction - 9.0 / 14.0).abs() < 0.01);
        assert!((h.mean_active_fraction - 0.9).abs() < 0.01);
        assert_eq!(h.recorded_gib, 0.0);
    }

    #[test]
    fn ingest_section_lists_shards_and_typed_drops() {
        let rows = vec![
            IngestShardRow {
                shard: 0,
                ingested: 1000,
                dropped: vec![("scan".into(), 0), ("audio".into(), 7)],
                queue_depth: 3,
                queue_peak: 64,
                failovers: 1,
                checkpoints: 4,
                checkpoint_s: 0.002,
            },
            IngestShardRow {
                shard: 1,
                ingested: 900,
                dropped: vec![("scan".into(), 0)],
                queue_depth: 0,
                queue_peak: 12,
                failovers: 0,
                checkpoints: 5,
                checkpoint_s: 0.003,
            },
        ];
        assert_eq!(rows[0].dropped_total(), 7);
        let s = ingest_section(&rows);
        assert!(s.contains("ingest service health"));
        assert_eq!(s.lines().count(), 5, "header + 2 shards + shed line:\n{s}");
        assert!(s.contains("shard 0 audio: 7"), "typed drops surfaced:\n{s}");
        assert!(
            !s.contains("shard 0 scan"),
            "zero counters stay quiet:\n{s}"
        );
    }

    #[test]
    fn ingest_section_quiet_when_nothing_shed() {
        let rows = vec![IngestShardRow {
            shard: 0,
            ingested: 10,
            ..IngestShardRow::default()
        }];
        let s = ingest_section(&rows);
        assert!(s.contains("no records shed"));
        let combined = engine_section_with_ingest(&EngineMetrics::new(), &rows);
        assert!(combined.contains("analysis engine workload"));
        assert!(combined.contains("ingest service health"));
    }

    #[test]
    fn scenario_section_renders_rows_and_minima() {
        let rows = [
            ScenarioPlanRow {
                seed: 3,
                total_width_m: 32.1,
                hall_depth_m: 6.5,
                pure_fraction: 0.91,
                resolved_fraction: 0.97,
                violations: 0,
                deterministic: true,
            },
            ScenarioPlanRow {
                seed: 4,
                total_width_m: 31.4,
                hall_depth_m: 7.2,
                pure_fraction: 0.89,
                resolved_fraction: 0.95,
                violations: 0,
                deterministic: true,
            },
        ];
        let s = scenario_section(&rows);
        assert!(s.contains("scenario generation"), "{s}");
        assert!(s.contains("cache-resolved"), "{s}");
        assert!(s.contains("min cache-resolved 0.95000"), "{s}");
        assert!(s.contains("deterministic: true"), "{s}");
    }

    #[test]
    fn fleet_section_renders_shards_totals_and_engine_table() {
        let scorecard = crate::fleet::FleetScorecard {
            config: crate::fleet::FleetConfig {
                habitats: 4,
                crews: 2,
                shards: 2,
                workers: 1,
                first_day: 2,
                last_day: 2,
                ..crate::fleet::FleetConfig::default()
            },
            badge_days: 48,
            bytes_recorded: 4 << 20,
            wall_s: 2.0,
            badge_days_per_s: 24.0,
            metrics: EngineMetrics::new(),
        };
        let rows = vec![
            FleetShardRow {
                shard: 0,
                habitats: 2,
                badge_days: 24,
                bytes: 2 << 20,
                wall_s: 1.0,
                availability_observed: 0.995,
                availability_model: 0.999,
                failovers: 3,
            },
            FleetShardRow {
                shard: 1,
                habitats: 2,
                badge_days: 24,
                ..FleetShardRow::default()
            },
        ];
        let s = fleet_section(&scorecard, &rows);
        assert!(s.contains("fleet mission service"), "{s}");
        assert!(s.contains("4 habitats × 2 crew variants"), "{s}");
        assert!(s.contains("48 badge-days"), "{s}");
        assert!(s.contains("24.0 badge-days/s"), "{s}");
        assert!(s.contains("0.99500"), "availability rendered:\n{s}");
        assert!(
            s.contains("analysis engine workload"),
            "engine table appended:\n{s}"
        );
    }
}
