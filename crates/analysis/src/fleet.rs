//! Aggregate hazard statistics over fleet campaigns.
//!
//! A campaign ([`cpssec_scada::run_campaign`]) yields per-scenario
//! records; this module folds them into the paper-comparable outputs:
//! **P(hazard | attack family)**, per-family product-quality breakdowns,
//! and **time-to-hazard distributions** (ticks from injection to the
//! first hazard, bucketed by [`cpssec_obs::Histogram`]). A canonical
//! FNV-1a hash over the records ([`aggregate_hash`]) lets two runs —
//! different machines, different thread counts — prove they produced
//! identical statistics by comparing one number.

use cpssec_model::fnv1a_64;
use cpssec_obs::hist::Snapshot;
use cpssec_obs::Histogram;
use cpssec_scada::campaign::FAMILIES;
use cpssec_scada::{ProductQuality, ScenarioRecord};

use crate::render::Json;

/// Statistics for one attack family.
#[derive(Debug, Clone)]
pub struct ClassStats {
    /// The family's name.
    pub class: &'static str,
    /// Scenarios sampled into this family.
    pub scenarios: u64,
    /// Scenarios in which at least one hazard fired.
    pub hazards: u64,
    /// Scenarios ending in physical destruction.
    pub destroyed: u64,
    /// Scenarios ending with a ruined (but intact) batch.
    pub ruined: u64,
    /// Scenarios ending with a nominal product.
    pub nominal: u64,
    /// Scenarios in which the SIS emergency stop engaged.
    pub emergency_stops: u64,
    /// Distribution of ticks from injection to first hazard.
    pub time_to_hazard: Snapshot,
}

impl ClassStats {
    /// P(hazard | this family); zero when the family was never sampled.
    #[must_use]
    pub fn hazard_probability(&self) -> f64 {
        if self.scenarios == 0 {
            0.0
        } else {
            self.hazards as f64 / self.scenarios as f64
        }
    }
}

/// The full aggregate over one campaign's records.
#[derive(Debug, Clone)]
pub struct FleetAggregate {
    /// Total scenarios.
    pub scenarios: u64,
    /// Total scenarios with at least one hazard.
    pub hazards: u64,
    /// Per-family breakdown, in [`FAMILIES`] order, sampled families
    /// only.
    pub per_class: Vec<ClassStats>,
    /// Time-to-hazard distribution across all families.
    pub time_to_hazard: Snapshot,
    /// Canonical hash of the underlying records ([`aggregate_hash`]).
    pub records_hash: u64,
}

/// One record in canonical text form — the byte stream both the hash
/// and the CSV export are built from.
fn record_line(record: &ScenarioRecord) -> String {
    let hazard = match &record.hazard {
        Some((name, at)) => format!("{name}@{at}"),
        None => "-".to_owned(),
    };
    format!(
        "{},{},{},{},{},{},{},{},{}",
        record.index,
        record.seed,
        record.class,
        record.inject_tick,
        record.magnitude,
        record.product,
        hazard,
        u8::from(record.emergency_stopped),
        record.ticks,
    )
}

/// Canonical FNV-1a hash over the records. Identical records — any
/// thread count, any machine — produce the identical hash.
#[must_use]
pub fn aggregate_hash(records: &[ScenarioRecord]) -> u64 {
    let mut text = String::new();
    for record in records {
        text.push_str(&record_line(record));
        text.push('\n');
    }
    fnv1a_64(text.as_bytes())
}

/// Renders the records as CSV with a header row (index order).
#[must_use]
pub fn records_csv(records: &[ScenarioRecord]) -> String {
    let mut out = String::from(
        "index,seed,class,inject_tick,magnitude,product,hazard,emergency_stopped,ticks\n",
    );
    for record in records {
        out.push_str(&record_line(record));
        out.push('\n');
    }
    out
}

/// Folds campaign records into the aggregate.
#[must_use]
pub fn aggregate(records: &[ScenarioRecord]) -> FleetAggregate {
    let overall = Histogram::new();
    let mut per_class = Vec::new();
    for class in FAMILIES.iter().map(|family| family.name) {
        let of_class: Vec<&ScenarioRecord> = records.iter().filter(|r| r.class == class).collect();
        if of_class.is_empty() {
            continue;
        }
        let histogram = Histogram::new();
        let (mut hazards, mut destroyed, mut ruined, mut nominal, mut emergency_stops) =
            (0, 0, 0, 0, 0);
        for record in &of_class {
            if record.hazard.is_some() {
                hazards += 1;
                let ticks = record.ticks_to_hazard().unwrap_or(0);
                histogram.record(ticks);
                overall.record(ticks);
            }
            match record.product {
                ProductQuality::Destroyed => destroyed += 1,
                ProductQuality::Nominal => nominal += 1,
                _ => ruined += 1,
            }
            if record.emergency_stopped {
                emergency_stops += 1;
            }
        }
        per_class.push(ClassStats {
            class,
            scenarios: of_class.len() as u64,
            hazards,
            destroyed,
            ruined,
            nominal,
            emergency_stops,
            time_to_hazard: histogram.snapshot(),
        });
    }
    FleetAggregate {
        scenarios: records.len() as u64,
        hazards: records.iter().filter(|r| r.hazard.is_some()).count() as u64,
        per_class,
        time_to_hazard: overall.snapshot(),
        records_hash: aggregate_hash(records),
    }
}

/// Serializes the aggregate as a JSON artifact (the `POST
/// /scenarios/batch` response body and the `cpssec fleet --json`
/// output share this shape).
#[must_use]
pub fn aggregate_json(aggregate: &FleetAggregate) -> Json {
    let classes = aggregate
        .per_class
        .iter()
        .map(|stats| {
            Json::Object(vec![
                ("class".into(), stats.class.into()),
                ("scenarios".into(), (stats.scenarios as usize).into()),
                ("hazards".into(), (stats.hazards as usize).into()),
                ("pHazard".into(), stats.hazard_probability().into()),
                ("destroyed".into(), (stats.destroyed as usize).into()),
                ("ruined".into(), (stats.ruined as usize).into()),
                ("nominal".into(), (stats.nominal as usize).into()),
                (
                    "emergencyStops".into(),
                    (stats.emergency_stops as usize).into(),
                ),
                (
                    "ticksToHazardP50".into(),
                    (stats.time_to_hazard.quantile_us(0.5) as usize).into(),
                ),
                (
                    "ticksToHazardP90".into(),
                    (stats.time_to_hazard.quantile_us(0.9) as usize).into(),
                ),
            ])
        })
        .collect();
    Json::Object(vec![
        ("scenarios".into(), (aggregate.scenarios as usize).into()),
        ("hazards".into(), (aggregate.hazards as usize).into()),
        ("classes".into(), Json::Array(classes)),
        (
            "ticksToHazardP50".into(),
            (aggregate.time_to_hazard.quantile_us(0.5) as usize).into(),
        ),
        (
            "ticksToHazardP90".into(),
            (aggregate.time_to_hazard.quantile_us(0.9) as usize).into(),
        ),
        (
            "recordsHash".into(),
            format!("{:016x}", aggregate.records_hash).as_str().into(),
        ),
    ])
}

/// Renders the aggregate as an aligned text table for the CLI.
#[must_use]
pub fn aggregate_table(aggregate: &FleetAggregate) -> String {
    let rows: Vec<Vec<String>> = aggregate
        .per_class
        .iter()
        .map(|stats| {
            vec![
                stats.class.to_string(),
                stats.scenarios.to_string(),
                stats.hazards.to_string(),
                format!("{:.3}", stats.hazard_probability()),
                stats.destroyed.to_string(),
                stats.emergency_stops.to_string(),
                stats.time_to_hazard.quantile_us(0.5).to_string(),
            ]
        })
        .collect();
    crate::render::text_table(
        &[
            "class",
            "runs",
            "hazards",
            "P(hazard)",
            "destroyed",
            "e-stops",
            "p50 ticks-to-hazard",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpssec_scada::{run_campaign, CampaignSpec};

    fn records() -> Vec<ScenarioRecord> {
        let mut spec = CampaignSpec::new(32, 0xFEED);
        spec.threads = 2;
        run_campaign(&spec)
    }

    #[test]
    fn aggregate_counts_are_consistent() {
        let records = records();
        let agg = aggregate(&records);
        assert_eq!(agg.scenarios, 32);
        let by_class: u64 = agg.per_class.iter().map(|c| c.scenarios).sum();
        assert_eq!(by_class, 32);
        let hazards: u64 = agg.per_class.iter().map(|c| c.hazards).sum();
        assert_eq!(hazards, agg.hazards);
        assert_eq!(agg.time_to_hazard.count, agg.hazards);
        for stats in &agg.per_class {
            assert_eq!(
                stats.scenarios,
                stats.destroyed + stats.ruined + stats.nominal
            );
            let p = stats.hazard_probability();
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn nominal_class_has_no_hazards() {
        let agg = aggregate(&records());
        let nominal = agg
            .per_class
            .iter()
            .find(|c| c.class == "nominal")
            .expect("32 draws hit nominal");
        assert_eq!(nominal.hazards, 0);
        assert_eq!(nominal.hazard_probability(), 0.0);
    }

    #[test]
    fn hash_is_stable_and_order_sensitive() {
        let records = records();
        assert_eq!(aggregate_hash(&records), aggregate_hash(&records));
        let mut reversed = records.clone();
        reversed.reverse();
        assert_ne!(
            aggregate_hash(&records),
            aggregate_hash(&reversed),
            "canonical form is index-ordered"
        );
    }

    #[test]
    fn json_artifact_parses_and_carries_the_hash() {
        let records = records();
        let agg = aggregate(&records);
        let text = aggregate_json(&agg).to_text();
        cpssec_attackdb::json::parse(&text).expect("artifact parses");
        assert!(text.contains(&format!("\"recordsHash\":\"{:016x}\"", agg.records_hash)));
        assert!(text.contains("\"pHazard\""));
    }

    #[test]
    fn csv_has_header_and_one_line_per_record() {
        let records = records();
        let csv = records_csv(&records);
        assert_eq!(csv.lines().count(), records.len() + 1);
        assert!(csv.starts_with("index,seed,class,"));
        assert!(csv.lines().nth(1).unwrap().starts_with("0,"));
    }

    #[test]
    fn table_renders_every_sampled_class() {
        let agg = aggregate(&records());
        let table = aggregate_table(&agg);
        for stats in &agg.per_class {
            assert!(table.contains(stats.class), "{table}");
        }
        assert!(table.contains("P(hazard)"));
    }
}
