//! The full analyst report: everything the dashboard shows, as Markdown.
//!
//! Reports are plain `String`s so they can go to files, terminals, or
//! review tools; the structure mirrors the workflow the paper describes —
//! model, association, posture, attack surface, recommendations, and
//! (when simulation results are supplied) consequences.

use std::fmt::Write as _;

use cpssec_attackdb::Corpus;
use cpssec_model::{Criticality, SystemModel};

use crate::consequence::ConsequenceRecord;
use crate::recommend::recommendations_for;
use crate::surface::attack_surface;
use crate::{AssociationMap, AttributeRow, SystemPosture};

/// Everything a report needs; build the pieces with the crate's other
/// modules and hand them in (the report never recomputes).
#[derive(Debug)]
pub struct ReportInput<'a> {
    /// The analyzed model.
    pub model: &'a SystemModel,
    /// The corpus the association was computed against.
    pub corpus: &'a Corpus,
    /// The association of attack vectors to components.
    pub association: &'a AssociationMap,
    /// Table 1-style per-attribute rows.
    pub attribute_rows: &'a [AttributeRow],
    /// The computed posture.
    pub posture: &'a SystemPosture,
    /// Simulated consequence records, if any were run.
    pub consequences: &'a [ConsequenceRecord],
}

/// Renders the Markdown report.
///
/// # Examples
///
/// ```
/// # use cpssec_analysis::{report::*, *};
/// # use cpssec_attackdb::seed::seed_corpus;
/// # use cpssec_model::Fidelity;
/// # use cpssec_search::{FilterPipeline, SearchEngine};
/// let corpus = seed_corpus();
/// let engine = SearchEngine::build(&corpus);
/// let model = cpssec_scada::model::scada_model();
/// let filters = FilterPipeline::new();
/// let association =
///     AssociationMap::build(&model, &engine, &corpus, Fidelity::Implementation, &filters);
/// let rows = cpssec_analysis::attribute_rows(
///     &model, &engine, &corpus, Fidelity::Implementation, &filters,
/// );
/// let posture = SystemPosture::compute(&model, &corpus, &association);
/// let markdown = render_report(&ReportInput {
///     model: &model,
///     corpus: &corpus,
///     association: &association,
///     attribute_rows: &rows,
///     posture: &posture,
///     consequences: &[],
/// });
/// assert!(markdown.contains("# Security analysis report"));
/// ```
#[must_use]
pub fn render_report(input: &ReportInput<'_>) -> String {
    let _span = cpssec_obs::span!("render");
    let mut out = String::new();
    let _ = writeln!(out, "# Security analysis report — {}\n", input.model.name());

    // Model summary.
    let stats = input.model.stats();
    let _ = writeln!(out, "## System model\n");
    let _ = writeln!(
        out,
        "- components: {} ({} safety-critical, {} entry points)",
        stats.components, stats.safety_critical, stats.entry_points
    );
    let _ = writeln!(out, "- channels: {}", stats.channels);
    let _ = writeln!(
        out,
        "- attributes: {} (association computed at {} fidelity)\n",
        stats.attributes,
        input.association.fidelity()
    );

    // Association overview.
    let _ = writeln!(out, "## Attack vector association\n");
    let _ = writeln!(
        out,
        "| Component | Patterns | Weaknesses | Vulnerabilities |\n|---|---:|---:|---:|"
    );
    for (component, matches) in input.association.iter() {
        let (p, w, v) = matches.counts();
        let _ = writeln!(out, "| {component} | {p} | {w} | {v} |");
    }
    let _ = writeln!(
        out,
        "\ntotal associated vectors: {}\n",
        input.association.total_vectors()
    );

    // Attribute table.
    if !input.attribute_rows.is_empty() {
        let _ = writeln!(out, "## Per-attribute view\n");
        let _ = writeln!(
            out,
            "| Attribute | Component | Patterns | Weaknesses | Vulnerabilities |\n|---|---|---:|---:|---:|"
        );
        for row in input.attribute_rows {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} |",
                row.attribute, row.component, row.patterns, row.weaknesses, row.vulnerabilities
            );
        }
        out.push('\n');
    }

    // Posture.
    let _ = writeln!(out, "## Posture (lower is better)\n");
    let _ = writeln!(
        out,
        "| Component | Criticality | Vectors | Score |\n|---|---|---:|---:|"
    );
    let mut ranked = input.posture.components.clone();
    ranked.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("finite scores"));
    for component in &ranked {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {:.1} |",
            component.component,
            component.criticality,
            component.total_vectors(),
            component.score
        );
    }
    let _ = writeln!(out, "\nsystem score: {:.1}\n", input.posture.total_score);

    // Attack surface.
    let surface = attack_surface(input.model, Criticality::SafetyCritical, 6);
    let _ = writeln!(out, "## Attack surface\n");
    let _ = writeln!(out, "- entry points: {}", surface.entry_points.join(", "));
    let _ = writeln!(
        out,
        "- reachable safety-critical components: {}",
        surface.reachable_critical.join(", ")
    );
    if !surface.unreachable_critical.is_empty() {
        let _ = writeln!(
            out,
            "- NOT reachable (verify intent): {}",
            surface.unreachable_critical.join(", ")
        );
    }
    let _ = writeln!(out, "- exposure score: {:.2}", surface.exposure);
    let _ = writeln!(out, "- attack paths (≤6 hops): {}", surface.paths.len());
    for path in surface.paths.iter().take(5) {
        let _ = writeln!(out, "  - {}", path.components.join(" → "));
    }
    out.push('\n');

    // Recommendations for the worst-scoring components.
    let _ = writeln!(out, "## Recommended mitigations\n");
    let mut any = false;
    for component in ranked.iter().take(3) {
        let recs = recommendations_for(input.association, input.corpus, &component.component, 3);
        if recs.is_empty() {
            continue;
        }
        any = true;
        let _ = writeln!(out, "### {}\n", component.component);
        for rec in recs {
            let _ = writeln!(out, "- [{}] {}", rec.weakness, rec.mitigation);
        }
        out.push('\n');
    }
    if !any {
        let _ = writeln!(out, "no matched weakness carries recorded mitigations\n");
    }

    // Consequences.
    if !input.consequences.is_empty() {
        let _ = writeln!(out, "## Simulated consequences\n");
        let _ = writeln!(
            out,
            "| Scenario | Target | Product | SIS trip | Hazards | Losses |\n|---|---|---|---|---|---|"
        );
        for record in input.consequences {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {} | {} |",
                record.scenario,
                record.target_component,
                record.product,
                if record.emergency_stopped {
                    "yes"
                } else {
                    "no"
                },
                record.hazard_ids.join(", "),
                record.loss_ids.join(", "),
            );
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpssec_attackdb::seed::seed_corpus;
    use cpssec_model::Fidelity;
    use cpssec_search::{FilterPipeline, SearchEngine};

    fn markdown(consequences: &[ConsequenceRecord]) -> String {
        let corpus = seed_corpus();
        let engine = SearchEngine::build(&corpus);
        let model = cpssec_scada::model::scada_model();
        let filters = FilterPipeline::new();
        let association =
            AssociationMap::build(&model, &engine, &corpus, Fidelity::Implementation, &filters);
        let rows =
            crate::attribute_rows(&model, &engine, &corpus, Fidelity::Implementation, &filters);
        let posture = SystemPosture::compute(&model, &corpus, &association);
        render_report(&ReportInput {
            model: &model,
            corpus: &corpus,
            association: &association,
            attribute_rows: &rows,
            posture: &posture,
            consequences,
        })
    }

    #[test]
    fn report_contains_every_section() {
        let md = markdown(&[]);
        for heading in [
            "# Security analysis report",
            "## System model",
            "## Attack vector association",
            "## Per-attribute view",
            "## Posture",
            "## Attack surface",
            "## Recommended mitigations",
        ] {
            assert!(md.contains(heading), "missing `{heading}`");
        }
        // No consequence section without records.
        assert!(!md.contains("## Simulated consequences"));
    }

    #[test]
    fn report_lists_table1_attributes_and_paths() {
        let md = markdown(&[]);
        assert!(md.contains("Cisco ASA"));
        assert!(md.contains("Corporate network →"));
        assert!(md.contains("CWE-"));
    }

    #[test]
    fn consequence_section_appears_with_records() {
        let corpus = seed_corpus();
        let engine = SearchEngine::build(&corpus);
        let model = cpssec_scada::model::scada_model();
        let association = AssociationMap::build(
            &model,
            &engine,
            &corpus,
            Fidelity::Implementation,
            &FilterPipeline::new(),
        );
        let record = crate::consequence::analyze_scenario(
            &cpssec_scada::attacks::setpoint_tamper(cpssec_sim::Tick::new(100)),
            &association,
            4_010,
        );
        let md = markdown(std::slice::from_ref(&record));
        assert!(md.contains("## Simulated consequences"));
        assert!(md.contains("setpoint-tamper"));
        assert!(md.contains("L-1"));
    }

    #[test]
    fn posture_table_is_sorted_worst_first() {
        let md = markdown(&[]);
        let posture_section = md.split("## Posture").nth(1).unwrap();
        let ws_pos = posture_section.find("Programming WS").unwrap();
        let sensor_pos = posture_section.find("Temperature sensor").unwrap();
        assert!(ws_pos < sensor_pos, "workstation scores worse, lists first");
    }
}
