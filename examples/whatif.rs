//! What-if architecture comparison (the dashboard workflow of §3):
//! evaluate alternative designs by their association footprint.
//!
//! Run with `cargo run --example whatif`.

use cpssec::analysis::whatif::ModelChange;
use cpssec::attackdb::seed::seed_corpus;
use cpssec::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut dashboard = Dashboard::new(seed_corpus(), cpssec::scada::model::scada_model());

    let alternatives: Vec<(&str, Vec<ModelChange>)> = vec![
        (
            "harden workstation (drop Windows 7 + LabVIEW)",
            vec![
                ModelChange::ReplaceAttribute {
                    component: "Programming WS".into(),
                    key: "os".into(),
                    with: Attribute::new(AttributeKind::OperatingSystem, "hardened thin client")
                        .at_fidelity(Fidelity::Implementation),
                },
                ModelChange::RemoveAttribute {
                    component: "Programming WS".into(),
                    key: "software".into(),
                    value: "Labview".into(),
                },
            ],
        ),
        (
            "swap SIS platform to a dedicated safety PLC",
            vec![ModelChange::ReplaceAttribute {
                component: "SIS platform".into(),
                key: "hardware".into(),
                with: Attribute::new(AttributeKind::Hardware, "dedicated safety PLC")
                    .at_fidelity(Fidelity::Implementation),
            }],
        ),
        (
            "add a historian running Windows 7 software to the BPCS",
            vec![ModelChange::AddAttribute {
                component: "BPCS platform".into(),
                attribute: Attribute::new(AttributeKind::Software, "Windows 7 historian client")
                    .at_fidelity(Fidelity::Implementation),
            }],
        ),
    ];

    println!("baseline posture and what-if deltas (lower score = better posture):\n");
    for (label, changes) in alternatives {
        let report = dashboard.what_if(&changes)?;
        println!(
            "{label}\n  score {:.2} -> {:.2}  (Δ {:+.2}, {})",
            report.before.total_score,
            report.after.total_score,
            report.score_delta,
            if report.is_improvement() {
                "better posture"
            } else {
                "worse posture"
            }
        );
        for change in &report.diff.changed_components {
            println!("  changed: {}", change.name);
        }
        println!();
    }
    Ok(())
}
