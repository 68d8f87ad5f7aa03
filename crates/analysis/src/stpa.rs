//! STPA-Sec-flavoured loss/hazard/unsafe-control-action structure.
//!
//! The paper closes on the observation that "no *science* of security
//! exists yet to map attack vectors to physical consequences". This module
//! supplies the scaffolding such a mapping needs: losses, hazards linked
//! to losses, and unsafe control actions linked to hazards *and* to the
//! weaknesses (CWE) whose exploitation can cause them. The centrifuge
//! instance ([`centrifuge_analysis`]) also names, for each hazard, the
//! signals of a simulated run that detect it: hazard monitors and
//! product-quality classes. One lookup over a run's signals
//! ([`ControlStructureAnalysis::hazards_detected_by`]) is what lets
//! [`crate::consequence`] tie a simulated excursion back to losses.

use core::fmt;

/// A stakeholder loss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Loss {
    /// Identifier, e.g. `L-1`.
    pub id: String,
    /// What is lost.
    pub description: String,
}

/// A system-level hazard: a state that can lead to losses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hazard {
    /// Identifier, e.g. `H-1`.
    pub id: String,
    /// The hazardous state.
    pub description: String,
    /// Losses this hazard can lead to (by id).
    pub losses: Vec<String>,
    /// The signals of a simulated run that detect this state: hazard
    /// monitor names and product-quality names. Empty when the simulated
    /// plant does not model it.
    pub detected_by: Vec<String>,
}

/// How a control action is unsafe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum UcaKind {
    /// Providing the action causes the hazard.
    Provided,
    /// Not providing the action causes the hazard.
    NotProvided,
    /// Providing it too early/late causes the hazard.
    WrongTiming,
    /// Applying it too long or stopping too soon causes the hazard.
    WrongDuration,
}

impl fmt::Display for UcaKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            UcaKind::Provided => "provided",
            UcaKind::NotProvided => "not provided",
            UcaKind::WrongTiming => "wrong timing",
            UcaKind::WrongDuration => "wrong duration",
        };
        f.write_str(name)
    }
}

/// An unsafe control action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsafeControlAction {
    /// Identifier, e.g. `UCA-1`.
    pub id: String,
    /// The controller issuing (or omitting) the action.
    pub controller: String,
    /// The control action.
    pub action: String,
    /// How it is unsafe.
    pub kind: UcaKind,
    /// Hazards it can cause (by id).
    pub hazards: Vec<String>,
    /// Weakness identifiers (e.g. `CWE-78`) whose exploitation can force
    /// this unsafe control action — the attack-vector side of the mapping.
    pub weaknesses: Vec<String>,
}

/// The complete loss/hazard/UCA structure of one system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlStructureAnalysis {
    /// Losses, in id order.
    pub losses: Vec<Loss>,
    /// Hazards, in id order.
    pub hazards: Vec<Hazard>,
    /// Unsafe control actions, in id order.
    pub ucas: Vec<UnsafeControlAction>,
}

impl ControlStructureAnalysis {
    /// Looks up a hazard by id.
    #[must_use]
    pub fn hazard(&self, id: &str) -> Option<&Hazard> {
        self.hazards.iter().find(|h| h.id == id)
    }

    /// Looks up a loss by id.
    #[must_use]
    pub fn loss(&self, id: &str) -> Option<&Loss> {
        self.losses.iter().find(|l| l.id == id)
    }

    /// Hazards detected by any of `signals` (fired monitor names and the
    /// product-quality name of a run), in id order.
    #[must_use]
    pub fn hazards_detected_by(&self, signals: &[&str]) -> Vec<&Hazard> {
        self.hazards
            .iter()
            .filter(|h| h.detected_by.iter().any(|d| signals.contains(&d.as_str())))
            .collect()
    }

    /// The losses a set of hazard ids can lead to, deduplicated, in id
    /// order.
    #[must_use]
    pub fn losses_for_hazards(&self, hazard_ids: &[String]) -> Vec<&Loss> {
        let mut loss_ids: Vec<&str> = self
            .hazards
            .iter()
            .filter(|h| hazard_ids.contains(&h.id))
            .flat_map(|h| h.losses.iter().map(String::as_str))
            .collect();
        loss_ids.sort_unstable();
        loss_ids.dedup();
        loss_ids
            .into_iter()
            .filter_map(|id| self.loss(id))
            .collect()
    }

    /// Unsafe control actions that a given weakness can force.
    #[must_use]
    pub fn ucas_for_weakness(&self, weakness: &str) -> Vec<&UnsafeControlAction> {
        self.ucas
            .iter()
            .filter(|u| u.weaknesses.iter().any(|w| w == weakness))
            .collect()
    }

    /// Checks referential integrity: every hazard id referenced by a UCA
    /// exists, and every loss id referenced by a hazard exists. Returns the
    /// dangling ids.
    #[must_use]
    pub fn dangling_links(&self) -> Vec<String> {
        let mut dangling = Vec::new();
        for hazard in &self.hazards {
            for loss in &hazard.losses {
                if self.loss(loss).is_none() {
                    dangling.push(loss.clone());
                }
            }
        }
        for uca in &self.ucas {
            for hazard in &uca.hazards {
                if self.hazard(hazard).is_none() {
                    dangling.push(hazard.clone());
                }
            }
        }
        dangling
    }
}

/// The STPA-Sec structure of the particle separation centrifuge.
#[must_use]
pub fn centrifuge_analysis() -> ControlStructureAnalysis {
    let losses = vec![
        Loss {
            id: "L-1".into(),
            description: "loss of the manufactured product (batch not useful)".into(),
        },
        Loss {
            id: "L-2".into(),
            description: "damage to or destruction of the centrifuge".into(),
        },
        Loss {
            id: "L-3".into(),
            description: "injury to personnel from explosion or fire".into(),
        },
    ];
    let hazards = vec![
        Hazard {
            id: "H-1".into(),
            description: "solution temperature exceeds the stability threshold".into(),
            losses: vec!["L-1".into(), "L-2".into(), "L-3".into()],
            detected_by: vec!["explosion".into()],
        },
        Hazard {
            id: "H-2".into(),
            description: "solution temperature above the separation window".into(),
            losses: vec!["L-1".into()],
            detected_by: vec!["overtemperature".into(), "ruined-unstable".into()],
        },
        Hazard {
            id: "H-3".into(),
            description: "rotor speed exceeds the mechanical limit".into(),
            losses: vec!["L-1".into(), "L-2".into()],
            detected_by: vec!["rotor-overspeed".into()],
        },
        Hazard {
            id: "H-4".into(),
            description: "rotor speed deviates beyond ±20 rpm of the set point".into(),
            losses: vec!["L-1".into()],
            detected_by: vec!["ruined-speed".into()],
        },
        Hazard {
            id: "H-5".into(),
            description: "solution temperature below the separation window".into(),
            losses: vec!["L-1".into()],
            detected_by: vec!["ruined-viscous".into()],
        },
    ];
    let ucas = vec![
        UnsafeControlAction {
            id: "UCA-1".into(),
            controller: "BPCS platform".into(),
            action: "centrifuge speed set point write".into(),
            kind: UcaKind::Provided,
            hazards: vec!["H-3".into(), "H-4".into()],
            weaknesses: vec!["CWE-78".into(), "CWE-20".into()],
        },
        UnsafeControlAction {
            id: "UCA-2".into(),
            controller: "BPCS platform".into(),
            action: "chiller cooling command".into(),
            kind: UcaKind::NotProvided,
            hazards: vec!["H-1".into(), "H-2".into()],
            weaknesses: vec!["CWE-400".into(), "CWE-311".into(), "CWE-20".into()],
        },
        UnsafeControlAction {
            id: "UCA-3".into(),
            controller: "BPCS platform".into(),
            action: "chiller cooling command".into(),
            kind: UcaKind::Provided,
            hazards: vec!["H-5".into()],
            weaknesses: vec!["CWE-20".into()],
        },
        UnsafeControlAction {
            id: "UCA-4".into(),
            controller: "SIS platform".into(),
            action: "emergency stop".into(),
            kind: UcaKind::NotProvided,
            hazards: vec!["H-1".into(), "H-3".into()],
            weaknesses: vec!["CWE-306".into(), "CWE-78".into(), "CWE-311".into()],
        },
        UnsafeControlAction {
            id: "UCA-5".into(),
            controller: "Programming WS".into(),
            action: "operator set point entry".into(),
            kind: UcaKind::Provided,
            hazards: vec!["H-4".into()],
            weaknesses: vec!["CWE-20".into(), "CWE-287".into()],
        },
    ];
    ControlStructureAnalysis {
        losses,
        hazards,
        ucas,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn centrifuge_analysis_has_no_dangling_links() {
        assert!(centrifuge_analysis().dangling_links().is_empty());
    }

    #[test]
    fn monitors_map_to_hazards() {
        let a = centrifuge_analysis();
        let explosion = a.hazards_detected_by(&["explosion"]);
        assert_eq!(explosion.len(), 1);
        assert_eq!(explosion[0].id, "H-1");
        assert!(a.hazards_detected_by(&["unknown-monitor"]).is_empty());
    }

    #[test]
    fn product_qualities_map_to_hazards() {
        let a = centrifuge_analysis();
        let ids = |signal: &str| -> Vec<String> {
            a.hazards_detected_by(&[signal])
                .iter()
                .map(|h| h.id.clone())
                .collect()
        };
        assert_eq!(ids("ruined-unstable"), ["H-2"]);
        assert_eq!(ids("ruined-speed"), ["H-4"]);
        assert_eq!(ids("ruined-viscous"), ["H-5"]);
        // Destruction is detected through the monitors that fired.
        assert!(ids("destroyed").is_empty());
        assert!(ids("nominal").is_empty());
    }

    #[test]
    fn losses_for_hazards_deduplicates() {
        let a = centrifuge_analysis();
        let losses = a.losses_for_hazards(&["H-1".into(), "H-3".into()]);
        let ids: Vec<&str> = losses.iter().map(|l| l.id.as_str()).collect();
        assert_eq!(ids, ["L-1", "L-2", "L-3"]);
    }

    #[test]
    fn cwe78_forces_speed_and_estop_ucas() {
        let a = centrifuge_analysis();
        let ucas = a.ucas_for_weakness("CWE-78");
        let ids: Vec<&str> = ucas.iter().map(|u| u.id.as_str()).collect();
        assert!(ids.contains(&"UCA-1"));
        assert!(ids.contains(&"UCA-4"));
    }

    #[test]
    fn dangling_links_are_detected() {
        let mut a = centrifuge_analysis();
        a.ucas[0].hazards.push("H-99".into());
        a.hazards[0].losses.push("L-99".into());
        let dangling = a.dangling_links();
        assert!(dangling.contains(&"H-99".to_owned()));
        assert!(dangling.contains(&"L-99".to_owned()));
    }

    #[test]
    fn uca_kind_display() {
        assert_eq!(UcaKind::NotProvided.to_string(), "not provided");
        assert_eq!(UcaKind::WrongTiming.to_string(), "wrong timing");
    }

    #[test]
    fn uca_controllers_match_model_component_names() {
        let model = cpssec_scada::model::scada_model();
        for uca in centrifuge_analysis().ucas {
            assert!(
                model.component_by_name(&uca.controller).is_some(),
                "UCA controller `{}` not in model",
                uca.controller
            );
        }
    }
}
