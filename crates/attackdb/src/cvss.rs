//! CVSS v3.1 base metrics, implemented from the FIRST specification.
//!
//! The paper cautions that "CVSS only defines severity of a given
//! vulnerability and not risk" — we implement it anyway because severity is
//! what the corpus records carry and what result filtering buckets by, and
//! we keep the paper's framing by exposing it as [`Severity`], never as a
//! risk number.

use core::fmt;
use core::str::FromStr;

/// Error parsing a CVSS v3.1 vector string.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CvssError {
    /// The string did not start with `CVSS:3.0/` or `CVSS:3.1/`.
    BadPrefix(String),
    /// A metric group was not `KEY:VALUE`.
    BadMetric(String),
    /// A metric value was not valid for its key.
    BadValue {
        /// The metric key.
        key: String,
        /// The offending value.
        value: String,
    },
    /// A mandatory base metric was missing.
    Missing(&'static str),
    /// The same metric appeared twice.
    Duplicate(String),
}

impl fmt::Display for CvssError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CvssError::BadPrefix(s) => write!(f, "vector `{s}` does not start with CVSS:3.x/"),
            CvssError::BadMetric(s) => write!(f, "malformed metric `{s}`"),
            CvssError::BadValue { key, value } => {
                write!(f, "value `{value}` is not valid for metric `{key}`")
            }
            CvssError::Missing(key) => write!(f, "mandatory metric `{key}` is missing"),
            CvssError::Duplicate(key) => write!(f, "metric `{key}` appears more than once"),
        }
    }
}

impl std::error::Error for CvssError {}

/// Attack Vector (AV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AttackVectorMetric {
    /// Network (`N`).
    Network,
    /// Adjacent (`A`).
    Adjacent,
    /// Local (`L`).
    Local,
    /// Physical (`P`).
    Physical,
}

/// Attack Complexity (AC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AttackComplexity {
    /// Low (`L`).
    Low,
    /// High (`H`).
    High,
}

/// Privileges Required (PR).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PrivilegesRequired {
    /// None (`N`).
    None,
    /// Low (`L`).
    Low,
    /// High (`H`).
    High,
}

/// User Interaction (UI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum UserInteraction {
    /// None (`N`).
    None,
    /// Required (`R`).
    Required,
}

/// Scope (S).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Scope {
    /// Unchanged (`U`).
    Unchanged,
    /// Changed (`C`).
    Changed,
}

/// Impact level for Confidentiality, Integrity and Availability (C/I/A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Impact {
    /// None (`N`).
    None,
    /// Low (`L`).
    Low,
    /// High (`H`).
    High,
}

/// Qualitative severity rating per the v3.1 specification, §5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Score 0.0.
    None,
    /// Score 0.1–3.9.
    Low,
    /// Score 4.0–6.9.
    Medium,
    /// Score 7.0–8.9.
    High,
    /// Score 9.0–10.0.
    Critical,
}

impl Severity {
    /// Maps a base score to its rating band.
    ///
    /// # Panics
    ///
    /// Panics if `score` is outside `[0, 10]`, which [`CvssVector::base_score`]
    /// never produces.
    #[must_use]
    pub fn from_score(score: f64) -> Severity {
        assert!((0.0..=10.0).contains(&score), "score {score} out of range");
        if score == 0.0 {
            Severity::None
        } else if score < 4.0 {
            Severity::Low
        } else if score < 7.0 {
            Severity::Medium
        } else if score < 9.0 {
            Severity::High
        } else {
            Severity::Critical
        }
    }

    /// Canonical capitalized name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::None => "None",
            Severity::Low => "Low",
            Severity::Medium => "Medium",
            Severity::High => "High",
            Severity::Critical => "Critical",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A complete set of CVSS v3.1 base metrics.
///
/// # Examples
///
/// ```
/// use cpssec_attackdb::{CvssVector, Severity};
///
/// let v: CvssVector = "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H".parse()?;
/// assert_eq!(v.base_score(), 9.8);
/// assert_eq!(v.severity(), Severity::Critical);
/// # Ok::<(), cpssec_attackdb::CvssError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CvssVector {
    /// Attack Vector.
    pub av: AttackVectorMetric,
    /// Attack Complexity.
    pub ac: AttackComplexity,
    /// Privileges Required.
    pub pr: PrivilegesRequired,
    /// User Interaction.
    pub ui: UserInteraction,
    /// Scope.
    pub s: Scope,
    /// Confidentiality impact.
    pub c: Impact,
    /// Integrity impact.
    pub i: Impact,
    /// Availability impact.
    pub a: Impact,
}

impl CvssVector {
    /// The base score in `[0.0, 10.0]`, per specification §7.1.
    #[must_use]
    pub fn base_score(&self) -> f64 {
        let iss = 1.0
            - (1.0 - impact_weight(self.c))
                * (1.0 - impact_weight(self.i))
                * (1.0 - impact_weight(self.a));
        let impact = match self.s {
            Scope::Unchanged => 6.42 * iss,
            Scope::Changed => 7.52 * (iss - 0.029) - 3.25 * (iss - 0.02).powi(15),
        };
        if impact <= 0.0 {
            return 0.0;
        }
        let exploitability = 8.22
            * av_weight(self.av)
            * ac_weight(self.ac)
            * pr_weight(self.pr, self.s)
            * ui_weight(self.ui);
        let raw = match self.s {
            Scope::Unchanged => (impact + exploitability).min(10.0),
            Scope::Changed => (1.08 * (impact + exploitability)).min(10.0),
        };
        round_up(raw)
    }

    /// The qualitative rating for the base score.
    #[must_use]
    pub fn severity(&self) -> Severity {
        Severity::from_score(self.base_score())
    }

    /// The exploitability subscore (unrounded), §7.1.
    #[must_use]
    pub fn exploitability(&self) -> f64 {
        8.22 * av_weight(self.av)
            * ac_weight(self.ac)
            * pr_weight(self.pr, self.s)
            * ui_weight(self.ui)
    }
}

impl fmt::Display for CvssVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CVSS:3.1/AV:{}/AC:{}/PR:{}/UI:{}/S:{}/C:{}/I:{}/A:{}",
            match self.av {
                AttackVectorMetric::Network => "N",
                AttackVectorMetric::Adjacent => "A",
                AttackVectorMetric::Local => "L",
                AttackVectorMetric::Physical => "P",
            },
            match self.ac {
                AttackComplexity::Low => "L",
                AttackComplexity::High => "H",
            },
            match self.pr {
                PrivilegesRequired::None => "N",
                PrivilegesRequired::Low => "L",
                PrivilegesRequired::High => "H",
            },
            match self.ui {
                UserInteraction::None => "N",
                UserInteraction::Required => "R",
            },
            match self.s {
                Scope::Unchanged => "U",
                Scope::Changed => "C",
            },
            impact_letter(self.c),
            impact_letter(self.i),
            impact_letter(self.a),
        )
    }
}

fn impact_letter(i: Impact) -> &'static str {
    match i {
        Impact::None => "N",
        Impact::Low => "L",
        Impact::High => "H",
    }
}

fn av_weight(av: AttackVectorMetric) -> f64 {
    match av {
        AttackVectorMetric::Network => 0.85,
        AttackVectorMetric::Adjacent => 0.62,
        AttackVectorMetric::Local => 0.55,
        AttackVectorMetric::Physical => 0.2,
    }
}

fn ac_weight(ac: AttackComplexity) -> f64 {
    match ac {
        AttackComplexity::Low => 0.77,
        AttackComplexity::High => 0.44,
    }
}

fn pr_weight(pr: PrivilegesRequired, s: Scope) -> f64 {
    match (pr, s) {
        (PrivilegesRequired::None, _) => 0.85,
        (PrivilegesRequired::Low, Scope::Unchanged) => 0.62,
        (PrivilegesRequired::Low, Scope::Changed) => 0.68,
        (PrivilegesRequired::High, Scope::Unchanged) => 0.27,
        (PrivilegesRequired::High, Scope::Changed) => 0.5,
    }
}

fn ui_weight(ui: UserInteraction) -> f64 {
    match ui {
        UserInteraction::None => 0.85,
        UserInteraction::Required => 0.62,
    }
}

fn impact_weight(i: Impact) -> f64 {
    match i {
        Impact::None => 0.0,
        Impact::Low => 0.22,
        Impact::High => 0.56,
    }
}

/// Specification Appendix A "Roundup": smallest number, to one decimal,
/// equal to or higher than the input, computed in a float-safe way.
fn round_up(value: f64) -> f64 {
    let int_input = (value * 100_000.0).round() as i64;
    if int_input % 10_000 == 0 {
        int_input as f64 / 100_000.0
    } else {
        ((int_input / 10_000) as f64 + 1.0) / 10.0
    }
}

impl FromStr for CvssVector {
    type Err = CvssError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let rest = s
            .strip_prefix("CVSS:3.1/")
            .or_else(|| s.strip_prefix("CVSS:3.0/"))
            .ok_or_else(|| CvssError::BadPrefix(s.to_owned()))?;
        let mut av = None;
        let mut ac = None;
        let mut pr = None;
        let mut ui = None;
        let mut scope = None;
        let mut c = None;
        let mut i = None;
        let mut a = None;
        for metric in rest.split('/') {
            let (key, value) = metric
                .split_once(':')
                .ok_or_else(|| CvssError::BadMetric(metric.to_owned()))?;
            let bad = || CvssError::BadValue {
                key: key.to_owned(),
                value: value.to_owned(),
            };
            let dup = || CvssError::Duplicate(key.to_owned());
            match key {
                "AV" => set_once(&mut av, parse_av(value).ok_or_else(bad)?, dup)?,
                "AC" => set_once(&mut ac, parse_ac(value).ok_or_else(bad)?, dup)?,
                "PR" => set_once(&mut pr, parse_pr(value).ok_or_else(bad)?, dup)?,
                "UI" => set_once(&mut ui, parse_ui(value).ok_or_else(bad)?, dup)?,
                "S" => set_once(&mut scope, parse_scope(value).ok_or_else(bad)?, dup)?,
                "C" => set_once(&mut c, parse_impact(value).ok_or_else(bad)?, dup)?,
                "I" => set_once(&mut i, parse_impact(value).ok_or_else(bad)?, dup)?,
                "A" => set_once(&mut a, parse_impact(value).ok_or_else(bad)?, dup)?,
                // Temporal/environmental metrics are accepted and ignored.
                _ => {}
            }
        }
        Ok(CvssVector {
            av: av.ok_or(CvssError::Missing("AV"))?,
            ac: ac.ok_or(CvssError::Missing("AC"))?,
            pr: pr.ok_or(CvssError::Missing("PR"))?,
            ui: ui.ok_or(CvssError::Missing("UI"))?,
            s: scope.ok_or(CvssError::Missing("S"))?,
            c: c.ok_or(CvssError::Missing("C"))?,
            i: i.ok_or(CvssError::Missing("I"))?,
            a: a.ok_or(CvssError::Missing("A"))?,
        })
    }
}

fn set_once<T>(
    slot: &mut Option<T>,
    value: T,
    dup: impl FnOnce() -> CvssError,
) -> Result<(), CvssError> {
    if slot.is_some() {
        return Err(dup());
    }
    *slot = Some(value);
    Ok(())
}

fn parse_av(v: &str) -> Option<AttackVectorMetric> {
    match v {
        "N" => Some(AttackVectorMetric::Network),
        "A" => Some(AttackVectorMetric::Adjacent),
        "L" => Some(AttackVectorMetric::Local),
        "P" => Some(AttackVectorMetric::Physical),
        _ => None,
    }
}

fn parse_ac(v: &str) -> Option<AttackComplexity> {
    match v {
        "L" => Some(AttackComplexity::Low),
        "H" => Some(AttackComplexity::High),
        _ => None,
    }
}

fn parse_pr(v: &str) -> Option<PrivilegesRequired> {
    match v {
        "N" => Some(PrivilegesRequired::None),
        "L" => Some(PrivilegesRequired::Low),
        "H" => Some(PrivilegesRequired::High),
        _ => None,
    }
}

fn parse_ui(v: &str) -> Option<UserInteraction> {
    match v {
        "N" => Some(UserInteraction::None),
        "R" => Some(UserInteraction::Required),
        _ => None,
    }
}

fn parse_scope(v: &str) -> Option<Scope> {
    match v {
        "U" => Some(Scope::Unchanged),
        "C" => Some(Scope::Changed),
        _ => None,
    }
}

fn parse_impact(v: &str) -> Option<Impact> {
    match v {
        "N" => Some(Impact::None),
        "L" => Some(Impact::Low),
        "H" => Some(Impact::High),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn score(vector: &str) -> f64 {
        vector.parse::<CvssVector>().unwrap().base_score()
    }

    // Reference scores below are the official values published by NVD for
    // these canonical vectors.
    #[test]
    fn canonical_network_rce_scores_9_8() {
        assert_eq!(score("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"), 9.8);
    }

    #[test]
    fn scope_changed_full_impact_scores_10() {
        assert_eq!(score("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:C/C:H/I:H/A:H"), 10.0);
    }

    #[test]
    fn reflected_xss_scores_6_1() {
        assert_eq!(score("CVSS:3.1/AV:N/AC:L/PR:N/UI:R/S:C/C:L/I:L/A:N"), 6.1);
    }

    #[test]
    fn info_disclosure_scores_7_5() {
        assert_eq!(score("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:N/A:N"), 7.5);
    }

    #[test]
    fn local_read_scores_5_5() {
        assert_eq!(score("CVSS:3.1/AV:L/AC:L/PR:L/UI:N/S:U/C:H/I:N/A:N"), 5.5);
    }

    #[test]
    fn no_impact_scores_zero() {
        assert_eq!(score("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:N/I:N/A:N"), 0.0);
        assert_eq!(score("CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:C/C:N/I:N/A:N"), 0.0);
    }

    #[test]
    fn physical_high_complexity_is_low_band() {
        let v: CvssVector = "CVSS:3.1/AV:P/AC:H/PR:H/UI:R/S:U/C:L/I:N/A:N"
            .parse()
            .unwrap();
        assert_eq!(v.severity(), Severity::Low);
    }

    #[test]
    fn cvss_30_prefix_is_accepted() {
        assert_eq!(score("CVSS:3.0/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"), 9.8);
    }

    #[test]
    fn display_round_trips() {
        let text = "CVSS:3.1/AV:A/AC:H/PR:L/UI:R/S:C/C:L/I:H/A:N";
        let v: CvssVector = text.parse().unwrap();
        assert_eq!(v.to_string(), text);
        let again: CvssVector = v.to_string().parse().unwrap();
        assert_eq!(again, v);
    }

    #[test]
    fn missing_metric_is_reported_by_name() {
        let err = "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H"
            .parse::<CvssVector>()
            .unwrap_err();
        assert_eq!(err, CvssError::Missing("A"));
    }

    #[test]
    fn duplicate_metric_is_rejected() {
        let err = "CVSS:3.1/AV:N/AV:L/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"
            .parse::<CvssVector>()
            .unwrap_err();
        assert_eq!(err, CvssError::Duplicate("AV".into()));
    }

    #[test]
    fn bad_prefix_and_bad_value_are_rejected() {
        assert!(matches!(
            "CVSS:2.0/AV:N".parse::<CvssVector>(),
            Err(CvssError::BadPrefix(_))
        ));
        assert!(matches!(
            "CVSS:3.1/AV:X/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H".parse::<CvssVector>(),
            Err(CvssError::BadValue { .. })
        ));
        assert!(matches!(
            "CVSS:3.1/AVN".parse::<CvssVector>(),
            Err(CvssError::BadMetric(_))
        ));
    }

    #[test]
    fn severity_bands_match_spec_table() {
        assert_eq!(Severity::from_score(0.0), Severity::None);
        assert_eq!(Severity::from_score(0.1), Severity::Low);
        assert_eq!(Severity::from_score(3.9), Severity::Low);
        assert_eq!(Severity::from_score(4.0), Severity::Medium);
        assert_eq!(Severity::from_score(6.9), Severity::Medium);
        assert_eq!(Severity::from_score(7.0), Severity::High);
        assert_eq!(Severity::from_score(8.9), Severity::High);
        assert_eq!(Severity::from_score(9.0), Severity::Critical);
        assert_eq!(Severity::from_score(10.0), Severity::Critical);
    }

    #[test]
    fn round_up_spec_examples() {
        // Appendix A examples: Roundup(4.02) == 4.1 and Roundup(4.00) == 4.0.
        assert_eq!(round_up(4.02), 4.1);
        assert_eq!(round_up(4.0), 4.0);
    }

    #[test]
    fn all_scores_stay_in_range_and_band() {
        // Exhaustive sweep over the full metric space (4*2*3*2*2*27 = 2592).
        for av in [
            AttackVectorMetric::Network,
            AttackVectorMetric::Adjacent,
            AttackVectorMetric::Local,
            AttackVectorMetric::Physical,
        ] {
            for ac in [AttackComplexity::Low, AttackComplexity::High] {
                for pr in [
                    PrivilegesRequired::None,
                    PrivilegesRequired::Low,
                    PrivilegesRequired::High,
                ] {
                    for ui in [UserInteraction::None, UserInteraction::Required] {
                        for s in [Scope::Unchanged, Scope::Changed] {
                            for c in [Impact::None, Impact::Low, Impact::High] {
                                for i in [Impact::None, Impact::Low, Impact::High] {
                                    for a in [Impact::None, Impact::Low, Impact::High] {
                                        let v = CvssVector {
                                            av,
                                            ac,
                                            pr,
                                            ui,
                                            s,
                                            c,
                                            i,
                                            a,
                                        };
                                        let score = v.base_score();
                                        assert!((0.0..=10.0).contains(&score), "{v}: {score}");
                                        // One decimal place exactly.
                                        let tenths = score * 10.0;
                                        assert!(
                                            (tenths - tenths.round()).abs() < 1e-9,
                                            "{v}: {score}"
                                        );
                                        if c == Impact::None
                                            && i == Impact::None
                                            && a == Impact::None
                                        {
                                            assert_eq!(score, 0.0, "{v}");
                                        } else {
                                            assert!(score > 0.0, "{v}");
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
