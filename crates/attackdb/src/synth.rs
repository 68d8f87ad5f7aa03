//! Deterministic synthetic corpus generation.
//!
//! The paper ran its search against the live MITRE feeds (hundreds of
//! thousands of records). Offline, we substitute a generated corpus whose
//! *composition* reproduces what Table 1 depends on: commodity platforms
//! (Windows, Linux) are mentioned by thousands of vulnerability records and
//! by tens of patterns and weaknesses, while niche hardware (CompactRIO) and
//! domain tools (LabVIEW) are mentioned by a handful of vulnerabilities and
//! no patterns or weaknesses. Generation is fully deterministic given the
//! spec's seed; two runs produce byte-identical corpora.
//!
//! The shape knobs live in [`ProductProfile`]; the paper's Table 1
//! magnitudes are packaged as [`SynthSpec::paper2020`].

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::{
    Abstraction, AttackComplexity, AttackPattern, AttackVectorMetric, CapecId, Corpus, CpeName,
    CveId, CvssVector, CweId, Impact, PrivilegesRequired, Scope, UserInteraction, Vulnerability,
    Weakness,
};

/// How strongly one product family is represented in the corpus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProductProfile {
    /// Stable key, used in deterministic ordering.
    pub key: String,
    /// The prose used to mention the product inside generated descriptions.
    /// Matching works on the tokens of this mention, so it must contain the
    /// tokens the corresponding model attribute will be queried with.
    pub mention: String,
    /// Vendor/product recorded in the CPE field of generated records.
    pub cpe: (String, String),
    /// The prose used when a *pattern* or *weakness* mentions the product's
    /// platform. Defaults to [`mention`](Self::mention); set it to a
    /// platform-only phrase (no vendor prefix) when the vendor token is
    /// shared across product lines — otherwise the vendor name becomes a
    /// spuriously distinctive term inside the small pattern/weakness
    /// indices and unrelated products cross-match.
    pub platform_hint: Option<String>,
    /// Number of vulnerability records mentioning the product.
    pub vulnerabilities: usize,
    /// Number of attack pattern records mentioning the product's platform.
    pub patterns: usize,
    /// Number of weakness records mentioning the product's platform.
    pub weaknesses: usize,
}

impl ProductProfile {
    /// Creates a profile with all counts zero.
    pub fn new(
        key: impl Into<String>,
        mention: impl Into<String>,
        vendor: impl Into<String>,
        product: impl Into<String>,
    ) -> Self {
        ProductProfile {
            key: key.into(),
            mention: mention.into(),
            cpe: (vendor.into(), product.into()),
            platform_hint: None,
            vulnerabilities: 0,
            patterns: 0,
            weaknesses: 0,
        }
    }

    /// Sets the platform phrase used by pattern/weakness records
    /// (builder style). See [`platform_hint`](Self::platform_hint).
    #[must_use]
    pub fn with_platform_hint(mut self, hint: impl Into<String>) -> Self {
        self.platform_hint = Some(hint.into());
        self
    }

    /// The phrase pattern/weakness records use for this product's platform.
    #[must_use]
    pub fn platform(&self) -> &str {
        self.platform_hint.as_deref().unwrap_or(&self.mention)
    }

    /// Sets the record counts (builder style).
    #[must_use]
    pub fn with_counts(
        mut self,
        vulnerabilities: usize,
        patterns: usize,
        weaknesses: usize,
    ) -> Self {
        self.vulnerabilities = vulnerabilities;
        self.patterns = patterns;
        self.weaknesses = weaknesses;
        self
    }
}

/// A complete generation specification.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthSpec {
    /// RNG seed; everything else equal, the same seed gives the same corpus.
    pub seed: u64,
    /// Generic attack patterns mentioning no profiled product.
    pub background_patterns: usize,
    /// Generic weaknesses mentioning no profiled product.
    pub background_weaknesses: usize,
    /// Generic vulnerabilities mentioning no profiled product.
    pub background_vulnerabilities: usize,
    /// Probability that a generated vulnerability maps to one of the
    /// *classic* CWE ids (CWE-20, CWE-78, …) instead of a generated one.
    /// The classic ids live in the curated seed corpus, so a standalone
    /// synthetic corpus generated with a nonzero bias carries dangling
    /// references until merged with the seed — exactly like real NVD
    /// snapshots reference CWE entries they do not contain.
    pub classic_weakness_bias: f64,
    /// Product families to represent.
    pub profiles: Vec<ProductProfile>,
}

/// CWE ids present in the curated seed corpus that real CVEs map to most
/// often.
pub const CLASSIC_CWES: [u32; 15] = [
    20, 22, 78, 79, 89, 119, 125, 200, 287, 306, 311, 400, 416, 787, 798,
];

impl SynthSpec {
    /// An empty spec with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SynthSpec {
            seed,
            background_patterns: 0,
            background_weaknesses: 0,
            background_vulnerabilities: 0,
            classic_weakness_bias: 0.0,
            profiles: Vec::new(),
        }
    }

    /// The Table 1 composition of the paper, at a linear `scale` applied to
    /// the vulnerability counts (pattern/weakness counts are small and kept
    /// exact). `scale = 1.0` reproduces the paper's magnitudes; CI-friendly
    /// runs use `0.05`–`0.1`.
    ///
    /// The counts leave room for the curated seed corpus
    /// ([`crate::seed::seed_corpus`]) so that `seed + synthetic` lands on
    /// the paper's totals for the small rows (LabVIEW 3+3 = 6,
    /// cRIO 3+4 = 7).
    #[must_use]
    pub fn paper2020(seed: u64, scale: f64) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        let v = |n: usize| ((n as f64 * scale).round() as usize).max(1);
        SynthSpec {
            seed,
            background_patterns: 500,
            background_weaknesses: 700,
            background_vulnerabilities: v(12_000),
            classic_weakness_bias: 0.15,
            profiles: vec![
                ProductProfile::new(
                    "cisco-asa",
                    "Cisco Adaptive Security Appliance ASA software",
                    "cisco",
                    "asa",
                )
                .with_platform_hint("Cisco ASA firewall appliances")
                .with_counts(v(3776).saturating_sub(3), 2, 1),
                ProductProfile::new(
                    "ni-rt-linux",
                    "the Linux kernel as used in NI Real-Time Linux OS distributions",
                    "ni",
                    "rt linux",
                )
                .with_platform_hint("Linux operating system")
                .with_counts(v(9673).saturating_sub(3), 54, 75),
                ProductProfile::new("windows-7", "Microsoft Windows 7", "microsoft", "windows 7")
                    .with_platform_hint("Microsoft Windows operating system")
                    .with_counts(v(6627).saturating_sub(4), 41, 73),
                ProductProfile::new("labview", "National Instruments LabVIEW", "ni", "labview")
                    .with_counts(3, 0, 0),
                ProductProfile::new(
                    "crio",
                    "National Instruments cRIO 9063 and cRIO 9064 CompactRIO controllers",
                    "ni",
                    "crio",
                )
                .with_counts(4, 0, 0),
            ],
        }
    }
}

const FLAWS: &[&str] = &[
    "A buffer overflow",
    "An improper input validation issue",
    "A use-after-free defect",
    "An out-of-bounds read",
    "An out-of-bounds write",
    "A race condition",
    "An integer overflow",
    "A path traversal issue",
    "A cross-site scripting issue",
    "An authentication bypass",
    "A privilege escalation flaw",
    "A denial of service condition",
    "A memory corruption defect",
    "An information disclosure",
    "A null pointer dereference",
];

const COMPONENTS: &[&str] = &[
    "network stack",
    "web interface",
    "management service",
    "parsing routine",
    "update mechanism",
    "session handler",
    "configuration service",
    "protocol handler",
    "file parser",
    "kernel driver",
    "graphics subsystem",
    "scripting engine",
    "authentication module",
    "logging facility",
    "remote procedure service",
];

const ACTORS: &[&str] = &[
    "a remote attacker",
    "a local user",
    "an unauthenticated attacker",
    "an authenticated user",
    "an adjacent attacker",
];

const CONSEQUENCES: &[&str] = &[
    "execute arbitrary code",
    "cause a denial of service",
    "read sensitive memory",
    "modify configuration data",
    "escalate privileges",
    "bypass authentication",
    "crash the service",
    "obtain credentials",
];

const FAKE_PRODUCTS: &[(&str, &str)] = &[
    ("initech", "router firmware"),
    ("globex", "plc runtime"),
    ("umbrella", "historian server"),
    ("roadrunner", "hmi panel"),
    ("tyrell", "gateway appliance"),
    ("wayne", "badge system"),
    ("stark", "telemetry agent"),
    ("wonka", "batch manager"),
    ("soylent", "report generator"),
    ("hooli", "message broker"),
    ("vandelay", "database engine"),
    ("dunder", "print spooler"),
    ("prestige", "media decoder"),
    ("oceanic", "flight recorder"),
    ("cyberdyne", "vision module"),
];

const PATTERN_VERBS: &[&str] = &[
    "Manipulation",
    "Abuse",
    "Spoofing",
    "Flooding",
    "Injection",
    "Interception",
    "Enumeration",
    "Tampering",
    "Replay",
    "Exhaustion",
];

const PATTERN_OBJECTS: &[&str] = &[
    "of Session Tokens",
    "of Registry Values",
    "of Broadcast Frames",
    "of Service Discovery",
    "of Configuration Channels",
    "of Scheduled Tasks",
    "of Trust Anchors",
    "of Diagnostic Interfaces",
    "of Cached Credentials",
    "of Telemetry Streams",
];

const WEAKNESS_SUBJECTS: &[&str] = &[
    "Input Lengths",
    "Memory Regions",
    "File Paths",
    "Command Strings",
    "Session State",
    "Numeric Ranges",
    "Access Tokens",
    "Resource Handles",
    "Temporary Files",
    "Error Messages",
];

const WEAKNESS_MODES: &[&str] = &[
    "Improper Validation",
    "Improper Handling",
    "Missing Verification",
    "Incorrect Restriction",
    "Unchecked Use",
];

fn sentence(rng: &mut StdRng, mention: Option<&str>) -> String {
    let flaw = FLAWS.choose(rng).expect("non-empty pool");
    let component = COMPONENTS.choose(rng).expect("non-empty pool");
    let actor = ACTORS.choose(rng).expect("non-empty pool");
    let consequence = CONSEQUENCES.choose(rng).expect("non-empty pool");
    match mention {
        Some(product) => {
            format!("{flaw} in the {component} of {product} allows {actor} to {consequence}.")
        }
        None => {
            let (vendor, product) = FAKE_PRODUCTS.choose(rng).expect("non-empty pool");
            format!(
                "{flaw} in the {component} of {vendor} {product} allows {actor} to {consequence}."
            )
        }
    }
}

fn random_cvss(rng: &mut StdRng) -> CvssVector {
    let av = *[
        AttackVectorMetric::Network,
        AttackVectorMetric::Network,
        AttackVectorMetric::Network,
        AttackVectorMetric::Adjacent,
        AttackVectorMetric::Local,
        AttackVectorMetric::Local,
        AttackVectorMetric::Physical,
    ]
    .choose(rng)
    .expect("non-empty pool");
    let impacts = [Impact::None, Impact::Low, Impact::High];
    let pick_impact = |rng: &mut StdRng| *impacts.choose(rng).expect("non-empty pool");
    let mut c = pick_impact(rng);
    let i = pick_impact(rng);
    let a = pick_impact(rng);
    if c == Impact::None && i == Impact::None && a == Impact::None {
        c = Impact::High; // NVD does not publish no-impact CVEs.
    }
    CvssVector {
        av,
        ac: if rng.gen_bool(0.75) {
            AttackComplexity::Low
        } else {
            AttackComplexity::High
        },
        pr: *[
            PrivilegesRequired::None,
            PrivilegesRequired::None,
            PrivilegesRequired::Low,
            PrivilegesRequired::High,
        ]
        .choose(rng)
        .expect("non-empty pool"),
        ui: if rng.gen_bool(0.65) {
            UserInteraction::None
        } else {
            UserInteraction::Required
        },
        s: if rng.gen_bool(0.85) {
            Scope::Unchanged
        } else {
            Scope::Changed
        },
        c,
        i,
        a,
    }
}

/// Generates a corpus from a spec. Deterministic in the spec.
///
/// A thin wrapper over [`stream_into`] starting from an empty corpus —
/// use `stream_into` directly when growing an existing corpus (e.g. the
/// curated seed) to avoid materializing a second full corpus just to
/// merge it.
///
/// # Examples
///
/// ```
/// use cpssec_attackdb::synth::{generate, SynthSpec};
///
/// let spec = SynthSpec::paper2020(7, 0.02);
/// let corpus = generate(&spec);
/// assert_eq!(corpus, generate(&spec));
/// ```
#[must_use]
pub fn generate(spec: &SynthSpec) -> Corpus {
    let mut corpus = Corpus::new();
    stream_into(&mut corpus, spec).expect("generated ids are unique in an empty corpus");
    corpus
}

/// Streams generated records straight into an existing corpus, one record
/// at a time — bounded intermediate memory at any scale (no second corpus
/// or JSONL buffer is built to be merged). Byte-identical to
/// [`generate`] + [`Corpus::merge`]: record construction and the single
/// RNG's call order are exactly the same, only the destination differs.
///
/// # Errors
///
/// [`crate::AttackDbError`] if a generated id collides with a record
/// already in `corpus` (generated ids start at CWE-10000 / CAPEC-10000 /
/// CVE-\*-20000, clear of the curated seed corpus). On error the corpus
/// keeps the records added so far.
pub fn stream_into(corpus: &mut Corpus, spec: &SynthSpec) -> Result<(), crate::AttackDbError> {
    let mut rng = StdRng::seed_from_u64(spec.seed);

    // Weaknesses first so patterns and vulnerabilities can link to them.
    let mut next_cwe = 10_000u32;
    let mut all_cwes: Vec<CweId> = Vec::new();
    let add_weakness = |corpus: &mut Corpus,
                        rng: &mut StdRng,
                        all_cwes: &mut Vec<CweId>,
                        next_cwe: &mut u32,
                        mention: Option<&str>|
     -> Result<(), crate::AttackDbError> {
        let id = CweId::new(*next_cwe);
        *next_cwe += 1;
        let mode = WEAKNESS_MODES.choose(rng).expect("non-empty pool");
        let subject = WEAKNESS_SUBJECTS.choose(rng).expect("non-empty pool");
        let component = COMPONENTS.choose(rng).expect("non-empty pool");
        let mut w = Weakness::new(
            id,
            format!("{mode} of {subject} in {component}"),
            sentence(rng, None),
        );
        if let Some(m) = mention {
            w = w.with_platform(format!("{m} platforms"));
        }
        corpus.add_weakness(w)?;
        all_cwes.push(id);
        Ok(())
    };
    for _ in 0..spec.background_weaknesses {
        add_weakness(corpus, &mut rng, &mut all_cwes, &mut next_cwe, None)?;
    }
    for profile in &spec.profiles {
        for _ in 0..profile.weaknesses {
            add_weakness(
                corpus,
                &mut rng,
                &mut all_cwes,
                &mut next_cwe,
                Some(profile.platform()),
            )?;
        }
    }

    // Attack patterns.
    let mut next_capec = 10_000u32;
    let abstractions = [
        Abstraction::Meta,
        Abstraction::Standard,
        Abstraction::Detailed,
    ];
    let add_pattern = |corpus: &mut Corpus,
                       rng: &mut StdRng,
                       next_capec: &mut u32,
                       mention: Option<&str>|
     -> Result<(), crate::AttackDbError> {
        let id = CapecId::new(*next_capec);
        *next_capec += 1;
        let verb = PATTERN_VERBS.choose(rng).expect("non-empty pool");
        let object = PATTERN_OBJECTS.choose(rng).expect("non-empty pool");
        let description = match mention {
            Some(m) => format!(
                "An adversary targets services running on {m} platforms. {}",
                sentence(rng, None)
            ),
            None => sentence(rng, None),
        };
        let mut p = AttackPattern::new(
            id,
            format!("{verb} {object}"),
            description,
            *abstractions.choose(rng).expect("non-empty pool"),
        );
        for _ in 0..rng.gen_range(1..=3usize) {
            if let Some(cwe) = all_cwes.choose(rng) {
                p = p.with_weakness(*cwe);
            }
        }
        corpus.add_pattern(p)?;
        Ok(())
    };
    for _ in 0..spec.background_patterns {
        add_pattern(corpus, &mut rng, &mut next_capec, None)?;
    }
    for profile in &spec.profiles {
        for _ in 0..profile.patterns {
            add_pattern(corpus, &mut rng, &mut next_capec, Some(profile.platform()))?;
        }
    }

    // Vulnerabilities.
    let mut next_cve = 20_000u32;
    let classic_bias = spec.classic_weakness_bias.clamp(0.0, 1.0);
    let add_vuln = |corpus: &mut Corpus,
                    rng: &mut StdRng,
                    next_cve: &mut u32,
                    profile: Option<&ProductProfile>|
     -> Result<(), crate::AttackDbError> {
        let year = 2002 + (*next_cve % 19) as u16;
        let id = CveId::new(year, *next_cve);
        *next_cve += 1;
        let mention = profile.map(|p| p.mention.as_str());
        let mut v = Vulnerability::new(id, sentence(rng, mention)).with_cvss(random_cvss(rng));
        if rng.gen_bool(classic_bias) {
            let classic = CLASSIC_CWES.choose(rng).expect("non-empty list");
            v = v.with_weakness(CweId::new(*classic));
        } else if let Some(cwe) = all_cwes.choose(rng) {
            v = v.with_weakness(*cwe);
        }
        match profile {
            Some(p) => {
                v = v.with_affected(CpeName::new(p.cpe.0.clone(), p.cpe.1.clone()));
            }
            None => {
                let (vendor, product) = FAKE_PRODUCTS.choose(rng).expect("non-empty pool");
                v = v.with_affected(CpeName::new(*vendor, *product));
            }
        }
        corpus.add_vulnerability(v)?;
        Ok(())
    };
    for _ in 0..spec.background_vulnerabilities {
        add_vuln(corpus, &mut rng, &mut next_cve, None)?;
    }
    for profile in &spec.profiles {
        for _ in 0..profile.vulnerabilities {
            add_vuln(corpus, &mut rng, &mut next_cve, Some(profile))?;
        }
    }

    Ok(())
}

/// A fictional product line that exists in **no** other generation pool:
/// the token `quantumworks` never appears in seed or [`generate`] output,
/// so a query for it cleanly separates delta-applied records from the
/// base corpus (CI asserts exactly this after `POST /corpus/delta`).
pub const DELTA_MENTION: &str = "Quantumworks FlowNet gateway";

/// The highest serial [`delta_batch`] takes: its CVE numbers, from
/// `serial·1_000_000`, still fit a `u32`.
pub const LAST_DELTA_SERIAL: u32 = 4_294;

/// The first CWE/CAPEC number and the first CVE-2030 number of delta
/// block `serial`.
fn delta_block(serial: u32) -> (u32, u32) {
    (500_000 + serial * 10_000, serial * 1_000_000)
}

/// How [`delta_batch`] splits `records`: (patterns, weaknesses,
/// vulnerabilities).
fn delta_composition(records: usize) -> (usize, usize, usize) {
    let (patterns, weaknesses) = (records / 20, records / 10);
    (patterns, weaknesses, records - patterns - weaknesses)
}

/// The smallest serial whose [`delta_batch`] of `records` records starts
/// above the highest existing id of every family it has records in
/// (`None` for an empty family): the append-only id floor a delta must
/// clear to apply. `None` if no serial up to [`LAST_DELTA_SERIAL`] does.
#[must_use]
pub fn first_serial_above(
    records: usize,
    pattern: Option<CapecId>,
    weakness: Option<CweId>,
    vulnerability: Option<CveId>,
) -> Option<u32> {
    let (patterns, weaknesses, vulnerabilities) = delta_composition(records);
    (0..=LAST_DELTA_SERIAL).find(|&serial| {
        let (base, cve) = delta_block(serial);
        (patterns == 0 || pattern.map_or(true, |last| CapecId::new(base) > last))
            && (weaknesses == 0 || weakness.map_or(true, |last| CweId::new(base) > last))
            && (vulnerabilities == 0
                || vulnerability.map_or(true, |last| CveId::new(2030, cve) > last))
    })
}

/// Generates a deterministic batch of *new* records for a `.cpsdelta`,
/// with ids far above anything [`generate`] or the curated seed produce
/// (CWE/CAPEC from `500_000 + serial·10_000`, CVEs in year 2030 from
/// `serial·1_000_000`) so consecutive serials chain append-only: every id
/// in batch `serial + 1` exceeds every id in batch `serial`.
///
/// The composition is vulnerability-heavy like a real feed increment
/// (1/20 patterns, 1/10 weaknesses, the rest vulnerabilities), and every
/// record mentions the [`DELTA_MENTION`] product so its arrival is
/// observable through a search query.
///
/// # Panics
///
/// Panics if `records` exceeds the per-serial id range (10 000) or
/// `serial` exceeds [`LAST_DELTA_SERIAL`].
#[must_use]
pub fn delta_batch(seed: u64, records: usize, serial: u32) -> Corpus {
    assert!(
        records <= 10_000,
        "delta batch exceeds the per-serial id range"
    );
    assert!(
        serial <= LAST_DELTA_SERIAL,
        "delta serial {serial} is out of range"
    );
    let mut rng = StdRng::seed_from_u64(seed ^ (u64::from(serial) << 32));
    let mut batch = Corpus::new();
    let (patterns, weaknesses, vulnerabilities) = delta_composition(records);
    let (base, cve) = delta_block(serial);
    for i in 0..weaknesses as u32 {
        let mode = WEAKNESS_MODES.choose(&mut rng).expect("non-empty pool");
        let subject = WEAKNESS_SUBJECTS.choose(&mut rng).expect("non-empty pool");
        let w = Weakness::new(
            CweId::new(base + i),
            format!("{mode} of {subject} in {DELTA_MENTION} firmware"),
            sentence(&mut rng, Some(DELTA_MENTION)),
        )
        .with_platform(format!("{DELTA_MENTION} platforms"));
        batch.add_weakness(w).expect("delta ids unique");
    }
    for i in 0..patterns as u32 {
        let verb = PATTERN_VERBS.choose(&mut rng).expect("non-empty pool");
        let object = PATTERN_OBJECTS.choose(&mut rng).expect("non-empty pool");
        let p = AttackPattern::new(
            CapecId::new(base + i),
            format!("{verb} {object}"),
            format!(
                "An adversary targets services running on {DELTA_MENTION} platforms. {}",
                sentence(&mut rng, None)
            ),
            Abstraction::Standard,
        );
        batch.add_pattern(p).expect("delta ids unique");
    }
    for i in 0..vulnerabilities as u32 {
        let v = Vulnerability::new(
            CveId::new(2030, cve + i),
            sentence(&mut rng, Some(DELTA_MENTION)),
        )
        .with_cvss(random_cvss(&mut rng))
        .with_affected(CpeName::new("quantumworks", "flownet gateway"));
        batch.add_vulnerability(v).expect("delta ids unique");
    }
    batch
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SynthSpec {
        let mut spec = SynthSpec::new(42);
        spec.background_patterns = 20;
        spec.background_weaknesses = 30;
        spec.background_vulnerabilities = 50;
        spec.profiles = vec![
            ProductProfile::new("widget", "Acme Widget OS", "acme", "widget os")
                .with_counts(10, 3, 2),
        ];
        spec
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate(&tiny()), generate(&tiny()));
    }

    #[test]
    fn different_seeds_differ() {
        let mut other = tiny();
        other.seed = 43;
        assert_ne!(generate(&tiny()), generate(&other));
    }

    #[test]
    fn counts_match_spec() {
        let c = generate(&tiny());
        let s = c.stats();
        assert_eq!(s.patterns, 23);
        assert_eq!(s.weaknesses, 32);
        assert_eq!(s.vulnerabilities, 60);
    }

    #[test]
    fn profile_records_mention_the_product() {
        let c = generate(&tiny());
        let mentioning = c
            .vulnerabilities()
            .filter(|v| v.description().contains("Acme Widget OS"))
            .count();
        assert_eq!(mentioning, 10);
        let platform_patterns = c
            .patterns()
            .filter(|p| p.description().contains("Acme Widget OS"))
            .count();
        assert_eq!(platform_patterns, 3);
        let platform_weaknesses = c
            .weaknesses()
            .filter(|w| w.platforms().iter().any(|p| p.contains("Acme Widget OS")))
            .count();
        assert_eq!(platform_weaknesses, 2);
    }

    #[test]
    fn background_records_do_not_mention_profiles() {
        let c = generate(&tiny());
        let background_mentioning = c
            .vulnerabilities()
            .filter(|v| !v.description().contains("Acme Widget OS"))
            .filter(|v| v.affected().iter().any(|p| p.vendor() == "acme"))
            .count();
        assert_eq!(background_mentioning, 0);
    }

    #[test]
    fn all_generated_vulnerabilities_are_scored_and_linked() {
        let c = generate(&tiny());
        assert!(c.vulnerabilities().all(|v| v.cvss().is_some()));
        assert!(c.vulnerabilities().all(|v| !v.weaknesses().is_empty()));
        assert!(c.dangling_references().is_empty());
    }

    #[test]
    fn paper2020_scales_vulnerabilities_only() {
        let full = SynthSpec::paper2020(1, 1.0);
        let tenth = SynthSpec::paper2020(1, 0.1);
        let find = |spec: &SynthSpec, key: &str| {
            spec.profiles.iter().find(|p| p.key == key).unwrap().clone()
        };
        assert_eq!(
            find(&full, "windows-7").patterns,
            find(&tenth, "windows-7").patterns
        );
        assert!(
            find(&full, "windows-7").vulnerabilities > find(&tenth, "windows-7").vulnerabilities
        );
        // Niche products stay tiny at any scale.
        assert_eq!(find(&full, "labview").vulnerabilities, 3);
        assert_eq!(find(&full, "crio").vulnerabilities, 4);
    }

    #[test]
    fn paper2020_merges_cleanly_with_seed() {
        let mut corpus = crate::seed::seed_corpus();
        corpus
            .merge(generate(&SynthSpec::paper2020(7, 0.01)))
            .unwrap();
        assert!(corpus.stats().vulnerabilities > 20);
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_is_rejected() {
        let _ = SynthSpec::paper2020(1, 0.0);
    }

    #[test]
    fn stream_into_equals_generate_plus_merge() {
        let spec = SynthSpec::paper2020(7, 0.02);
        let mut merged = crate::seed::seed_corpus();
        merged.merge(generate(&spec)).unwrap();
        let mut streamed = crate::seed::seed_corpus();
        stream_into(&mut streamed, &spec).unwrap();
        assert_eq!(merged, streamed);
    }

    #[test]
    fn stream_into_rejects_id_collisions() {
        let mut corpus = generate(&tiny());
        assert!(stream_into(&mut corpus, &tiny()).is_err());
    }

    #[test]
    fn legacy_scale_counts_are_pinned() {
        // Regression pin: the scale → record-count mapping at the two
        // legacy CI scales must never drift (downstream campaign hashes
        // and Table 1 shape tests depend on it).
        let s = generate(&SynthSpec::paper2020(7, 0.02)).stats();
        assert_eq!((s.patterns, s.weaknesses), (597, 849));
        assert_eq!(s.vulnerabilities, 639);
        let s = generate(&SynthSpec::paper2020(11, 0.05)).stats();
        assert_eq!((s.patterns, s.weaknesses), (597, 849));
        assert_eq!(s.vulnerabilities, 1601);
    }

    #[test]
    fn scale_maps_linearly_to_corpus_size() {
        // ~32k records per unit of scale: scale 3.0 ≈ 100k records is the
        // CI snapshot-scale fixture; ~31 ≈ 1M is the E17 upper point.
        let spec = SynthSpec::paper2020(7, 3.0);
        let expected: usize = spec.background_vulnerabilities
            + spec
                .profiles
                .iter()
                .map(|p| p.vulnerabilities)
                .sum::<usize>();
        assert!((96_000..=100_000).contains(&expected), "{expected}");
    }

    #[test]
    fn first_serial_above_clears_the_floor_of_the_families_a_batch_fills() {
        let last = |c: &Corpus| {
            (
                c.last_pattern_id(),
                c.last_weakness_id(),
                c.last_vulnerability_id(),
            )
        };
        let (p, w, v) = last(&generate(&tiny()));
        assert_eq!(first_serial_above(1_000, p, w, v), Some(0));
        assert_eq!(first_serial_above(1_000, None, None, None), Some(0));
        // Once serial 0 and 1 are in, the next free block is 2.
        let mut grown = delta_batch(1, 1_000, 0);
        grown.merge(delta_batch(2, 1_000, 1)).unwrap();
        let (p, w, v) = last(&grown);
        assert_eq!(first_serial_above(1_000, p, w, v), Some(2));
        // Five records are all vulnerabilities: only their floor counts.
        assert_eq!(first_serial_above(5, p, w, None), Some(0));
        assert_eq!(first_serial_above(5, None, None, v), Some(2));
        // No serial's CVE-2030 block lies above a CVE of a later year.
        assert_eq!(
            first_serial_above(1_000, None, None, Some(CveId::new(2031, 0))),
            None
        );
    }

    #[test]
    fn delta_batch_is_deterministic_and_append_only_across_serials() {
        let a = delta_batch(9, 200, 1);
        assert_eq!(a, delta_batch(9, 200, 1));
        assert_ne!(a, delta_batch(10, 200, 1));
        let s = a.stats();
        assert_eq!(s.patterns + s.weaknesses + s.vulnerabilities, 200);
        assert!(s.vulnerabilities > s.weaknesses);
        // Serial 2's smallest ids exceed serial 1's largest.
        let b = delta_batch(9, 200, 2);
        let max_cve_a = a.vulnerabilities().last().unwrap().id();
        let min_cve_b = b.vulnerabilities().next().unwrap().id();
        assert!(min_cve_b > max_cve_a);
        let max_cwe_a = a.weaknesses().last().unwrap().id();
        let min_cwe_b = b.weaknesses().next().unwrap().id();
        assert!(min_cwe_b > max_cwe_a);
    }

    #[test]
    fn delta_batch_mentions_are_absent_from_generated_corpora() {
        // `quantumworks` must be distinctive: no seed or synth record may
        // contain it, so a post-delta query separates old from new.
        let batch = delta_batch(9, 50, 1);
        assert!(batch
            .vulnerabilities()
            .all(|v| v.description().contains("Quantumworks")));
        let mut base = crate::seed::seed_corpus();
        base.merge(generate(&SynthSpec::paper2020(7, 0.02)))
            .unwrap();
        assert!(!base
            .vulnerabilities()
            .any(|v| v.description().to_lowercase().contains("quantumworks")));
        assert!(!base
            .patterns()
            .any(|p| p.description().to_lowercase().contains("quantumworks")));
        // And batch ids clear the merged corpus's id ceiling.
        let floor = base.last_vulnerability_id().unwrap();
        assert!(batch.vulnerabilities().next().unwrap().id() > floor);
    }
}
