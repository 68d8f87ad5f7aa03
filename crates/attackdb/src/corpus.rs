//! The corpus: all three record families plus the cross-reference index.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::{
    Abstraction, AttackDbError, AttackPattern, AttackVectorId, CapecId, CveId, CweId, Severity,
    Vulnerability, Weakness,
};

/// Summary statistics over a corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusStats {
    /// Number of attack patterns.
    pub patterns: usize,
    /// Number of weaknesses.
    pub weaknesses: usize,
    /// Number of vulnerabilities.
    pub vulnerabilities: usize,
    /// Number of CAPEC→CWE links.
    pub pattern_weakness_links: usize,
    /// Number of CVE→CWE links.
    pub vulnerability_weakness_links: usize,
}

impl CorpusStats {
    /// Total records across all families.
    #[must_use]
    pub fn total(&self) -> usize {
        self.patterns + self.weaknesses + self.vulnerabilities
    }
}

/// A record that names weaknesses: the source of the corpus's reverse
/// links.
trait Linked {
    /// The weaknesses this record lists.
    fn weakness_links(&self) -> &[CweId];
}

impl Linked for AttackPattern {
    fn weakness_links(&self) -> &[CweId] {
        self.related_weaknesses()
    }
}

impl Linked for Weakness {
    fn weakness_links(&self) -> &[CweId] {
        &[]
    }
}

impl Linked for Vulnerability {
    fn weakness_links(&self) -> &[CweId] {
        self.weaknesses()
    }
}

/// One segment of a family: its records by id, plus the reverse links of
/// those records, each weakness's list of the ids naming it, ascending.
/// It dereferences to its records.
#[derive(Clone)]
struct Segment<K, V> {
    records: BTreeMap<K, V>,
    links: BTreeMap<CweId, Vec<K>>,
}

impl<K: Ord + Copy, V: Linked> Segment<K, V> {
    fn of(id: K, record: V) -> Self {
        let mut segment = Segment {
            records: BTreeMap::new(),
            links: BTreeMap::new(),
        };
        segment.insert(id, record);
        segment
    }

    fn insert(&mut self, id: K, record: V) {
        for cwe in record.weakness_links() {
            let ids = self.links.entry(*cwe).or_default();
            // Kept sorted so the links are canonical regardless of
            // insertion order (important for interchange round-trips).
            ids.insert(ids.partition_point(|linked| *linked < id), id);
        }
        self.records.insert(id, record);
    }
}

impl<K, V> std::ops::Deref for Segment<K, V> {
    type Target = BTreeMap<K, V>;

    fn deref(&self) -> &BTreeMap<K, V> {
        &self.records
    }
}

/// One record family: append-only segments with disjoint ascending id
/// ranges (see the layout notes on [`Corpus`]). `starts[i]` is the lowest
/// id in `segments[i]`.
#[derive(Clone)]
struct Family<K, V> {
    segments: Vec<Arc<Segment<K, V>>>,
    starts: Vec<K>,
    len: usize,
}

impl<K, V> Default for Family<K, V> {
    fn default() -> Self {
        Family {
            segments: Vec::new(),
            starts: Vec::new(),
            len: 0,
        }
    }
}

impl<K: Ord + Copy, V: Clone + Linked> Family<K, V> {
    /// Index of the segment whose range covers `id`, if `id` is not below
    /// every segment.
    fn covering(&self, id: &K) -> Option<usize> {
        self.starts
            .partition_point(|start| start <= id)
            .checked_sub(1)
    }

    fn get(&self, id: &K) -> Option<&V> {
        self.segments[self.covering(id)?].get(id)
    }

    fn contains(&self, id: &K) -> bool {
        self.get(id).is_some()
    }

    /// Inserts a record whose id is not present yet.
    fn insert(&mut self, id: K, record: V) {
        self.len += 1;
        let Some(i) = self.covering(&id) else {
            // Below every id: the first segment now starts at `id`.
            match self.segments.first_mut() {
                Some(first) => {
                    Arc::make_mut(first).insert(id, record);
                    self.starts[0] = id;
                }
                None => self.open_segment(id, record),
            }
            return;
        };
        let is_tail = i + 1 == self.segments.len();
        let segment = &mut self.segments[i];
        if is_tail {
            if let Some(tail) = Arc::get_mut(segment) {
                tail.insert(id, record);
                return;
            }
            if segment.keys().next_back().is_some_and(|last| *last < id) {
                // Above a tail another generation shares: leave it as is.
                self.open_segment(id, record);
                return;
            }
        }
        Arc::make_mut(segment).insert(id, record);
    }

    /// A family of one segment built in bulk from `records`, which must
    /// strictly ascend by `id`: the map from the sorted run (its nodes
    /// come out full and back to back), and each weakness's list of the
    /// ids naming it from the `(weakness, id)` pairs sorted by weakness,
    /// which keeps each list ascending.
    fn from_ascending(
        family: &'static str,
        records: impl IntoIterator<Item = V>,
        id: impl Fn(&V) -> K,
    ) -> Result<Self, AttackDbError> {
        let records = records.into_iter();
        let mut sorted: Vec<(K, V)> = Vec::with_capacity(records.size_hint().0);
        let mut pairs: Vec<(CweId, K)> = Vec::new();
        for (index, record) in records.enumerate() {
            let key = id(&record);
            if sorted.last().is_some_and(|(last, _)| *last >= key) {
                return Err(AttackDbError::OutOfOrder { family, index });
            }
            pairs.extend(record.weakness_links().iter().map(|cwe| (*cwe, key)));
            sorted.push((key, record));
        }
        let Some(&(start, _)) = sorted.first() else {
            return Ok(Family::default());
        };
        // Stable, so the ids of one weakness stay in record order.
        pairs.sort_by_key(|&(cwe, _)| cwe);
        let mut links: Vec<(CweId, Vec<K>)> = Vec::new();
        for (cwe, key) in pairs {
            match links.last_mut() {
                Some((last, keys)) if *last == cwe => keys.push(key),
                _ => links.push((cwe, vec![key])),
            }
        }
        Ok(Family {
            len: sorted.len(),
            segments: vec![Arc::new(Segment {
                records: sorted.into_iter().collect(),
                links: links.into_iter().collect(),
            })],
            starts: vec![start],
        })
    }

    fn open_segment(&mut self, id: K, record: V) {
        self.segments.push(Arc::new(Segment::of(id, record)));
        self.starts.push(id);
    }

    /// The ids of the records listing `cwe`, ascending: each segment's
    /// links in segment order, which is id order because the segments'
    /// ranges are disjoint and ascending.
    fn linked_to(&self, cwe: CweId) -> Vec<K> {
        self.segments
            .iter()
            .filter_map(|segment| segment.links.get(&cwe))
            .flatten()
            .copied()
            .collect()
    }

    fn entries(&self) -> impl Iterator<Item = (&K, &V)> {
        self.segments.iter().flat_map(|segment| segment.iter())
    }

    fn values(&self) -> impl Iterator<Item = &V> {
        self.segments.iter().flat_map(|segment| segment.values())
    }

    fn last_id(&self) -> Option<K> {
        self.segments
            .last()
            .and_then(|segment| segment.keys().next_back())
            .copied()
    }

    /// The records in id order, moved out of every segment this family
    /// owns alone and cloned out of shared ones.
    fn into_values(self) -> Vec<V> {
        let mut out = Vec::with_capacity(self.len);
        for segment in self.segments {
            match Arc::try_unwrap(segment) {
                Ok(owned) => out.extend(owned.records.into_values()),
                Err(shared) => out.extend(shared.values().cloned()),
            }
        }
        out
    }
}

impl<K: Ord + Copy, V: Clone + Linked + PartialEq> PartialEq for Family<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.entries().eq(other.entries())
    }
}

impl<K: Ord + Copy + fmt::Debug, V: Clone + Linked + fmt::Debug> fmt::Debug for Family<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.entries()).finish()
    }
}

/// An attack vector corpus: patterns, weaknesses, and vulnerabilities with
/// their interconnections, as published by MITRE-style databases.
///
/// Records are immutable once inserted; the cross-reference index is kept
/// in sync on insert. Dangling cross-references are allowed at insert time
/// (MITRE feeds have them too) and can be audited with
/// [`Corpus::dangling_references`].
///
/// # Layout
///
/// Each family is a list of append-only *segments*, each an
/// `Arc<BTreeMap>`, with disjoint ascending id ranges: every id in a
/// segment is below the lowest id of the next one, and no segment is
/// empty. A lookup binary-searches the segments' lowest ids, then does
/// one `BTreeMap` search. `clone()` copies a few `Arc`s, so two
/// generations of a growing corpus share every base record. An insert
/// above the family's highest id goes into the last segment when this
/// corpus owns it alone, and opens a new segment when the last one is
/// shared; any other insert goes into the segment covering its id, which
/// is copied first only if shared. Each segment also keeps the reverse
/// links (weakness → the patterns or vulnerabilities naming it) of its
/// own records, so they are shared and copied with it, and a clone never
/// copies a whole-corpus map. Equality, iteration and every query are
/// logical — records in id order — whatever the segmentation.
///
/// # Examples
///
/// ```
/// use cpssec_attackdb::{Corpus, AttackPattern, Abstraction, CapecId, CweId, Weakness};
///
/// let mut corpus = Corpus::new();
/// corpus.add_weakness(Weakness::new(CweId::new(78), "OS Command Injection", "..."))?;
/// corpus.add_pattern(
///     AttackPattern::new(CapecId::new(88), "OS Command Injection", "...", Abstraction::Standard)
///         .with_weakness(CweId::new(78)),
/// )?;
/// assert_eq!(corpus.patterns_for_weakness(CweId::new(78)).len(), 1);
/// # Ok::<(), cpssec_attackdb::AttackDbError>(())
/// ```
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Corpus {
    patterns: Family<CapecId, AttackPattern>,
    weaknesses: Family<CweId, Weakness>,
    vulnerabilities: Family<CveId, Vulnerability>,
}

impl Corpus {
    /// Creates an empty corpus.
    #[must_use]
    pub fn new() -> Self {
        Corpus::default()
    }

    /// Builds a corpus in bulk from each family's records in strictly
    /// ascending id order, one segment per family: the same corpus the
    /// `add_*` calls would give, without searching the map per record.
    ///
    /// # Errors
    ///
    /// [`AttackDbError::OutOfOrder`] naming the first record (patterns,
    /// then weaknesses, then vulnerabilities) whose id is not above its
    /// predecessor's, a duplicate included.
    pub fn from_ascending(
        patterns: impl IntoIterator<Item = AttackPattern>,
        weaknesses: impl IntoIterator<Item = Weakness>,
        vulnerabilities: impl IntoIterator<Item = Vulnerability>,
    ) -> Result<Corpus, AttackDbError> {
        Ok(Corpus {
            patterns: Family::from_ascending("patterns", patterns, AttackPattern::id)?,
            weaknesses: Family::from_ascending("weaknesses", weaknesses, Weakness::id)?,
            vulnerabilities: Family::from_ascending(
                "vulnerabilities",
                vulnerabilities,
                Vulnerability::id,
            )?,
        })
    }

    /// Adds an attack pattern.
    ///
    /// # Errors
    ///
    /// [`AttackDbError::DuplicateRecord`] if the id is already present.
    pub fn add_pattern(&mut self, pattern: AttackPattern) -> Result<(), AttackDbError> {
        if self.patterns.contains(&pattern.id()) {
            return Err(AttackDbError::DuplicateRecord(pattern.id().into()));
        }
        self.patterns.insert(pattern.id(), pattern);
        Ok(())
    }

    /// Adds a weakness.
    ///
    /// # Errors
    ///
    /// [`AttackDbError::DuplicateRecord`] if the id is already present.
    pub fn add_weakness(&mut self, weakness: Weakness) -> Result<(), AttackDbError> {
        if self.weaknesses.contains(&weakness.id()) {
            return Err(AttackDbError::DuplicateRecord(weakness.id().into()));
        }
        self.weaknesses.insert(weakness.id(), weakness);
        Ok(())
    }

    /// Adds a vulnerability.
    ///
    /// # Errors
    ///
    /// [`AttackDbError::DuplicateRecord`] if the id is already present.
    pub fn add_vulnerability(&mut self, vuln: Vulnerability) -> Result<(), AttackDbError> {
        if self.vulnerabilities.contains(&vuln.id()) {
            return Err(AttackDbError::DuplicateRecord(vuln.id().into()));
        }
        self.vulnerabilities.insert(vuln.id(), vuln);
        Ok(())
    }

    /// Looks up an attack pattern.
    #[must_use]
    pub fn pattern(&self, id: CapecId) -> Option<&AttackPattern> {
        self.patterns.get(&id)
    }

    /// Looks up a weakness.
    #[must_use]
    pub fn weakness(&self, id: CweId) -> Option<&Weakness> {
        self.weaknesses.get(&id)
    }

    /// Looks up a vulnerability.
    #[must_use]
    pub fn vulnerability(&self, id: CveId) -> Option<&Vulnerability> {
        self.vulnerabilities.get(&id)
    }

    /// Whether the corpus contains the record.
    #[must_use]
    pub fn contains(&self, id: AttackVectorId) -> bool {
        match id {
            AttackVectorId::Pattern(p) => self.patterns.contains(&p),
            AttackVectorId::Weakness(w) => self.weaknesses.contains(&w),
            AttackVectorId::Vulnerability(v) => self.vulnerabilities.contains(&v),
        }
    }

    /// Iterates over all attack patterns in id order.
    pub fn patterns(&self) -> impl Iterator<Item = &AttackPattern> {
        self.patterns.values()
    }

    /// Iterates over all weaknesses in id order.
    pub fn weaknesses(&self) -> impl Iterator<Item = &Weakness> {
        self.weaknesses.values()
    }

    /// Iterates over all vulnerabilities in id order.
    pub fn vulnerabilities(&self) -> impl Iterator<Item = &Vulnerability> {
        self.vulnerabilities.values()
    }

    /// Patterns related to a weakness (CAPEC records listing this CWE).
    #[must_use]
    pub fn patterns_for_weakness(&self, cwe: CweId) -> Vec<CapecId> {
        self.patterns.linked_to(cwe)
    }

    /// Vulnerabilities mapped to a weakness (CVE records listing this CWE).
    #[must_use]
    pub fn vulnerabilities_for_weakness(&self, cwe: CweId) -> Vec<CveId> {
        self.vulnerabilities.linked_to(cwe)
    }

    /// Weaknesses a pattern exploits (the forward CAPEC→CWE link).
    #[must_use]
    pub fn weaknesses_for_pattern(&self, capec: CapecId) -> Vec<CweId> {
        self.patterns
            .get(&capec)
            .map(|p| p.related_weaknesses().to_vec())
            .unwrap_or_default()
    }

    /// Weaknesses underlying a vulnerability (the forward CVE→CWE link).
    #[must_use]
    pub fn weaknesses_for_vulnerability(&self, cve: CveId) -> Vec<CweId> {
        self.vulnerabilities
            .get(&cve)
            .map(|v| v.weaknesses().to_vec())
            .unwrap_or_default()
    }

    /// Patterns at a given abstraction level, in id order.
    #[must_use]
    pub fn patterns_at(&self, abstraction: Abstraction) -> Vec<CapecId> {
        self.patterns
            .values()
            .filter(|p| p.abstraction() == abstraction)
            .map(AttackPattern::id)
            .collect()
    }

    /// Vulnerabilities at or above a severity band, in id order.
    #[must_use]
    pub fn vulnerabilities_at_severity(&self, at_least: Severity) -> Vec<CveId> {
        self.vulnerabilities
            .values()
            .filter(|v| v.severity().is_some_and(|s| s >= at_least))
            .map(Vulnerability::id)
            .collect()
    }

    /// Cross-references whose target record is missing from the corpus.
    #[must_use]
    pub fn dangling_references(&self) -> Vec<AttackDbError> {
        let mut out = Vec::new();
        for p in self.patterns.values() {
            for cwe in p.related_weaknesses() {
                if !self.weaknesses.contains(cwe) {
                    out.push(AttackDbError::DanglingReference {
                        from: p.id().into(),
                        to: (*cwe).into(),
                    });
                }
            }
        }
        for v in self.vulnerabilities.values() {
            for cwe in v.weaknesses() {
                if !self.weaknesses.contains(cwe) {
                    out.push(AttackDbError::DanglingReference {
                        from: v.id().into(),
                        to: (*cwe).into(),
                    });
                }
            }
        }
        out
    }

    /// The highest pattern id present, if any — the append-only floor a
    /// delta batch must clear for incremental indexing to stay equivalent
    /// to a rebuild (both walk records in id order).
    #[must_use]
    pub fn last_pattern_id(&self) -> Option<CapecId> {
        self.patterns.last_id()
    }

    /// The highest weakness id present, if any (see [`Self::last_pattern_id`]).
    #[must_use]
    pub fn last_weakness_id(&self) -> Option<CweId> {
        self.weaknesses.last_id()
    }

    /// The highest vulnerability id present, if any (see
    /// [`Self::last_pattern_id`]).
    #[must_use]
    pub fn last_vulnerability_id(&self) -> Option<CveId> {
        self.vulnerabilities.last_id()
    }

    /// Merges another corpus into this one.
    ///
    /// # Errors
    ///
    /// [`AttackDbError::DuplicateRecord`] on the first id collision; records
    /// inserted before the collision remain.
    pub fn merge(&mut self, other: Corpus) -> Result<(), AttackDbError> {
        let (patterns, weaknesses, vulnerabilities) = other.into_records();
        for p in patterns {
            self.add_pattern(p)?;
        }
        for w in weaknesses {
            self.add_weakness(w)?;
        }
        for v in vulnerabilities {
            self.add_vulnerability(v)?;
        }
        Ok(())
    }

    /// Number of records across all three families, without walking them
    /// (equals `stats().total()`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.patterns.len + self.weaknesses.len + self.vulnerabilities.len
    }

    /// Whether the corpus holds no records.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consumes the corpus and yields its patterns, weaknesses and
    /// vulnerabilities, each in id order. Records of segments this corpus
    /// owns alone are moved, not cloned.
    #[must_use]
    pub fn into_records(self) -> (Vec<AttackPattern>, Vec<Weakness>, Vec<Vulnerability>) {
        (
            self.patterns.into_values(),
            self.weaknesses.into_values(),
            self.vulnerabilities.into_values(),
        )
    }

    /// Computes summary statistics.
    #[must_use]
    pub fn stats(&self) -> CorpusStats {
        CorpusStats {
            patterns: self.patterns.len,
            weaknesses: self.weaknesses.len,
            vulnerabilities: self.vulnerabilities.len,
            pattern_weakness_links: self
                .patterns
                .values()
                .map(|p| p.related_weaknesses().len())
                .sum(),
            vulnerability_weakness_links: self
                .vulnerabilities
                .values()
                .map(|v| v.weaknesses().len())
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Abstraction;

    fn small() -> Corpus {
        let mut c = Corpus::new();
        c.add_weakness(Weakness::new(
            CweId::new(78),
            "OS Command Injection",
            "shell injection",
        ))
        .unwrap();
        c.add_weakness(Weakness::new(
            CweId::new(20),
            "Improper Input Validation",
            "no checks",
        ))
        .unwrap();
        c.add_pattern(
            AttackPattern::new(
                CapecId::new(88),
                "OS Command Injection",
                "inject",
                Abstraction::Standard,
            )
            .with_weakness(CweId::new(78))
            .with_weakness(CweId::new(20)),
        )
        .unwrap();
        c.add_vulnerability(
            Vulnerability::new(CveId::new(2018, 101), "asa rce")
                .with_weakness(CweId::new(78))
                .with_cvss(
                    "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"
                        .parse()
                        .unwrap(),
                ),
        )
        .unwrap();
        c
    }

    #[test]
    fn duplicate_ids_are_rejected_per_family() {
        let mut c = small();
        assert!(matches!(
            c.add_weakness(Weakness::new(CweId::new(78), "again", "x")),
            Err(AttackDbError::DuplicateRecord(_))
        ));
        assert!(matches!(
            c.add_pattern(AttackPattern::new(
                CapecId::new(88),
                "again",
                "x",
                Abstraction::Meta
            )),
            Err(AttackDbError::DuplicateRecord(_))
        ));
        assert!(matches!(
            c.add_vulnerability(Vulnerability::new(CveId::new(2018, 101), "again")),
            Err(AttackDbError::DuplicateRecord(_))
        ));
    }

    #[test]
    fn reverse_links_are_maintained() {
        let c = small();
        assert_eq!(
            c.patterns_for_weakness(CweId::new(78)),
            vec![CapecId::new(88)]
        );
        assert_eq!(
            c.patterns_for_weakness(CweId::new(20)),
            vec![CapecId::new(88)]
        );
        assert_eq!(
            c.vulnerabilities_for_weakness(CweId::new(78)),
            vec![CveId::new(2018, 101)]
        );
        assert!(c.vulnerabilities_for_weakness(CweId::new(20)).is_empty());
    }

    #[test]
    fn forward_links_read_from_records() {
        let c = small();
        assert_eq!(
            c.weaknesses_for_pattern(CapecId::new(88)),
            vec![CweId::new(78), CweId::new(20)]
        );
        assert_eq!(
            c.weaknesses_for_vulnerability(CveId::new(2018, 101)),
            vec![CweId::new(78)]
        );
        assert!(c.weaknesses_for_pattern(CapecId::new(999)).is_empty());
    }

    #[test]
    fn stats_count_links() {
        let s = small().stats();
        assert_eq!(s.patterns, 1);
        assert_eq!(s.weaknesses, 2);
        assert_eq!(s.vulnerabilities, 1);
        assert_eq!(s.pattern_weakness_links, 2);
        assert_eq!(s.vulnerability_weakness_links, 1);
        assert_eq!(s.total(), 4);
    }

    #[test]
    fn dangling_references_are_reported_not_rejected() {
        let mut c = Corpus::new();
        c.add_pattern(
            AttackPattern::new(CapecId::new(1), "p", "d", Abstraction::Meta)
                .with_weakness(CweId::new(999)),
        )
        .unwrap();
        let dangling = c.dangling_references();
        assert_eq!(dangling.len(), 1);
        assert!(matches!(
            &dangling[0],
            AttackDbError::DanglingReference { .. }
        ));
        assert!(small().dangling_references().is_empty());
    }

    #[test]
    fn severity_filter_uses_cvss() {
        let c = small();
        assert_eq!(c.vulnerabilities_at_severity(Severity::Critical).len(), 1);
        assert_eq!(c.vulnerabilities_at_severity(Severity::Low).len(), 1);
    }

    #[test]
    fn abstraction_filter() {
        let c = small();
        assert_eq!(c.patterns_at(Abstraction::Standard).len(), 1);
        assert!(c.patterns_at(Abstraction::Meta).is_empty());
    }

    #[test]
    fn merge_combines_and_rejects_collisions() {
        let mut a = Corpus::new();
        a.add_weakness(Weakness::new(CweId::new(1), "w1", "d"))
            .unwrap();
        let mut b = Corpus::new();
        b.add_weakness(Weakness::new(CweId::new(2), "w2", "d"))
            .unwrap();
        a.merge(b).unwrap();
        assert_eq!(a.stats().weaknesses, 2);

        let mut c = Corpus::new();
        c.add_weakness(Weakness::new(CweId::new(1), "w1 again", "d"))
            .unwrap();
        assert!(a.merge(c).is_err());
    }

    #[test]
    fn contains_discriminates_families() {
        let c = small();
        assert!(c.contains(CweId::new(78).into()));
        assert!(c.contains(CapecId::new(88).into()));
        assert!(c.contains(CveId::new(2018, 101).into()));
        assert!(!c.contains(CweId::new(1234).into()));
    }

    impl<K: Ord + Copy + fmt::Debug, V: Clone> Family<K, V> {
        /// Asserts the segment invariant: one start per segment, no empty
        /// segment, each start the segment's lowest id, ranges disjoint
        /// and ascending, and `len` the sum of the segment lengths.
        fn assert_segmented(&self) {
            assert_eq!(self.starts.len(), self.segments.len());
            let mut previous_last = None;
            for (start, segment) in self.starts.iter().zip(&self.segments) {
                let first = segment.keys().next().expect("no empty segment");
                assert_eq!(first, start, "start is the segment's lowest id");
                if let Some(previous) = previous_last {
                    assert!(previous < start, "segments overlap");
                }
                previous_last = segment.keys().next_back();
            }
            let total: usize = self.segments.iter().map(|s| s.len()).sum();
            assert_eq!(total, self.len);
        }
    }

    fn pattern(id: u32) -> AttackPattern {
        AttackPattern::new(CapecId::new(id), "p", "d", Abstraction::Meta)
            .with_weakness(CweId::new(id % 3))
    }

    fn vulnerability(id: u32) -> Vulnerability {
        Vulnerability::new(CveId::new(2020, id), "v").with_weakness(CweId::new(id % 3))
    }

    fn base(ids: std::ops::Range<u32>) -> Corpus {
        let mut c = Corpus::new();
        for id in ids {
            c.add_pattern(pattern(id)).unwrap();
            c.add_weakness(Weakness::new(CweId::new(id), "w", "d"))
                .unwrap();
            c.add_vulnerability(vulnerability(id)).unwrap();
        }
        c
    }

    #[test]
    fn an_unshared_corpus_stays_one_segment_per_family() {
        let mut c = base(10..20);
        // Out of order on an unshared corpus: below, inside, above.
        c.add_pattern(pattern(3)).unwrap();
        c.add_pattern(pattern(25)).unwrap();
        c.add_pattern(pattern(22)).unwrap();
        assert_eq!(c.patterns.segments.len(), 1);
        assert_eq!(c.weaknesses.segments.len(), 1);
        c.patterns.assert_segmented();
        let ids: Vec<u32> = c.patterns().map(|p| p.id().number()).collect();
        assert_eq!(ids[..2], [3, 10]);
        assert_eq!(ids[ids.len() - 2..], [22, 25]);
    }

    #[test]
    fn appending_to_a_clone_opens_a_segment_and_shares_the_base() {
        let original = base(1..50);
        let mut grown = original.clone();
        for id in 50..60 {
            grown.add_pattern(pattern(id)).unwrap();
            grown.add_vulnerability(vulnerability(id)).unwrap();
        }
        // One new segment per family for the whole batch; untouched
        // families keep theirs.
        assert_eq!(grown.patterns.segments.len(), 2);
        assert_eq!(grown.vulnerabilities.segments.len(), 2);
        assert_eq!(grown.weaknesses.segments.len(), 1);
        grown.patterns.assert_segmented();

        // The original generation is unchanged.
        assert_eq!(original, base(1..50));
        assert_eq!(original.len(), 3 * 49);
        assert_eq!(original.last_pattern_id(), Some(CapecId::new(49)));
        assert!(original.pattern(CapecId::new(55)).is_none());
        assert!(!original.contains(CveId::new(2020, 55).into()));
        assert!(!original
            .patterns_for_weakness(CweId::new(1))
            .contains(&CapecId::new(55)));

        // The grown generation sees both, and shares the base records.
        assert_eq!(grown.len(), 3 * 49 + 20);
        assert_eq!(grown.last_pattern_id(), Some(CapecId::new(59)));
        assert!(grown
            .patterns_for_weakness(CweId::new(1))
            .contains(&CapecId::new(55)));
        let id = CapecId::new(7);
        assert!(std::ptr::eq(
            original.pattern(id).unwrap(),
            grown.pattern(id).unwrap()
        ));
        let cve = CveId::new(2020, 31);
        assert!(std::ptr::eq(
            original.vulnerability(cve).unwrap(),
            grown.vulnerability(cve).unwrap()
        ));

        // Equality is logical, not per segment.
        assert_eq!(grown, with_batch(base(1..50), 50..60));
    }

    #[test]
    fn an_out_of_order_insert_copies_only_a_shared_segment() {
        let original = base(10..20);
        let mut grown = original.clone();
        grown.add_pattern(pattern(30)).unwrap();
        grown.add_pattern(pattern(5)).unwrap();
        grown.add_pattern(pattern(15_000)).unwrap();
        grown.patterns.assert_segmented();
        assert_eq!(original, base(10..20));
        assert!(original.pattern(CapecId::new(5)).is_none());
        assert_eq!(grown.patterns().count(), 13);
        assert_eq!(grown.pattern(CapecId::new(5)), Some(&pattern(5)));
    }

    #[test]
    fn into_records_moves_every_family_out_in_id_order() {
        let mut c = base(20..30);
        c.add_pattern(pattern(2)).unwrap();
        let held = c.clone();
        c.add_pattern(pattern(40)).unwrap();
        let (patterns, weaknesses, vulnerabilities) = c.into_records();
        let ids: Vec<u32> = patterns.iter().map(|p| p.id().number()).collect();
        assert_eq!(ids.len(), 12);
        assert_eq!((ids[0], ids[11]), (2, 40));
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(weaknesses.len(), 10);
        assert_eq!(vulnerabilities.len(), 10);
        assert_eq!(held.len(), 31);
    }

    fn with_batch(mut c: Corpus, ids: std::ops::Range<u32>) -> Corpus {
        for id in ids {
            c.add_pattern(pattern(id)).unwrap();
            c.add_vulnerability(vulnerability(id)).unwrap();
        }
        c
    }

    /// Inserts `record` unless `id` is taken; whether it was inserted.
    fn insert_new<K: Ord, V: Clone>(map: &mut BTreeMap<K, V>, id: K, record: &V) -> bool {
        let fresh = !map.contains_key(&id);
        map.entry(id).or_insert_with(|| record.clone());
        fresh
    }

    /// The reference model: one plain map per family.
    #[derive(Clone, Default)]
    struct Model {
        patterns: BTreeMap<CapecId, AttackPattern>,
        weaknesses: BTreeMap<CweId, Weakness>,
        vulnerabilities: BTreeMap<CveId, Vulnerability>,
    }

    impl Model {
        fn insert(&mut self, corpus: &mut Corpus, family: u8, id: u32, link: u32) {
            let cwe = CweId::new(link);
            let result = match family {
                0 => {
                    let p = AttackPattern::new(CapecId::new(id), "p", "d", Abstraction::Detailed)
                        .with_weakness(cwe);
                    (
                        insert_new(&mut self.patterns, p.id(), &p),
                        corpus.add_pattern(p),
                    )
                }
                1 => {
                    let w = Weakness::new(CweId::new(id), "w", "d");
                    (
                        insert_new(&mut self.weaknesses, w.id(), &w),
                        corpus.add_weakness(w),
                    )
                }
                _ => {
                    let v = Vulnerability::new(CveId::new(2021, id), "v").with_weakness(cwe);
                    let fresh = insert_new(&mut self.vulnerabilities, v.id(), &v);
                    (fresh, corpus.add_vulnerability(v))
                }
            };
            match result {
                (true, Ok(())) | (false, Err(AttackDbError::DuplicateRecord(_))) => {}
                (fresh, got) => panic!("fresh={fresh} but insert returned {got:?}"),
            }
        }

        /// The highest id number in `family`, or 0.
        fn last(&self, family: u8) -> u32 {
            let last = match family {
                0 => self.patterns.keys().next_back().map(|id| id.number()),
                1 => self.weaknesses.keys().next_back().map(|id| id.number()),
                _ => self
                    .vulnerabilities
                    .keys()
                    .next_back()
                    .map(|id| id.number()),
            };
            last.unwrap_or(0)
        }

        /// Rebuilds a corpus from the model in descending id order, so
        /// every insert lands below the first segment.
        fn rebuild_descending(&self) -> Corpus {
            let mut c = Corpus::new();
            for p in self.patterns.values().rev() {
                c.add_pattern(p.clone()).unwrap();
            }
            for w in self.weaknesses.values().rev() {
                c.add_weakness(w.clone()).unwrap();
            }
            for v in self.vulnerabilities.values().rev() {
                c.add_vulnerability(v.clone()).unwrap();
            }
            c
        }

        fn assert_agrees(&self, c: &Corpus) {
            c.patterns.assert_segmented();
            c.weaknesses.assert_segmented();
            c.vulnerabilities.assert_segmented();
            assert!(c.patterns().eq(self.patterns.values()));
            assert!(c.weaknesses().eq(self.weaknesses.values()));
            assert!(c.vulnerabilities().eq(self.vulnerabilities.values()));
            let top = (0..3).map(|family| self.last(family)).max().unwrap_or(0);
            for n in 0..=top + 2 {
                let (p, w, v) = (CapecId::new(n), CweId::new(n), CveId::new(2021, n));
                assert_eq!(c.pattern(p), self.patterns.get(&p));
                assert_eq!(c.weakness(w), self.weaknesses.get(&w));
                assert_eq!(c.vulnerability(v), self.vulnerabilities.get(&v));
                assert_eq!(c.contains(p.into()), self.patterns.contains_key(&p));
                assert_eq!(c.contains(w.into()), self.weaknesses.contains_key(&w));
                assert_eq!(c.contains(v.into()), self.vulnerabilities.contains_key(&v));
            }
            for link in 0..LINKS {
                let cwe = CweId::new(link);
                let patterns: Vec<CapecId> = self
                    .patterns
                    .values()
                    .filter(|p| p.related_weaknesses().contains(&cwe))
                    .map(AttackPattern::id)
                    .collect();
                let vulns: Vec<CveId> = self
                    .vulnerabilities
                    .values()
                    .filter(|v| v.weaknesses().contains(&cwe))
                    .map(Vulnerability::id)
                    .collect();
                assert_eq!(c.patterns_for_weakness(cwe), patterns);
                assert_eq!(c.vulnerabilities_for_weakness(cwe), vulns);
            }
            assert_eq!(
                c.last_pattern_id(),
                self.patterns.keys().next_back().copied()
            );
            assert_eq!(
                c.last_weakness_id(),
                self.weaknesses.keys().next_back().copied()
            );
            assert_eq!(
                c.last_vulnerability_id(),
                self.vulnerabilities.keys().next_back().copied()
            );
            let stats = c.stats();
            assert_eq!(
                stats,
                CorpusStats {
                    patterns: self.patterns.len(),
                    weaknesses: self.weaknesses.len(),
                    vulnerabilities: self.vulnerabilities.len(),
                    pattern_weakness_links: self.patterns.len(),
                    vulnerability_weakness_links: self.vulnerabilities.len(),
                }
            );
            assert_eq!(c.len(), stats.total());
            assert_eq!(c.is_empty(), stats.total() == 0);
            assert_eq!(*c, self.rebuild_descending());
        }
    }

    /// Out-of-order ids are drawn below this; appends go above the floor.
    const ID_SPACE: u32 = 48;
    /// Weakness ids the generated records link to.
    const LINKS: u32 = 4;

    proptest::proptest! {
        #[test]
        fn segmented_corpus_agrees_with_a_plain_map_model(
            ops in proptest::collection::vec((0u8..8, 0u8..3, 0u32..ID_SPACE, 0u32..LINKS), 1..60)
        ) {
            let mut corpus = Corpus::new();
            let mut model = Model::default();
            let mut held: Vec<(Corpus, Model)> = Vec::new();
            for (op, family, id, link) in ops {
                match op {
                    // Hold the current generation; later inserts must not
                    // reach it.
                    0 => held.push((corpus.clone(), model.clone())),
                    // Release every held generation: the corpus is
                    // unshared again.
                    1 => held.clear(),
                    // Append above the family's floor.
                    2..=4 => {
                        let above = model.last(family).max(ID_SPACE) + 1 + id % 3;
                        model.insert(&mut corpus, family, above, link);
                    }
                    // Insert anywhere, duplicates included.
                    _ => model.insert(&mut corpus, family, id, link),
                }
            }
            model.assert_agrees(&corpus);
            for (generation, generation_model) in &held {
                generation_model.assert_agrees(generation);
            }
            // The bulk build over the same records is the same corpus,
            // one segment per non-empty family.
            let bulk = Corpus::from_ascending(
                model.patterns.values().cloned(),
                model.weaknesses.values().cloned(),
                model.vulnerabilities.values().cloned(),
            )
            .unwrap();
            model.assert_agrees(&bulk);
            proptest::prop_assert!(bulk.patterns.segments.len() <= 1);
            proptest::prop_assert!(bulk.vulnerabilities.segments.len() <= 1);
        }
    }

    #[test]
    fn a_bulk_build_refuses_a_run_that_does_not_ascend() {
        let c = base(1..6);
        let (patterns, weaknesses, mut vulnerabilities) = c.clone().into_records();
        assert_eq!(
            Corpus::from_ascending(
                patterns.clone(),
                weaknesses.clone(),
                vulnerabilities.clone()
            ),
            Ok(c)
        );
        vulnerabilities.swap(2, 3);
        let err = Corpus::from_ascending(patterns.clone(), weaknesses.clone(), vulnerabilities)
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "`vulnerabilities` record 3 is not in id order"
        );
        let mut doubled = weaknesses.clone();
        doubled.insert(1, weaknesses[1].clone());
        let err = Corpus::from_ascending(patterns, doubled, []).unwrap_err();
        assert_eq!(
            err,
            AttackDbError::OutOfOrder {
                family: "weaknesses",
                index: 2
            }
        );
        assert_eq!(Corpus::from_ascending([], [], []), Ok(Corpus::new()));
    }
}
