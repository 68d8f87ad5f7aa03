//! Tokenization, stopwords, and a light stemmer.
//!
//! The paper's prototype relates attack vectors to the model "through
//! natural language processing"; the pipeline here is the classic
//! lowercase → split → stopword → stem sequence. The stemmer is a
//! deliberately small suffix-stripper (a "Porter-lite"): it only needs to
//! conflate the inflections that occur in security prose (plurals,
//! -ing/-ed forms), and it must behave identically on documents and
//! queries, which a fixed rule list guarantees.

/// Words carrying no matching signal in security prose.
pub const STOPWORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "can", "could", "do", "does", "for",
    "from", "had", "has", "have", "if", "in", "into", "is", "it", "its", "may", "more", "most",
    "no", "not", "of", "on", "or", "over", "such", "that", "the", "their", "then", "there",
    "these", "this", "through", "to", "via", "was", "were", "when", "which", "while", "with",
    "within", "without",
];

/// Returns `true` if `word` is a stopword.
///
/// # Examples
///
/// ```
/// assert!(cpssec_search::text::is_stopword("the"));
/// assert!(!cpssec_search::text::is_stopword("linux"));
/// ```
#[must_use]
pub fn is_stopword(word: &str) -> bool {
    STOPWORDS.binary_search(&word).is_ok()
}

/// Applies the light stemming rules to a lowercase word.
///
/// One pass applies the first matching rule: `-ies` → `-y`, `-sses` →
/// `-ss`, `-ing` dropped from words of length ≥ 6, `-ed` dropped from
/// words of length ≥ 5, final `-s` dropped from words of length ≥ 4 unless
/// they end in `-ss` or `-us`, final `-e` dropped from words of length ≥ 5,
/// and a final doubled consonant (other than `-ss`/`-zz`) undoubled in
/// words of length ≥ 4. Passes repeat until a fixed point, so every
/// inflection of a verb lands on one stem and stemming is idempotent by
/// construction: `parse`/`parses`/`parsed`/`parsing` → `par`,
/// `route`/`routes`/`routed`/`routing` → `rout`, `embeds`/`embedded` →
/// `embed`. (The final-`e` and undoubling rules exist exactly for this
/// conflation — `-s` keeps a base-form `e` that `-ing`/`-ed` stripping
/// never saw, and `-ed`/`-ing` leave a doubled consonant the base form
/// never had. The stems are not always pretty; what retrieval needs is
/// that documents and queries agree on them, which running the identical
/// fixed-point rules on both sides guarantees.)
///
/// # Examples
///
/// ```
/// use cpssec_search::text::stem;
/// assert_eq!(stem("vulnerabilities"), "vulnerability");
/// assert_eq!(stem("windows"), "window");
/// assert_eq!(stem("access"), "access");
/// assert_eq!(stem("routing"), stem("routes"));
/// assert_eq!(stem("parsing"), stem("parses"));
/// ```
#[must_use]
pub fn stem(word: &str) -> String {
    let mut current = word.to_owned();
    loop {
        let next = stem_once(&current);
        if next == current {
            return current;
        }
        current = next;
    }
}

/// One rule pass of [`stem`]; first matching rule wins.
fn stem_once(word: &str) -> String {
    if let Some(base) = word.strip_suffix("ies") {
        if !base.is_empty() {
            return format!("{base}y");
        }
    }
    if word.ends_with("sses") {
        return word[..word.len() - 2].to_owned();
    }
    if word.len() >= 6 {
        if let Some(base) = word.strip_suffix("ing") {
            return base.to_owned();
        }
    }
    if word.len() >= 5 {
        if let Some(base) = word.strip_suffix("ed") {
            return base.to_owned();
        }
    }
    // The plural rule needs a real stem left over: "commands" → "command",
    // but "os"/"dos"/"gas" are not plurals and must survive intact.
    if word.ends_with('s') && !word.ends_with("ss") && !word.ends_with("us") && word.len() >= 4 {
        return word[..word.len() - 1].to_owned();
    }
    // Drop a base-form final "e" so "parse"/"parses" meet "parsing"/"parsed"
    // at the same stem ("pars").
    if word.len() >= 5 && word.ends_with('e') {
        return word[..word.len() - 1].to_owned();
    }
    // Undouble a trailing consonant so "embedded" meets "embeds" at "embed".
    // Applied to base forms too ("install" → "instal") — consistency across
    // inflections is what matters for retrieval, not pretty stems.
    let bytes = word.as_bytes();
    if word.len() >= 4
        && bytes[word.len() - 1] == bytes[word.len() - 2]
        && bytes[word.len() - 1].is_ascii_alphabetic()
        && !matches!(
            bytes[word.len() - 1],
            b'a' | b'e' | b'i' | b'o' | b'u' | b's' | b'z'
        )
    {
        return word[..word.len() - 1].to_owned();
    }
    word.to_owned()
}

/// Tokenizes text into normalized terms: lowercase, alphanumeric runs,
/// stopwords removed, stemmed. Single characters are kept only if they are
/// digits (so "Windows 7" keeps its "7"). This is [`for_each_word`]
/// composed with [`normalize_word`].
///
/// # Examples
///
/// ```
/// use cpssec_search::text::tokenize;
/// assert_eq!(tokenize("The SMBv1 server in Windows 7"), ["smbv1", "server", "window", "7"]);
/// ```
#[must_use]
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    for_each_word(text, |raw| tokens.extend(normalize_word(raw)));
    tokens
}

/// Calls `f` on each maximal run of [`char::is_alphanumeric`] characters
/// in `text`, in order, borrowed from `text` — the raw words before any
/// normalization.
pub(crate) fn for_each_word<'a>(text: &'a str, mut f: impl FnMut(&'a str)) {
    let mut start = None;
    for (i, ch) in text.char_indices() {
        if ch.is_alphanumeric() {
            start.get_or_insert(i);
        } else if let Some(s) = start.take() {
            f(&text[s..i]);
        }
    }
    if let Some(s) = start {
        f(&text[s..]);
    }
}

/// Normalizes one raw word from [`for_each_word`] into its term, or `None`
/// if the word is dropped. Lowercasing is per `char` (not
/// [`str::to_lowercase`], whose word-final `Σ` rule depends on context),
/// so a word's term depends on the word alone — which is what lets the
/// index build memoize it.
pub(crate) fn normalize_word(raw: &str) -> Option<String> {
    let lower: String = raw.chars().flat_map(char::to_lowercase).collect();
    if is_stopword(&lower) {
        return None;
    }
    let stemmed = stem(&lower);
    // Both drop checks must run on the *stemmed* form too, or a token would
    // survive one pass of tokenization but not two ("中s" → "中" for the
    // single-character check, "cans" → "can" for the stopword check) —
    // breaking tokenize(tokenize(..)) == tokenize(..).
    if is_stopword(&stemmed) {
        return None;
    }
    if stemmed.chars().count() == 1 && !stemmed.chars().next().expect("nonempty").is_ascii_digit() {
        return None;
    }
    Some(stemmed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopword_list_is_sorted_for_binary_search() {
        let mut sorted = STOPWORDS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, STOPWORDS);
    }

    #[test]
    fn tokenize_lowercases_and_splits_on_punctuation() {
        // "adaptive"/"appliance" lose their base-form "e" so that their
        // "-ed"/"-ing" inflections land on the same stem.
        assert_eq!(
            tokenize("Cisco Adaptive-Security Appliance (ASA)"),
            ["cisco", "adaptiv", "security", "applianc", "asa"]
        );
    }

    #[test]
    fn digits_are_kept_even_single() {
        assert_eq!(tokenize("Windows 7"), ["window", "7"]);
        assert_eq!(tokenize("cRIO 9063"), ["crio", "9063"]);
    }

    #[test]
    fn single_letters_are_dropped() {
        assert_eq!(tokenize("a b c linux"), ["linux"]);
    }

    #[test]
    fn stopwords_are_dropped() {
        assert_eq!(
            tokenize("the injection of commands"),
            ["injection", "command"]
        );
    }

    #[test]
    fn stemming_conflates_inflections() {
        assert_eq!(stem("attacks"), "attack");
        assert_eq!(stem("parsing"), "par");
        assert_eq!(stem("parses"), "par");
        assert_eq!(stem("crafted"), "craft");
        assert_eq!(stem("classes"), "class");
        assert_eq!(stem("status"), "status");
        assert_eq!(stem("bus"), "bus"); // -us guard prevents over-stemming
    }

    #[test]
    fn all_inflections_of_a_verb_share_one_stem() {
        // The conflation bug this guards against: "-s" keeps a base-form
        // "e" ("parses" → "parse") that "-ing"/"-ed" stripping never saw
        // ("parsing" → "pars"), so a model attribute saying "routing"
        // missed records saying "routes".
        for family in [
            ["parse", "parses", "parsed", "parsing"],
            ["route", "routes", "routed", "routing"],
            ["execute", "executes", "executed", "executing"],
            ["service", "services", "serviced", "servicing"],
            ["attack", "attacks", "attacked", "attacking"],
            ["exploit", "exploits", "exploited", "exploiting"],
            ["craft", "crafts", "crafted", "crafting"],
        ] {
            let stems: Vec<String> = family.iter().map(|w| stem(w)).collect();
            assert!(
                stems.windows(2).all(|w| w[0] == w[1]),
                "{family:?} → {stems:?}"
            );
        }
        // Doubled-consonant forms conflate too.
        assert_eq!(stem("embeds"), stem("embedded"));
        assert_eq!(stem("logs"), stem("logging"));
    }

    #[test]
    fn stemming_is_idempotent_on_query_and_doc() {
        for word in [
            "overflows",
            "services",
            "vulnerabilities",
            "windows",
            "parses",
            "routing",
            "embedded",
            "executes",
        ] {
            let doc = stem(word);
            // A query containing the already-stemmed form still matches.
            assert_eq!(stem(&doc), doc);
        }
    }

    #[test]
    fn query_and_document_normalize_identically() {
        let doc = tokenize("Buffer overflows in parsing routines");
        let query = tokenize("buffer overflow parsing routine");
        assert_eq!(doc, query);
    }

    #[test]
    fn unicode_is_tolerated() {
        assert_eq!(tokenize("Überflow café"), ["überflow", "café"]);
    }

    #[test]
    fn lowercasing_is_per_char_and_drops_apply_after_stemming() {
        // Per-char lowercasing: a word-final `Σ` becomes `σ`, never the
        // context-dependent `ς` of `str::to_lowercase`.
        assert_eq!(tokenize("ΟΔΟΣ οδοσ"), ["οδοσ", "οδοσ"]);
        // `İ` lowercases to `i` plus a combining dot that stays in the
        // term even though it is not alphanumeric itself.
        assert_eq!(tokenize("İnject"), ["i\u{307}nject"]);
        assert_eq!(tokenize("Straße 7"), ["straß", "7"]);
        // "cans" stems into a stopword and "中s" into a single letter (the
        // plural rule counts bytes); "Bs" is too short to stem at all.
        assert!(tokenize("Cans 中s THE").is_empty());
        assert_eq!(tokenize("Bs"), ["bs"]);
        assert_eq!(normalize_word("Kernels"), Some("kernel".to_owned()));
        assert_eq!(normalize_word("cans"), None);
    }

    #[test]
    fn empty_and_symbol_only_input() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("!!! ---").is_empty());
    }
}
