//! Text normalization and tokenization.
//!
//! All string similarity functions in [`crate::similarity`] operate either on raw
//! character sequences or on token multisets produced by the tokenizers here. The
//! normalization mirrors what ER systems typically do before matching: lowercase,
//! strip punctuation, collapse whitespace.

/// Lowercases, maps punctuation to spaces and collapses repeated whitespace.
pub fn normalize(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    let mut last_was_space = true;
    for ch in input.chars() {
        if ch.is_ascii_alphanumeric() {
            out.push(ch.to_ascii_lowercase());
            last_was_space = false;
        } else if ch.is_alphanumeric() {
            // Full Unicode lowercasing: "É" and "é" must tokenize alike.
            out.extend(ch.to_lowercase());
            last_was_space = false;
        } else if !last_was_space {
            out.push(' ');
            last_was_space = true;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out
}

/// Splits normalized text into lowercase word tokens.
pub fn word_tokens(input: &str) -> Vec<String> {
    normalize(input).split_whitespace().map(|s| s.to_string()).collect()
}

/// Produces the multiset of character q-grams of the normalized input.
///
/// The input is padded with `q - 1` leading and trailing `#`/`$` markers, the
/// standard trick that lets q-gram similarity capture prefix/suffix agreement.
/// Returns an empty vector when `q == 0` or the normalized input is empty.
pub fn qgrams(input: &str, q: usize) -> Vec<String> {
    if q == 0 {
        return Vec::new();
    }
    let normalized = normalize(input);
    if normalized.is_empty() {
        return Vec::new();
    }
    let mut padded: Vec<char> = Vec::with_capacity(normalized.len() + 2 * (q - 1));
    padded.extend(std::iter::repeat_n('#', q - 1));
    padded.extend(normalized.chars());
    padded.extend(std::iter::repeat_n('$', q - 1));
    if padded.len() < q {
        return vec![padded.iter().collect()];
    }
    padded.windows(q).map(|w| w.iter().collect()).collect()
}

/// A tokenization strategy, used by token-based similarity functions and blockers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tokenizer {
    /// Whitespace-delimited word tokens of the normalized text.
    Words,
    /// Character q-grams of the given width.
    QGrams(usize),
}

impl Tokenizer {
    /// Tokenizes the input according to the strategy.
    pub fn tokenize(&self, input: &str) -> Vec<String> {
        match self {
            Tokenizer::Words => word_tokens(input),
            Tokenizer::QGrams(q) => qgrams(input, *q),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_lowercases_and_strips_punctuation() {
        assert_eq!(normalize("Entity-Resolution:  A Survey!"), "entity resolution a survey");
        assert_eq!(normalize("  "), "");
        assert_eq!(normalize("ABC123"), "abc123");
    }

    #[test]
    fn normalize_lowercases_beyond_ascii() {
        assert_eq!(normalize("Élan ÜBER Straße"), "élan über straße");
        assert_eq!(word_tokens("Élan"), word_tokens("élan"));
        assert_eq!(qgrams("ÀB", 2), qgrams("àb", 2));
    }

    #[test]
    fn word_tokens_splits_on_whitespace() {
        assert_eq!(word_tokens("Data, Matching & Linkage"), vec!["data", "matching", "linkage"]);
        assert!(word_tokens("").is_empty());
    }

    #[test]
    fn qgrams_pad_and_window() {
        let grams = qgrams("ab", 2);
        assert_eq!(grams, vec!["#a".to_string(), "ab".to_string(), "b$".to_string()]);
        assert!(qgrams("", 2).is_empty());
        assert!(qgrams("abc", 0).is_empty());
    }

    #[test]
    fn qgrams_count_matches_length() {
        // With padding of q-1 on both sides, #grams = len + q - 1 for non-empty input.
        let grams = qgrams("abcd", 3);
        assert_eq!(grams.len(), 4 + 3 - 1);
    }

    #[test]
    fn tokenizer_enum_dispatch() {
        assert_eq!(Tokenizer::Words.tokenize("a b"), vec!["a", "b"]);
        assert_eq!(Tokenizer::QGrams(2).tokenize("ab").len(), 3);
    }
}
