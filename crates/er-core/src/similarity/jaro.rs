//! Jaro and Jaro-Winkler similarity.
//!
//! Jaro-Winkler is the measure the paper uses for short attributes (the `venue`
//! attribute of the DBLP-Scholar dataset): it boosts the Jaro score of strings
//! sharing a common prefix, which suits abbreviations such as "VLDB" vs "VLDB J.".

/// Longest string, in bytes, that [`jaro_similarity`] scores on the
/// bit-parallel ASCII path: one bit per byte of the right-hand string.
const ASCII_FAST_MAX: usize = 64;

/// Jaro similarity between two strings, in `[0, 1]`.
///
/// ASCII strings of at most 64 bytes are compared on stack bitmasks, finding
/// each match with a few word operations instead of a scan of the match
/// window; anything else is decoded into `char` vectors and scanned. Both
/// paths pick the same matches (the lowest unmatched position in the window)
/// and run the same arithmetic, so the result does not depend on the path.
pub fn jaro_similarity(a: &str, b: &str) -> f64 {
    if a.len() <= ASCII_FAST_MAX && b.len() <= ASCII_FAST_MAX && a.is_ascii() && b.is_ascii() {
        jaro_ascii(a.as_bytes(), b.as_bytes())
    } else {
        jaro_chars(a, b)
    }
}

/// The Jaro formula over `m` matches, `out_of_order` of which pair up with
/// a different symbol of the other string (half a transposition each).
fn jaro_formula(m: usize, out_of_order: usize, a_len: usize, b_len: usize) -> f64 {
    let transpositions = out_of_order as f64 / 2.0;
    let m = m as f64;
    (m / a_len as f64 + m / b_len as f64 + (m - transpositions) / m) / 3.0
}

/// The match window of two non-empty sequences.
fn match_window(a_len: usize, b_len: usize) -> usize {
    (a_len.max(b_len) / 2).saturating_sub(1)
}

/// Jaro similarity of two ASCII byte strings of at most 64 bytes each.
fn jaro_ascii(a: &[u8], b: &[u8]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = match_window(a.len(), b.len());
    // Positions of every byte value in `b`, as bitmasks.
    let mut positions = [0u64; 128];
    for (j, &c) in b.iter().enumerate() {
        positions[c as usize] |= 1 << j;
    }
    let mut b_matched = 0u64;
    let mut a_matches = [0u8; ASCII_FAST_MAX];
    let mut m = 0;
    for (i, &ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        if lo >= hi {
            continue;
        }
        // Bits lo..hi; 0 <= lo < hi <= 64 keeps both shifts in range.
        let in_window = (u64::MAX >> (64 - hi)) & (u64::MAX << lo);
        let free = positions[ca as usize] & in_window & !b_matched;
        if free != 0 {
            // The lowest free position: what a left-to-right scan finds.
            b_matched |= free & free.wrapping_neg();
            a_matches[m] = ca;
            m += 1;
        }
    }
    if m == 0 {
        return 0.0;
    }
    // Transpositions: compare the matched sequences in order.
    let mut transpositions = 0;
    let mut rest = b_matched;
    for &ca in &a_matches[..m] {
        let j = rest.trailing_zeros() as usize;
        rest &= rest - 1;
        transpositions += usize::from(b[j] != ca);
    }
    jaro_formula(m, transpositions, a.len(), b.len())
}

/// The general path of [`jaro_similarity`]: `char` vectors, any length.
fn jaro_chars(a: &str, b: &str) -> f64 {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let window = match_window(a.len(), b.len());
    let mut b_matched = vec![false; b.len()];
    let mut a_matches: Vec<char> = Vec::new();
    for (i, ca) in a.iter().enumerate() {
        let lo = i.saturating_sub(window);
        let hi = (i + window + 1).min(b.len());
        for j in lo..hi {
            if !b_matched[j] && b[j] == *ca {
                b_matched[j] = true;
                a_matches.push(*ca);
                break;
            }
        }
    }
    if a_matches.is_empty() {
        return 0.0;
    }
    // Transpositions: compare the matched sequences in order.
    let b_matches = b.iter().zip(&b_matched).filter(|(_, &used)| used).map(|(c, _)| c);
    let transpositions = a_matches.iter().zip(b_matches).filter(|(x, y)| x != y).count();
    jaro_formula(a_matches.len(), transpositions, a.len(), b.len())
}

/// Jaro-Winkler similarity with the standard prefix scale `p = 0.1` and a maximum
/// considered prefix of four characters.
pub fn jaro_winkler_similarity(a: &str, b: &str) -> f64 {
    jaro_winkler_with_scale(a, b, 0.1)
}

/// Jaro-Winkler similarity with an explicit prefix scale `p ∈ [0, 0.25]`.
pub fn jaro_winkler_with_scale(a: &str, b: &str, prefix_scale: f64) -> f64 {
    let p = prefix_scale.clamp(0.0, 0.25);
    let jaro = jaro_similarity(a, b);
    let prefix_len = a.chars().zip(b.chars()).take(4).take_while(|(x, y)| x == y).count() as f64;
    jaro + prefix_len * p * (1.0 - jaro)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_close(actual: f64, expected: f64, tol: f64) {
        assert!((actual - expected).abs() <= tol, "expected {expected}, got {actual} (tol {tol})");
    }

    #[test]
    fn jaro_known_values() {
        // Classical textbook examples.
        assert_close(jaro_similarity("MARTHA", "MARHTA"), 0.944_444, 1e-5);
        assert_close(jaro_similarity("DIXON", "DICKSONX"), 0.766_667, 1e-5);
        assert_close(jaro_similarity("JELLYFISH", "SMELLYFISH"), 0.896_296, 1e-5);
    }

    #[test]
    fn jaro_winkler_known_values() {
        assert_close(jaro_winkler_similarity("MARTHA", "MARHTA"), 0.961_111, 1e-5);
        assert_close(jaro_winkler_similarity("DIXON", "DICKSONX"), 0.813_333, 1e-5);
    }

    #[test]
    fn edge_cases() {
        assert_eq!(jaro_similarity("", ""), 1.0);
        assert_eq!(jaro_similarity("abc", ""), 0.0);
        assert_eq!(jaro_similarity("", "abc"), 0.0);
        assert_eq!(jaro_similarity("abc", "abc"), 1.0);
        assert_eq!(jaro_similarity("abc", "xyz"), 0.0);
    }

    #[test]
    fn fast_path_boundary_and_non_ascii_inputs() {
        // Both at the 64-byte cut (the window reaches bit 63), one past it,
        // and non-ASCII text on the char path.
        let long = "ab".repeat(ASCII_FAST_MAX / 2);
        let shifted = format!("b{}", &long[..ASCII_FAST_MAX - 1]);
        let longer = format!("{long}b");
        let cases = [
            (&long[..], &shifted[..]),
            (&shifted[..], &long[..]),
            (&long[..], &longer[..]),
            (&longer[..], &long[..]),
            ("café", "cafe"),
            ("MARTHA", "MARHTA"),
        ];
        for (x, y) in cases {
            assert_eq!(jaro_similarity(x, y).to_bits(), jaro_chars(x, y).to_bits(), "{x} vs {y}");
        }
    }

    #[test]
    fn winkler_boost_only_helps_shared_prefixes() {
        let base = jaro_similarity("prefixed", "prefixes");
        let boosted = jaro_winkler_similarity("prefixed", "prefixes");
        assert!(boosted >= base);
        // No shared prefix → no boost.
        let a = jaro_similarity("abcd", "xbcd");
        let b = jaro_winkler_similarity("abcd", "xbcd");
        assert_close(a, b, 1e-12);
    }

    proptest! {
        #[test]
        fn jaro_bounded_and_symmetric(a in "[a-f]{0,12}", b in "[a-f]{0,12}") {
            let s = jaro_similarity(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s));
            prop_assert!((s - jaro_similarity(&b, &a)).abs() < 1e-12);
        }

        #[test]
        fn jaro_winkler_at_least_jaro(a in "[a-f]{0,12}", b in "[a-f]{0,12}") {
            prop_assert!(jaro_winkler_similarity(&a, &b) + 1e-12 >= jaro_similarity(&a, &b));
            prop_assert!(jaro_winkler_similarity(&a, &b) <= 1.0 + 1e-12);
        }

        #[test]
        fn ascii_fast_path_matches_the_char_path(
            a in "[a-e]{0,70}",
            b in "[a-e]{0,70}",
            cut in 0usize..8,
        ) {
            // Lengths straddle the 64-byte cut: trimming `cut` bytes moves
            // strings of 65..=70 bytes onto the fast path.
            for (x, y) in [(&a[..], &b[..]), (&a[cut.min(a.len())..], &b[..]), (&a[..], &b[cut.min(b.len())..])] {
                prop_assert_eq!(jaro_similarity(x, y).to_bits(), jaro_chars(x, y).to_bits());
                prop_assert_eq!(jaro_similarity(y, x).to_bits(), jaro_chars(y, x).to_bits());
            }
        }

        #[test]
        fn identity_scores_one(a in "[a-f]{1,12}") {
            prop_assert!((jaro_similarity(&a, &a) - 1.0).abs() < 1e-12);
            prop_assert!((jaro_winkler_similarity(&a, &a) - 1.0).abs() < 1e-12);
        }
    }
}
