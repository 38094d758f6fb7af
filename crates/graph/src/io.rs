//! DIMACS shortest-path format I/O.
//!
//! Reads and writes the 9th DIMACS Implementation Challenge `.gr` format —
//! the de-facto interchange format for shortest-path benchmarks — so the
//! library's algorithms can run on standard road-network instances:
//!
//! ```text
//! c comment
//! p sp <nodes> <edges>
//! a <src> <dst> <length>      (1-based node ids)
//! ```

use crate::csr::{Graph, GraphBuilder, Len};
use std::fmt::Write as _;

/// Errors from DIMACS parsing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DimacsError {
    /// The `p sp n m` problem line is missing or malformed.
    BadProblemLine(usize),
    /// A second `p` line appeared (would silently discard earlier arcs).
    DuplicateProblemLine(usize),
    /// An arc line failed to parse.
    BadArc(usize),
    /// A node id was 0 or exceeded the declared node count.
    NodeOutOfRange(usize),
    /// Arc count differs from the problem line's declaration.
    ArcCountMismatch {
        /// Declared in the `p` line.
        declared: usize,
        /// Actually present.
        found: usize,
    },
}

impl std::fmt::Display for DimacsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadProblemLine(l) => write!(f, "line {l}: malformed or missing 'p sp n m' line"),
            Self::DuplicateProblemLine(l) => write!(f, "line {l}: duplicate 'p' line"),
            Self::BadArc(l) => write!(f, "line {l}: malformed arc line"),
            Self::NodeOutOfRange(l) => write!(f, "line {l}: node id out of range"),
            Self::ArcCountMismatch { declared, found } => {
                write!(f, "declared {declared} arcs, found {found}")
            }
        }
    }
}

impl std::error::Error for DimacsError {}

/// Parses a DIMACS `.gr` document into a [`Graph`] (node ids shift to
/// 0-based).
///
/// Tolerant of the variation found in files in the wild: `c` *and* `#`
/// comment lines, blank lines, leading/trailing whitespace, tab- or
/// multi-space-separated fields, and CRLF line endings. Every rejection
/// carries the 1-based line number of the offending line.
///
/// # Errors
/// Returns a [`DimacsError`] describing the first malformed line.
pub fn parse_dimacs(text: &str) -> Result<Graph, DimacsError> {
    let mut builder: Option<GraphBuilder> = None;
    let mut declared_arcs = 0usize;
    let mut found_arcs = 0usize;
    let mut n = 0usize;

    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        // `lines()` keeps the `\r` of CRLF endings; trim drops it along
        // with any indentation.
        let line = raw.trim();
        if line.is_empty() || line.starts_with('c') || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("p") => {
                if builder.is_some() {
                    return Err(DimacsError::DuplicateProblemLine(lineno));
                }
                if parts.next() != Some("sp") {
                    return Err(DimacsError::BadProblemLine(lineno));
                }
                // Node ids are u32 throughout the workspace; a larger
                // count is malformed input, not a panic in the builder.
                n = parts
                    .next()
                    .and_then(|s| s.parse::<u32>().ok())
                    .ok_or(DimacsError::BadProblemLine(lineno))? as usize;
                declared_arcs = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or(DimacsError::BadProblemLine(lineno))?;
                builder = Some(GraphBuilder::new(n));
            }
            Some("a") => {
                let b = builder
                    .as_mut()
                    .ok_or(DimacsError::BadProblemLine(lineno))?;
                let u: usize = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or(DimacsError::BadArc(lineno))?;
                let v: usize = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or(DimacsError::BadArc(lineno))?;
                let len: Len = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or(DimacsError::BadArc(lineno))?;
                if u == 0 || v == 0 || u > n || v > n || len == 0 {
                    return Err(DimacsError::NodeOutOfRange(lineno));
                }
                b.add_edge(u - 1, v - 1, len);
                found_arcs += 1;
            }
            _ => return Err(DimacsError::BadArc(lineno)),
        }
    }
    if found_arcs != declared_arcs {
        return Err(DimacsError::ArcCountMismatch {
            declared: declared_arcs,
            found: found_arcs,
        });
    }
    Ok(builder.ok_or(DimacsError::BadProblemLine(0))?.build())
}

/// Serialises a graph as DIMACS `.gr` (1-based ids, stable edge order).
#[must_use]
pub fn to_dimacs(g: &Graph, comment: &str) -> String {
    let mut out = String::new();
    for line in comment.lines() {
        let _ = writeln!(out, "c {line}");
    }
    let _ = writeln!(out, "p sp {} {}", g.n(), g.m());
    for (u, v, len) in g.edges() {
        let _ = writeln!(out, "a {} {} {len}", u + 1, v + 1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const SAMPLE: &str = "c tiny test graph\n\
                          p sp 4 5\n\
                          a 1 2 3\n\
                          a 2 3 4\n\
                          a 3 4 5\n\
                          a 1 3 10\n\
                          a 2 4 20\n";

    #[test]
    fn parses_the_sample() {
        let g = parse_dimacs(SAMPLE).unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 5);
        let d = crate::dijkstra::dijkstra(&g, 0);
        assert_eq!(d.distances[3], Some(12)); // 3 + 4 + 5
    }

    #[test]
    fn roundtrip_preserves_graphs() {
        let mut rng = StdRng::seed_from_u64(111);
        let g = crate::generators::gnm(&mut rng, 20, 60, 1..=9);
        let text = to_dimacs(&g, "roundtrip");
        let back = parse_dimacs(&text).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "c a\n\nc b\np sp 2 1\nc inline\na 1 2 7\n";
        let g = parse_dimacs(text).unwrap();
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn hash_comments_crlf_and_tabs_tolerated() {
        // The same graph as `comments_and_blank_lines_ignored`, but in the
        // messy shape real files arrive in: `#` comments, CRLF endings,
        // indentation, and tab-separated fields.
        let text = "# exported graph\r\n\r\nc legacy comment\r\n  p\tsp\t2\t1\r\n\ta 1\t2  7\r\n";
        let g = parse_dimacs(text).unwrap();
        assert_eq!((g.n(), g.m()), (2, 1));
        assert_eq!(g.edges().next(), Some((0, 1, 7)));
    }

    #[test]
    fn tolerant_forms_roundtrip() {
        // Parse a messy document, serialise it, parse the clean output:
        // both parses must agree.
        let messy = "# header\r\np sp 3 3\r\na 1 2 2\r\n\r\nc mid\r\na 2 3 4\r\na 1 3 9\r\n";
        let g = parse_dimacs(messy).unwrap();
        let back = parse_dimacs(&to_dimacs(&g, "clean")).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn rejects_duplicate_problem_line() {
        assert_eq!(
            parse_dimacs("p sp 2 1\na 1 2 3\np sp 4 0\n"),
            Err(DimacsError::DuplicateProblemLine(3))
        );
    }

    #[test]
    fn error_line_numbers_count_skipped_lines() {
        // Line numbers refer to the original document, comments and
        // blanks included.
        assert_eq!(
            parse_dimacs("# one\r\n\r\nc three\r\np sp 2 1\r\na 1 nope 3\r\n"),
            Err(DimacsError::BadArc(5))
        );
    }

    #[test]
    fn rejects_bad_problem_line() {
        assert_eq!(
            parse_dimacs("p max 3 2\n"),
            Err(DimacsError::BadProblemLine(1))
        );
        assert_eq!(
            parse_dimacs("a 1 2 3\n"),
            Err(DimacsError::BadProblemLine(1))
        );
        // A node count past the u32 id space used to panic in
        // `GraphBuilder::new`.
        assert_eq!(
            parse_dimacs("c big\np sp 5000000000 0\n"),
            Err(DimacsError::BadProblemLine(2))
        );
    }

    #[test]
    fn rejects_out_of_range_nodes() {
        assert_eq!(
            parse_dimacs("p sp 2 1\na 1 5 3\n"),
            Err(DimacsError::NodeOutOfRange(2))
        );
        assert_eq!(
            parse_dimacs("p sp 2 1\na 0 1 3\n"),
            Err(DimacsError::NodeOutOfRange(2))
        );
    }

    #[test]
    fn rejects_arc_count_mismatch() {
        assert_eq!(
            parse_dimacs("p sp 2 2\na 1 2 3\n"),
            Err(DimacsError::ArcCountMismatch {
                declared: 2,
                found: 1
            })
        );
    }

    #[test]
    fn rejects_garbage_lines() {
        assert_eq!(
            parse_dimacs("p sp 2 1\nx nonsense\na 1 2 3\n"),
            Err(DimacsError::BadArc(2))
        );
    }

    #[test]
    fn errors_display() {
        let e = DimacsError::ArcCountMismatch {
            declared: 5,
            found: 3,
        };
        assert!(e.to_string().contains("declared 5"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Arbitrary text built from a printable-ish alphabet (covers control
    /// whitespace, digits, and the DIMACS keyword characters).
    fn arb_text() -> impl Strategy<Value = String> {
        proptest::collection::vec(0usize..96, 0..200).prop_map(|codes| {
            const ALPHABET: &[u8] = b" \t\r\n0123456789abcdefghijklmnopqrstuvwxyz\
                                      ABCDEFGHIJKLMNOPQRSTUVWXYZ.,:;-+_/\\#%()";
            codes
                .into_iter()
                .map(|c| ALPHABET[c % ALPHABET.len()] as char)
                .collect()
        })
    }

    /// One pseudo-DIMACS line: a header, an arc, a comment, or junk —
    /// the same shapes the original regex strategy produced.
    fn arb_line() -> impl Strategy<Value = String> {
        (0u8..4, 0u32..1000, 0u32..1000, 0u32..1000).prop_map(|(kind, a, b, c)| match kind {
            0 => format!("p sp {a} {b}"),
            1 => format!("a {a} {b} {c}"),
            2 => format!("c junk comment {a}"),
            _ => format!("{a} neither {b} keyword {c}"),
        })
    }

    proptest! {
        /// The parser must never panic, whatever bytes arrive.
        #[test]
        fn parser_never_panics(text in arb_text()) {
            let _ = parse_dimacs(&text);
        }

        /// Structured-ish fuzz: random line soup with valid-looking pieces.
        #[test]
        fn parser_never_panics_on_line_soup(
            lines in proptest::collection::vec(arb_line(), 0..20)
        ) {
            let _ = parse_dimacs(&lines.join("\n"));
        }

        /// Roundtrip: any generated graph survives serialise + parse.
        #[test]
        fn roundtrip_random_graphs(seed in 0u64..1000, n in 2usize..24) {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let m = (n + seed as usize % (2 * n)).min(n * (n - 1));
            let g = crate::generators::gnm(&mut rng, n, m, 1..=9);
            let back = parse_dimacs(&to_dimacs(&g, "fuzz")).unwrap();
            prop_assert_eq!(g, back);
        }
    }
}
