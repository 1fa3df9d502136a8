//! Token scanning strategies.
//!
//! The detector's primary strategy is *structured lookup*: URLs, cookies and
//! form bodies decompose into delimited values that the [`crate::tokens`]
//! map resolves in O(1) per value. The alternative — scanning raw bytes for
//! any of ~100k candidate substrings — needs a multi-pattern automaton;
//! [`AhoCorasick`] is a from-scratch implementation used for the exhaustive
//! sweep of the scanning ablation (`pii_analysis::ablations`) and for
//! haystacks with no structure to exploit.

use std::collections::VecDeque;

/// Automaton construction failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// Pattern at this index is empty — it would match at every offset.
    EmptyPattern { index: usize },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::EmptyPattern { index } => {
                write!(f, "pattern {index} is empty")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// A match: pattern index and byte offset of its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match {
    pub pattern: usize,
    pub start: usize,
}

#[derive(Debug, Clone, Default)]
struct Node {
    /// Child edges, sorted by byte. A sorted vec instead of a `HashMap`
    /// does two jobs at once: BFS during construction visits children in
    /// canonical byte order — so fail links and `output` orderings are a
    /// pure function of the pattern list, never of hasher state — and
    /// lookup is a binary search over a dense, cache-friendly array.
    children: Vec<(u8, usize)>,
    fail: usize,
    /// Pattern indices ending at this node.
    output: Vec<usize>,
}

impl Node {
    fn child(&self, b: u8) -> Option<usize> {
        self.children
            .binary_search_by_key(&b, |&(k, _)| k)
            .ok()
            .and_then(|i| self.children.get(i))
            .map(|&(_, n)| n)
    }

    fn insert_child(&mut self, b: u8, next: usize) {
        if let Err(at) = self.children.binary_search_by_key(&b, |&(k, _)| k) {
            self.children.insert(at, (b, next));
        }
    }
}

/// Arena read access. Indices are produced exclusively by `new` (the value
/// of `nodes.len() - 1` at push time) and fail links reference
/// already-built nodes, so out-of-range is unreachable; the root fallback
/// keeps the detection path panic-free regardless, and the differential
/// proptests would surface a miss as a wrong match.
fn node(nodes: &[Node], i: usize) -> &Node {
    nodes.get(i).unwrap_or_else(|| &nodes[0])
}

/// Arena write access; same invariant as [`node`].
fn node_mut(nodes: &mut [Node], i: usize) -> &mut Node {
    let i = if i < nodes.len() { i } else { 0 };
    &mut nodes[i] // lint:allow(W04) -- i clamped to the arena bounds on the previous line and the arena always holds the root
}

/// Classic Aho–Corasick automaton over bytes. [`naive_find_all`] is its
/// differential oracle.
#[derive(Debug, Clone)]
pub struct AhoCorasick {
    nodes: Vec<Node>,
    pattern_lens: Vec<usize>,
}

impl AhoCorasick {
    /// Build from a pattern list.
    ///
    /// Returns [`BuildError::EmptyPattern`] if any pattern is empty: an
    /// empty needle "matches" before every byte, which the match-offset
    /// arithmetic (`i + 1 - len`) cannot represent. Duplicate patterns are
    /// fine — each index reports its own matches.
    pub fn new<I, S>(patterns: I) -> Result<AhoCorasick, BuildError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<[u8]>,
    {
        let mut nodes = vec![Node::default()];
        let mut pattern_lens = Vec::new();
        for (pi, pattern) in patterns.into_iter().enumerate() {
            let bytes = pattern.as_ref();
            if bytes.is_empty() {
                return Err(BuildError::EmptyPattern { index: pi });
            }
            pattern_lens.push(bytes.len());
            let mut cur = 0usize;
            for &b in bytes {
                cur = match node(&nodes, cur).child(b) {
                    Some(next) => next,
                    None => {
                        nodes.push(Node::default());
                        let next = nodes.len() - 1;
                        node_mut(&mut nodes, cur).insert_child(b, next);
                        next
                    }
                };
            }
            node_mut(&mut nodes, cur).output.push(pi);
        }
        // BFS to set failure links. Children are visited in sorted byte
        // order, so the queue — and with it every `output` ordering — is
        // deterministic.
        let mut queue = VecDeque::new();
        for (_, child) in node(&nodes, 0).children.clone() {
            node_mut(&mut nodes, child).fail = 0;
            queue.push_back(child);
        }
        while let Some(cur) = queue.pop_front() {
            for (b, child) in node(&nodes, cur).children.clone() {
                // Walk failure links of the parent to find the child's.
                let mut f = node(&nodes, cur).fail;
                let target = loop {
                    if let Some(next) = node(&nodes, f).child(b) {
                        if next != child {
                            break next;
                        }
                    }
                    if f == 0 {
                        break 0;
                    }
                    f = node(&nodes, f).fail;
                };
                node_mut(&mut nodes, child).fail = target;
                let fail_output = node(&nodes, target).output.clone();
                node_mut(&mut nodes, child).output.extend(fail_output);
                queue.push_back(child);
            }
        }
        Ok(AhoCorasick {
            nodes,
            pattern_lens,
        })
    }

    /// Follow one byte from `state` through child/failure links.
    fn step(&self, state: usize, b: u8) -> usize {
        let mut s = state;
        loop {
            if let Some(next) = node(&self.nodes, s).child(b) {
                return next;
            }
            if s == 0 {
                return 0;
            }
            s = node(&self.nodes, s).fail;
        }
    }

    /// All matches in `haystack`, in the order their last byte is reached;
    /// matches ending at the same byte follow the end node's output order.
    pub fn find_all(&self, haystack: &[u8]) -> Vec<Match> {
        let mut out = Vec::new();
        let mut state = 0usize;
        for (i, &b) in haystack.iter().enumerate() {
            state = self.step(state, b);
            for &pi in &node(&self.nodes, state).output {
                let Some(&len) = self.pattern_lens.get(pi) else {
                    continue; // unreachable: outputs only hold real indices
                };
                out.push(Match {
                    pattern: pi,
                    start: i.saturating_add(1).saturating_sub(len),
                });
            }
        }
        out
    }

    /// Does any pattern occur?
    pub fn is_match(&self, haystack: &[u8]) -> bool {
        let mut state = 0usize;
        for &b in haystack {
            state = self.step(state, b);
            if !node(&self.nodes, state).output.is_empty() {
                return true;
            }
        }
        false
    }

    pub fn pattern_count(&self) -> usize {
        self.pattern_lens.len()
    }
}

/// Naive multi-pattern scan: the automaton's test reference.
pub fn naive_find_all(patterns: &[&[u8]], haystack: &[u8]) -> Vec<Match> {
    let mut out = Vec::new();
    for (pi, pat) in patterns.iter().enumerate() {
        if pat.is_empty() || pat.len() > haystack.len() {
            continue;
        }
        for start in 0..=haystack.len() - pat.len() {
            // lint:allow(W03) -- start <= haystack.len() - pat.len(), so start + pat.len() <= haystack.len()
            if &haystack[start..start + pat.len()] == *pat {
                out.push(Match { pattern: pi, start });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_pattern_is_a_build_error() {
        assert_eq!(
            AhoCorasick::new(["a", "", "b"]).unwrap_err(),
            BuildError::EmptyPattern { index: 1 }
        );
        assert_eq!(
            AhoCorasick::new(vec![""]).unwrap_err(),
            BuildError::EmptyPattern { index: 0 }
        );
        // The error is a proper std::error::Error with a useful message.
        let err = AhoCorasick::new(["x", ""]).unwrap_err();
        assert_eq!(err.to_string(), "pattern 1 is empty");
        // No patterns at all is fine: the automaton just never matches.
        let ac = AhoCorasick::new(Vec::<&str>::new()).unwrap();
        assert_eq!(ac.pattern_count(), 0);
        assert!(!ac.is_match(b"anything"));
    }

    #[test]
    fn duplicate_patterns_each_report_their_own_index() {
        let ac = AhoCorasick::new(["dup", "dup", "other"]).unwrap();
        assert_eq!(ac.pattern_count(), 3);
        let mut matches = ac.find_all(b"xxdupxx");
        matches.sort_by_key(|m| m.pattern);
        assert_eq!(
            matches,
            vec![
                Match {
                    pattern: 0,
                    start: 2
                },
                Match {
                    pattern: 1,
                    start: 2
                },
            ]
        );
    }

    #[test]
    fn finds_single_pattern() {
        let ac = AhoCorasick::new(["mydom"]).unwrap();
        let m = ac.find_all(b"email=foo@mydom.com");
        assert_eq!(
            m,
            vec![Match {
                pattern: 0,
                start: 10
            }]
        );
    }

    #[test]
    fn finds_overlapping_patterns() {
        let ac = AhoCorasick::new(["he", "she", "his", "hers"]).unwrap();
        let matches = ac.find_all(b"ushers");
        let found: Vec<usize> = matches.iter().map(|m| m.pattern).collect();
        assert!(found.contains(&0), "he");
        assert!(found.contains(&1), "she");
        assert!(found.contains(&3), "hers");
        assert!(!found.contains(&2), "his");
    }

    #[test]
    fn agrees_with_naive_scan() {
        let patterns = ["abc", "bca", "cab", "aa", "abcabc"];
        let ac = AhoCorasick::new(patterns).unwrap();
        let haystack = b"aabcabcabcaacab";
        let mut fast = ac.find_all(haystack);
        let pat_bytes: Vec<&[u8]> = patterns.iter().map(|p| p.as_bytes()).collect();
        let mut slow = naive_find_all(&pat_bytes, haystack);
        fast.sort_by_key(|m| (m.pattern, m.start));
        slow.sort_by_key(|m| (m.pattern, m.start));
        assert_eq!(fast, slow);
    }

    #[test]
    fn is_match_short_circuits() {
        let ac = AhoCorasick::new(["needle"]).unwrap();
        assert!(ac.is_match(b"hay needle hay"));
        assert!(!ac.is_match(b"just hay"));
        assert!(!ac.is_match(b""));
    }

    #[test]
    fn binary_patterns_work() {
        let ac = AhoCorasick::new([&[0xff, 0x00, 0xfe][..]]).unwrap();
        assert!(ac.is_match(&[1, 2, 0xff, 0x00, 0xfe, 3]));
    }

    #[test]
    fn empty_and_one_byte_haystacks() {
        let ac = AhoCorasick::new(["x"]).unwrap();
        assert_eq!(ac.find_all(b""), vec![]);
        assert!(!ac.is_match(b""));
        assert_eq!(
            ac.find_all(b"x"),
            vec![Match {
                pattern: 0,
                start: 0
            }]
        );
        assert_eq!(ac.find_all(b"y"), vec![]);
    }

    #[test]
    fn match_offsets_are_absolute() {
        let ac = AhoCorasick::new(["needle"]).unwrap();
        let hay = b"_____________________________needle____needle";
        assert_eq!(
            ac.find_all(hay),
            vec![
                Match {
                    pattern: 0,
                    start: 29
                },
                Match {
                    pattern: 0,
                    start: 39
                },
            ]
        );
    }

    #[test]
    fn many_hash_like_patterns() {
        // Shape of the real workload: hex digests sharing prefixes.
        let patterns: Vec<String> = (0..500)
            .map(|i| format!("{:064x}", (i as u128) * 0x9e3779b97f4a7c15))
            .collect();
        let ac = AhoCorasick::new(&patterns).unwrap();
        assert_eq!(ac.pattern_count(), 500);
        let haystack = format!("x={}&y=1", patterns[250]);
        let matches = ac.find_all(haystack.as_bytes());
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].pattern, 250);
    }

    use proptest::prelude::*;

    proptest! {
        /// Differential: the automaton equals the naive scanner on fully
        /// binary patterns and haystacks — no UTF-8 bias, duplicates and
        /// cross-pattern overlaps allowed. Half the cases add a pattern
        /// for every possible leading byte, so the root has all 256 edges.
        #[test]
        fn find_all_matches_naive_on_binary_bytes(
            patterns in proptest::collection::vec(
                proptest::collection::vec(any::<u8>(), 1..5),
                1..8,
            ),
            every_leading_byte in proptest::option::of(any::<u8>()),
            haystack in proptest::collection::vec(any::<u8>(), 0..128),
        ) {
            let mut patterns = patterns;
            if let Some(second) = every_leading_byte {
                patterns.extend((0u8..=255).map(|b| vec![b, second]));
            }
            let ac = AhoCorasick::new(&patterns).unwrap();
            let pat_bytes: Vec<&[u8]> = patterns.iter().map(|p| p.as_slice()).collect();
            let mut fast = ac.find_all(&haystack);
            let mut slow = naive_find_all(&pat_bytes, &haystack);
            fast.sort_by_key(|m| (m.pattern, m.start));
            slow.sort_by_key(|m| (m.pattern, m.start));
            prop_assert_eq!(&fast, &slow);
            prop_assert_eq!(ac.is_match(&haystack), !fast.is_empty());
        }

        /// Differential on the real workload's shape: hex digests sharing a
        /// common prefix (deep fail-link chains in the trie), with the
        /// haystack spliced from the patterns themselves so matches — and
        /// near-miss prefixes — actually occur.
        #[test]
        fn find_all_matches_naive_on_shared_prefix_digests(
            prefix in "[0-9a-f]{6}",
            suffixes in proptest::collection::vec("[0-9a-f]{1,10}", 1..8),
            picks in proptest::collection::vec(any::<u8>(), 0..5),
            glue in "[g-z=&]{0,4}",
        ) {
            let patterns: Vec<String> =
                suffixes.iter().map(|s| format!("{prefix}{s}")).collect();
            let mut haystack = prefix.clone(); // a bare prefix: near-miss
            for pick in &picks {
                haystack.push_str(&glue);
                haystack.push_str(&patterns[*pick as usize % patterns.len()]);
            }
            let ac = AhoCorasick::new(&patterns).unwrap();
            let pat_bytes: Vec<&[u8]> = patterns.iter().map(|p| p.as_bytes()).collect();
            let mut fast = ac.find_all(haystack.as_bytes());
            let mut slow = naive_find_all(&pat_bytes, haystack.as_bytes());
            fast.sort_by_key(|m| (m.pattern, m.start));
            slow.sort_by_key(|m| (m.pattern, m.start));
            prop_assert_eq!(fast, slow);
        }
    }
}
