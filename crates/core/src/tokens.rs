//! Candidate-token precomputation (§3.1).
//!
//! "We pre-compute a candidate set of tokens by applying all supported
//! encodings, hashes, and checksums for each PII. Note that the encoding or
//! hashing could be applied multiple times. Here we encode/hash each PII at
//! most three times."
//!
//! A token maps back to (PII kind, obfuscation chain), so a match
//! immediately yields Table 1b's encoding bucket and Table 1c's PII type.
//! Tokens shorter than [`TokenSetBuilder::min_token_len`] are dropped — a
//! 4-hex-digit CRC-16 would false-positive on every URL — mirroring the
//! paper's use of checksums only as inner chain steps.

use pii_encodings::EncodingKind;
use pii_hashes::HashAlgorithm;
use pii_web::obfuscate::{Obfuscation, Step};
use pii_web::persona::{Persona, PiiKind};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// What a matched token means.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenInfo {
    pub pii: PiiKind,
    /// The obfuscation chain that produced the token.
    pub chain: Obfuscation,
}

impl TokenInfo {
    /// Table 1b bucket of the chain.
    pub fn bucket(&self) -> &'static str {
        self.chain.table1b_bucket()
    }
}

/// The pre-computed candidate set.
#[derive(Debug, Clone, Default)]
pub struct TokenSet {
    map: HashMap<String, TokenInfo>,
}

impl TokenSet {
    /// Exact lookup of a candidate string.
    pub fn lookup(&self, candidate: &str) -> Option<&TokenInfo> {
        self.map.get(candidate)
    }

    /// Case-tolerant lookup: hex digests appear uppercased in the wild.
    pub fn lookup_normalized(&self, candidate: &str) -> Option<&TokenInfo> {
        if let Some(info) = self.map.get(candidate) {
            return Some(info);
        }
        // Try lowercased (covers upper/mixed-case hex); base64 is
        // case-sensitive, so only hex-like candidates with an uppercase
        // digit get the fallback, and only they pay for the lowercased copy.
        if candidate.bytes().any(|b| b.is_ascii_uppercase())
            && candidate.bytes().all(|b| b.is_ascii_hexdigit())
        {
            return self.map.get(&candidate.to_ascii_lowercase());
        }
        None
    }

    /// Number of candidate tokens.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate over (token, info) pairs in canonical (sorted-token) order.
    /// The Aho–Corasick scanner builds its pattern list from this, so the
    /// iteration order decides pattern indices — sorting here keeps every
    /// downstream match list a pure function of the token set.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &TokenInfo)> {
        let mut entries: Vec<_> = self.map.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        entries.into_iter()
    }

    /// Serialize to a compact line format (`token\tpii\tstep+step…`), sorted
    /// for determinism. Depth-3 sets take seconds to build; persisting them
    /// amortises that across runs.
    pub fn to_text(&self) -> String {
        let mut lines: Vec<String> = self
            .iter()
            .map(|(token, info)| {
                let chain = info
                    .chain
                    .steps
                    .iter()
                    .map(|s| s.label())
                    .collect::<Vec<_>>()
                    .join("+");
                format!("{token}\t{}\t{chain}", info.pii.name())
            })
            .collect();
        lines.sort();
        lines.join("\n")
    }

    /// Parse the [`TokenSet::to_text`] format. Unknown PII names or chain
    /// steps make the line invalid.
    pub fn from_text(text: &str) -> Result<TokenSet, String> {
        use pii_web::obfuscate::Step;
        let mut map = HashMap::new();
        for (no, line) in text.lines().enumerate() {
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split('\t');
            let (Some(token), Some(pii_name), Some(chain_text)) =
                (parts.next(), parts.next(), parts.next())
            else {
                return Err(format!("line {}: expected 3 tab-separated fields", no + 1));
            };
            let pii = PiiKind::ALL
                .iter()
                .copied()
                .find(|k| k.name() == pii_name)
                .ok_or_else(|| format!("line {}: unknown pii {pii_name:?}", no + 1))?;
            let mut steps = Vec::new();
            if !chain_text.is_empty() {
                for label in chain_text.split('+') {
                    let step = HashAlgorithm::from_name(label)
                        .map(Step::Hash)
                        .or_else(|| EncodingKind::from_name(label).map(Step::Encode))
                        .ok_or_else(|| format!("line {}: unknown step {label:?}", no + 1))?;
                    steps.push(step);
                }
            }
            map.insert(
                token.to_string(),
                TokenInfo {
                    pii,
                    chain: Obfuscation { steps },
                },
            );
        }
        Ok(TokenSet { map })
    }
}

/// Builds [`TokenSet`]s.
#[derive(Debug, Clone)]
pub struct TokenSetBuilder {
    /// Maximum chain length (the paper uses 3; the default here is 2, which
    /// already covers every form observed in Table 1b/2 — the chain-depth
    /// cost/recall trade-off is an explicit ablation, `pii-study ablations`).
    pub max_depth: usize,
    /// Minimum rendered token length.
    pub min_token_len: usize,
    /// Include the compression encodings (gz/deflate/bzip2) as chain steps.
    /// Compressed tokens are binary and only match percent-decoded bodies;
    /// they triple the candidate-set size, so they are optional.
    pub include_compression: bool,
}

impl Default for TokenSetBuilder {
    fn default() -> Self {
        TokenSetBuilder {
            max_depth: 2,
            min_token_len: 8,
            include_compression: false,
        }
    }
}

impl TokenSetBuilder {
    /// The paper's full configuration: depth 3, everything included.
    pub fn paper_full() -> Self {
        TokenSetBuilder {
            max_depth: 3,
            min_token_len: 8,
            include_compression: true,
        }
    }

    /// The chain steps this builder considers, in collision order: all of
    /// [`HashAlgorithm::ALL`] in order, then the textual encodings, then
    /// (if included) the compressions. The first chain of a given length
    /// to render a token keeps it, so this order decides ties.
    fn steps(&self) -> Vec<Step> {
        let mut steps: Vec<Step> = HashAlgorithm::ALL.map(Step::Hash).into();
        steps.extend(EncodingKind::TEXTUAL.map(Step::Encode));
        if self.include_compression {
            steps.extend(EncodingKind::COMPRESSION.map(Step::Encode));
        }
        steps
    }

    /// Build the candidate set for `persona`.
    pub fn build(&self, persona: &Persona) -> TokenSet {
        let steps = self.steps();
        let mut map = HashMap::new();
        for (kind, value) in persona.all_values() {
            // Depth 0: plaintext.
            self.offer(&mut map, kind, value.clone(), &[], None);
            // Depths 1..=max: breadth-first over chains. Each frontier entry
            // carries the bytes after the chain so far, so each step is
            // applied incrementally rather than re-running whole chains.
            // The last depth's outputs only become tokens, so it builds no
            // frontier.
            let mut frontier: Vec<(Vec<Step>, Vec<u8>)> = vec![(Vec::new(), value.into_bytes())];
            for depth in 1..=self.max_depth {
                let last = depth == self.max_depth;
                let mut next = Vec::with_capacity(if last {
                    0
                } else {
                    frontier.len().saturating_mul(steps.len())
                });
                for (chain, bytes) in &frontier {
                    for &step in &steps {
                        let out = step.apply(bytes);
                        if !last {
                            next.push(([&chain[..], &[step]].concat(), out.clone()));
                        }
                        let token = String::from_utf8(out).unwrap_or_else(|invalid| {
                            String::from_utf8_lossy(invalid.as_bytes()).into_owned()
                        });
                        self.offer(&mut map, kind, token, chain, Some(step));
                    }
                }
                frontier = next;
            }
        }
        TokenSet { map }
    }

    /// Offer `token`, rendered by `chain` (plus `step`, if any), as a
    /// candidate for `pii`. Tokens below the length floor are dropped, and
    /// shorter chains win collisions: a plaintext match must never be
    /// reported as some exotic chain that happens to collide. The chain is
    /// allocated only when the token is kept.
    fn offer(
        &self,
        map: &mut HashMap<String, TokenInfo>,
        pii: PiiKind,
        mut token: String,
        chain: &[Step],
        step: Option<Step>,
    ) {
        if token.len() < self.min_token_len {
            return;
        }
        // The set keeps its keys for the whole study, so none may carry an
        // encoder's spare capacity.
        token.shrink_to_fit();
        let len = chain.len() + usize::from(step.is_some());
        let info = || TokenInfo {
            pii,
            chain: Obfuscation {
                steps: chain.iter().copied().chain(step).collect(),
            },
        };
        match map.entry(token) {
            Entry::Occupied(mut existing) => {
                if existing.get().chain.steps.len() > len {
                    existing.insert(info());
                }
            }
            Entry::Vacant(slot) => {
                slot.insert(info());
            }
        }
    }
}

/// The lookup that lowercased a copy of every missed candidate, kept as the
/// oracle for `lookup_normalized_matches_the_reference`.
#[cfg(test)]
mod reference {
    use super::{TokenInfo, TokenSet};

    pub fn lookup_normalized<'s>(set: &'s TokenSet, candidate: &str) -> Option<&'s TokenInfo> {
        if let Some(info) = set.map.get(candidate) {
            return Some(info);
        }
        let lower = candidate.to_ascii_lowercase();
        if lower != candidate {
            if let Some(info) = set.map.get(&lower) {
                if candidate.chars().all(|c| c.is_ascii_hexdigit()) {
                    return Some(info);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn persona() -> Persona {
        Persona::default_study()
    }

    #[test]
    fn plaintext_email_is_a_token() {
        let set = TokenSetBuilder::default().build(&persona());
        let info = set.lookup("foo@mydom.com").unwrap();
        assert_eq!(info.pii, PiiKind::Email);
        assert!(info.chain.is_plaintext());
    }

    #[test]
    fn single_hash_tokens_resolve() {
        let set = TokenSetBuilder::default().build(&persona());
        let sha = pii_hashes::hex_digest(HashAlgorithm::Sha256, b"foo@mydom.com");
        let info = set.lookup(&sha).unwrap();
        assert_eq!(info.pii, PiiKind::Email);
        assert_eq!(info.bucket(), "sha256");
        let md5_name = pii_hashes::hex_digest(HashAlgorithm::Md5, b"Alice Foobar");
        assert_eq!(set.lookup(&md5_name).unwrap().pii, PiiKind::Name);
    }

    #[test]
    fn depth_two_chains_resolve() {
        let set = TokenSetBuilder::default().build(&persona());
        let token = Obfuscation::sha256_of_md5().apply("foo@mydom.com");
        let info = set.lookup(&token).unwrap();
        assert_eq!(info.bucket(), "sha256_of_md5");
    }

    #[test]
    fn depth_three_needs_paper_config() {
        let p = persona();
        let chain = Obfuscation::chain(vec![
            Step::Encode(EncodingKind::Base64),
            Step::Hash(HashAlgorithm::Sha1),
            Step::Hash(HashAlgorithm::Sha256),
        ]);
        let token = chain.apply(&p.email);
        let shallow = TokenSetBuilder::default().build(&p);
        assert!(shallow.lookup(&token).is_none(), "depth 2 must not find it");
        let mut deep = TokenSetBuilder::paper_full();
        deep.include_compression = false; // keep the test fast
        let deep = deep.build(&p);
        assert!(deep.lookup(&token).is_some(), "depth 3 must find it");
        // Pinned like the default set: the depth-3 chains and their
        // collisions are the ones only this build reaches.
        assert_eq!(deep.len(), 207_247);
        assert_eq!(
            pii_hashes::hex_digest(HashAlgorithm::Sha256, deep.to_text().as_bytes()),
            "bde2247da8603addada072261ba4346bcd850ee48ebf65c3e9106003274d25cf"
        );
    }

    #[test]
    fn uppercase_hex_matches_via_normalization() {
        let set = TokenSetBuilder::default().build(&persona());
        let sha = pii_hashes::hex_digest(HashAlgorithm::Sha256, b"foo@mydom.com").to_uppercase();
        assert!(set.lookup(&sha).is_none());
        assert!(set.lookup_normalized(&sha).is_some());
        // Base64 must NOT match case-insensitively.
        let b64_wrong_case = "zM9VQG15ZG9TLMNVBQ==";
        assert!(set.lookup_normalized(b64_wrong_case).is_none());
    }

    #[test]
    fn lookup_normalized_matches_the_reference() {
        let set = TokenSetBuilder::default().build(&persona());
        let mut candidates: Vec<String> = Vec::new();
        for (token, _) in set.iter().take(400) {
            candidates.push(token.clone());
            candidates.push(token.to_ascii_uppercase());
            candidates.push(format!("{}X", token.to_ascii_uppercase()));
        }
        candidates.extend(["", "ABC", "abc", "Zm9v", "DEADBEEF", "é"].map(String::from));
        for candidate in &candidates {
            assert_eq!(
                set.lookup_normalized(candidate),
                reference::lookup_normalized(&set, candidate),
                "{candidate:?}"
            );
        }
    }

    #[test]
    fn short_tokens_are_excluded() {
        let set = TokenSetBuilder::default().build(&persona());
        // CRC-16 of anything renders as 4 hex chars — below the floor.
        let crc = pii_hashes::hex_digest(HashAlgorithm::Crc16, b"foo@mydom.com");
        assert_eq!(crc.len(), 4);
        assert!(set.lookup(&crc).is_none());
        // But CRC-16 as an *inner* step feeds longer outer tokens:
        let chain = Obfuscation::chain(vec![
            Step::Hash(HashAlgorithm::Crc16),
            Step::Hash(HashAlgorithm::Sha256),
        ]);
        assert!(set.lookup(&chain.apply("foo@mydom.com")).is_some());
    }

    #[test]
    fn all_pii_kinds_are_represented() {
        let set = TokenSetBuilder::default().build(&persona());
        let p = persona();
        for (kind, value) in p.all_values() {
            let sha = pii_hashes::hex_digest(HashAlgorithm::Sha256, value.as_bytes());
            assert_eq!(set.lookup(&sha).unwrap().pii, kind, "{kind:?}");
        }
    }

    #[test]
    fn candidate_set_size_grows_with_depth() {
        let p = persona();
        let d1 = TokenSetBuilder {
            max_depth: 1,
            ..Default::default()
        }
        .build(&p);
        let d2 = TokenSetBuilder {
            max_depth: 2,
            ..Default::default()
        }
        .build(&p);
        assert!(d1.len() > 100, "depth 1: {}", d1.len());
        assert!(d2.len() > d1.len() * 10, "depth 2 should dwarf depth 1");
    }

    #[test]
    fn token_set_text_roundtrip() {
        let set = TokenSetBuilder {
            max_depth: 1,
            ..Default::default()
        }
        .build(&persona());
        let text = set.to_text();
        let back = TokenSet::from_text(&text).unwrap();
        assert_eq!(back.len(), set.len());
        // Every token resolves identically.
        for (token, info) in set.iter() {
            let restored = back.lookup(token).unwrap();
            assert_eq!(restored.pii, info.pii);
            assert_eq!(restored.chain, info.chain);
        }
        // And the format is stable (sorted).
        assert_eq!(TokenSet::from_text(&text).unwrap().to_text(), text);
    }

    #[test]
    fn token_set_text_rejects_garbage() {
        assert!(TokenSet::from_text("no tabs here").is_err());
        assert!(TokenSet::from_text("tok\temail\tunknownstep").is_err());
        assert!(TokenSet::from_text("tok\tnotapii\tsha256").is_err());
        assert!(TokenSet::from_text("").unwrap().is_empty());
    }

    /// The default candidate set of the study persona, pinned by size and
    /// by the SHA-256 of its sorted text form: a change to any digest,
    /// encoding, chain order or collision rule shows up here.
    #[test]
    fn default_token_set_is_pinned() {
        let universe = pii_web::Universe::generate();
        let set = TokenSetBuilder::default().build(&universe.persona);
        assert_eq!(set.len(), 6_950);
        assert_eq!(
            pii_hashes::hex_digest(HashAlgorithm::Sha256, set.to_text().as_bytes()),
            "06bb75478e8e6adbfb9b9fadc83bdb1e0a1183672fe1d6f38a4d0dc385d59562"
        );
    }

    /// The default set plus the compression steps (deflate, gzip, bzip2 and
    /// every encoding of their binary output), pinned the same way: this is
    /// the only pin that runs the compressors on the builder's inputs.
    #[test]
    fn compression_token_set_is_pinned() {
        let universe = pii_web::Universe::generate();
        let set = TokenSetBuilder {
            include_compression: true,
            ..Default::default()
        }
        .build(&universe.persona);
        assert_eq!(set.len(), 8_431);
        assert_eq!(
            pii_hashes::hex_digest(HashAlgorithm::Sha256, set.to_text().as_bytes()),
            "cd2b30737b9caccca2622c772ae4c9c95d519896339dff4aaa3da33b608a7cd2"
        );
    }

    #[test]
    fn collision_prefers_shorter_chain() {
        // rot13 twice is the identity: the plaintext chain must win.
        let set = TokenSetBuilder::default().build(&persona());
        let info = set.lookup("foo@mydom.com").unwrap();
        assert!(info.chain.is_plaintext());
    }
}
