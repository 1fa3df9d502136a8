//! PII obfuscation chains — how a tracker tag transforms a PII string
//! before exfiltrating it.
//!
//! A chain is a sequence of at most three steps (the paper encodes/hashes
//! "each PII at most three times"), each either a hash (rendered as
//! lowercase hex, as trackers do) or a text encoding. The canonical Table 1b
//! categories map onto chains:
//!
//! * Plaintext → empty chain
//! * SHA256 → `[Hash(Sha256)]`
//! * "SHA256 of MD5" → `[Hash(Md5), Hash(Sha256)]`
//! * BASE64 → `[Encode(Base64)]`
//!
//! The same type drives the detector's candidate-token precomputation in
//! `pii-core::tokens`, which is what makes obfuscated leaks findable.

use pii_encodings::EncodingKind;
use pii_hashes::HashAlgorithm;
use serde::{Deserialize, Serialize};

/// One obfuscation step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Step {
    /// Hash, rendered as lowercase hex.
    Hash(#[serde(with = "hash_serde")] HashAlgorithm),
    /// Text encoding applied to the previous stage's bytes.
    Encode(#[serde(with = "enc_serde")] EncodingKind),
}

mod hash_serde {
    use pii_hashes::HashAlgorithm;
    use serde::{Deserialize, Deserializer, Serializer};

    pub fn serialize<S: Serializer>(alg: &HashAlgorithm, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(alg.name())
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<HashAlgorithm, D::Error> {
        let name = String::deserialize(d)?;
        HashAlgorithm::from_name(&name)
            .ok_or_else(|| serde::de::Error::custom(format!("unknown hash {name}")))
    }
}

mod enc_serde {
    use pii_encodings::EncodingKind;
    use serde::{Deserialize, Deserializer, Serializer};

    pub fn serialize<S: Serializer>(kind: &EncodingKind, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(kind.name())
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<EncodingKind, D::Error> {
        let name = String::deserialize(d)?;
        EncodingKind::from_name(&name)
            .ok_or_else(|| serde::de::Error::custom(format!("unknown encoding {name}")))
    }
}

impl Step {
    /// Apply this step to `input` bytes, producing the next stage's bytes.
    pub fn apply(self, input: &[u8]) -> Vec<u8> {
        match self {
            Step::Hash(alg) => pii_hashes::hex_digest(alg, input).into_bytes(),
            Step::Encode(kind) => kind.encode(input),
        }
    }

    /// Short label for reports (`sha256`, `base64`, …).
    pub fn label(self) -> &'static str {
        match self {
            Step::Hash(alg) => alg.name(),
            Step::Encode(kind) => kind.name(),
        }
    }
}

/// An obfuscation chain (0–3 steps).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize)]
pub struct Obfuscation {
    pub steps: Vec<Step>,
}

impl Obfuscation {
    /// Plaintext: no transformation.
    pub fn plaintext() -> Self {
        Obfuscation { steps: Vec::new() }
    }

    /// Single hash.
    pub fn hash(alg: HashAlgorithm) -> Self {
        Obfuscation {
            steps: vec![Step::Hash(alg)],
        }
    }

    /// Single encoding.
    pub fn encode(kind: EncodingKind) -> Self {
        Obfuscation {
            steps: vec![Step::Encode(kind)],
        }
    }

    /// Arbitrary chain (panics beyond 3 steps — the paper's bound, which
    /// the detector's candidate generator also assumes).
    pub fn chain(steps: Vec<Step>) -> Self {
        assert!(
            steps.len() <= 3,
            "obfuscation chains are bounded at 3 steps"
        );
        Obfuscation { steps }
    }

    /// The "SHA256 of MD5" form two Criteo-feeding sites use (§4.2.2).
    pub fn sha256_of_md5() -> Self {
        Obfuscation::chain(vec![
            Step::Hash(HashAlgorithm::Md5),
            Step::Hash(HashAlgorithm::Sha256),
        ])
    }

    /// Apply the whole chain to a PII string; the result is the token that
    /// appears on the wire.
    pub fn apply(&self, pii: &str) -> String {
        let Some((first, rest)) = self.steps.split_first() else {
            return pii.to_string();
        };
        let mut bytes = first.apply(pii.as_bytes());
        for step in rest {
            bytes = step.apply(&bytes);
        }
        String::from_utf8(bytes)
            .unwrap_or_else(|invalid| String::from_utf8_lossy(invalid.as_bytes()).into_owned())
    }

    /// Report label: `plaintext`, `sha256`, `sha256(md5)`, `base64+sha1`…
    pub fn label(&self) -> String {
        match self.steps.as_slice() {
            [] => "plaintext".to_string(),
            [one] => one.label().to_string(),
            [a, b] => format!("{}({})", b.label(), a.label()),
            rest => {
                let names: Vec<&str> = rest.iter().map(|s| s.label()).collect();
                names.join("+")
            }
        }
    }

    /// The Table 1b bucket this chain belongs to.
    pub fn table1b_bucket(&self) -> &'static str {
        use EncodingKind as E;
        use HashAlgorithm as H;
        match self.steps.as_slice() {
            [] => "plaintext",
            [Step::Encode(E::Base64)] | [Step::Encode(E::Base64Url)] => "base64",
            [Step::Hash(H::Md5)] => "md5",
            [Step::Hash(H::Sha1)] => "sha1",
            [Step::Hash(H::Sha256)] => "sha256",
            [Step::Hash(H::Md5), Step::Hash(H::Sha256)] => "sha256_of_md5",
            _ => "other",
        }
    }

    pub fn is_plaintext(&self) -> bool {
        self.steps.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plaintext_is_identity() {
        assert_eq!(
            Obfuscation::plaintext().apply("foo@mydom.com"),
            "foo@mydom.com"
        );
        assert_eq!(Obfuscation::plaintext().label(), "plaintext");
    }

    #[test]
    fn sha256_produces_hex() {
        let token = Obfuscation::hash(HashAlgorithm::Sha256).apply("foo@mydom.com");
        assert_eq!(token.len(), 64);
        assert!(token.chars().all(|c| c.is_ascii_hexdigit()));
        // And equals a direct digest of the string.
        assert_eq!(
            token,
            pii_hashes::hex_digest(HashAlgorithm::Sha256, b"foo@mydom.com")
        );
    }

    #[test]
    fn sha256_of_md5_chains_on_hex_string() {
        let md5 = pii_hashes::hex_digest(HashAlgorithm::Md5, b"foo@mydom.com");
        let expected = pii_hashes::hex_digest(HashAlgorithm::Sha256, md5.as_bytes());
        assert_eq!(
            Obfuscation::sha256_of_md5().apply("foo@mydom.com"),
            expected
        );
        assert_eq!(Obfuscation::sha256_of_md5().label(), "sha256(md5)");
        assert_eq!(
            Obfuscation::sha256_of_md5().table1b_bucket(),
            "sha256_of_md5"
        );
    }

    #[test]
    fn base64_bucket() {
        let chain = Obfuscation::encode(EncodingKind::Base64);
        assert_eq!(chain.apply("foo@mydom.com"), "Zm9vQG15ZG9tLmNvbQ==");
        assert_eq!(chain.table1b_bucket(), "base64");
    }

    #[test]
    fn triple_chain_applies_in_order() {
        use pii_encodings::EncodingKind as E;
        use pii_hashes::HashAlgorithm as H;
        let chain = Obfuscation::chain(vec![
            Step::Encode(E::Base64),
            Step::Hash(H::Sha1),
            Step::Hash(H::Sha256),
        ]);
        let b64 = E::Base64.encode(b"foo@mydom.com");
        let sha1 = pii_hashes::hex_digest(H::Sha1, &b64);
        let expected = pii_hashes::hex_digest(H::Sha256, sha1.as_bytes());
        assert_eq!(chain.apply("foo@mydom.com"), expected);
        assert_eq!(chain.table1b_bucket(), "other");
        assert_eq!(chain.label(), "base64+sha1+sha256");
    }

    #[test]
    #[should_panic(expected = "bounded at 3")]
    fn four_steps_rejected() {
        use pii_hashes::HashAlgorithm as H;
        let _ = Obfuscation::chain(vec![
            Step::Hash(H::Md5),
            Step::Hash(H::Md5),
            Step::Hash(H::Md5),
            Step::Hash(H::Md5),
        ]);
    }

    #[test]
    fn serde_roundtrip() {
        let chain = Obfuscation::sha256_of_md5();
        let json = serde_json::to_string(&chain).unwrap();
        let back: Obfuscation = serde_json::from_str(&json).unwrap();
        assert_eq!(chain, back);
    }
}
