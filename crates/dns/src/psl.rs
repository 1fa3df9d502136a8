//! Public Suffix List engine.
//!
//! Full PSL semantics — normal rules, wildcard rules (`*.ck`), exception
//! rules (`!www.ck`), longest-match-wins, unknown-TLD fallback — over an
//! embedded snapshot of the suffixes that occur in the simulated web (plus
//! the exotic ones needed to exercise the algorithm). The parser accepts the
//! upstream file format, so a user can load the real list with
//! [`PublicSuffixList::parse`].

use std::borrow::Cow;
use std::collections::HashSet;

/// Embedded snapshot in upstream `public_suffix_list.dat` format.
const EMBEDDED: &str = r"
// ===BEGIN ICANN DOMAINS===
com
net
org
io
info
biz
app
dev
shop
store
site
xyz
online
co
jp
co.jp
ne.jp
or.jp
uk
co.uk
org.uk
ac.uk
de
fr
ru
com.ru
in
co.in
br
com.br
au
com.au
cn
com.cn
us
ca
it
es
nl
se
ch
kr
co.kr
mx
com.mx
tr
com.tr
// wildcard + exception rules (exercise full PSL semantics)
ck
*.ck
!www.ck
// ===END ICANN DOMAINS===
// ===BEGIN PRIVATE DOMAINS===
herokuapp.com
github.io
// ===END PRIVATE DOMAINS===
";

/// A parsed Public Suffix List.
#[derive(Debug, Clone)]
pub struct PublicSuffixList {
    rules: HashSet<String>,
    wildcards: HashSet<String>,
    exceptions: HashSet<String>,
}

impl PublicSuffixList {
    /// Parse the upstream file format (comments start with `//`).
    pub fn parse(text: &str) -> Self {
        let mut rules = HashSet::new();
        let mut wildcards = HashSet::new();
        let mut exceptions = HashSet::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with("//") {
                continue;
            }
            if let Some(rest) = line.strip_prefix('!') {
                exceptions.insert(rest.to_ascii_lowercase());
            } else if let Some(rest) = line.strip_prefix("*.") {
                wildcards.insert(rest.to_ascii_lowercase());
            } else {
                rules.insert(line.to_ascii_lowercase());
            }
        }
        PublicSuffixList {
            rules,
            wildcards,
            exceptions,
        }
    }

    /// The embedded snapshot used throughout the simulation.
    pub fn embedded() -> Self {
        Self::parse(EMBEDDED)
    }

    /// Length (in labels) of the public suffix of the normalised `host`, or
    /// 0 when no rule matches (the PSL prescribes treating the last label as
    /// the suffix then — see [`PublicSuffixList::public_suffix`]).
    ///
    /// Every candidate suffix is a slice of `host` that starts at a label
    /// boundary, so the rule lookups borrow it instead of joining labels.
    fn suffix_label_count(&self, host: &str) -> usize {
        let labels = label_count(host);
        let starts = std::iter::once(0).chain(host.match_indices('.').map(|(dot, _)| dot + 1));
        let mut best = 0usize;
        for (start, at) in starts.enumerate() {
            let candidate = &host[at..];
            if self.exceptions.contains(candidate) {
                // Exception rule: the suffix is one label shorter.
                return labels - start - 1;
            }
            if self.rules.contains(candidate) {
                best = best.max(labels - start);
            }
            // Wildcard `*.foo` matches `<anything>.foo`.
            if let Some(dot) = candidate.find('.') {
                if self.wildcards.contains(&candidate[dot + 1..]) {
                    best = best.max(labels - start);
                }
            }
        }
        best
    }

    /// The registrable domain of the normalised `host`, borrowed from it.
    fn registrable<'h>(&self, host: &'h str) -> Option<&'h str> {
        let n = self.suffix_label_count(host).max(1); // 0: unknown TLD fallback
        if label_count(host) <= n {
            return None;
        }
        Some(last_labels(host, n + 1))
    }

    /// The public suffix (eTLD) of `host`.
    pub fn public_suffix(&self, host: &str) -> String {
        let host = normalise(host);
        // 0 (unknown TLD): the prevailing rule is "*", i.e. the last label.
        let n = self.suffix_label_count(&host).max(1);
        last_labels(&host, n).to_string()
    }

    /// The registrable domain (eTLD+1) of `host`, or `None` when the host
    /// *is* a public suffix.
    pub fn registrable_domain(&self, host: &str) -> Option<String> {
        self.registrable_domain_cow(host).map(Cow::into_owned)
    }

    /// [`registrable_domain`](Self::registrable_domain) borrowed from
    /// `host`: it allocates only when `host` holds an uppercase byte.
    pub fn registrable_domain_cow<'h>(&self, host: &'h str) -> Option<Cow<'h, str>> {
        match normalise(host) {
            Cow::Borrowed(host) => self.registrable(host).map(Cow::Borrowed),
            Cow::Owned(host) => self.registrable(&host).map(|rd| Cow::Owned(rd.to_string())),
        }
    }

    /// Whether two hosts belong to the same site (same registrable domain).
    pub fn same_site(&self, a: &str, b: &str) -> bool {
        let (a, b) = (normalise(a), normalise(b));
        match (self.registrable(&a), self.registrable(&b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }
}

/// `host` without trailing dots, ASCII-lowercased; borrowed unless it holds
/// an uppercase byte.
fn normalise(host: &str) -> Cow<'_, str> {
    let host = host.trim_end_matches('.');
    if host.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(host.to_ascii_lowercase())
    } else {
        Cow::Borrowed(host)
    }
}

/// Number of dot-separated labels in `host` (empty labels count).
fn label_count(host: &str) -> usize {
    host.bytes().filter(|&b| b == b'.').count() + 1
}

/// The last `n` labels of `host`, or all of it when it has no more.
fn last_labels(host: &str, n: usize) -> &str {
    match host.rmatch_indices('.').nth(n - 1) {
        Some((dot, _)) => &host[dot + 1..],
        None => host,
    }
}

/// The label-joining implementation the borrowed-slice one replaced, kept
/// as the oracle for the differential test below.
#[cfg(test)]
mod reference {
    use super::PublicSuffixList;

    fn suffix_label_count(psl: &PublicSuffixList, labels: &[&str]) -> usize {
        let mut best = 0usize;
        for start in 0..labels.len() {
            let candidate = labels[start..].join(".");
            if psl.exceptions.contains(&candidate) {
                return labels.len() - start - 1;
            }
            if psl.rules.contains(&candidate) {
                best = best.max(labels.len() - start);
            }
            if start + 1 < labels.len() {
                let parent = labels[start + 1..].join(".");
                if psl.wildcards.contains(&parent) {
                    best = best.max(labels.len() - start);
                }
            }
        }
        best
    }

    pub fn public_suffix(psl: &PublicSuffixList, host: &str) -> String {
        let host = host.trim_end_matches('.').to_ascii_lowercase();
        let labels: Vec<&str> = host.split('.').collect();
        let n = suffix_label_count(psl, &labels);
        if n == 0 {
            labels.last().copied().unwrap_or("").to_string()
        } else {
            labels[labels.len() - n..].join(".")
        }
    }

    pub fn registrable_domain(psl: &PublicSuffixList, host: &str) -> Option<String> {
        let host = host.trim_end_matches('.').to_ascii_lowercase();
        let labels: Vec<&str> = host.split('.').collect();
        let n = match suffix_label_count(psl, &labels) {
            0 => 1,
            n => n,
        };
        if labels.len() <= n {
            return None;
        }
        Some(labels[labels.len() - n - 1..].join("."))
    }

    pub fn same_site(psl: &PublicSuffixList, a: &str, b: &str) -> bool {
        match (registrable_domain(psl, a), registrable_domain(psl, b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn psl() -> PublicSuffixList {
        PublicSuffixList::embedded()
    }

    /// Labels that exercise every rule kind: normal, multi-label, wildcard
    /// and exception, private, unknown, mixed case, non-ASCII and empty.
    const LABELS: &[&str] = &[
        "",
        "a",
        "x-1",
        "www",
        "WWW",
        "Www",
        "example",
        "Shop",
        "com",
        "COM",
        "co",
        "Co",
        "jp",
        "uk",
        "io",
        "ck",
        "CK",
        "bar",
        "herokuapp",
        "HerokuApp",
        "github",
        "weirdtld",
        "é",
        "É",
    ];

    fn assert_matches_reference(p: &PublicSuffixList, a: &str, b: &str) {
        for h in [a, b] {
            assert_eq!(p.public_suffix(h), reference::public_suffix(p, h), "{h:?}");
            assert_eq!(
                p.registrable_domain(h),
                reference::registrable_domain(p, h),
                "{h:?}"
            );
            assert_eq!(
                p.registrable_domain_cow(h).as_deref(),
                reference::registrable_domain(p, h).as_deref(),
                "{h:?}"
            );
        }
        assert_eq!(
            p.same_site(a, b),
            reference::same_site(p, a, b),
            "{a:?} vs {b:?}"
        );
    }

    proptest! {
        /// Slice-based classification equals the label-joining reference
        /// on hosts built from rule-bearing labels, and on a subdomain of
        /// each (the same-site case).
        #[test]
        fn classification_matches_reference_on_rule_labels(
            picks in proptest::collection::vec(proptest::collection::vec(0..LABELS.len(), 0..6), 32..33),
        ) {
            let p = psl();
            // An empty first or last label makes a leading or trailing dot.
            let hosts: Vec<String> = picks
                .iter()
                .map(|picks| picks.iter().map(|&i| LABELS[i]).collect::<Vec<_>>().join("."))
                .collect();
            for pair in hosts.windows(2) {
                assert_matches_reference(&p, &pair[0], &pair[1]);
                assert_matches_reference(&p, &format!("Sub.{}", pair[0]), &pair[0]);
            }
        }

        /// …and on arbitrary strings over the host alphabet and its
        /// neighbours, and on suffix-bearing hosts against their uppercase
        /// form.
        #[test]
        fn classification_matches_reference_on_arbitrary_hosts(
            arbitrary in proptest::collection::vec("[a-zA-Z0-9._éÉ-]{0,20}", 32..33),
            suffixed in proptest::collection::vec(
                "[a-cA-C.]{0,8}(\\.(com|co\\.jp|ck|www\\.ck|herokuapp\\.com|github\\.io)){0,1}\\.{0,2}",
                32..33,
            ),
        ) {
            let p = psl();
            for (a, b) in arbitrary.iter().zip(&suffixed) {
                assert_matches_reference(&p, a, b);
                assert_matches_reference(&p, b, &b.to_ascii_uppercase());
            }
        }
    }

    #[test]
    fn classification_matches_reference_on_edge_hosts() {
        let p = psl();
        let hosts = [
            "",
            ".",
            "..",
            "a..com",
            ".com",
            "com.",
            "COM",
            "Example.Com.",
            "a.b.c.d.co.jp",
            "www.ck",
            "WWW.CK",
            "sub.www.ck",
            "bar.ck",
            "x.foo.bar.ck",
            "ck",
            ".ck",
            "herokuapp.com",
            "app.herokuapp.com",
            "a.b.HEROKUAPP.com",
            "host.weirdtld",
            "weirdtld",
            "a.github.io",
            "é.com",
            "X.É.co.uk",
        ];
        for a in hosts {
            for b in hosts {
                assert_matches_reference(&p, a, b);
            }
        }
    }

    #[test]
    fn simple_tld() {
        assert_eq!(psl().public_suffix("shop.example.com"), "com");
        assert_eq!(
            psl().registrable_domain("shop.example.com").as_deref(),
            Some("example.com")
        );
        assert_eq!(
            psl().registrable_domain("example.com").as_deref(),
            Some("example.com")
        );
    }

    #[test]
    fn cc_second_level() {
        assert_eq!(psl().public_suffix("www.shop.co.jp"), "co.jp");
        assert_eq!(
            psl().registrable_domain("www.shop.co.jp").as_deref(),
            Some("shop.co.jp")
        );
    }

    #[test]
    fn bare_suffix_has_no_registrable_domain() {
        assert_eq!(psl().registrable_domain("com"), None);
        assert_eq!(psl().registrable_domain("co.uk"), None);
    }

    #[test]
    fn wildcard_rule() {
        // *.ck: anything.ck is a suffix, so x.anything.ck registers.
        assert_eq!(psl().public_suffix("foo.bar.ck"), "bar.ck");
        assert_eq!(
            psl().registrable_domain("x.foo.bar.ck").as_deref(),
            Some("foo.bar.ck")
        );
        assert_eq!(psl().registrable_domain("bar.ck"), None);
    }

    #[test]
    fn exception_rule() {
        // !www.ck: www.ck is registrable despite *.ck.
        assert_eq!(
            psl().registrable_domain("www.ck").as_deref(),
            Some("www.ck")
        );
        assert_eq!(
            psl().registrable_domain("sub.www.ck").as_deref(),
            Some("www.ck")
        );
    }

    #[test]
    fn private_domain_rules() {
        // herokuapp.com is a suffix: each app is its own site — this is why
        // Brave missing herokuapp.com matters in §7.1.
        assert_eq!(
            psl().registrable_domain("myapp.herokuapp.com").as_deref(),
            Some("myapp.herokuapp.com")
        );
        assert!(!psl().same_site("a.herokuapp.com", "b.herokuapp.com"));
    }

    #[test]
    fn unknown_tld_falls_back_to_last_label() {
        assert_eq!(psl().public_suffix("host.weirdtld"), "weirdtld");
        assert_eq!(
            psl().registrable_domain("a.b.weirdtld").as_deref(),
            Some("b.weirdtld")
        );
    }

    #[test]
    fn same_site_classification() {
        let p = psl();
        assert!(p.same_site("www.shop.com", "api.shop.com"));
        assert!(!p.same_site("shop.com", "tracker.net"));
        assert!(!p.same_site("a.co.uk", "co.uk"));
    }

    #[test]
    fn case_and_trailing_dot_normalised() {
        assert_eq!(
            psl().registrable_domain("WWW.Example.COM.").as_deref(),
            Some("example.com")
        );
    }
}
