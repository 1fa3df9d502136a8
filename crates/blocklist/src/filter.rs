//! Adblock Plus filter rule parsing.
//!
//! Supported grammar (the subset that EasyList/EasyPrivacy network rules
//! actually use):
//!
//! ```text
//! [@@]pattern[$option,option,...]
//! pattern := ["||" | "|"] literal-with-*-and-^ ["|"]
//! option  := third-party | ~third-party | script | image | stylesheet
//!          | xmlhttprequest | subdocument | ping | document
//!          | domain=a.com|~b.com
//! ```
//!
//! Comments (`!`), element-hiding rules (`##`, `#@#`, `#?#`), and empty
//! lines parse to [`ParseOutcome::Ignored`].

use serde::{Deserialize, Serialize};

/// Resource-type constraint bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TypeMask(pub u16);

impl TypeMask {
    pub const SCRIPT: u16 = 1 << 0;
    pub const IMAGE: u16 = 1 << 1;
    pub const STYLESHEET: u16 = 1 << 2;
    pub const XHR: u16 = 1 << 3;
    pub const SUBDOCUMENT: u16 = 1 << 4;
    pub const PING: u16 = 1 << 5;
    pub const DOCUMENT: u16 = 1 << 6;
    pub const ALL: TypeMask = TypeMask(0x7f);

    pub fn from_option(name: &str) -> Option<u16> {
        Some(match name {
            "script" => Self::SCRIPT,
            "image" => Self::IMAGE,
            "stylesheet" => Self::STYLESHEET,
            "xmlhttprequest" => Self::XHR,
            "subdocument" => Self::SUBDOCUMENT,
            "ping" | "beacon" => Self::PING,
            "document" => Self::DOCUMENT,
            _ => return None,
        })
    }

    pub fn contains(self, bit: u16) -> bool {
        self.0 & bit != 0
    }
}

/// Parsed `$` options of a filter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterOptions {
    /// `Some(true)` = `$third-party`, `Some(false)` = `$~third-party`.
    pub third_party: Option<bool>,
    /// Resource types the rule applies to.
    pub types: TypeMask,
    /// `$domain=` includes (empty = all).
    pub include_domains: Vec<String>,
    /// `$domain=~` excludes.
    pub exclude_domains: Vec<String>,
}

impl Default for FilterOptions {
    fn default() -> Self {
        FilterOptions {
            third_party: None,
            types: TypeMask::ALL,
            include_domains: Vec::new(),
            exclude_domains: Vec::new(),
        }
    }
}

/// Pattern anchoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Anchor {
    /// `||` — match at a domain-label boundary of the URL's host.
    Domain,
    /// `|` — match at the very start of the URL.
    Start,
    /// No anchor — match anywhere.
    None,
}

/// A parsed network filter rule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Filter {
    /// Original rule text, for reporting.
    pub raw: String,
    /// `@@` exception rule.
    pub exception: bool,
    pub anchor: Anchor,
    /// `true` when the pattern ends with `|`.
    pub end_anchor: bool,
    /// Pattern split on `*`; `^` separators remain in the segments and are
    /// interpreted during matching.
    pub segments: Vec<String>,
    pub options: FilterOptions,
}

/// Result of parsing one list line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseOutcome {
    Rule(Filter),
    /// Comment, cosmetic rule, or unsupported option — skipped, as
    /// `adblockparser` does.
    Ignored,
}

impl Filter {
    /// Parse one line of an ABP list.
    pub fn parse(line: &str) -> ParseOutcome {
        let line = line.trim();
        if line.is_empty() || line.starts_with('!') || line.starts_with('[') {
            return ParseOutcome::Ignored;
        }
        // Element-hiding and snippet rules.
        if line.contains("##") || line.contains("#@#") || line.contains("#?#") {
            return ParseOutcome::Ignored;
        }
        let (mut pattern, exception) = match line.strip_prefix("@@") {
            Some(rest) => (rest, true),
            None => (line, false),
        };
        // Split options at the last '$' that is followed by an option-ish
        // tail (EasyList never escapes '$', and '$' in URLs is rare enough
        // that this heuristic matches adblockparser's behaviour).
        let mut options = FilterOptions::default();
        if let Some(idx) = pattern.rfind('$') {
            let tail = &pattern[idx + 1..];
            if !tail.is_empty()
                && tail.split(',').all(|o| {
                    let o = o.trim_start_matches('~');
                    o.chars().all(|c| {
                        c.is_ascii_alphanumeric()
                            || c == '-'
                            || c == '='
                            || c == '|'
                            || c == '.'
                            || c == '~'
                            || c == '_'
                    })
                })
            {
                match parse_options(tail) {
                    Some(parsed) => {
                        options = parsed;
                        pattern = &pattern[..idx];
                    }
                    None => return ParseOutcome::Ignored, // unsupported option
                }
            }
        }
        let (pattern, anchor) = if let Some(rest) = pattern.strip_prefix("||") {
            (rest, Anchor::Domain)
        } else if let Some(rest) = pattern.strip_prefix('|') {
            (rest, Anchor::Start)
        } else {
            (pattern, Anchor::None)
        };
        let (pattern, end_anchor) = match pattern.strip_suffix('|') {
            Some(rest) => (rest, true),
            None => (pattern, false),
        };
        let segments: Vec<String> = pattern.split('*').map(|s| s.to_ascii_lowercase()).collect();
        // A rule with no literal content would match every URL (an empty
        // `@@` would whitelist the entire web); drop it like the upstream
        // parsers do.
        if segments.iter().all(|s| s.is_empty()) {
            return ParseOutcome::Ignored;
        }
        ParseOutcome::Rule(Filter {
            raw: line.to_string(),
            exception,
            anchor,
            end_anchor,
            segments,
            options,
        })
    }

    /// The host of a `||` rule, used by the matcher's domain index: the
    /// text before the `^` or `/` that ends it inside the first segment.
    /// The index only looks a rule up under the request host's own
    /// suffixes, so a rule is indexed only when its key must be one: a key
    /// that no terminator ends (`||example.com*foo` also matches
    /// `example.com.evil.net`), that ends in `.` (`||ads.example.` matches
    /// `ads.example.org`) or that holds no dot (`||ads` matches mid-label)
    /// stays in the linear scan.
    pub fn domain_key(&self) -> Option<String> {
        if self.anchor != Anchor::Domain {
            return None;
        }
        let first = self.segments.first()?;
        let key = &first[..first.find(['^', '/'])?];
        if key.ends_with('.') || !key.contains('.') {
            return None;
        }
        Some(key.to_string())
    }
}

fn parse_options(tail: &str) -> Option<FilterOptions> {
    let mut opts = FilterOptions::default();
    let mut type_bits = 0u16;
    let mut inverse_type_bits = 0u16;
    for raw in tail.split(',') {
        let raw = raw.trim();
        if raw.is_empty() {
            continue;
        }
        if let Some(domains) = raw.strip_prefix("domain=") {
            for d in domains.split('|') {
                if let Some(ex) = d.strip_prefix('~') {
                    opts.exclude_domains.push(ex.to_ascii_lowercase());
                } else {
                    opts.include_domains.push(d.to_ascii_lowercase());
                }
            }
            continue;
        }
        if raw == "third-party" || raw == "3p" {
            opts.third_party = Some(true);
            continue;
        }
        if raw == "~third-party" || raw == "1p" {
            opts.third_party = Some(false);
            continue;
        }
        if let Some(name) = raw.strip_prefix('~') {
            if let Some(bit) = TypeMask::from_option(name) {
                inverse_type_bits |= bit;
                continue;
            }
        }
        if let Some(bit) = TypeMask::from_option(raw) {
            type_bits |= bit;
            continue;
        }
        // Unsupported option (websocket, popup, csp, …): skip the rule,
        // matching adblockparser's conservative behaviour.
        return None;
    }
    opts.types = if type_bits != 0 {
        TypeMask(type_bits)
    } else if inverse_type_bits != 0 {
        TypeMask(TypeMask::ALL.0 & !inverse_type_bits)
    } else {
        TypeMask::ALL
    };
    Some(opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(line: &str) -> Filter {
        match Filter::parse(line) {
            ParseOutcome::Rule(f) => f,
            ParseOutcome::Ignored => panic!("rule ignored: {line}"),
        }
    }

    #[test]
    fn parses_domain_anchor() {
        let f = rule("||tracker.net^");
        assert_eq!(f.anchor, Anchor::Domain);
        assert_eq!(f.segments, vec!["tracker.net^"]);
        assert!(!f.exception);
        assert_eq!(f.domain_key().as_deref(), Some("tracker.net"));
    }

    #[test]
    fn parses_options() {
        let f = rule("||pixel.net^$third-party,image,domain=shop.com|~sub.shop.com");
        assert_eq!(f.options.third_party, Some(true));
        assert!(f.options.types.contains(TypeMask::IMAGE));
        assert!(!f.options.types.contains(TypeMask::SCRIPT));
        assert_eq!(f.options.include_domains, vec!["shop.com"]);
        assert_eq!(f.options.exclude_domains, vec!["sub.shop.com"]);
    }

    #[test]
    fn parses_exception() {
        let f = rule("@@||cdn.good.com^$script");
        assert!(f.exception);
        assert!(f.options.types.contains(TypeMask::SCRIPT));
    }

    #[test]
    fn parses_wildcards_and_anchors() {
        let f = rule("|http://ads.*/banner|");
        assert_eq!(f.anchor, Anchor::Start);
        assert!(f.end_anchor);
        assert_eq!(f.segments, vec!["http://ads.", "/banner"]);
    }

    #[test]
    fn inverse_type_options() {
        let f = rule("/analytics.js$~image");
        assert!(f.options.types.contains(TypeMask::SCRIPT));
        assert!(!f.options.types.contains(TypeMask::IMAGE));
    }

    #[test]
    fn ignores_comments_and_cosmetic() {
        assert_eq!(Filter::parse("! comment"), ParseOutcome::Ignored);
        assert_eq!(Filter::parse("[Adblock Plus 2.0]"), ParseOutcome::Ignored);
        assert_eq!(
            Filter::parse("example.com##.ad-banner"),
            ParseOutcome::Ignored
        );
        assert_eq!(Filter::parse(""), ParseOutcome::Ignored);
    }

    #[test]
    fn ignores_unsupported_options() {
        assert_eq!(Filter::parse("||x.com^$websocket"), ParseOutcome::Ignored);
        assert_eq!(
            Filter::parse("||x.com^$csp=script-src"),
            ParseOutcome::Ignored
        );
    }

    #[test]
    fn plain_substring_rule() {
        let f = rule("/pixel?email=");
        assert_eq!(f.anchor, Anchor::None);
        assert_eq!(f.domain_key(), None);
        assert_eq!(f.segments, vec!["/pixel?email="]);
    }
}
