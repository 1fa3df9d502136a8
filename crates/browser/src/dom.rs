//! A minimal HTML tokenizer and resource-discovery pass.
//!
//! Just enough HTML5-ish parsing for what a measurement browser needs:
//! start tags with quoted/unquoted attributes, self-closing tags, comments,
//! doctype, raw-text handling for `<script>`/`<style>` bodies, and document
//! order. No tree is built — resource discovery and form extraction only
//! need the flat element sequence.

use pii_net::http::ResourceKind;
use pii_net::Url;
use std::borrow::Cow;

/// One parsed start tag (or raw-text element with its content), borrowing
/// from the parsed document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Element<'a> {
    /// Lowercased tag name.
    pub tag: Cow<'a, str>,
    /// Attributes in document order, names lowercased, values with entities
    /// decoded.
    pub attrs: Vec<(Cow<'a, str>, Cow<'a, str>)>,
    /// Raw text content for `<script>`/`<style>` elements.
    pub text: Option<&'a str>,
}

impl Element<'_> {
    /// First value of attribute `name` (names are stored lowercased, so a
    /// lowercase `name` matches case-insensitively).
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_ref())
    }
}

/// Decode the five named entities [`crate::dom`] emits and numeric ones;
/// borrowed when `s` holds no `&`.
fn decode_entities(s: &str) -> Cow<'_, str> {
    if !s.contains('&') {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        if c != '&' {
            out.push(c);
            continue;
        }
        let rest = &s[i..];
        let known: &[(&str, char)] = &[
            ("&amp;", '&'),
            ("&lt;", '<'),
            ("&gt;", '>'),
            ("&quot;", '"'),
            ("&#39;", '\''),
        ];
        if let Some((entity, ch)) = known.iter().find(|(e, _)| rest.starts_with(e)) {
            out.push(*ch);
            for _ in 0..entity.len() - 1 {
                chars.next();
            }
        } else {
            out.push('&');
        }
    }
    Cow::Owned(out)
}

/// `s` ASCII-lowercased, borrowed when it holds no uppercase byte.
fn lowercase(s: &str) -> Cow<'_, str> {
    if s.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(s.to_ascii_lowercase())
    } else {
        Cow::Borrowed(s)
    }
}

/// Byte offset of the first ASCII-case-insensitive match of the lowercase
/// `needle` (which starts with `<`) in `haystack`.
fn find_tag_ignore_case(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    let mut from = 0;
    while let Some(at) = haystack[from..].iter().position(|&b| b == b'<') {
        let start = from + at;
        if haystack
            .get(start..start + needle.len())
            .is_some_and(|window| window.eq_ignore_ascii_case(needle))
        {
            return Some(start);
        }
        from = start + 1;
    }
    None
}

/// Tokenize `html` into its start tags, in document order. Tag names,
/// attributes and raw text borrow from `html`; only a name spelled with
/// uppercase or a value holding an entity is copied.
pub fn parse(html: &str) -> Vec<Element<'_>> {
    let bytes = html.as_bytes();
    // Every element starts at a `<`, so their count bounds the elements.
    let mut out = Vec::with_capacity(bytes.iter().filter(|&&b| b == b'<').count());
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] != b'<' {
            i += 1;
            continue;
        }
        // Comment?
        if html[i..].starts_with("<!--") {
            i = html[i..]
                .find("-->")
                .map(|p| i + p + 3)
                .unwrap_or(bytes.len());
            continue;
        }
        // Doctype / processing instruction / end tag: skip to '>'.
        if html[i..].starts_with("<!") || html[i..].starts_with("<?") || html[i..].starts_with("</")
        {
            i = html[i..]
                .find('>')
                .map(|p| i + p + 1)
                .unwrap_or(bytes.len());
            continue;
        }
        // Start tag.
        let tag_start = i + 1;
        let mut j = tag_start;
        while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'-') {
            j += 1;
        }
        if j == tag_start {
            i += 1; // lone '<'
            continue;
        }
        let tag = lowercase(&html[tag_start..j]);
        // Attributes until '>'.
        let mut attrs = Vec::new();
        while j < bytes.len() && bytes[j] != b'>' {
            // Skip whitespace and '/'.
            if bytes[j].is_ascii_whitespace() || bytes[j] == b'/' {
                j += 1;
                continue;
            }
            // Attribute name.
            let name_start = j;
            while j < bytes.len()
                && !bytes[j].is_ascii_whitespace()
                && !matches!(bytes[j], b'=' | b'>' | b'/')
            {
                j += 1;
            }
            let name = lowercase(&html[name_start..j]);
            // Optional value.
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            let mut value = Cow::Borrowed("");
            if j < bytes.len() && bytes[j] == b'=' {
                j += 1;
                while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                    j += 1;
                }
                if j < bytes.len() && (bytes[j] == b'"' || bytes[j] == b'\'') {
                    let quote = bytes[j];
                    j += 1;
                    let v_start = j;
                    while j < bytes.len() && bytes[j] != quote {
                        j += 1;
                    }
                    value = decode_entities(&html[v_start..j]);
                    j += 1; // closing quote
                } else {
                    let v_start = j;
                    while j < bytes.len() && !bytes[j].is_ascii_whitespace() && bytes[j] != b'>' {
                        j += 1;
                    }
                    value = decode_entities(&html[v_start..j]);
                }
            }
            if !name.is_empty() {
                attrs.push((name, value));
            }
        }
        // Past '>'; a start tag cut off by the end of input ends there.
        i = j.saturating_add(1).min(bytes.len());
        // Raw-text elements capture everything until their end tag.
        let text = if tag == "script" || tag == "style" {
            let close: &[u8] = if tag == "script" {
                b"</script"
            } else {
                b"</style"
            };
            let end = find_tag_ignore_case(&bytes[i..], close)
                .map(|p| i + p)
                .unwrap_or(bytes.len());
            let content = &html[i..end];
            i = html[end..]
                .find('>')
                .map(|p| end + p + 1)
                .unwrap_or(bytes.len());
            Some(content)
        } else {
            None
        };
        out.push(Element { tag, attrs, text });
    }
    out
}

/// A form as discovered in markup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscoveredForm {
    /// "get" or "post".
    pub method: String,
    /// Resolved action URL.
    pub action: Url,
    /// Input field names in document order.
    pub fields: Vec<String>,
}

/// One fetchable resource, in document order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscoveredResource {
    pub url: Url,
    pub kind: ResourceKind,
}

/// Everything a page load needs from the document.
#[derive(Debug, Clone, Default)]
pub struct Discovery {
    pub resources: Vec<DiscoveredResource>,
    /// Inline `<script>` bodies, in document order *interleaved* with
    /// resources via [`Discovery::items`] ordering indices.
    pub inline_scripts: Vec<(usize, String)>,
    pub forms: Vec<DiscoveredForm>,
    /// Resource order indices (position among all discovered items) so the
    /// engine can execute inline scripts and fetches in document order.
    pub resource_order: Vec<usize>,
}

impl Default for DiscoveredForm {
    fn default() -> Self {
        DiscoveredForm {
            method: "get".into(),
            action: Url::parse("https://invalid.example/").unwrap(),
            fields: Vec::new(),
        }
    }
}

/// Walk the element stream and resolve all fetchable references against
/// `base`.
pub fn discover(base: &Url, elements: &[Element<'_>]) -> Discovery {
    // At most one resource per element.
    let mut d = Discovery {
        resources: Vec::with_capacity(elements.len()),
        resource_order: Vec::with_capacity(elements.len()),
        ..Discovery::default()
    };
    let mut order = 0usize;
    let mut current_form: Option<DiscoveredForm> = None;
    for el in elements {
        match el.tag.as_ref() {
            "link" if el.attr("rel") == Some("stylesheet") => {
                if let Some(href) = el.attr("href") {
                    if let Ok(url) = base.join(href) {
                        d.resources.push(DiscoveredResource {
                            url,
                            kind: ResourceKind::Stylesheet,
                        });
                        d.resource_order.push(order);
                        order += 1;
                    }
                }
            }
            "img" => {
                if let Some(src) = el.attr("src") {
                    if let Ok(url) = base.join(src) {
                        d.resources.push(DiscoveredResource {
                            url,
                            kind: ResourceKind::Image,
                        });
                        d.resource_order.push(order);
                        order += 1;
                    }
                }
            }
            "iframe" => {
                if let Some(src) = el.attr("src") {
                    if let Ok(url) = base.join(src) {
                        d.resources.push(DiscoveredResource {
                            url,
                            kind: ResourceKind::Subdocument,
                        });
                        d.resource_order.push(order);
                        order += 1;
                    }
                }
            }
            "script" => match el.attr("src") {
                Some(src) => {
                    if let Ok(url) = base.join(src) {
                        d.resources.push(DiscoveredResource {
                            url,
                            kind: ResourceKind::Script,
                        });
                        d.resource_order.push(order);
                        order += 1;
                    }
                }
                None => {
                    if let Some(text) = el.text {
                        if !text.trim().is_empty() {
                            d.inline_scripts.push((order, text.to_string()));
                            order += 1;
                        }
                    }
                }
            },
            "form" => {
                // Flat parsing: a <form> begins here; inputs follow until
                // the next form (good enough for these documents).
                if let Some(form) = current_form.take() {
                    d.forms.push(form);
                }
                let action = el.attr("action").unwrap_or("/");
                if let Ok(action) = base.join(action) {
                    current_form = Some(DiscoveredForm {
                        method: el.attr("method").unwrap_or("get").to_ascii_lowercase(),
                        action,
                        fields: Vec::new(),
                    });
                }
            }
            "input" => {
                if let Some(form) = current_form.as_mut() {
                    if let Some(name) = el.attr("name") {
                        if el.attr("type") != Some("password") {
                            form.fields.push(name.to_string());
                        }
                    }
                }
            }
            _ => {}
        }
    }
    if let Some(form) = current_form.take() {
        d.forms.push(form);
    }
    d
}

/// Extract `document.cookie = "..."` assignments from an inline script —
/// the tiny slice of JavaScript the simulated sites actually use.
pub fn cookie_assignments(script: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = script;
    while let Some(pos) = rest.find("document.cookie") {
        rest = &rest[pos + "document.cookie".len()..];
        let Some(eq) = rest.find('=') else { break };
        let after = rest[eq + 1..].trim_start();
        let Some(quote) = after.chars().next().filter(|c| *c == '"' || *c == '\'') else {
            continue;
        };
        let body = &after[1..];
        if let Some(end) = body.find(quote) {
            out.push(body[..end].to_string());
            rest = &body[end..];
        } else {
            break;
        }
    }
    out
}

/// The tokenizer before elements borrowed from the document: every name and
/// value copied, and the rest of the document lowercased into a fresh
/// `String` to find each raw-text end tag. Kept as the oracle for
/// `parse_matches_the_reference`.
#[cfg(test)]
mod reference {
    /// One start tag, every part owned.
    pub type Element = (String, Vec<(String, String)>, Option<String>);

    fn decode_entities(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        let mut chars = s.char_indices();
        while let Some((i, c)) = chars.next() {
            if c != '&' {
                out.push(c);
                continue;
            }
            let rest = &s[i..];
            let known: &[(&str, char)] = &[
                ("&amp;", '&'),
                ("&lt;", '<'),
                ("&gt;", '>'),
                ("&quot;", '"'),
                ("&#39;", '\''),
            ];
            if let Some((entity, ch)) = known.iter().find(|(e, _)| rest.starts_with(e)) {
                out.push(*ch);
                for _ in 0..entity.len() - 1 {
                    chars.next();
                }
            } else {
                out.push('&');
            }
        }
        out
    }

    pub fn parse(html: &str) -> Vec<Element> {
        let bytes = html.as_bytes();
        let mut out = Vec::new();
        let mut i = 0usize;
        while i < bytes.len() {
            if bytes[i] != b'<' {
                i += 1;
                continue;
            }
            if html[i..].starts_with("<!--") {
                i = html[i..]
                    .find("-->")
                    .map(|p| i + p + 3)
                    .unwrap_or(bytes.len());
                continue;
            }
            if html[i..].starts_with("<!")
                || html[i..].starts_with("<?")
                || html[i..].starts_with("</")
            {
                i = html[i..]
                    .find('>')
                    .map(|p| i + p + 1)
                    .unwrap_or(bytes.len());
                continue;
            }
            let tag_start = i + 1;
            let mut j = tag_start;
            while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'-') {
                j += 1;
            }
            if j == tag_start {
                i += 1;
                continue;
            }
            let tag = html[tag_start..j].to_ascii_lowercase();
            let mut attrs = Vec::new();
            while j < bytes.len() && bytes[j] != b'>' {
                if bytes[j].is_ascii_whitespace() || bytes[j] == b'/' {
                    j += 1;
                    continue;
                }
                let name_start = j;
                while j < bytes.len()
                    && !bytes[j].is_ascii_whitespace()
                    && !matches!(bytes[j], b'=' | b'>' | b'/')
                {
                    j += 1;
                }
                let name = html[name_start..j].to_ascii_lowercase();
                while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                    j += 1;
                }
                let mut value = String::new();
                if j < bytes.len() && bytes[j] == b'=' {
                    j += 1;
                    while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                        j += 1;
                    }
                    if j < bytes.len() && (bytes[j] == b'"' || bytes[j] == b'\'') {
                        let quote = bytes[j];
                        j += 1;
                        let v_start = j;
                        while j < bytes.len() && bytes[j] != quote {
                            j += 1;
                        }
                        value = decode_entities(&html[v_start..j]);
                        j += 1;
                    } else {
                        let v_start = j;
                        while j < bytes.len() && !bytes[j].is_ascii_whitespace() && bytes[j] != b'>'
                        {
                            j += 1;
                        }
                        value = decode_entities(&html[v_start..j]);
                    }
                }
                if !name.is_empty() {
                    attrs.push((name, value));
                }
            }
            i = j.saturating_add(1);
            let text = if tag == "script" || tag == "style" {
                let close = format!("</{tag}");
                let end = html[i..]
                    .to_ascii_lowercase()
                    .find(&close)
                    .map(|p| i + p)
                    .unwrap_or(bytes.len());
                let content = html[i..end].to_string();
                i = html[end..]
                    .find('>')
                    .map(|p| end + p + 1)
                    .unwrap_or(bytes.len());
                Some(content)
            } else {
                None
            };
            out.push((tag, attrs, text));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn owned(elements: &[Element<'_>]) -> Vec<reference::Element> {
        elements
            .iter()
            .map(|e| {
                (
                    e.tag.to_string(),
                    e.attrs
                        .iter()
                        .map(|(n, v)| (n.to_string(), v.to_string()))
                        .collect(),
                    e.text.map(str::to_string),
                )
            })
            .collect()
    }

    /// Markup fragments that exercise every tokenizer branch: mixed-case
    /// tags and attribute names, quoted and bare values with entities,
    /// comments, doctypes, end tags with odd case and spacing, raw-text
    /// elements (terminated, mixed-case, unterminated), lone `<` and
    /// non-ASCII text. Every start tag is closed by `>`.
    const FRAGMENTS: &[&str] = &[
        "<img src=\"/a.png\" alt=x>",
        "<IMG SRC='/B.png?a=1&amp;b=2'>",
        "<a HREF=/x&lt;y&#39;z&gt;&quot;>",
        "<a href=\"&unknown; &amp\">",
        "<input type=text name=email/>",
        "<br/>",
        "<div data-x = 'v' flag>",
        "<script>document.cookie = \"a=1\";</script>",
        "<ScRiPt src=/x.js></ScRiPt >",
        "<script>if (a < b) { x = '</scr' + 'ipt>'; }</SCRIPT>",
        "<style>p { color: red }</StYlE>",
        "<script>never closed",
        "<style>",
        "</script>",
        "<!-- <img src=/hidden.png> -->",
        "<!-- unterminated comment",
        "<!doctype html>",
        "<?xml version=\"1.0\"?>",
        "</div >",
        "<",
        "< p>",
        "<<<>>>",
        "text é ü",
        "&amp; outside tags",
        "<form method=POST action=/welcome>",
        "<iframe src=\"https://ads.example/frame\">",
        "<link rel=stylesheet href=/a.css>",
        "\n  \t",
    ];

    proptest! {
        #[test]
        fn parse_matches_the_reference(
            picks in proptest::collection::vec(0..FRAGMENTS.len(), 0..12),
        ) {
            let html: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
            prop_assert_eq!(owned(&parse(&html)), reference::parse(&html));
        }

        #[test]
        fn parse_matches_the_reference_on_arbitrary_markup(
            html in "[<>/=\"' a-cA-C!&;#-]{0,40}",
        ) {
            // Every generated start tag must end in `>` — the reference
            // panics on a start tag cut off by the end of input.
            let closed = format!("{html}>");
            prop_assert_eq!(owned(&parse(&closed)), reference::parse(&closed));
        }
    }

    #[test]
    fn a_start_tag_cut_off_by_the_end_of_input_parses() {
        // The reference indexes one byte past the end here and panics.
        let els = parse("<p><script src=x");
        assert_eq!(els.len(), 2);
        assert_eq!(els[1].attr("src"), Some("x"));
        assert_eq!(els[1].text, Some(""));
        assert_eq!(parse("<style")[0].text, Some(""));
    }

    #[test]
    fn names_and_values_borrow_from_the_document() {
        let els = parse("<img src=/a.png alt='a&amp;b'><IMG>");
        assert!(matches!(els[0].tag, Cow::Borrowed(_)));
        assert!(matches!(els[0].attrs[0].1, Cow::Borrowed(_)));
        assert!(matches!(els[0].attrs[1].1, Cow::Owned(_)));
        assert!(matches!(els[1].tag, Cow::Owned(_)));
    }

    fn base() -> Url {
        Url::parse("https://shop.com/account").unwrap()
    }

    #[test]
    fn parses_tags_and_attributes() {
        let els = parse(
            r#"<!doctype html><html><img src="/a.png" alt=x><script src='https://t.net/lib.js' async></script></html>"#,
        );
        let img = els.iter().find(|e| e.tag == "img").unwrap();
        assert_eq!(img.attr("src"), Some("/a.png"));
        assert_eq!(img.attr("alt"), Some("x"));
        let script = els.iter().find(|e| e.tag == "script").unwrap();
        assert_eq!(script.attr("src"), Some("https://t.net/lib.js"));
        assert_eq!(script.attr("async"), Some(""));
    }

    #[test]
    fn skips_comments_and_end_tags() {
        let els = parse("<!-- <img src=/x.png> --><div></div><p>text</p>");
        let tags: Vec<&str> = els.iter().map(|e| e.tag.as_ref()).collect();
        assert_eq!(tags, vec!["div", "p"]);
    }

    #[test]
    fn captures_inline_script_text() {
        let els =
            parse(r#"<script>document.cookie = "a=1";</script><script src="/x.js"></script>"#);
        assert_eq!(els.len(), 2);
        assert_eq!(els[0].text, Some("document.cookie = \"a=1\";"));
        assert_eq!(els[1].attr("src"), Some("/x.js"));
    }

    #[test]
    fn entity_decoding_in_attributes() {
        let els = parse(r#"<img src="/p?a=1&amp;b=2">"#);
        assert_eq!(els[0].attr("src"), Some("/p?a=1&b=2"));
    }

    #[test]
    fn discovers_resources_in_document_order() {
        let html = r#"
            <link rel="stylesheet" href="https://cdn.example/a.css">
            <script src="https://t.net/lib.js"></script>
            <img src="/logo.png">
            <iframe src="https://ads.example/frame"></iframe>
        "#;
        let d = discover(&base(), &parse(html));
        let kinds: Vec<ResourceKind> = d.resources.iter().map(|r| r.kind).collect();
        assert_eq!(
            kinds,
            vec![
                ResourceKind::Stylesheet,
                ResourceKind::Script,
                ResourceKind::Image,
                ResourceKind::Subdocument
            ]
        );
        assert_eq!(d.resources[2].url.to_string(), "https://shop.com/logo.png");
    }

    #[test]
    fn discovers_forms_with_fields() {
        let html = r#"
            <form method="get" action="/welcome">
              <input type="text" name="email">
              <input type="text" name="username">
              <input type="password" name="password">
            </form>
        "#;
        let d = discover(&base(), &parse(html));
        assert_eq!(d.forms.len(), 1);
        let form = &d.forms[0];
        assert_eq!(form.method, "get");
        assert_eq!(form.action.to_string(), "https://shop.com/welcome");
        assert_eq!(
            form.fields,
            vec!["email", "username"],
            "passwords are not PII fields"
        );
    }

    #[test]
    fn cookie_assignment_extraction() {
        let script = r#"
            var x = 1;
            document.cookie = "v_user=abc123; Domain=shop.com; Path=/";
            document.cookie = 'second=2';
        "#;
        assert_eq!(
            cookie_assignments(script),
            vec![
                "v_user=abc123; Domain=shop.com; Path=/".to_string(),
                "second=2".to_string()
            ]
        );
        assert!(cookie_assignments("var y = document.cookie;").is_empty());
    }

    #[test]
    fn malformed_html_does_not_panic() {
        for html in [
            "<",
            "<<<>>>",
            "<img src=",
            "<script>never closed",
            "<a href='unterminated",
            "<form><input name=",
            "<script",
            "<style media",
        ] {
            let _ = discover(&base(), &parse(html));
        }
    }
}
