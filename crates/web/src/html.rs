//! HTML document rendering for the simulated sites.
//!
//! Every page the crawler visits is a real HTML document: the sign-up form,
//! the CDN assets, the CAPTCHA widget, the tracker tags, and (after
//! sign-in) the inline script that materialises the PII cookie all appear
//! as markup. The browser engine *parses* these documents to discover what
//! to fetch — resource discovery works like a real browser instead of
//! reading the site's configuration object.

use crate::persona::Persona;
use crate::site::{LeakMethod, Site};
use pii_net::http::ResourceKind;
use pii_net::Method;

/// Append `s` escaped for an HTML attribute or text node.
fn push_escaped(out: &mut String, s: &str) {
    let mut rest = s;
    while let Some(at) = rest.find(['&', '<', '>', '"', '\'']) {
        out.push_str(&rest[..at]);
        out.push_str(match rest.as_bytes()[at] {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            _ => "&#39;",
        });
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
}

/// The script URL a tracker tag loads its library from, as the pieces whose
/// concatenation is [`edge_script_url`].
pub fn edge_script_parts(edge: &crate::site::LeakEdge) -> [&str; 4] {
    let file = match edge.method {
        // Referer edges are passive embeds whose endpoint already names the
        // full resource path.
        LeakMethod::Referer => "",
        _ => "/lib.js",
    };
    ["https://", &edge.request_host, &edge.endpoint, file]
}

/// The script URL a tracker tag loads its library from.
pub fn edge_script_url(edge: &crate::site::LeakEdge) -> String {
    edge_script_parts(edge).concat()
}

/// Render one page of `site` as HTML.
///
/// `user` is the signed-in account, if any — sites emit their identify
/// bootstrap (and the Adobe cookie script) only for a known user, which is
/// exactly why leaks start after the authentication flow.
///
/// The capture keeps the page as the document's body, so it is returned
/// with no spare capacity.
pub fn render_page(site: &Site, path: &str, user: Option<&Persona>) -> String {
    // Most pages are under 1 KB.
    let mut page = String::with_capacity(1024);
    page.push_str("<!doctype html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n<title>");
    push_escaped(&mut page, &site.domain);
    page.push_str(" — ");
    push_escaped(&mut page, path);
    page.push_str("</title>\n");
    // Badly coded GET-form sites pin the legacy referrer policy — the
    // precondition for the Figure 1.a leak surviving a modern browser.
    if site.form.method == Method::Get {
        page.push_str("<meta name=\"referrer\" content=\"unsafe-url\">\n");
    }

    // CDN stylesheets and scripts go in the head, images in the body.
    for res in &site.benign {
        let (prefix, suffix) = match res.kind {
            ResourceKind::Stylesheet => ("<link rel=\"stylesheet\" href=\"", "\">\n"),
            ResourceKind::Script => ("<script src=\"", "\"></script>\n"),
            _ => continue,
        };
        page.push_str(prefix);
        page.push_str("https://");
        push_escaped(&mut page, &res.host);
        push_escaped(&mut page, &res.path);
        page.push_str(suffix);
    }
    page.push_str("</head>\n<body>\n");
    for res in &site.benign {
        if matches!(res.kind, ResourceKind::Stylesheet | ResourceKind::Script) {
            continue;
        }
        page.push_str("<img src=\"https://");
        push_escaped(&mut page, &res.host);
        push_escaped(&mut page, &res.path);
        page.push_str("\" alt=\"\">\n");
    }

    // Page content.
    page.push_str("<h1>");
    push_escaped(&mut page, &site.domain);
    page.push_str("</h1>\n");
    match path {
        "/" => {
            page.push_str("<p>Welcome to our shop!</p>\n<a href=\"/signup\">Create an account</a>\n<a href=\"/products/1\">Bestseller</a>\n");
        }
        "/signup" => {
            if let Some(host) = crate::site::captcha_host(site) {
                page.push_str("<script src=\"https://");
                page.push_str(host);
                page.push_str("/widget/challenge.js\"></script>\n");
            }
            page.push_str(if site.form.method == Method::Get {
                "<form method=\"get\" action=\"/welcome\">\n"
            } else {
                "<form method=\"post\" action=\"/welcome\">\n"
            });
            for field in &site.form.fields {
                page.push_str("  <label>");
                push_escaped(&mut page, field.name());
                page.push_str("<input type=\"text\" name=\"");
                push_escaped(&mut page, field.name());
                page.push_str("\"></label>\n");
            }
            page.push_str("  <button type=\"submit\">Sign up</button>\n</form>\n");
        }
        "/welcome" => {
            page.push_str("<p>Thanks for signing up! <a href=\"/signin\">Sign in</a></p>\n");
        }
        "/signin" => {
            page.push_str(
                "<form method=\"post\" action=\"/account\">\n  \
                 <input type=\"text\" name=\"email\">\n  \
                 <input type=\"password\" name=\"password\">\n  \
                 <button type=\"submit\">Sign in</button>\n</form>\n",
            );
        }
        "/account" => {
            page.push_str("<p>Your account.</p>\n<a href=\"/products/1\">Continue shopping</a>\n");
        }
        _ => {
            page.push_str("<p>A very nice product.</p>\n<a href=\"/\">Home</a>\n");
        }
    }

    // The PII cookie bootstrap (Figure 1.c): once a user is signed in, the
    // site's own script writes the hashed email into a first-party cookie
    // that later rides to the CNAME-cloaked collector.
    if let Some(user) = user {
        for edge in &site.edges {
            if edge.method == LeakMethod::Cookie && Site::tag_active(edge.persistent, path) {
                let token = edge.chain.apply(&user.email);
                page.push_str("<script>document.cookie = \"");
                push_escaped(&mut page, &edge.param);
                page.push('=');
                push_escaped(&mut page, &token);
                page.push_str("; Domain=");
                push_escaped(&mut page, &site.domain);
                page.push_str("; Path=/; SameSite=None\";</script>\n");
            }
        }
    }

    // Tracker tags (the library script; the identify beacon is issued by
    // the script at runtime, i.e. by the browser engine).
    for edge in &site.edges {
        let active = match edge.method {
            LeakMethod::Referer => true, // passive embed on every page
            _ => Site::tag_active(edge.persistent, path),
        };
        if active {
            page.push_str("<script src=\"");
            for part in edge_script_parts(edge) {
                push_escaped(&mut page, part);
            }
            page.push_str("\" async></script>\n");
        }
    }

    page.push_str("</body>\n</html>\n");
    page.shrink_to_fit();
    page
}

/// The per-fragment `format!`/`escape` renderer that [`render_page`]
/// replaced, kept as its oracle.
#[cfg(test)]
mod reference {
    use super::edge_script_url;
    use crate::persona::Persona;
    use crate::site::{LeakMethod, Site};
    use pii_net::http::ResourceKind;
    use pii_net::Method;

    /// Escape text for an HTML attribute or text node.
    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '&' => out.push_str("&amp;"),
                '<' => out.push_str("&lt;"),
                '>' => out.push_str("&gt;"),
                '"' => out.push_str("&quot;"),
                '\'' => out.push_str("&#39;"),
                other => out.push(other),
            }
        }
        out
    }

    pub fn render_page(site: &Site, path: &str, user: Option<&Persona>) -> String {
        let mut head = String::new();
        let mut body = String::new();

        head.push_str(&format!(
            "<meta charset=\"utf-8\">\n<title>{} — {}</title>\n",
            escape(&site.domain),
            escape(path)
        ));
        if site.form.method == Method::Get {
            head.push_str("<meta name=\"referrer\" content=\"unsafe-url\">\n");
        }
        for res in &site.benign {
            let url = format!("https://{}{}", res.host, res.path);
            match res.kind {
                ResourceKind::Stylesheet => head.push_str(&format!(
                    "<link rel=\"stylesheet\" href=\"{}\">\n",
                    escape(&url)
                )),
                ResourceKind::Script => {
                    head.push_str(&format!("<script src=\"{}\"></script>\n", escape(&url)))
                }
                _ => body.push_str(&format!("<img src=\"{}\" alt=\"\">\n", escape(&url))),
            }
        }
        body.push_str(&format!("<h1>{}</h1>\n", escape(&site.domain)));
        match path {
            "/" => {
                body.push_str("<p>Welcome to our shop!</p>\n<a href=\"/signup\">Create an account</a>\n<a href=\"/products/1\">Bestseller</a>\n");
            }
            "/signup" => {
                if let Some(host) = crate::site::captcha_host(site) {
                    body.push_str(&format!(
                        "<script src=\"https://{host}/widget/challenge.js\"></script>\n"
                    ));
                }
                body.push_str(&format!(
                    "<form method=\"{}\" action=\"/welcome\">\n",
                    if site.form.method == Method::Get {
                        "get"
                    } else {
                        "post"
                    }
                ));
                for field in &site.form.fields {
                    body.push_str(&format!(
                        "  <label>{0}<input type=\"text\" name=\"{0}\"></label>\n",
                        escape(field.name())
                    ));
                }
                body.push_str("  <button type=\"submit\">Sign up</button>\n</form>\n");
            }
            "/welcome" => {
                body.push_str("<p>Thanks for signing up! <a href=\"/signin\">Sign in</a></p>\n");
            }
            "/signin" => {
                body.push_str(
                    "<form method=\"post\" action=\"/account\">\n  \
                     <input type=\"text\" name=\"email\">\n  \
                     <input type=\"password\" name=\"password\">\n  \
                     <button type=\"submit\">Sign in</button>\n</form>\n",
                );
            }
            "/account" => {
                body.push_str(
                    "<p>Your account.</p>\n<a href=\"/products/1\">Continue shopping</a>\n",
                );
            }
            _ => {
                body.push_str("<p>A very nice product.</p>\n<a href=\"/\">Home</a>\n");
            }
        }
        if let Some(user) = user {
            for edge in &site.edges {
                if edge.method == LeakMethod::Cookie && Site::tag_active(edge.persistent, path) {
                    let token = edge.chain.apply(&user.email);
                    body.push_str(&format!(
                        "<script>document.cookie = \"{}={}; Domain={}; Path=/; SameSite=None\";</script>\n",
                        escape(&edge.param),
                        escape(&token),
                        escape(&site.domain),
                    ));
                }
            }
        }
        for edge in &site.edges {
            let active = match edge.method {
                LeakMethod::Referer => true,
                _ => Site::tag_active(edge.persistent, path),
            };
            if active {
                body.push_str(&format!(
                    "<script src=\"{}\" async></script>\n",
                    escape(&edge_script_url(edge))
                ));
            }
        }
        format!("<!doctype html>\n<html>\n<head>\n{head}</head>\n<body>\n{body}</body>\n</html>\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Universe;

    fn sender_site<'a>(u: &'a Universe, receiver: &str, method: LeakMethod) -> &'a Site {
        u.sender_sites()
            .find(|s| {
                s.edges
                    .iter()
                    .any(|e| e.receiver == receiver && e.method == method)
            })
            .unwrap()
    }

    #[test]
    fn escape_covers_the_specials() {
        let escape = |s: &str| {
            let mut out = String::new();
            push_escaped(&mut out, s);
            assert_eq!(out, reference::escape(s));
            out
        };
        assert_eq!(escape("a<b>&\"c'"), "a&lt;b&gt;&amp;&quot;c&#39;");
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("é&<é>"), "é&amp;&lt;é&gt;");
    }

    /// Every page the crawler can request — each crawlable site, each path
    /// it visits, signed in and signed out — renders to the reference's
    /// bytes, into a string with no spare capacity.
    #[test]
    fn render_page_equals_the_reference_on_every_crawled_page() {
        const PATHS: [&str; 7] = [
            "/",
            "/signup",
            "/welcome",
            "/confirm",
            "/signin",
            "/account",
            "/products/1",
        ];
        for seed in [7, 11, 23] {
            let u = Universe::generate_with(crate::UniverseSpec {
                seed,
                ..crate::UniverseSpec::default()
            });
            let mut pages = 0;
            for site in u.crawlable_sites() {
                for path in PATHS {
                    for user in [None, Some(&u.persona)] {
                        let page = render_page(site, path, user);
                        assert_eq!(
                            page,
                            reference::render_page(site, path, user),
                            "seed {seed}, {}{path}, signed in: {}",
                            site.domain,
                            user.is_some()
                        );
                        assert_eq!(page.capacity(), page.len());
                        pages += 1;
                    }
                }
            }
            assert!(pages > 4000, "seed {seed}: {pages} pages");
        }
    }

    #[test]
    fn signup_page_has_the_form_fields() {
        let u = Universe::generate();
        let site = u.crawlable_sites().next().unwrap();
        let html = render_page(site, "/signup", None);
        assert!(html.contains("<form method=\"post\" action=\"/welcome\">"));
        for field in &site.form.fields {
            assert!(html.contains(&format!("name=\"{}\"", field.name())));
        }
    }

    #[test]
    fn get_form_sites_pin_unsafe_referrer_policy() {
        let u = Universe::generate();
        let get_site = u
            .sender_sites()
            .find(|s| s.form.method == Method::Get)
            .unwrap();
        let html = render_page(get_site, "/signup", None);
        assert!(html.contains("referrer\" content=\"unsafe-url\""));
        assert!(html.contains("<form method=\"get\""));
        let post_site = u
            .sender_sites()
            .find(|s| s.form.method == Method::Post)
            .unwrap();
        assert!(!render_page(post_site, "/signup", None).contains("unsafe-url"));
    }

    #[test]
    fn tracker_tags_render_per_page_activity() {
        let u = Universe::generate();
        let site = sender_site(&u, "facebook.com", LeakMethod::Uri);
        let account = render_page(site, "/account", Some(&u.persona));
        assert!(account.contains("https://facebook.com/tr/lib.js"));
        // Auth-only tags are absent from the product page…
        let site_ga = sender_site(&u, "google-analytics.com", LeakMethod::Uri);
        let product = render_page(site_ga, "/products/1", Some(&u.persona));
        assert!(!product.contains("google-analytics.com"));
        // …but present on the account page.
        let account_ga = render_page(site_ga, "/account", Some(&u.persona));
        assert!(account_ga.contains("google-analytics.com/collect/lib.js"));
    }

    #[test]
    fn cookie_script_renders_only_for_signed_in_user() {
        let u = Universe::generate();
        let site = sender_site(&u, "adobe_cname", LeakMethod::Cookie);
        let anon = render_page(site, "/account", None);
        assert!(!anon.contains("document.cookie"));
        let signed_in = render_page(site, "/account", Some(&u.persona));
        assert!(signed_in.contains("document.cookie"));
        assert!(signed_in.contains("v_user="));
        assert!(signed_in.contains(&format!("Domain={}", site.domain)));
    }
}
