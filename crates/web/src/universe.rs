//! The calibrated universe generator.
//!
//! Builds the entire simulated web of May 2021 that the paper crawled:
//! 404 candidate shopping sites from the "Tranco top 10k" (22 unreachable,
//! 19 without authentication flows, 56 with blocked sign-up, 307 crawlable),
//! of which 130 leak PII to 100 third-party receivers along ~390 leak edges
//! whose methods, encodings, and trackid parameters reproduce Tables 1 and 2
//! and Figure 2 of the paper.
//!
//! The generator is **constructive**: hard constraints (Table 2 sender
//! counts per provider, Brave's nine surviving senders, the single
//! EasyList-only sender, the referer/cookie/payload-only sender groups) are
//! assigned explicitly; the remaining edge slots are distributed by a
//! deterministic greedy allocator over a target degree sequence (max 16
//! receivers at `loccitane.com`, ≈46% of senders with ≥3 receivers,
//! mean ≈3 receivers per sender). Everything is seeded and reproducible.

use crate::email::Mailbox;
use crate::persona::Persona;
use crate::site::{
    AuthForm, BenignResource, BlockReason, LeakEdge, LeakMethod, PolicyDisclosure, Site,
    SiteOutcome,
};
use crate::tracker::{catalog, ProviderClass, TrackerProvider};
use pii_dns::{Record, ZoneStore};
use pii_net::fault::{self, DomainSchedule, FaultPlan, FaultProfile, FetchError};
use pii_net::http::ResourceKind;
use pii_net::Method;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Default seed: "CONEXT" in hex.
pub const DEFAULT_SEED: u64 = 0x434f_4e45_5854;

/// Tunable universe parameters (defaults reproduce the paper).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct UniverseSpec {
    pub seed: u64,
    /// Total candidate shopping sites.
    pub total_sites: usize,
    pub unreachable: usize,
    pub no_auth_flow: usize,
    pub blocked_phone: usize,
    pub blocked_id_docs: usize,
    pub blocked_geo: usize,
    /// Crawlable sites requiring email confirmation.
    pub email_confirmation: usize,
    /// Crawlable sites with bot detection.
    pub bot_detection: usize,
    /// Leaking first-party senders.
    pub senders: usize,
    /// Total marketing mail volume (inbox, spam).
    pub emails: (u32, u32),
}

impl Default for UniverseSpec {
    fn default() -> Self {
        UniverseSpec {
            seed: DEFAULT_SEED,
            total_sites: 404,
            unreachable: 22,
            no_auth_flow: 19,
            blocked_phone: 47,
            blocked_id_docs: 6,
            blocked_geo: 3,
            email_confirmation: 68,
            bot_detection: 43,
            senders: 130,
            emails: (2172, 141),
        }
    }
}

impl UniverseSpec {
    /// Scale the site pool by an integer factor (benchmarking knob).
    ///
    /// Site-funnel quotas and mail volume grow linearly; `senders` stays at
    /// the paper's 130 because the leak edges are bound to the fixed Table 2
    /// provider catalog, and `seed` is kept so scaled runs stay reproducible.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message when any scaled quota overflows its
    /// integer type. Unchecked multiplication here would panic opaquely in
    /// debug builds and *wrap silently* in release builds, quietly distorting
    /// every downstream count — failing loudly is the only safe behaviour.
    pub fn scaled(&self, factor: usize) -> UniverseSpec {
        let factor = factor.max(1);
        let scale = |name: &str, n: usize| -> usize {
            n.checked_mul(factor).unwrap_or_else(|| {
                panic!("universe spec overflow: {name} ({n}) x factor {factor} exceeds usize")
            })
        };
        let scale_mail = |name: &str, n: u32| -> u32 {
            u64::from(n)
                .checked_mul(factor as u64)
                .and_then(|v| u32::try_from(v).ok())
                .unwrap_or_else(|| {
                    panic!("universe spec overflow: {name} ({n}) x factor {factor} exceeds u32")
                })
        };
        UniverseSpec {
            seed: self.seed,
            total_sites: scale("total_sites", self.total_sites),
            unreachable: scale("unreachable", self.unreachable),
            no_auth_flow: scale("no_auth_flow", self.no_auth_flow),
            blocked_phone: scale("blocked_phone", self.blocked_phone),
            blocked_id_docs: scale("blocked_id_docs", self.blocked_id_docs),
            blocked_geo: scale("blocked_geo", self.blocked_geo),
            email_confirmation: scale("email_confirmation", self.email_confirmation),
            bot_detection: scale("bot_detection", self.bot_detection),
            senders: self.senders,
            emails: (
                scale_mail("emails.inbox", self.emails.0),
                scale_mail("emails.spam", self.emails.1),
            ),
        }
    }

    /// Crawlable site count implied by the funnel.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message when the funnel quotas are
    /// inconsistent (they sum past `total_sites`, or the sum itself
    /// overflows). The previous chained subtraction underflowed here —
    /// panicking in debug, wrapping to an absurd site count in release.
    pub fn crawlable(&self) -> usize {
        let quotas = [
            self.unreachable,
            self.no_auth_flow,
            self.blocked_phone,
            self.blocked_id_docs,
            self.blocked_geo,
        ];
        let excluded = quotas
            .iter()
            .try_fold(0usize, |sum, &q| sum.checked_add(q))
            .unwrap_or_else(|| panic!("inconsistent universe spec: funnel quotas overflow usize"));
        self.total_sites.checked_sub(excluded).unwrap_or_else(|| {
            panic!(
                "inconsistent universe spec: funnel quotas ({excluded}) exceed total_sites ({})",
                self.total_sites
            )
        })
    }
}

/// The generated world.
#[derive(Debug, Clone)]
pub struct Universe {
    pub spec: UniverseSpec,
    pub persona: Persona,
    pub sites: Vec<Site>,
    pub zones: ZoneStore,
    pub mailbox: Mailbox,
    /// The tracker catalog the universe was generated from.
    pub catalog: &'static [TrackerProvider],
}

impl Universe {
    /// Generate the default paper-calibrated universe.
    pub fn generate() -> Universe {
        Universe::generate_with(UniverseSpec::default())
    }

    /// Generate with explicit parameters.
    pub fn generate_with(spec: UniverseSpec) -> Universe {
        Generator::new(spec).build()
    }

    /// Crawlable sites.
    pub fn crawlable_sites(&self) -> impl Iterator<Item = &Site> {
        self.sites.iter().filter(|s| s.is_crawlable())
    }

    /// The ground-truth leaking senders.
    pub fn sender_sites(&self) -> impl Iterator<Item = &Site> {
        self.sites.iter().filter(|s| s.is_sender())
    }

    /// Ground-truth distinct receiver labels.
    pub fn receiver_labels(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .sites
            .iter()
            .flat_map(|s| s.edges.iter().map(|e| e.receiver.clone()))
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Find a site by domain.
    pub fn site(&self, domain: &str) -> Option<&Site> {
        self.sites.iter().find(|s| s.domain == domain)
    }

    /// Derive the per-domain transport-fault schedule this universe implies.
    ///
    /// The crawl *measures* its funnel, so the plan encodes the world's
    /// ground truth as wire behaviour: configured-unreachable sites are dead
    /// on the wire (DNS failure / connect timeout / reset, hashed from the
    /// seed), sign-up-blocked sites sit behind a bot wall answering 503 on
    /// `/signup`, and — depending on the profile — a seeded subset of
    /// healthy sites is flaky. Under `paper-may-2021` every flaky site
    /// recovers within the default retry budget, which is exactly why the
    /// measured funnel still reproduces §3.2; under `hostile` some never
    /// recover and the funnel degrades (gracefully).
    pub fn fault_plan(&self, profile: FaultProfile) -> FaultPlan {
        let mut plan = FaultPlan::new(self.spec.seed, profile);
        if profile == FaultProfile::None {
            return plan;
        }
        // (1 in N healthy sites wobble, max consecutive failures).
        let (wobble, ceiling) = match profile {
            FaultProfile::PaperMay2021 => (6, 2),
            FaultProfile::Hostile => (2, 4),
            FaultProfile::None => (0, 1),
        };
        for site in &self.sites {
            let h = fault::det_hash(self.spec.seed, &site.domain, 0x5eed_fa17);
            match &site.outcome {
                SiteOutcome::Unreachable => {
                    let error = match h % 3 {
                        0 => FetchError::DnsFailure,
                        1 => FetchError::ConnectTimeout,
                        _ => FetchError::Reset,
                    };
                    plan.set(&site.domain, DomainSchedule::Dead(error));
                }
                SiteOutcome::SignupBlocked(_) => {
                    plan.set(
                        &site.domain,
                        DomainSchedule::BotWall {
                            status: 503,
                            path_prefix: "/signup".to_string(),
                        },
                    );
                }
                // Form presence is content, not transport.
                SiteOutcome::NoAuthFlow => {}
                SiteOutcome::Ok { .. } => {
                    if wobble != 0 && h.is_multiple_of(wobble) {
                        let error = match (h >> 8) % 4 {
                            0 => FetchError::ConnectTimeout,
                            1 => FetchError::Reset,
                            2 => FetchError::TruncatedBody,
                            _ => FetchError::SlowResponse,
                        };
                        let failures = (((h >> 16) % ceiling) as u32).saturating_add(1);
                        plan.set(&site.domain, DomainSchedule::Flaky { error, failures });
                    }
                }
            }
        }
        plan
    }
}

// ---------------------------------------------------------------------------

struct Generator {
    spec: UniverseSpec,
    rng: StdRng,
}

impl Generator {
    fn new(spec: UniverseSpec) -> Self {
        let rng = StdRng::seed_from_u64(spec.seed);
        Generator { spec, rng }
    }

    /// Invent plausible shopping-site domains. Two real names appear because
    /// the paper names them: `loccitane.com` (16 receivers, the maximum) and
    /// `nykaa.com` (the Brave CAPTCHA failure, which has bot detection).
    fn domains(&mut self) -> Vec<String> {
        const PREFIXES: [&str; 20] = [
            "shop", "store", "market", "boutique", "outlet", "bazaar", "cart", "deal", "mall",
            "trend", "style", "glam", "casa", "nova", "urban", "prime", "vital", "pure", "luxe",
            "peak",
        ];
        const STEMS: [&str; 18] = [
            "wear", "beauty", "home", "kids", "tech", "sports", "garden", "books", "toys", "shoes",
            "gear", "decor", "craft", "foods", "pets", "vogue", "plaza", "direct",
        ];
        const TLDS: [&str; 8] = [
            "com", "com", "com", "net", "co.jp", "co.uk", "shop", "store",
        ];
        // Every index below cycles with period lcm(360, 8, 97, 3): past one
        // full cycle the candidate stream repeats verbatim, so the cyclic
        // pool tops out at ~23k distinct names and the loop would spin
        // forever on larger scaled universes.
        const DOMAIN_CYCLE: usize = 34_920;
        let mut out = vec!["loccitane.com".to_string(), "nykaa.com".to_string()];
        // Linear-scan dedup is quadratic in the site count; a side set keeps
        // scaled universes (100x and up) generating in linear time.
        let mut seen: std::collections::HashSet<String> = out.iter().cloned().collect();
        let mut n = 0usize;
        while out.len() < self.spec.total_sites {
            let p = PREFIXES[n % PREFIXES.len()];
            let s = STEMS[(n / PREFIXES.len()).saturating_add(n) % STEMS.len()];
            let t = TLDS[n % TLDS.len()];
            let candidate = if n >= DOMAIN_CYCLE {
                // The raw counter never repeats, and at five-plus digits it
                // cannot collide with the `n % 97` names of the first cycle.
                format!("{p}{s}{n}.{t}")
            } else if n.is_multiple_of(3) {
                format!("{p}{s}.{t}")
            } else {
                format!("{p}{s}{}.{t}", n % 97)
            };
            if seen.insert(candidate.clone()) {
                out.push(candidate);
            }
            n = n.saturating_add(1);
        }
        out
    }

    fn build(mut self) -> Universe {
        let spec = self.spec.clone();
        let domains = self.domains();
        let crawlable_count = spec.crawlable();

        // --- outcome assignment -------------------------------------------
        // loccitane.com and nykaa.com must stay crawlable; shuffle the rest.
        let mut rest: Vec<String> = domains[2..].to_vec();
        rest.shuffle(&mut self.rng);
        let mut outcomes: Vec<(String, SiteOutcome)> = Vec::with_capacity(spec.total_sites);
        let mut iter = rest.into_iter();
        for _ in 0..spec.unreachable {
            outcomes.push((iter.next().unwrap(), SiteOutcome::Unreachable));
        }
        for _ in 0..spec.no_auth_flow {
            outcomes.push((iter.next().unwrap(), SiteOutcome::NoAuthFlow));
        }
        for _ in 0..spec.blocked_phone {
            outcomes.push((
                iter.next().unwrap(),
                SiteOutcome::SignupBlocked(BlockReason::PhoneVerification),
            ));
        }
        for _ in 0..spec.blocked_id_docs {
            outcomes.push((
                iter.next().unwrap(),
                SiteOutcome::SignupBlocked(BlockReason::IdentityDocuments),
            ));
        }
        for _ in 0..spec.blocked_geo {
            outcomes.push((
                iter.next().unwrap(),
                SiteOutcome::SignupBlocked(BlockReason::GeoBlocked),
            ));
        }
        // Crawlable: the two named sites plus the remainder.
        let mut crawlable: Vec<String> = vec![domains[0].clone(), domains[1].clone()];
        crawlable.extend(iter);
        assert_eq!(crawlable.len(), crawlable_count);

        // email confirmation / bot detection flags over crawlable sites.
        // nykaa.com (index 1) always has bot detection (§7.1).
        let mut flag_idx: Vec<usize> = (0..crawlable_count).collect();
        flag_idx.shuffle(&mut self.rng);
        let email_conf: std::collections::HashSet<usize> = flag_idx
            .iter()
            .copied()
            .take(spec.email_confirmation)
            .collect();
        let mut bot_idx: Vec<usize> = (0..crawlable_count).filter(|&i| i != 1).collect();
        bot_idx.shuffle(&mut self.rng);
        let mut bot_detect: std::collections::HashSet<usize> = bot_idx
            .into_iter()
            .take(spec.bot_detection.saturating_sub(1))
            .collect();
        bot_detect.insert(1); // nykaa.com

        // --- sender selection and edge assignment -------------------------
        // Sender slot 0 is loccitane.com (the 16-receiver maximum).
        // nykaa.com is also a sender (it leaks to facebook in the wild).
        let edges_by_sender = self.assign_edges(spec.senders);

        // --- policies over senders (Table 3) -------------------------------
        let mut policy_classes = Vec::with_capacity(spec.senders);
        policy_classes.extend(std::iter::repeat_n(
            PolicyDisclosure::SharingNotSpecific,
            102,
        ));
        policy_classes.extend(std::iter::repeat_n(PolicyDisclosure::SharingSpecific, 9));
        policy_classes.extend(std::iter::repeat_n(PolicyDisclosure::NoDescription, 15));
        policy_classes.extend(std::iter::repeat_n(PolicyDisclosure::DeniesSharing, 4));
        while policy_classes.len() < spec.senders {
            policy_classes.push(PolicyDisclosure::SharingNotSpecific);
        }
        policy_classes.shuffle(&mut self.rng);

        // --- mail volumes over crawlable sites ------------------------------
        let mut inbox_left = spec.emails.0;
        let mut spam_left = spec.emails.1;
        let mut mail_volumes: Vec<(u32, u32)> = Vec::with_capacity(crawlable_count);
        for i in 0..crawlable_count {
            let remaining_sites = (crawlable_count - i) as u32;
            let avg_in = inbox_left / remaining_sites;
            let inbox = if remaining_sites == 1 {
                inbox_left
            } else {
                self.rng
                    .gen_range(0..=avg_in.saturating_mul(2))
                    .min(inbox_left)
            };
            let spam = if remaining_sites == 1 {
                spam_left
            } else if spam_left > 0 && self.rng.gen_bool(0.3) {
                1
            } else {
                0
            };
            inbox_left -= inbox;
            spam_left -= spam;
            mail_volumes.push((inbox, spam));
        }

        // --- construct sites -------------------------------------------------
        let mut zones = ZoneStore::new();
        let mut sites: Vec<Site> = Vec::with_capacity(spec.total_sites);
        for (i, domain) in crawlable.iter().enumerate() {
            let sender_index = if i < spec.senders { Some(i) } else { None };
            let edges = sender_index
                .map(|si| self.materialize_edges(domain, &edges_by_sender[si], &mut zones))
                .unwrap_or_default();
            let has_referer_leak = edges.iter().any(|e| e.method == LeakMethod::Referer);
            let policy = sender_index
                .map(|si| policy_classes[si])
                .unwrap_or(PolicyDisclosure::SharingNotSpecific);
            let policy_text = render_policy(domain, policy);
            zones.insert(
                domain,
                Record::a(&format!("203.0.113.{}", (i % 250).saturating_add(1))),
            );
            sites.push(Site {
                domain: domain.clone(),
                outcome: SiteOutcome::Ok {
                    email_confirmation: email_conf.contains(&i),
                    bot_detection: bot_detect.contains(&i),
                },
                form: AuthForm {
                    // The three referer-leak senders have GET sign-up forms.
                    method: if has_referer_leak {
                        Method::Get
                    } else {
                        Method::Post
                    },
                    ..AuthForm::default()
                },
                edges,
                // GET-form sites embed no CDN assets: on those sites *every*
                // third-party resource receives the PII-bearing Referer, so
                // benign embeds would inflate the receiver count past the
                // paper's 100.
                benign: if has_referer_leak {
                    Vec::new()
                } else {
                    benign_resources(domain, i)
                },
                policy,
                policy_text,
                emails: mail_volumes[i],
            });
        }
        for (domain, outcome) in outcomes {
            if !matches!(outcome, SiteOutcome::Unreachable) {
                zones.insert(&domain, Record::a("203.0.113.250"));
            }
            let policy_text = render_policy(&domain, PolicyDisclosure::SharingNotSpecific);
            sites.push(Site {
                domain,
                outcome,
                form: AuthForm::default(),
                edges: Vec::new(),
                benign: Vec::new(),
                policy: PolicyDisclosure::SharingNotSpecific,
                policy_text,
                emails: (0, 0),
            });
        }

        let mailbox = Mailbox::from_sites(
            sites
                .iter()
                .filter(|s| s.is_crawlable())
                .map(|s| (s.domain.as_str(), s.emails.0, s.emails.1)),
        );

        Universe {
            spec,
            persona: Persona::default_study(),
            sites,
            zones,
            mailbox,
            catalog: catalog(),
        }
    }

    /// Assign every catalog edge slot to a sender index. Returns, per
    /// sender, a list of (catalog index, variant index).
    fn assign_edges(&mut self, sender_count: usize) -> Vec<Vec<(usize, usize)>> {
        let catalog = catalog();
        let mut edges: Vec<Vec<(usize, usize)>> = vec![Vec::new(); sender_count];
        // Per-provider sender sets to keep a provider's senders distinct.
        let mut used: Vec<std::collections::HashSet<usize>> =
            vec![std::collections::HashSet::new(); catalog.len()];
        let idx_of = |label: &str| {
            catalog
                .iter()
                .position(|p| p.label == label)
                .unwrap_or_else(|| panic!("unknown provider {label}"))
        };

        let push = |edges: &mut Vec<Vec<(usize, usize)>>,
                    used: &mut Vec<std::collections::HashSet<usize>>,
                    sender: usize,
                    provider: usize,
                    variant: usize| {
            let fresh = used[provider].insert(sender);
            debug_assert!(fresh, "provider sender duplicated");
            edges[sender].push((provider, variant));
        };

        // The paper-calibrated constraint layout (Brave survivors, referer
        // senders, cookie-only slots, …) hard-codes slot indices up to 129;
        // smaller custom universes skip it and rely on the greedy fill.
        let paper_layout = sender_count >= 130;
        /// Sentinel variant index meaning "referer delivery" (see
        /// `materialize_edges`).
        const REFERER: usize = usize::MAX;

        // -- hard constraints ------------------------------------------------
        if paper_layout {
            // Brave's nine surviving senders occupy slots 40..=48 (mid-range so
            // they also carry other edges and stay realistic).
            let brave_base = 40usize;
            let slot = |k: usize| brave_base.saturating_add(k);
            let intercom = idx_of("intercom.io");
            for k in 0..3 {
                push(&mut edges, &mut used, slot(k), intercom, 0);
            }
            let zendesk = idx_of("zendesk.com");
            push(&mut edges, &mut used, slot(3), zendesk, 0);
            push(&mut edges, &mut used, slot(4), zendesk, 0);
            for (label, sender) in [
                ("aliyun.com", slot(5)),
                ("cartsync.io", slot(6)),
                ("gravatar.com", slot(7)),
                ("pix.herokuapp.com", slot(8)),
                ("lmcdn.ru", slot(0)),
                ("okta-emea.com", slot(3)),
            ] {
                push(&mut edges, &mut used, sender, idx_of(label), 0);
            }

            // The single EasyList-only sender: slot 129 holds revcontent.com and
            // nothing else (degree 1, fully blocked by EasyList alone).
            push(&mut edges, &mut used, 129, idx_of("revcontent.com"), 0);

            // Referer-leak senders (GET sign-up forms): slots 126..=128.
            // Their "edges" are referer deliveries to embedded third parties;
            // they have no script-based leaks, hence no URI edges (three of
            // Table 1a's non-URI senders).
            // Encoded as variant REFERER → materialized as Referer method.
            for (sender, labels) in [
                (126usize, &["google-analytics.com", "quantserve.com"][..]),
                (127, &["hotjar.com", "mixpanel.com"][..]),
                (
                    128,
                    &["granify.com", "scorecardresearch.com", "taboola.com"][..],
                ),
            ] {
                for label in labels {
                    push(&mut edges, &mut used, sender, idx_of(label), REFERER);
                }
            }

            // Cookie-only senders: adobe_cname's cookie variant (index 1) goes to
            // slots 121..=125; four of them (122..=125) get nothing else.
            let adobe = idx_of("adobe_cname");
            for sender in 121..=125 {
                push(&mut edges, &mut used, sender, adobe, 1);
            }

            // Payload-only senders: five of facebook's payload-variant senders
            // (slots 116..=120) carry only that edge.
            let facebook = idx_of("facebook.com");
            for sender in 116..=120 {
                push(&mut edges, &mut used, sender, facebook, 1);
            }
        }

        // -- degree targets ----------------------------------------------------
        // Slot 0 = loccitane.com with the maximum of 16 receivers; slots
        // 116..=129 are frozen (their exact edge sets were fixed above).
        let mut target = vec![0usize; sender_count];
        if paper_layout {
            target[0] = 16;
            for (i, t) in target.iter_mut().enumerate().skip(1) {
                *t = match i {
                    1..=10 => 6,
                    11..=30 => 5,
                    31..=59 => 4,
                    60..=90 => 2,
                    91..=115 => 1,
                    _ => 0, // frozen constraint slots
                };
            }
        } else {
            // Custom universes: a flat ~3-receivers-per-sender target.
            for t in target.iter_mut() {
                *t = 3;
            }
        }

        // -- greedy fill --------------------------------------------------------
        // Remaining edge slots: every variant's sender quota minus what the
        // constraints already consumed.
        let mut slots: Vec<(usize, usize, usize)> = Vec::new(); // (provider, variant, count)
        for (pi, provider) in catalog.iter().enumerate() {
            for (vi, variant) in provider.variants.iter().enumerate() {
                let consumed = if !paper_layout {
                    0
                } else {
                    match provider.label {
                        "intercom.io" => 3,
                        "zendesk.com" => 2,
                        "aliyun.com" | "cartsync.io" | "gravatar.com" | "pix.herokuapp.com"
                        | "lmcdn.ru" | "okta-emea.com" | "revcontent.com" => 1,
                        "adobe_cname" if vi == 1 => 5,
                        "facebook.com" if vi == 1 => 5,
                        _ => 0,
                    }
                };
                let remaining = variant.senders.saturating_sub(consumed);
                if remaining > 0 {
                    slots.push((pi, vi, remaining));
                }
            }
        }
        // URI variants fill first (so no sender ends up payload-only by
        // accident — Table 1a's 12 non-URI senders are all constructed
        // above), then by demand (largest first) so facebook's 69 remaining
        // senders spread widely.
        slots.sort_by_key(|&(pi, vi, count)| {
            let method = catalog[pi].variants[vi].method;
            (method != LeakMethod::Uri, std::cmp::Reverse(count), pi, vi)
        });
        // Payload-method edges must concentrate on ~38 unconstrained senders
        // so that (with the five facebook-payload-only slots) Table 1a's 43
        // payload senders emerge rather than one sender per edge.
        let mut has_payload = vec![false; sender_count];
        let mut distinct_payload = 0usize;
        if paper_layout {
            has_payload[116..=120].fill(true);
            distinct_payload = 5;
        }
        const PAYLOAD_SENDER_TARGET: usize = 43;
        // Table 1b's "Combined" row says only ~21 senders mix encoding
        // forms, so sites are modelled as encoding-homogeneous (one tag
        // configuration) except for a set of high-degree "diverse" senders
        // that absorb the variety — realistic for big shops running many
        // tag managers. Track each sender's encoding buckets.
        let mut buckets: Vec<std::collections::BTreeSet<&'static str>> =
            vec![Default::default(); sender_count];
        for (s, assigned) in edges.iter().enumerate() {
            for &(pi, vi) in assigned {
                if vi != REFERER {
                    buckets[s].insert(catalog[pi].variants[vi].chain.table1b_bucket());
                }
            }
        }
        let diverse = |s: usize| s <= 21; // loccitane + the high-degree slots
        for (pi, vi, count) in slots {
            let variant = &catalog[pi].variants[vi];
            let is_payload = variant.method == LeakMethod::Payload;
            let bucket = variant.chain.table1b_bucket();
            // Candidate senders: highest remaining target first, skipping
            // senders already attached to this provider.
            for _ in 0..count {
                let chosen: Option<usize> = (0..sender_count)
                    .filter(|&s| !used[pi].contains(&s))
                    .max_by_key(|&s| {
                        let remaining = target[s].saturating_sub(edges[s].len());
                        // Once enough distinct payload senders exist, stack
                        // further payload edges onto them; before that,
                        // spread. Senders with no edge yet always come
                        // first; ties prefer lower ids for determinism.
                        let payload_pref =
                            if is_payload && distinct_payload >= PAYLOAD_SENDER_TARGET {
                                has_payload[s]
                            } else {
                                false
                            };
                        // Encoding affinity: an edge prefers senders whose
                        // existing edges use the same Table 1b bucket (or a
                        // designated diverse sender), provided they still
                        // have capacity.
                        let affinity =
                            (buckets[s].is_empty() || buckets[s].contains(bucket) || diverse(s))
                                && remaining > 0;
                        (
                            edges[s].is_empty(),
                            payload_pref,
                            affinity,
                            remaining,
                            std::cmp::Reverse(s),
                        )
                    });
                // Small custom universes can run out of distinct senders
                // for a large provider; the paper layout never does.
                let Some(chosen) = chosen else { break };
                if is_payload && !has_payload[chosen] {
                    has_payload[chosen] = true;
                    distinct_payload = distinct_payload.saturating_add(1);
                }
                buckets[chosen].insert(bucket);
                push(&mut edges, &mut used, chosen, pi, vi);
            }
        }
        // Any sender left with zero edges gets a facebook edge if possible
        // (every sender must leak to something).
        for s in 0..sender_count {
            if edges[s].is_empty() {
                let provider = (0..catalog.len())
                    .find(|&pi| !used[pi].contains(&s))
                    .expect("no provider available");
                push(&mut edges, &mut used, s, provider, 0);
            }
        }
        edges
    }

    /// Turn assigned (provider, variant) pairs into concrete [`LeakEdge`]s
    /// for `domain`, registering CNAME zones for cloaked providers.
    fn materialize_edges(
        &mut self,
        domain: &str,
        assigned: &[(usize, usize)],
        zones: &mut ZoneStore,
    ) -> Vec<LeakEdge> {
        const REFERER: usize = usize::MAX;
        let catalog = catalog();
        let mut out = Vec::with_capacity(assigned.len());
        for &(pi, vi) in assigned {
            let provider = &catalog[pi];
            if vi == REFERER {
                // Referer delivery: the provider's ordinary resource is
                // embedded; PII arrives via the Referer header only.
                out.push(LeakEdge {
                    receiver: provider.label.to_string(),
                    request_host: referer_host(provider),
                    endpoint: referer_path(provider),
                    method: LeakMethod::Referer,
                    chain: crate::obfuscate::Obfuscation::plaintext(),
                    pii: vec![
                        crate::persona::PiiKind::Email,
                        crate::persona::PiiKind::Name,
                    ],
                    param: String::new(),
                    persistent: false,
                    kind: ResourceKind::Script,
                });
                continue;
            }
            let variant = &provider.variants[vi];
            let (request_host, endpoint) = if provider.cname_cloaked {
                // metrics.<site> CNAMEs into the provider (Adobe pattern).
                let sub = format!("metrics.{domain}");
                let target = format!("{domain}.sc.{}", provider.domain);
                zones.insert(&sub, Record::cname(&target));
                zones.insert(&target, Record::a("203.0.113.200"));
                (sub, provider.endpoint.to_string())
            } else {
                (request_host_for(provider), provider.endpoint.to_string())
            };
            let persistent = matches!(
                provider.class,
                ProviderClass::PersistentTracker
                    | ProviderClass::InconsistentId
                    | ProviderClass::SingleAppearance
            );
            let kind = match variant.method {
                LeakMethod::Payload => ResourceKind::Beacon,
                LeakMethod::Cookie => ResourceKind::Image,
                _ => ResourceKind::Image,
            };
            out.push(LeakEdge {
                receiver: provider.label.to_string(),
                request_host,
                endpoint,
                method: variant.method,
                chain: variant.chain.clone(),
                pii: variant.pii.to_vec(),
                param: variant.param.to_string(),
                persistent,
                kind,
            });
        }
        out
    }
}

/// Request host for a provider (a few use well-known subdomains so that the
/// embedded EasyPrivacy rules anchor correctly, as their real rules do).
fn request_host_for(provider: &TrackerProvider) -> String {
    match provider.label {
        "bing.com" => "bat.bing.com".to_string(),
        "yahoo.com" => "ups.analytics.yahoo.com".to_string(),
        _ => provider.domain.to_string(),
    }
}

/// Host for a provider's passive (referer-receiving) resource.
fn referer_host(provider: &TrackerProvider) -> String {
    request_host_for(provider)
}

/// Path of the passive resource. scorecardresearch's `/b` beacon is the one
/// EasyList (and EasyPrivacy) both carry a rule for — Table 4's referer row.
fn referer_path(provider: &TrackerProvider) -> String {
    match provider.label {
        "scorecardresearch.com" => "/b/beacon.js".to_string(),
        _ => format!("{}/lib.js", provider.endpoint),
    }
}

/// 2–3 benign third-party resources per site (CDNs, fonts): workload realism
/// and initiator-chain fodder.
fn benign_resources(domain: &str, index: usize) -> Vec<BenignResource> {
    let mut out = vec![
        BenignResource {
            host: "cdn.shop-assets.com".into(),
            path: format!("/themes/{}/main.css", domain.len() % 7),
            kind: ResourceKind::Stylesheet,
        },
        BenignResource {
            host: "fonts.webtype-cdn.net".into(),
            path: "/inter/v12/font.woff2".into(),
            kind: ResourceKind::Image,
        },
    ];
    if index.is_multiple_of(2) {
        out.push(BenignResource {
            host: "jquery-cdn.net".into(),
            path: "/3.6/jquery.min.js".into(),
            kind: ResourceKind::Script,
        });
    }
    out
}

/// Generate a privacy-policy document in one of Table 3's four disclosure
/// classes. The analysis crate classifies these texts back with a keyword
/// pipeline, so wording matters more than prose quality.
fn render_policy(domain: &str, class: PolicyDisclosure) -> String {
    let collection = format!(
        "PRIVACY POLICY — {domain}\n\n\
         1. Information we collect. When you create an account we collect \
         personal information you provide, including your name, email \
         address, telephone number, date of birth and postal address.\n"
    );
    let sharing = match class {
        PolicyDisclosure::SharingNotSpecific => {
            "2. Sharing. We may share your personal information with our \
             marketing, analytics and advertising partners and other third \
             parties as necessary to provide and improve our services.\n"
                .to_string()
        }
        PolicyDisclosure::SharingSpecific => {
            "2. Sharing. We share your personal information with the \
             following third parties: Facebook (advertising), Criteo \
             (retargeting), Pinterest (advertising), Google (analytics). A \
             complete list of partners is available on this page.\n"
                .to_string()
        }
        PolicyDisclosure::NoDescription => {
            "2. Cookies. We use cookies to remember your preferences and to \
             operate the shopping cart. You can disable cookies in your \
             browser settings.\n"
                .to_string()
        }
        PolicyDisclosure::DeniesSharing => {
            "2. Sharing. We do not share, sell or rent your personal \
             information to any third parties for their marketing \
             purposes.\n"
                .to_string()
        }
    };
    format!("{collection}{sharing}3. Contact. privacy@{domain}.\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::LeakMethod;
    use std::collections::{HashMap, HashSet};

    fn universe() -> Universe {
        Universe::generate()
    }

    #[test]
    fn scaled_multiplies_every_funnel_quota() {
        let s = UniverseSpec::default().scaled(10);
        let base = UniverseSpec::default();
        assert_eq!(s.total_sites, base.total_sites * 10);
        assert_eq!(s.unreachable, base.unreachable * 10);
        assert_eq!(s.emails.0, base.emails.0 * 10);
        assert_eq!(s.emails.1, base.emails.1 * 10);
        assert_eq!(s.senders, base.senders, "sender catalog is fixed");
        assert_eq!(s.seed, base.seed, "seed survives scaling");
        assert_eq!(s.crawlable(), base.crawlable() * 10);
    }

    #[test]
    fn scaled_by_zero_or_one_is_identity() {
        let base = UniverseSpec::default();
        assert_eq!(base.scaled(0), base);
        assert_eq!(base.scaled(1), base);
    }

    #[test]
    fn scaled_accepts_the_largest_factor_that_fits() {
        // emails.inbox is the tightest field (u32); the largest safe factor
        // must scale without panicking, and one more must fail loudly.
        let base = UniverseSpec::default();
        let limit = (u32::MAX / base.emails.1.max(base.emails.0)) as usize;
        let s = base.scaled(limit);
        assert_eq!(s.emails.1, base.emails.1 * limit as u32);
    }

    #[test]
    #[should_panic(expected = "universe spec overflow")]
    fn scaled_overflow_fails_loudly_on_usize_fields() {
        UniverseSpec::default().scaled(usize::MAX / 2);
    }

    #[test]
    #[should_panic(expected = "universe spec overflow: emails.inbox")]
    fn scaled_overflow_fails_loudly_on_mail_volume() {
        let base = UniverseSpec::default();
        let too_big = (u32::MAX / base.emails.1.max(base.emails.0)) as usize + 1;
        base.scaled(too_big);
    }

    #[test]
    #[should_panic(expected = "inconsistent universe spec")]
    fn crawlable_underflow_fails_loudly() {
        let spec = UniverseSpec {
            total_sites: 10,
            unreachable: 8,
            no_auth_flow: 7,
            ..UniverseSpec::default()
        };
        spec.crawlable();
    }

    #[test]
    fn funnel_counts_match_section_3_2() {
        let u = universe();
        assert_eq!(u.sites.len(), 404);
        let count = |f: &dyn Fn(&Site) -> bool| u.sites.iter().filter(|s| f(s)).count();
        assert_eq!(count(&|s| s.outcome == SiteOutcome::Unreachable), 22);
        assert_eq!(count(&|s| s.outcome == SiteOutcome::NoAuthFlow), 19);
        assert_eq!(
            count(&|s| matches!(s.outcome, SiteOutcome::SignupBlocked(_))),
            56
        );
        assert_eq!(u.crawlable_sites().count(), 307);
        let email_conf = count(&|s| {
            matches!(
                s.outcome,
                SiteOutcome::Ok {
                    email_confirmation: true,
                    ..
                }
            )
        });
        let bots = count(&|s| {
            matches!(
                s.outcome,
                SiteOutcome::Ok {
                    bot_detection: true,
                    ..
                }
            )
        });
        assert_eq!(email_conf, 68);
        assert_eq!(bots, 43);
    }

    #[test]
    fn sender_and_receiver_totals_match_section_4_2() {
        let u = universe();
        assert_eq!(u.sender_sites().count(), 130);
        assert_eq!(u.receiver_labels().len(), 100);
    }

    #[test]
    fn table2_sender_counts_are_reproduced() {
        let u = universe();
        let mut per_receiver: HashMap<&str, HashSet<&str>> = HashMap::new();
        for site in u.sender_sites() {
            for edge in &site.edges {
                if edge.method != LeakMethod::Referer {
                    per_receiver
                        .entry(edge.receiver.as_str())
                        .or_default()
                        .insert(site.domain.as_str());
                }
            }
        }
        for (label, expected) in [
            ("facebook.com", 74),
            ("criteo.com", 37),
            ("pinterest.com", 33),
            ("snapchat.com", 20),
            ("cquotient.com", 7),
            ("bluecore.com", 5),
            ("klaviyo.com", 4),
            ("oracleinfinity.io", 4),
            ("rlcdn.com", 4),
            ("adobe_cname", 8),
            ("zendesk.com", 2),
        ] {
            assert_eq!(
                per_receiver.get(label).map(|s| s.len()).unwrap_or(0),
                expected,
                "sender count for {label}"
            );
        }
    }

    #[test]
    fn loccitane_has_sixteen_receivers_and_is_the_max() {
        let u = universe();
        let max_site = u
            .sender_sites()
            .max_by_key(|s| s.receivers().len())
            .unwrap();
        assert_eq!(max_site.domain, "loccitane.com");
        assert_eq!(max_site.receivers().len(), 16);
    }

    #[test]
    fn average_receivers_per_sender_near_paper() {
        let u = universe();
        let total: usize = u.sender_sites().map(|s| s.receivers().len()).sum();
        let avg = total as f64 / 130.0;
        assert!((2.5..=3.4).contains(&avg), "avg receivers/sender = {avg}");
        let at_least_3 = u
            .sender_sites()
            .filter(|s| s.receivers().len() >= 3)
            .count();
        let share = at_least_3 as f64 / 130.0;
        assert!((0.35..=0.6).contains(&share), "≥3 receiver share = {share}");
    }

    #[test]
    fn brave_survivors_are_exactly_nine_senders() {
        let u = universe();
        let missed: HashSet<&str> = u
            .catalog
            .iter()
            .filter(|p| p.brave_missed)
            .map(|p| p.label)
            .collect();
        let survivors: HashSet<&str> = u
            .sender_sites()
            .filter(|s| s.edges.iter().any(|e| missed.contains(e.receiver.as_str())))
            .map(|s| s.domain.as_str())
            .collect();
        assert_eq!(
            survivors.len(),
            9,
            "§7.1: 130 × (1 − 0.931) ≈ 9 senders survive Brave"
        );
    }

    #[test]
    fn referer_senders_have_get_forms() {
        let u = universe();
        let referer_senders: Vec<&Site> = u
            .sender_sites()
            .filter(|s| s.edges.iter().any(|e| e.method == LeakMethod::Referer))
            .collect();
        assert_eq!(referer_senders.len(), 3, "Table 1a: 3 referer senders");
        for s in &referer_senders {
            assert_eq!(
                s.form.method,
                Method::Get,
                "{} should have a GET form",
                s.domain
            );
        }
        let receivers: HashSet<&str> = referer_senders
            .iter()
            .flat_map(|s| s.edges.iter())
            .filter(|e| e.method == LeakMethod::Referer)
            .map(|e| e.receiver.as_str())
            .collect();
        assert_eq!(receivers.len(), 7, "Table 1a: 7 referer receivers");
    }

    #[test]
    fn cookie_leaks_go_only_to_adobe_via_cname() {
        let u = universe();
        let cookie_edges: Vec<&LeakEdge> = u
            .sender_sites()
            .flat_map(|s| s.edges.iter())
            .filter(|e| e.method == LeakMethod::Cookie)
            .collect();
        let senders = u
            .sender_sites()
            .filter(|s| s.edges.iter().any(|e| e.method == LeakMethod::Cookie))
            .count();
        assert_eq!(senders, 5, "§4.2.1: five cookie-leak senders");
        for e in cookie_edges {
            assert_eq!(e.receiver, "adobe_cname");
            assert!(
                e.request_host.starts_with("metrics."),
                "cookie leak rides CNAME cloak"
            );
        }
    }

    #[test]
    fn cloaked_subdomains_resolve_to_adobe() {
        let u = universe();
        let site = u
            .sender_sites()
            .find(|s| s.edges.iter().any(|e| e.receiver == "adobe_cname"))
            .expect("some adobe sender");
        let sub = format!("metrics.{}", site.domain);
        let res = u.zones.resolve(&sub);
        assert!(res.is_aliased());
        assert!(res.cname_chain[0].contains("omtrdc.net"));
    }

    #[test]
    fn method_marginals_are_close_to_table_1a() {
        let u = universe();
        let senders_with = |m: LeakMethod| {
            u.sender_sites()
                .filter(|s| s.edges.iter().any(|e| e.method == m))
                .count()
        };
        let uri = senders_with(LeakMethod::Uri);
        let payload = senders_with(LeakMethod::Payload);
        assert!(
            (110..=125).contains(&uri),
            "URI senders = {uri} (paper: 118)"
        );
        assert!(
            (38..=48).contains(&payload),
            "payload senders = {payload} (paper: 43)"
        );
        assert_eq!(senders_with(LeakMethod::Cookie), 5);
        assert_eq!(senders_with(LeakMethod::Referer), 3);
    }

    #[test]
    fn policy_classes_match_table_3() {
        let u = universe();
        let count = |c: PolicyDisclosure| u.sender_sites().filter(|s| s.policy == c).count();
        assert_eq!(count(PolicyDisclosure::SharingNotSpecific), 102);
        assert_eq!(count(PolicyDisclosure::SharingSpecific), 9);
        assert_eq!(count(PolicyDisclosure::NoDescription), 15);
        assert_eq!(count(PolicyDisclosure::DeniesSharing), 4);
    }

    #[test]
    fn mailbox_matches_section_4_2_3() {
        let u = universe();
        assert_eq!(u.mailbox.inbox_count(), 2172);
        assert_eq!(u.mailbox.spam_count(), 141);
        let receivers = u.receiver_labels();
        assert!(u.mailbox.third_party_senders(&receivers).is_empty());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Universe::generate();
        let b = Universe::generate();
        assert_eq!(a.sites.len(), b.sites.len());
        for (x, y) in a.sites.iter().zip(&b.sites) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn different_seed_changes_layout_not_totals() {
        let spec = UniverseSpec {
            seed: 12345,
            ..UniverseSpec::default()
        };
        let u = Universe::generate_with(spec);
        assert_eq!(u.sender_sites().count(), 130);
        assert_eq!(u.receiver_labels().len(), 100);
        assert_eq!(u.crawlable_sites().count(), 307);
    }

    #[test]
    fn nykaa_has_bot_detection() {
        let u = universe();
        let nykaa = u.site("nykaa.com").unwrap();
        assert!(matches!(
            nykaa.outcome,
            SiteOutcome::Ok {
                bot_detection: true,
                ..
            }
        ));
    }

    #[test]
    fn fault_plan_mirrors_the_configured_funnel_on_the_wire() {
        let u = universe();
        let plan = u.fault_plan(FaultProfile::PaperMay2021);
        assert!(!plan.is_inert());
        let dead = plan
            .schedules()
            .filter(|(_, s)| matches!(s, DomainSchedule::Dead(_)))
            .count();
        let walled = plan
            .schedules()
            .filter(|(_, s)| matches!(s, DomainSchedule::BotWall { .. }))
            .count();
        let flaky: Vec<(&str, &DomainSchedule)> = plan
            .schedules()
            .filter(|(_, s)| matches!(s, DomainSchedule::Flaky { .. }))
            .collect();
        assert_eq!(dead, 22, "§3.2 unreachable sites are dead on the wire");
        assert_eq!(walled, 56, "§3.2 blocked sites sit behind bot walls");
        assert!(!flaky.is_empty(), "some healthy sites must wobble");
        // Under the paper profile, every flaky site recovers within the
        // default 3-attempt retry budget.
        for (domain, schedule) in &flaky {
            if let DomainSchedule::Flaky { failures, .. } = schedule {
                assert!(*failures < 3, "{domain} would never be rescued");
            }
        }
        // Deterministic: same universe, same plan.
        assert_eq!(plan, u.fault_plan(FaultProfile::PaperMay2021));
        // Inert under profile `none`.
        assert!(u.fault_plan(FaultProfile::None).is_inert());
        // Hostile injects strictly more chaos.
        let hostile = u.fault_plan(FaultProfile::Hostile);
        assert!(hostile.schedule_count() > plan.schedule_count());
    }
}
