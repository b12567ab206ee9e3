//! Automatic service-tag extraction — paper Algorithm 4 and Eq. (1),
//! Tables 6–7.
//!
//! For a target port, tokenize the FQDNs of its flows (TLD and 2nd-level
//! dropped, digit runs → `N`) and score each token
//! `score(X) = Σ_c log(N_X(c) + 1)` over clients `c`, damping chatty
//! clients. The scores are [`token_scores`], the one offline Eq. 1 (in
//! `dnhunter::db`); this module ranks them.

pub use dnhunter::db::token_scores;
use dnhunter::FlowDatabase;
use dnhunter_dns::suffix::SuffixSet;

/// A scored token.
#[derive(Debug, Clone, PartialEq)]
pub struct Tag {
    pub token: String,
    pub score: f64,
}

/// TAG_EXTRACTION(dPort, k): the top-k tokens for a port, score
/// descending, ties by token.
pub fn extract_tags(db: &FlowDatabase, port: u16, k: usize, suffixes: &SuffixSet) -> Vec<Tag> {
    let scores = token_scores(db.by_port(port), suffixes);
    let mut out: Vec<Tag> = scores
        .into_iter()
        .map(|(token, score)| Tag { token, score })
        .collect();
    out.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .expect("scores are finite")
            .then_with(|| a.token.cmp(&b.token))
    });
    out.truncate(k);
    out
}

/// Restrict a ranked tag list to those summing to the `q`-th score
/// percentile (the paper mentions top-5% / n-th percentile cut-offs).
pub fn cut_at_percentile(tags: &[Tag], q: f64) -> Vec<Tag> {
    let total: f64 = tags.iter().map(|t| t.score).sum();
    let budget = total * q.clamp(0.0, 1.0);
    let mut acc = 0.0;
    let mut out = Vec::new();
    for t in tags {
        if acc >= budget {
            break;
        }
        acc += t.score;
        out.push(t.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnhunter::TaggedFlow;
    use dnhunter_flow::{AppProtocol, FlowKey};
    use dnhunter_net::IpProtocol;

    fn flow(client: &str, fqdn: &str, port: u16) -> TaggedFlow {
        TaggedFlow {
            key: FlowKey::from_initiator(
                client.parse().unwrap(),
                "62.211.72.9".parse().unwrap(),
                50000,
                port,
                IpProtocol::Tcp,
            ),
            fqdn: Some(fqdn.parse().unwrap()),
            second_level: None,
            alt_labels: Vec::new(),
            tag_delay_micros: None,
            first_ts: 0,
            last_ts: 1,
            packets_c2s: 1,
            packets_s2c: 1,
            bytes_c2s: 10,
            bytes_s2c: 10,
            protocol: AppProtocol::Mail,
            tls: None,
            in_warmup: false,
        }
    }

    #[test]
    fn smtp_port_yields_smtp_tokens() {
        let s = SuffixSet::builtin();
        let mut db = FlowDatabase::new();
        for c in ["10.0.0.1", "10.0.0.2", "10.0.0.3"] {
            db.push(flow(c, "smtp1.mail.provider.it", 25), &s);
            db.push(flow(c, "smtp2.provider.it", 25), &s);
            db.push(flow(c, "smtp3.provider.it", 25), &s);
        }
        db.push(flow("10.0.0.1", "mx3.other.org", 25), &s);
        let tags = extract_tags(&db, 25, 3, &s);
        assert_eq!(tags[0].token, "smtpN");
        assert!(tags.iter().any(|t| t.token == "mail"));
        assert!(tags.iter().any(|t| t.token == "mxN"));
    }

    #[test]
    fn log_score_damps_chatty_clients() {
        let s = SuffixSet::builtin();
        let mut db = FlowDatabase::new();
        // One client hammers "hog" 1000 times; ten clients touch "spread" once.
        for _ in 0..1000 {
            db.push(flow("10.0.0.1", "hog.example.com", 80), &s);
        }
        for i in 0..10 {
            db.push(flow(&format!("10.0.1.{i}"), "spread.example.com", 80), &s);
        }
        let scores = token_scores(db.by_port(80), &s);
        // Raw counts would rank hog 100× higher; the log score ranks
        // the widely-used token on top (10·ln2 ≈ 6.9 > ln1001 ≈ 6.9... use 11 clients).
        let score = |token: &str| scores.iter().find(|(t, _)| t == token).unwrap().1;
        let hog = score("hog");
        let spread = score("spread");
        assert!(hog < 1000.0_f64.ln() + 1.0);
        assert!(spread > 0.9 * 10.0 * 2.0_f64.ln());
        assert!(spread > hog * 0.9, "spread {spread} vs hog {hog}");
    }

    /// Two tokens with the same per-client counts on different clients tie
    /// exactly, so every call ranks them by name with the same bits.
    #[test]
    fn tied_tokens_rank_by_name_with_identical_scores_on_every_call() {
        let s = SuffixSet::builtin();
        let mut db = FlowDatabase::new();
        for (i, n) in [1, 2, 3, 5, 8, 13, 21].into_iter().enumerate() {
            for _ in 0..n {
                db.push(
                    flow(&format!("10.0.0.{i}"), "pop.glbdns.example.com", 995),
                    &s,
                );
                db.push(flow(&format!("10.0.1.{i}"), "hot.example.com", 995), &s);
            }
        }
        let ranked = |tags: Vec<Tag>| -> Vec<(String, u64)> {
            tags.into_iter()
                .map(|t| (t.token, t.score.to_bits()))
                .collect()
        };
        let first = ranked(extract_tags(&db, 995, 10, &s));
        let tokens: Vec<&str> = first.iter().map(|(t, _)| t.as_str()).collect();
        assert_eq!(tokens, ["glbdns", "hot", "pop"]);
        for _ in 0..20 {
            assert_eq!(ranked(extract_tags(&db, 995, 10, &s)), first);
        }
    }

    #[test]
    fn ports_are_isolated() {
        let s = SuffixSet::builtin();
        let mut db = FlowDatabase::new();
        db.push(flow("10.0.0.1", "pop.mail.x.org", 110), &s);
        db.push(flow("10.0.0.1", "imap.mail.x.org", 143), &s);
        let t110 = extract_tags(&db, 110, 5, &s);
        assert!(t110.iter().any(|t| t.token == "pop"));
        assert!(!t110.iter().any(|t| t.token == "imap"));
    }

    #[test]
    fn untagged_flows_and_bare_slds_contribute_nothing() {
        let s = SuffixSet::builtin();
        let mut db = FlowDatabase::new();
        let mut f = flow("10.0.0.1", "x.com", 80);
        f.fqdn = None;
        db.push(f, &s);
        db.push(flow("10.0.0.1", "example.com", 80), &s); // bare SLD: no sub-labels
        assert!(extract_tags(&db, 80, 5, &s).is_empty());
    }

    #[test]
    fn percentile_cut() {
        let tags = vec![
            Tag {
                token: "a".into(),
                score: 50.0,
            },
            Tag {
                token: "b".into(),
                score: 30.0,
            },
            Tag {
                token: "c".into(),
                score: 15.0,
            },
            Tag {
                token: "d".into(),
                score: 5.0,
            },
        ];
        let top = cut_at_percentile(&tags, 0.8);
        assert_eq!(top.len(), 2); // 50+30 = 80% of the mass
        assert_eq!(cut_at_percentile(&tags, 1.0).len(), 4);
        assert!(cut_at_percentile(&tags, 0.0).is_empty());
    }
}
