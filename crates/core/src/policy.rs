//! Policy enforcement on freshly tagged flows.
//!
//! The paper's motivating scenario (§1): *block all traffic to Zynga games
//! but prioritize DropBox*, even though both are encrypted and both live on
//! Amazon EC2 — impossible with DPI or IP filters, trivial once every flow
//! carries its FQDN. Because DN-Hunter tags a flow at its **first packet**
//! (the DNS response preceded it), a policy applies to the whole flow,
//! including the TCP handshake.

use std::fmt;

use dnhunter_dns::DomainName;
use dnhunter_flow::FlowKey;

/// What to do with a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolicyAction {
    /// Forward normally.
    #[default]
    Allow,
    /// Drop all packets.
    Block,
    /// Queue with elevated priority (higher number = more urgent).
    Prioritize(u8),
    /// Queue with reduced priority.
    Deprioritize,
    /// Cap the flow's rate (bytes/s).
    RateLimit(u64),
}

impl fmt::Display for PolicyAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyAction::Allow => write!(f, "allow"),
            PolicyAction::Block => write!(f, "block"),
            PolicyAction::Prioritize(p) => write!(f, "prioritize({p})"),
            PolicyAction::Deprioritize => write!(f, "deprioritize"),
            PolicyAction::RateLimit(bps) => write!(f, "rate-limit({bps} B/s)"),
        }
    }
}

/// A rule: a domain pattern and the action for flows whose label matches.
#[derive(Debug, Clone)]
pub struct PolicyRule {
    /// Matches the FQDN itself or any subdomain of it: the pattern
    /// `zynga.com` matches `farm.zynga.com`.
    pub domain: DomainName,
    pub action: PolicyAction,
}

impl PolicyRule {
    /// Build a rule from a domain string.
    pub fn new(domain: &str, action: PolicyAction) -> Result<Self, dnhunter_dns::DnsError> {
        Ok(PolicyRule {
            domain: domain.parse()?,
            action,
        })
    }

    /// Does this rule match the label?
    pub fn matches(&self, fqdn: &DomainName) -> bool {
        fqdn.is_subdomain_of(&self.domain)
    }
}

/// A decision taken for one flow.
#[derive(Debug, Clone)]
pub struct PolicyDecision {
    pub key: FlowKey,
    pub fqdn: Option<DomainName>,
    pub action: PolicyAction,
    /// True when the decision was available at the flow's first packet
    /// (the DNS label pre-dated the flow) — the paper's headline advantage
    /// over DPI, which must wait for payload to match a signature.
    pub at_first_packet: bool,
}

/// Anything that reacts to tagged flow starts.
pub trait PolicyEnforcer {
    /// Called when a flow starts; `fqdn` is the label (None = resolver miss).
    fn on_flow_start(&mut self, key: FlowKey, fqdn: Option<&DomainName>) -> PolicyAction;
}

/// Rule-list enforcer: first matching rule wins; unlabeled or unmatched
/// flows get the default action. Records every decision for inspection.
#[derive(Debug, Default)]
pub struct RuleEnforcer {
    rules: Vec<PolicyRule>,
    default_action: PolicyAction,
    decisions: Vec<PolicyDecision>,
    blocked: u64,
    prioritized: u64,
}

impl RuleEnforcer {
    /// Enforcer with the given rules and `Allow` default.
    pub fn new(rules: Vec<PolicyRule>) -> Self {
        RuleEnforcer {
            rules,
            default_action: PolicyAction::Allow,
            decisions: Vec::new(),
            blocked: 0,
            prioritized: 0,
        }
    }

    /// Override the default action.
    pub fn with_default(mut self, action: PolicyAction) -> Self {
        self.default_action = action;
        self
    }

    /// All recorded decisions.
    pub fn decisions(&self) -> &[PolicyDecision] {
        &self.decisions
    }

    /// Count of blocked flows.
    pub fn blocked(&self) -> u64 {
        self.blocked
    }

    /// Count of prioritized flows.
    pub fn prioritized(&self) -> u64 {
        self.prioritized
    }
}

impl PolicyEnforcer for RuleEnforcer {
    fn on_flow_start(&mut self, key: FlowKey, fqdn: Option<&DomainName>) -> PolicyAction {
        let action = fqdn
            .and_then(|f| self.rules.iter().find(|r| r.matches(f)))
            .map(|r| r.action)
            .unwrap_or(self.default_action);
        match action {
            PolicyAction::Block => self.blocked += 1,
            PolicyAction::Prioritize(_) => self.prioritized += 1,
            _ => {}
        }
        self.decisions.push(PolicyDecision {
            key,
            fqdn: fqdn.cloned(),
            action,
            at_first_packet: fqdn.is_some(),
        });
        action
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnhunter_net::IpProtocol;

    fn key() -> FlowKey {
        FlowKey::from_initiator(
            "10.0.0.1".parse().unwrap(),
            "54.230.1.1".parse().unwrap(),
            50000,
            443,
            IpProtocol::Tcp,
        )
    }

    fn name(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn zynga_vs_dropbox_scenario() {
        // Both services live on the same cloud; only the label separates them.
        let mut e = RuleEnforcer::new(vec![
            PolicyRule::new("zynga.com", PolicyAction::Block).unwrap(),
            PolicyRule::new("dropbox.com", PolicyAction::Prioritize(7)).unwrap(),
        ]);
        let a1 = e.on_flow_start(key(), Some(&name("farm.zynga.com")));
        let a2 = e.on_flow_start(key(), Some(&name("client.dropbox.com")));
        assert_eq!(a1, PolicyAction::Block);
        assert_eq!(a2, PolicyAction::Prioritize(7));
        assert_eq!(e.blocked(), 1);
        assert_eq!(e.prioritized(), 1);
        assert!(e.decisions().iter().all(|d| d.at_first_packet));
    }

    #[test]
    fn first_match_wins() {
        let mut e = RuleEnforcer::new(vec![
            PolicyRule::new("mail.google.com", PolicyAction::Prioritize(9)).unwrap(),
            PolicyRule::new("google.com", PolicyAction::Deprioritize).unwrap(),
        ]);
        assert_eq!(
            e.on_flow_start(key(), Some(&name("mail.google.com"))),
            PolicyAction::Prioritize(9)
        );
        assert_eq!(
            e.on_flow_start(key(), Some(&name("docs.google.com"))),
            PolicyAction::Deprioritize
        );
    }

    #[test]
    fn unlabeled_flows_get_default() {
        let mut e = RuleEnforcer::new(vec![
            PolicyRule::new("zynga.com", PolicyAction::Block).unwrap()
        ])
        .with_default(PolicyAction::RateLimit(1_000_000));
        let a = e.on_flow_start(key(), None);
        assert_eq!(a, PolicyAction::RateLimit(1_000_000));
        assert!(!e.decisions()[0].at_first_packet);
    }

    #[test]
    fn pattern_matches_subdomains_not_lookalikes() {
        let r = PolicyRule::new("zynga.com", PolicyAction::Block).unwrap();
        assert!(r.matches(&name("zynga.com")));
        assert!(r.matches(&name("a.b.zynga.com")));
        assert!(!r.matches(&name("notzynga.com")));
        assert!(!r.matches(&name("zynga.com.evil.org")));
    }

    #[test]
    fn action_display() {
        assert_eq!(PolicyAction::Block.to_string(), "block");
        assert_eq!(PolicyAction::Prioritize(3).to_string(), "prioritize(3)");
        assert_eq!(
            PolicyAction::RateLimit(500).to_string(),
            "rate-limit(500 B/s)"
        );
    }
}
