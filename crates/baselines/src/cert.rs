//! The certificate-inspection baseline (paper §5.2.1, Tab. 4).
//!
//! A DPI extended to read the CN of the server certificate during the TLS
//! handshake, compared against the FQDN DN-Hunter assigned to the same
//! flow. Four outcome classes, as in Tab. 4.

use dnhunter::FlowDatabase;
use dnhunter_dns::suffix::SuffixSet;
use dnhunter_dns::DomainName;
use dnhunter_flow::AppProtocol;

/// Outcome for one TLS flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CertMatch {
    /// CN equals the FQDN.
    Equal,
    /// Wildcard/generic CN covering the FQDN (`*.google.com`).
    Generic,
    /// CN names something else (typically the hosting CDN).
    Different,
    /// No certificate observed (session resumption / missed handshake).
    NoCertificate,
}

/// Tab. 4 counts over the TLS flows of a trace.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CertMatchCounts {
    pub equal: usize,
    pub generic: usize,
    pub different: usize,
    pub no_certificate: usize,
}

impl CertMatchCounts {
    /// Total classified flows.
    pub fn total(&self) -> usize {
        self.equal + self.generic + self.different + self.no_certificate
    }

    /// Fractions in Tab. 4 order (equal, generic, different, none).
    pub fn fractions(&self) -> [f64; 4] {
        let t = self.total().max(1) as f64;
        [
            self.equal as f64 / t,
            self.generic as f64 / t,
            self.different as f64 / t,
            self.no_certificate as f64 / t,
        ]
    }
}

/// Does a wildcard pattern (`*.example.com`) cover `fqdn`?
fn wildcard_covers(pattern: &str, fqdn: &DomainName) -> bool {
    let Some(base) = pattern.strip_prefix("*.") else {
        return false;
    };
    let Ok(base_name) = base.parse::<DomainName>() else {
        return false;
    };
    fqdn.is_subdomain_of(&base_name) && *fqdn != base_name
}

/// Classify one flow's certificate CN against the DNS label.
pub fn classify_cert(label: &DomainName, cn: Option<&str>) -> CertMatch {
    match cn {
        None => CertMatch::NoCertificate,
        Some(cn) => {
            if cn.starts_with("*.") {
                if wildcard_covers(cn, label) {
                    CertMatch::Generic
                } else {
                    CertMatch::Different
                }
            } else if cn.parse::<DomainName>().ok().as_ref() == Some(label) {
                CertMatch::Equal
            } else {
                CertMatch::Different
            }
        }
    }
}

/// The Tab. 4 experiment over every labelled TLS flow in the database.
pub fn certificate_comparison(db: &FlowDatabase, _suffixes: &SuffixSet) -> CertMatchCounts {
    let mut counts = CertMatchCounts::default();
    for f in db.flows() {
        if f.protocol != AppProtocol::Tls {
            continue;
        }
        let (Some(label), Some(tls)) = (&f.fqdn, &f.tls) else {
            continue;
        };
        match classify_cert(label, tls.certificate_cn.as_deref()) {
            CertMatch::Equal => counts.equal += 1,
            CertMatch::Generic => counts.generic += 1,
            CertMatch::Different => counts.different += 1,
            CertMatch::NoCertificate => counts.no_certificate += 1,
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> DomainName {
        s.parse().unwrap()
    }

    #[test]
    fn classification_rules() {
        let label = n("mail.google.com");
        assert_eq!(
            classify_cert(&label, Some("mail.google.com")),
            CertMatch::Equal
        );
        assert_eq!(
            classify_cert(&label, Some("*.google.com")),
            CertMatch::Generic
        );
        assert_eq!(
            classify_cert(&label, Some("a248.e.akamai.net")),
            CertMatch::Different
        );
        assert_eq!(classify_cert(&label, None), CertMatch::NoCertificate);
        // A wildcard for another org does not cover the label.
        assert_eq!(
            classify_cert(&label, Some("*.akamai.net")),
            CertMatch::Different
        );
        // A wildcard never matches its own base name.
        assert_eq!(
            classify_cert(&n("google.com"), Some("*.google.com")),
            CertMatch::Different
        );
    }

    #[test]
    fn fractions_sum_to_one() {
        let c = CertMatchCounts {
            equal: 18,
            generic: 19,
            different: 40,
            no_certificate: 23,
        };
        assert_eq!(c.total(), 100);
        let sum: f64 = c.fractions().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn garbage_cn_is_different() {
        assert_eq!(
            classify_cert(&n("x.example.com"), Some("not a hostname at all !!")),
            CertMatch::Different
        );
    }
}
