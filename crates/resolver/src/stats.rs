//! Resolver counters used by the hit-ratio and dimensioning experiments
//! of the paper's §6.

/// Counters accumulated by a [`crate::DnsResolver`] — the raw numbers
/// behind the paper's §6 efficiency and confusion results.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ResolverStats {
    /// DNS responses fed to `insert` (one per response message).
    pub responses: u64,
    /// (serverIP → FQDN) bindings created (one per answer address).
    pub bindings: u64,
    /// Bindings that replaced an existing binding with the *same* FQDN.
    pub replaced_same_fqdn: u64,
    /// Bindings that replaced an existing binding with a *different* FQDN —
    /// the raw material of §6's label-confusion analysis.
    pub replaced_different_fqdn: u64,
    /// Clist slots recycled (old entry evicted by the FIFO).
    pub evictions: u64,
    /// `lookup` calls.
    pub lookups: u64,
    /// `lookup` calls that returned an FQDN.
    pub hits: u64,
}

impl ResolverStats {
    /// Hit ratio over all lookups (the paper's §6 resolver efficiency);
    /// 0 when no lookups happened.
    pub fn hit_ratio(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }

    /// Misses (lookups − hits) — the paper's §6 unresolved-flow count.
    /// Saturating: a deserialized or hand-built value with `hits >
    /// lookups` is inconsistent but must not panic/wrap.
    pub fn misses(&self) -> u64 {
        self.lookups.saturating_sub(self.hits)
    }

    /// Fraction of bindings that silently changed the label of a
    /// (client, server) pair — the paper's §6 label-confusion measure.
    pub fn confusion_ratio(&self) -> f64 {
        if self.bindings == 0 {
            0.0
        } else {
            self.replaced_different_fqdn as f64 / self.bindings as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let mut s = ResolverStats::default();
        assert_eq!(s.hit_ratio(), 0.0);
        assert_eq!(s.confusion_ratio(), 0.0);
        s.lookups = 10;
        s.hits = 9;
        s.bindings = 100;
        s.replaced_different_fqdn = 4;
        assert!((s.hit_ratio() - 0.9).abs() < 1e-12);
        assert_eq!(s.misses(), 1);
        assert!((s.confusion_ratio() - 0.04).abs() < 1e-12);
    }

    #[test]
    fn misses_saturates_on_inconsistent_counts() {
        // A hand-built (or corrupted/deserialized) stats value can carry
        // hits > lookups; misses() must clamp to 0, not panic in debug
        // or wrap in release.
        let s = ResolverStats {
            lookups: 3,
            hits: 10,
            ..ResolverStats::default()
        };
        assert_eq!(s.misses(), 0);
        let ok = ResolverStats {
            lookups: 10,
            hits: 3,
            ..ResolverStats::default()
        };
        assert_eq!(ok.misses(), 7);
    }
}
