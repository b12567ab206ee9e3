//! §6: dimensioning the FQDN Clist, answer-list statistics, and label
//! confusion.

use std::fmt::Write as _;

use dnhunter_analytics::confusion::{answer_list_report, confusion_report};
use dnhunter_dns::suffix::SuffixSet;
use dnhunter_resolver::dimensioning::{smallest_sufficient, sweep};

use crate::harness::Harness;

/// Clist sizes swept (fractions of the workload's response count are more
/// meaningful than absolute numbers at simulation scale).
const SIZES: &[usize] = &[256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576];

/// The §6 report: efficiency vs L, the smallest L reaching 98%, the
/// answer-list distribution and the confusion analysis.
pub fn report(h: &mut Harness) -> String {
    let events = h.dimensioning_events();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Section 6: dimensioning the FQDN Clist (EU1-ADSL1 workload)"
    );
    let responses = events
        .iter()
        .filter(|e| {
            matches!(
                e,
                dnhunter_resolver::dimensioning::ResolverEvent::Response { .. }
            )
        })
        .count();
    let _ = writeln!(
        out,
        "workload: {} events ({} responses)",
        events.len(),
        responses
    );

    let points = sweep(&events, SIZES);
    let _ = writeln!(
        out,
        "{:>10} {:>12} {:>10} {:>12}",
        "L", "efficiency", "evictions", "est. memory"
    );
    for p in &points {
        let _ = writeln!(
            out,
            "{:>10} {:>11.1}% {:>10} {:>11.1}MB",
            p.clist_size,
            p.efficiency * 100.0,
            p.evictions,
            p.memory_bytes as f64 / (1024.0 * 1024.0)
        );
    }
    match smallest_sufficient(&points, 0.98) {
        Some(p) => {
            let _ = writeln!(
                out,
                "smallest tested L reaching 98% efficiency: {} (paper: ~2.1M at full ISP scale)",
                p.clist_size
            );
        }
        None => {
            let best = points.iter().map(|p| p.efficiency).fold(0.0f64, f64::max);
            let _ = writeln!(
                out,
                "no tested L reached 98% (best {:.1}%) — residual misses are invisible resolutions, not evictions",
                best * 100.0
            );
        }
    }

    // Answer-list distribution and confusion, from the EU1-ADSL1 run.
    let run = h.run("EU1-ADSL1");
    let answers = answer_list_report(&run.report.answers_per_response);
    let _ = writeln!(
        out,
        "answer lists: single {:.0}%, 2-10 addrs {:.0}%, >10 addrs {:.0}%, max {} (paper: ~60% single, 20-25% 2-10, max >30 rare)",
        answers.fraction_single * 100.0,
        answers.fraction_2_to_10 * 100.0,
        answers.fraction_over_10 * 100.0,
        answers.max
    );
    let suffixes = SuffixSet::builtin();
    let conf = confusion_report(&run.report.database, &run.report.resolver_stats, &suffixes);
    let _ = writeln!(
        out,
        "label confusion: ambiguous pairs {:.1}%, excluding same-org redirections {:.1}% (paper: <4%), resolver replacements {:.1}%",
        conf.ambiguous_pair_fraction * 100.0,
        conf.ambiguous_excluding_redirects * 100.0,
        conf.resolver_replacement_ratio * 100.0
    );
    out
}
