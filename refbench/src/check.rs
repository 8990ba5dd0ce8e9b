//! `check A.json B.json`: do two result sets agree within the bounds?
//!
//! Later changes state their claims in this command's vocabulary: "metric M
//! on workload W is `better`; every other pairing stays `same`".

use std::fmt::Write;

use crate::metrics::{end_to_end, EndToEnd};
use crate::run::{RunFile, WorkloadResult};
use crate::stats::{Better, Summary};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Same,
    /// B is worse than A by more than the bound (and the absolute floor).
    Worse,
    /// B is better than A by more than the bound (and the absolute floor).
    Better,
    /// A reported value stands further than the bound from the quarter of
    /// its set's rounds nearest to it, and the rounds of A and B overlap:
    /// the floor was not reached reliably, so neither "same" nor a change can
    /// be claimed.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

fn range(s: &Summary) -> (f64, f64) {
    s.values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// Compares one metric of one workload. The values compared are the
/// reported ones (`Summary::best`); the ratio is B over A, so A is its base.
///
/// The noise that makes a pairing unresolved is the gap between the
/// reported value and its nearest quartile, not the IQR: a burst that slows
/// two of seven rounds widens the IQR past any bound but leaves the least
/// disturbed measurement, which is what is compared, where it was. (ISSUE 11
/// named the IQR; with it the first back-to-back pair of this commit had
/// five `unresolved` among values that agreed within 4 %.)
pub fn verdict(def: &EndToEnd, a: &Summary, b: &Summary) -> Verdict {
    let noise = a.floor_gap_share().max(b.floor_gap_share());
    let ((a_lo, a_hi), (b_lo, b_hi)) = (range(a), range(b));
    let overlap = a_lo <= b_hi && b_lo <= a_hi;
    if noise > def.bound && overlap {
        return Verdict::Unresolved;
    }
    let worse_by = match def.better {
        Better::Lower => b.best - a.best,
        Better::Higher => a.best - b.best,
    };
    // "The bound or the floor, whichever is larger": both must be exceeded.
    let limit = (def.bound * a.best.abs()).max(def.floor);
    if worse_by > limit {
        Verdict::Worse
    } else if -worse_by > limit {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The comparison of two result sets.
#[derive(Debug)]
pub struct Comparison {
    /// The table, one line per (workload, metric).
    pub text: String,
    /// False on any `worse`, on differing counts or digests at equal seed,
    /// or on a higher failed share.
    pub ok: bool,
    pub verdicts: Vec<(String, String, Verdict)>,
}

fn compare_workload(a: &WorkloadResult, b: &WorkloadResult, same_seed: bool, out: &mut Comparison) {
    for (name, sa) in &a.metrics {
        let (Some(sb), Some(def)) = (b.metric(name), end_to_end(name)) else {
            continue;
        };
        let v = verdict(def, sa, sb);
        let ratio = if sa.best == 0.0 {
            f64::NAN
        } else {
            sb.best / sa.best
        };
        let _ = writeln!(
            out.text,
            "{:<16} {:<20} {:>12.5} {:>12.5} {:>7.3}x of {:<10.5} {:>5.2} {:<10} {}",
            a.workload,
            name,
            sa.best,
            sb.best,
            ratio,
            sa.best,
            def.bound,
            def.unit,
            v.as_str()
        );
        out.ok &= v != Verdict::Worse;
        out.verdicts.push((a.workload.clone(), name.clone(), v));
    }
    if same_seed && (a.digest != b.digest || a.counts != b.counts) {
        out.ok = false;
        let _ = writeln!(
            out.text,
            "{:<16} simulated results DIFFER at equal seed: digest {} vs {}, counts {:?} vs {:?}",
            a.workload, a.digest, b.digest, a.counts, b.counts
        );
    }
    if b.failed_share() > a.failed_share() {
        out.ok = false;
        let _ = writeln!(
            out.text,
            "{:<16} failed_share ROSE: {}/{} -> {}/{}",
            a.workload, a.failed, a.attempted, b.failed, b.attempted
        );
    }
}

/// Compares B against A, workload by workload.
pub fn compare(a: &RunFile, b: &RunFile) -> Comparison {
    let mut out = Comparison {
        text: String::new(),
        ok: true,
        verdicts: Vec::new(),
    };
    let _ = writeln!(
        out.text,
        "A: commit {} seed {}   B: commit {} seed {}\n{:<16} {:<20} {:>12} {:>12} {:>22} {:>5} {:<10} verdict",
        a.machine.git_commit, a.seed, b.machine.git_commit, b.seed,
        "workload", "metric", "A (best)", "B (best)", "ratio with its base", "bound", "unit"
    );
    for ra in &a.results {
        match b.results.iter().find(|rb| rb.workload == ra.workload) {
            Some(rb) => compare_workload(ra, rb, a.seed == b.seed && a.scale == b.scale, &mut out),
            None => {
                let _ = writeln!(out.text, "{:<16} only in A", ra.workload);
            }
        }
    }
    let _ = writeln!(out.text, "{}", if out.ok { "OK" } else { "NOT OK" });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Machine;
    use crate::workloads::Scale;

    fn lower(values: &[f64]) -> Summary {
        Summary::new(values.to_vec(), Better::Lower)
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_floor() {
        let wall = end_to_end("wall_s").unwrap();
        let a = lower(&[1.00, 1.01, 1.02]);
        assert_eq!(wall.bound, 0.25);
        assert_eq!(
            verdict(wall, &a, &lower(&[1.20, 1.21, 1.22])),
            Verdict::Same
        );
        assert_eq!(
            verdict(wall, &a, &lower(&[1.30, 1.31, 1.32])),
            Verdict::Worse
        );
        assert_eq!(
            verdict(wall, &a, &lower(&[0.70, 0.71, 0.72])),
            Verdict::Better
        );

        // Higher is better: a rate that drops by more than the bound.
        let rate = end_to_end("sim_mcps").unwrap();
        let ra = Summary::new(vec![1.00, 0.99, 0.98], Better::Higher);
        let rb = Summary::new(vec![0.70, 0.69, 0.68], Better::Higher);
        assert_eq!(verdict(rate, &ra, &rb), Verdict::Worse);
        assert_eq!(verdict(rate, &rb, &ra), Verdict::Better);

        // "25 % or 5 ms, whichever is larger": 12 ms -> 16 ms is +33 % but
        // only 4 ms, so it is the same; 12 ms -> 18 ms exceeds both.
        let setup = end_to_end("setup_s").unwrap();
        let sa = lower(&[0.0120, 0.0121, 0.0122]);
        assert_eq!(
            verdict(setup, &sa, &lower(&[0.0160, 0.0161, 0.0162])),
            Verdict::Same
        );
        assert_eq!(
            verdict(setup, &sa, &lower(&[0.0180, 0.0181, 0.0182])),
            Verdict::Worse
        );
    }

    #[test]
    fn wide_overlapping_rounds_are_unresolved_but_disjoint_ones_are_not() {
        let wall = end_to_end("wall_s").unwrap();
        // The best round of A is a lone 1.0, the next quarter lies at 1.4.
        let noisy_a = lower(&[1.0, 1.5, 1.7, 1.4, 1.5, 1.6, 1.8]);
        let noisy_b = lower(&[1.2, 1.25, 1.6, 1.05, 1.4, 1.3, 1.1]);
        assert!(noisy_a.floor_gap_share() > wall.bound);
        assert_eq!(verdict(wall, &noisy_a, &noisy_b), Verdict::Unresolved);
        // Every round of B reads better than every round of A: resolved,
        // however shaky A's floor is.
        let fast_b = lower(&[0.5, 0.6, 0.7, 0.55, 0.65, 0.6, 0.7]);
        assert_eq!(verdict(wall, &noisy_a, &fast_b), Verdict::Better);
        // A burst that slows two of seven rounds widens the IQR past the
        // bound, but the floor is well supported: resolved.
        let burst = lower(&[1.39, 1.50, 1.11, 1.07, 1.01, 1.06, 1.00]);
        let calm = lower(&[1.07, 1.02, 1.06, 1.19, 1.04, 0.96, 0.99]);
        assert!(burst.iqr_share() > wall.bound);
        assert_eq!(verdict(wall, &burst, &calm), Verdict::Same);
    }

    fn result(wall: &[f64], digest: &str, failed: u64) -> WorkloadResult {
        WorkloadResult {
            workload: "stream_rd_8c".to_string(),
            seed: 1,
            metrics: vec![("wall_s".to_string(), lower(wall))],
            digest: digest.to_string(),
            counts: vec![("reads_done".to_string(), 7)],
            sim_stats: Vec::new(),
            attempted: 3,
            failed,
            failures: Vec::new(),
            noise_iqr_share: 0.0,
            rounds: 3,
            latency_samples: 0,
        }
    }

    fn file(seed: u64, r: WorkloadResult) -> RunFile {
        RunFile::new(Machine::describe(), seed, Scale::Full, vec![r])
    }

    #[test]
    fn check_fails_on_worse_on_differing_digests_and_on_more_failures() {
        let base = file(1, result(&[1.0, 1.01, 1.02], "aa", 0));
        let same = compare(&base, &file(1, result(&[1.03, 1.0, 1.02], "aa", 0)));
        assert!(same.ok, "{}", same.text);
        assert_eq!(same.verdicts[0].2, Verdict::Same);
        assert!(same.text.contains("x of") && same.text.contains("OK"));

        let worse = compare(&base, &file(1, result(&[1.4, 1.41, 1.42], "aa", 0)));
        assert!(!worse.ok && worse.text.contains("worse"));

        let drift = compare(&base, &file(1, result(&[1.0, 1.01, 1.02], "bb", 0)));
        assert!(!drift.ok && drift.text.contains("DIFFER"));
        // Another seed generates other inputs: digests may differ.
        let reseeded = compare(&base, &file(2, result(&[1.0, 1.01, 1.02], "bb", 0)));
        assert!(reseeded.ok, "{}", reseeded.text);

        let failing = compare(&base, &file(1, result(&[1.0, 1.01, 1.02], "aa", 1)));
        assert!(!failing.ok && failing.text.contains("failed_share ROSE"));
    }
}
