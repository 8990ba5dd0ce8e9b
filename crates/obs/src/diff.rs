//! Differential stacks: A/B comparison of two runs' stack accounting.
//!
//! A single stack says where a run's cycles went; a *delta* stack says
//! what a config change moved. [`DeltaStack`] pairs up the named
//! components of two stacks (by label, tolerating additions/removals),
//! computes signed per-component deltas, and separates signal from noise
//! with a significance threshold. It powers the `dramstack diff` CLI
//! subcommand for config-regression triage.
//!
//! Like the rest of this crate, it works on neutral `(label, value)`
//! pairs so it sits below the stack crates; `dramstack_sim` provides the
//! `SimReport`-to-`DeltaStack` adapter.

use serde::{Deserialize, Serialize};

/// One component's before/after values and signed change.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComponentDelta {
    /// Stable component label (e.g. `refresh`, `act/pre`).
    pub label: String,
    /// Value in the baseline run.
    pub before: f64,
    /// Value in the candidate run.
    pub after: f64,
    /// `after - before`.
    pub delta: f64,
}

impl ComponentDelta {
    /// Relative change against the baseline (`delta / before`); infinite
    /// when a component appears from zero.
    pub fn relative(&self) -> f64 {
        if self.before == 0.0 {
            if self.delta == 0.0 {
                0.0
            } else {
                f64::INFINITY * self.delta.signum()
            }
        } else {
            self.delta / self.before.abs()
        }
    }
}

/// A per-component delta between two stacks of the same kind.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeltaStack {
    /// What is being compared (e.g. `bandwidth stack (GB/s)`).
    pub title: String,
    /// Unit of the component values, for rendering.
    pub unit: String,
    /// Absolute-delta threshold below which a component counts as noise.
    pub threshold: f64,
    /// Per-component deltas, in the stacks' natural component order.
    /// Components present in only one run appear with the missing side
    /// as 0.
    pub components: Vec<ComponentDelta>,
}

impl DeltaStack {
    /// Builds a delta stack from two `(label, value)` lists.
    ///
    /// Labels are matched by name; order follows `before`, with labels
    /// new in `after` appended. `threshold` is the absolute delta below
    /// which a component is considered unchanged.
    pub fn compare(
        title: impl Into<String>,
        unit: impl Into<String>,
        before: &[(String, f64)],
        after: &[(String, f64)],
        threshold: f64,
    ) -> Self {
        let mut components: Vec<ComponentDelta> = before
            .iter()
            .map(|(label, b)| {
                let a = after
                    .iter()
                    .find(|(l, _)| l == label)
                    .map(|(_, v)| *v)
                    .unwrap_or(0.0);
                ComponentDelta {
                    label: label.clone(),
                    before: *b,
                    after: a,
                    delta: a - *b,
                }
            })
            .collect();
        for (label, a) in after {
            if !before.iter().any(|(l, _)| l == label) {
                components.push(ComponentDelta {
                    label: label.clone(),
                    before: 0.0,
                    after: *a,
                    delta: *a,
                });
            }
        }
        DeltaStack {
            title: title.into(),
            unit: unit.into(),
            threshold: threshold.abs(),
            components,
        }
    }

    /// Sum of baseline components.
    fn before_total(&self) -> f64 {
        self.components.iter().map(|c| c.before).sum()
    }

    /// Sum of candidate components.
    fn after_total(&self) -> f64 {
        self.components.iter().map(|c| c.after).sum()
    }

    /// Components whose absolute delta clears the threshold, largest
    /// change first.
    pub fn significant(&self) -> Vec<&ComponentDelta> {
        let mut sig: Vec<&ComponentDelta> = self
            .components
            .iter()
            .filter(|c| c.delta.abs() > self.threshold)
            .collect();
        sig.sort_by(|x, y| {
            y.delta
                .abs()
                .partial_cmp(&x.delta.abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        sig
    }

    /// The single most-changed significant component, if any.
    pub fn dominant(&self) -> Option<&ComponentDelta> {
        self.significant().into_iter().next()
    }

    /// Whether nothing clears the threshold (self-diff, or pure noise).
    pub fn is_zero(&self) -> bool {
        self.components
            .iter()
            .all(|c| c.delta.abs() <= self.threshold)
    }

    /// Plain-text rendering: one signed bar per component, significant
    /// ones flagged, noise dimmed to `·`.
    pub fn render(&self) -> String {
        const HALF: usize = 24;
        let mut out = String::new();
        out.push_str(&format!(
            "{}: {:.3} -> {:.3} {} (Δ {:+.3})\n",
            self.title,
            self.before_total(),
            self.after_total(),
            self.unit,
            self.after_total() - self.before_total()
        ));
        let max = self
            .components
            .iter()
            .map(|c| c.delta.abs())
            .fold(self.threshold, f64::max);
        let width = self
            .components
            .iter()
            .map(|c| c.label.len())
            .max()
            .unwrap_or(0);
        for c in &self.components {
            let cells = if max > 0.0 {
                ((c.delta.abs() / max) * HALF as f64).round() as usize
            } else {
                0
            };
            let (neg, pos) = if c.delta < 0.0 {
                (
                    format!("{:>HALF$}", "◀".repeat(cells.min(HALF))),
                    " ".repeat(HALF),
                )
            } else {
                (" ".repeat(HALF), "▶".repeat(cells.min(HALF)))
            };
            let mark = if c.delta.abs() > self.threshold {
                "!"
            } else {
                "·"
            };
            out.push_str(&format!(
                "  {mark} {label:width$} {neg}|{pos} {delta:+10.3} ({before:.3} -> {after:.3})\n",
                label = c.label,
                delta = c.delta,
                before = c.before,
                after = c.after,
            ));
        }
        match self.dominant() {
            Some(d) => out.push_str(&format!(
                "  dominant change: {} ({:+.3} {})\n",
                d.label, d.delta, self.unit
            )),
            None => out.push_str(&format!(
                "  no component changed by more than {:.3} {}\n",
                self.threshold, self.unit
            )),
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labeled(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
        pairs.iter().map(|(l, v)| (l.to_string(), *v)).collect()
    }

    #[test]
    fn self_diff_is_the_zero_stack() {
        let s = labeled(&[("read", 10.0), ("refresh", 1.5), ("idle", 3.0)]);
        let d = DeltaStack::compare("bw", "GB/s", &s, &s, 0.01);
        assert!(d.is_zero());
        assert!(d.dominant().is_none());
        assert!(d.significant().is_empty());
        assert_eq!(d.before_total(), d.after_total());
        for c in &d.components {
            assert_eq!(c.delta, 0.0);
        }
    }

    #[test]
    fn dominant_change_is_the_largest_mover() {
        let before = labeled(&[("read", 10.0), ("refresh", 1.0), ("idle", 5.0)]);
        let after = labeled(&[("read", 9.0), ("refresh", 4.0), ("idle", 3.0)]);
        let d = DeltaStack::compare("bw", "GB/s", &before, &after, 0.5);
        assert!(!d.is_zero());
        let dom = d.dominant().unwrap();
        assert_eq!(dom.label, "refresh");
        assert_eq!(dom.delta, 3.0);
        // Ordered by |delta|: refresh (3), idle (2), read (1).
        let sig: Vec<&str> = d.significant().iter().map(|c| c.label.as_str()).collect();
        assert_eq!(sig, ["refresh", "idle", "read"]);
    }

    #[test]
    fn threshold_filters_noise() {
        let before = labeled(&[("read", 10.0), ("idle", 5.0)]);
        let after = labeled(&[("read", 10.05), ("idle", 4.95)]);
        let d = DeltaStack::compare("bw", "GB/s", &before, &after, 0.1);
        assert!(d.is_zero());
        assert!(d.render().contains("no component changed"));
    }

    #[test]
    fn disjoint_labels_are_kept_with_zero_on_the_missing_side() {
        let before = labeled(&[("read", 10.0), ("legacy", 2.0)]);
        let after = labeled(&[("read", 10.0), ("new", 3.0)]);
        let d = DeltaStack::compare("bw", "GB/s", &before, &after, 0.1);
        let legacy = d.components.iter().find(|c| c.label == "legacy").unwrap();
        assert_eq!(
            (legacy.before, legacy.after, legacy.delta),
            (2.0, 0.0, -2.0)
        );
        let new = d.components.iter().find(|c| c.label == "new").unwrap();
        assert_eq!((new.before, new.after, new.delta), (0.0, 3.0, 3.0));
        assert_eq!(new.relative(), f64::INFINITY);
    }

    #[test]
    fn render_marks_significant_components() {
        let before = labeled(&[("read", 10.0), ("refresh", 1.0)]);
        let after = labeled(&[("read", 10.0), ("refresh", 4.0)]);
        let d = DeltaStack::compare("bandwidth", "GB/s", &before, &after, 0.5);
        let r = d.render();
        assert!(r.contains("! refresh"), "{r}");
        assert!(r.contains("· read"), "{r}");
        assert!(r.contains("dominant change: refresh"), "{r}");
    }

    #[test]
    fn delta_stack_roundtrips_through_json() {
        let before = labeled(&[("a", 1.0)]);
        let after = labeled(&[("a", 2.0)]);
        let d = DeltaStack::compare("t", "u", &before, &after, 0.1);
        let json = serde_json::to_string(&d).unwrap();
        let back: DeltaStack = serde_json::from_str(&json).unwrap();
        assert_eq!(back, d);
    }
}
