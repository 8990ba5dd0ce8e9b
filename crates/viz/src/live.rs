//! Live terminal stack dashboard.
//!
//! Renders a compact, continuously-updating view of the run: the current
//! sample window's normalized bandwidth and latency stacks as horizontal
//! unicode bars, a sparkline of recent achieved-bandwidth history, and
//! the bottleneck advisor's current diagnosis.
//!
//! The renderer is a pure string producer: [`LiveDashboard::render`]
//! returns the full frame text, and in ANSI mode prefixes the escape
//! sequence that moves the cursor back over the previous frame so the
//! dashboard redraws in place. Callers that detect a non-TTY destination
//! construct the dashboard with `ansi = false` and get plain text blocks
//! suitable for logs and CI output.

use std::collections::VecDeque;

use dramstack_core::{BandwidthStack, BwComponent, LatComponent, LatencyStack};

use crate::palette::{bw_glyph, lat_glyph};

/// Sparkline glyphs, lowest to highest.
const SPARKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Width of the stacked bars, in characters.
const BAR_WIDTH: usize = 48;

/// One rendered window handed to the dashboard.
///
/// The dashboard depends only on stack types and plain strings, so any
/// driver (the simulator's telemetry layer, a replay tool, a test) can
/// feed it.
#[derive(Debug, Clone, Copy)]
pub struct LiveFrame<'a> {
    /// Window index since the start of the run.
    pub window: u64,
    /// First DRAM cycle of the window.
    pub start_cycle: u64,
    /// The window's bandwidth stack.
    pub bandwidth: &'a BandwidthStack,
    /// The window's latency stack.
    pub latency: &'a LatencyStack,
    /// Current sustained bottleneck class name, if the advisor has one.
    pub bottleneck: Option<&'a str>,
    /// Optional free-form status line (e.g. a heartbeat message).
    pub message: Option<&'a str>,
}

/// Stateful live renderer: keeps the sparkline history and, in ANSI
/// mode, how many lines the previous frame used so it can redraw over
/// itself.
#[derive(Debug)]
pub struct LiveDashboard {
    ansi: bool,
    history: VecDeque<f64>,
    history_cap: usize,
    prev_lines: usize,
    frames: u64,
}

impl LiveDashboard {
    /// A dashboard; `ansi = true` redraws in place with escape codes,
    /// `ansi = false` emits plain text blocks (non-TTY destinations).
    pub fn new(ansi: bool) -> Self {
        LiveDashboard {
            ansi,
            history: VecDeque::new(),
            history_cap: BAR_WIDTH,
            prev_lines: 0,
            frames: 0,
        }
    }

    /// Frames rendered so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Renders one frame. The returned string is written verbatim to the
    /// terminal: in ANSI mode it begins with the cursor-up + clear
    /// sequence that erases the previous frame.
    pub fn render(&mut self, frame: &LiveFrame<'_>) -> String {
        let achieved = frame.bandwidth.achieved_gbps();
        let peak = frame.bandwidth.peak_gbps().max(1e-12);
        self.history.push_back((achieved / peak).clamp(0.0, 1.0));
        while self.history.len() > self.history_cap {
            self.history.pop_front();
        }

        let mut body = String::new();
        body.push_str(&format!(
            "dramstack live — window {:>5}  cycle {:>12}\n",
            frame.window, frame.start_cycle
        ));
        body.push_str(&format!(
            "bw  |{}| {:6.2} / {:5.1} GB/s\n",
            bw_bar(frame.bandwidth),
            achieved,
            frame.bandwidth.peak_gbps()
        ));
        body.push_str(&format!(
            "lat |{}| {:7.1} ns\n",
            lat_bar(frame.latency),
            frame.latency.total_ns()
        ));
        body.push_str(&format!("hist {}\n", sparkline(&self.history)));
        match frame.bottleneck {
            Some(b) => body.push_str(&format!("bottleneck: {b}\n")),
            None => body.push_str("bottleneck: (none sustained)\n"),
        }
        if let Some(m) = frame.message {
            body.push_str(&format!("{m}\n"));
        }

        let lines = body.lines().count();
        let out = if self.ansi && self.prev_lines > 0 {
            format!("\x1b[{}A\x1b[J{body}", self.prev_lines)
        } else if self.ansi {
            body
        } else {
            // Plain mode: blank separator keeps periodic blocks readable.
            format!("{body}\n")
        };
        self.prev_lines = lines;
        self.frames += 1;
        out
    }

    /// Renders the end-of-run line (no escape codes; the final frame
    /// stays on screen above it).
    pub fn render_final(&self) -> String {
        format!("dramstack live — done ({} frames)\n", self.frames)
    }
}

/// The bandwidth stack as a fixed-width glyph bar (normalized to peak).
fn bw_bar(stack: &BandwidthStack) -> String {
    let mut bar = String::new();
    let mut filled = 0usize;
    for &c in &BwComponent::ALL {
        let chars = (stack.fraction(c) * BAR_WIDTH as f64).round() as usize;
        for _ in 0..chars {
            if filled < BAR_WIDTH {
                bar.push(bw_glyph(c));
                filled += 1;
            }
        }
    }
    while filled < BAR_WIDTH {
        bar.push(bw_glyph(BwComponent::Idle));
        filled += 1;
    }
    bar
}

/// The latency stack as a fixed-width glyph bar (normalized to its own
/// total, so the shape of the decomposition is visible at any scale).
fn lat_bar(stack: &LatencyStack) -> String {
    let total = stack.total_ns();
    let mut bar = String::new();
    let mut filled = 0usize;
    if total > 0.0 {
        for &c in &LatComponent::ALL {
            let chars = (stack.ns(c) / total * BAR_WIDTH as f64).round() as usize;
            for _ in 0..chars {
                if filled < BAR_WIDTH {
                    bar.push(lat_glyph(c));
                    filled += 1;
                }
            }
        }
    }
    while filled < BAR_WIDTH {
        bar.push(' ');
        filled += 1;
    }
    bar
}

/// A one-line sparkline of values in `[0, 1]`.
fn sparkline(values: &VecDeque<f64>) -> String {
    values
        .iter()
        .map(|v| {
            let idx = (v * (SPARKS.len() - 1) as f64).round() as usize;
            SPARKS[idx.min(SPARKS.len() - 1)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dramstack_core::StackSampler;
    use dramstack_dram::{BurstKind, CycleView};

    fn window() -> (BandwidthStack, LatencyStack) {
        let mut s = StackSampler::new(16, 19.2, 0.8333, 100);
        let mut busy = CycleView::idle(16);
        busy.bus = Some(BurstKind::Read);
        for i in 0..100 {
            if i % 2 == 0 {
                s.account(&busy);
            } else {
                s.account(&CycleView::idle(16));
            }
        }
        let sample = s.finish().remove(0);
        (sample.bandwidth, sample.latency)
    }

    fn frame<'a>(bw: &'a BandwidthStack, lat: &'a LatencyStack) -> LiveFrame<'a> {
        LiveFrame {
            window: 3,
            start_cycle: 300,
            bandwidth: bw,
            latency: lat,
            bottleneck: Some("saturated"),
            message: None,
        }
    }

    #[test]
    fn plain_mode_has_no_escape_codes() {
        let (bw, lat) = window();
        let mut d = LiveDashboard::new(false);
        let out = d.render(&frame(&bw, &lat));
        assert!(!out.contains('\x1b'));
        assert!(out.contains("dramstack live"));
        assert!(out.contains("GB/s"));
        assert!(out.contains("bottleneck: saturated"));
    }

    #[test]
    fn ansi_mode_redraws_over_previous_frame() {
        let (bw, lat) = window();
        let mut d = LiveDashboard::new(true);
        let first = d.render(&frame(&bw, &lat));
        assert!(
            !first.starts_with('\x1b'),
            "first frame has nothing to erase"
        );
        let lines = first.lines().count();
        let second = d.render(&frame(&bw, &lat));
        assert!(second.starts_with(&format!("\x1b[{lines}A\x1b[J")));
    }

    #[test]
    fn bars_are_exactly_bar_width_chars() {
        let (bw, lat) = window();
        assert_eq!(bw_bar(&bw).chars().count(), BAR_WIDTH);
        assert_eq!(lat_bar(&lat).chars().count(), BAR_WIDTH);
    }

    #[test]
    fn sparkline_tracks_history_and_stays_bounded() {
        let (bw, lat) = window();
        let mut d = LiveDashboard::new(false);
        for _ in 0..(BAR_WIDTH + 20) {
            d.render(&frame(&bw, &lat));
        }
        assert_eq!(d.history.len(), BAR_WIDTH);
        assert_eq!(d.frames(), (BAR_WIDTH + 20) as u64);
    }

    #[test]
    fn empty_latency_stack_renders_blank_bar() {
        let lat = LatencyStack::empty();
        assert_eq!(lat_bar(&lat).trim(), "");
    }
}
