//! The paper's figures, pinned. Every renderer of `dramstack::figures`
//! runs at `ExperimentScale::quick()` and each CSV it produces must equal
//! its golden under `tests/data/figures/` byte for byte: twelve files,
//! Figs. 2, 3, 4 and 6 bandwidth and latency, `fig7_samples`,
//! `fig7_cycles`, `fig8_latency` and `fig9_extrapolation`. SVGs are drawn
//! from the same numbers and are not pinned.
//!
//! Quick scale is small — 25 µs per synthetic bar, a scale-9 graph — and
//! the bfs run behind Fig. 7 ends inside its first 2 µs sample window, so
//! quick fig7 has a single window (`simulated 0.00 ms, 1 samples`).
//!
//! A model change that moves any number moves a golden. Regenerate with
//! `DRAMSTACK_REGEN_GOLDEN=1 cargo test --test figures`, and give every
//! moved golden a line in CHANGES.md saying why it moved.

mod common;

use std::path::Path;

use dramstack::figures;
use dramstack::sim::experiments::ExperimentScale;

const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/figures");

/// Where `golden` and `fresh` first differ, as a one-line description.
fn first_difference(golden: &str, fresh: &str) -> String {
    let mut fresh_lines = fresh.lines();
    for (i, g) in golden.lines().enumerate() {
        match fresh_lines.next() {
            Some(f) if f == g => {}
            Some(f) => return format!("line {}: golden `{g}`, rendered `{f}`", i + 1),
            None => return format!("line {}: golden `{g}`, rendered nothing", i + 1),
        }
    }
    match fresh_lines.next() {
        Some(f) => format!("rendered an extra line `{f}`"),
        None => "same lines, different bytes".to_string(),
    }
}

#[test]
fn every_figure_csv_matches_its_quick_scale_golden() {
    let dir = Path::new(GOLDEN_DIR);
    let regen = common::regen_golden();
    if regen {
        std::fs::create_dir_all(dir).expect("create the golden directory");
    }
    let mut rendered = Vec::new();
    let mut moved = Vec::new();
    for (name, render) in figures::ALL {
        let figure = render(&ExperimentScale::quick()).unwrap_or_else(|e| panic!("{name}: {e}"));
        for (file, fresh) in figure.files {
            if !file.ends_with(".csv") {
                continue;
            }
            let path = dir.join(&file);
            if regen {
                std::fs::write(&path, &fresh).expect("write golden");
                eprintln!("regenerated {}", path.display());
            } else {
                match std::fs::read_to_string(&path) {
                    Ok(golden) if golden == fresh => {}
                    Ok(golden) => {
                        moved.push(format!("{file}: {}", first_difference(&golden, &fresh)))
                    }
                    Err(e) => moved.push(format!("{file}: no golden ({e})")),
                }
            }
            rendered.push(file);
        }
    }
    assert!(
        moved.is_empty(),
        "figure CSVs moved against their goldens in tests/data/figures/:\n  {}\n\
         If the model change behind this is intended, regenerate with \
         DRAMSTACK_REGEN_GOLDEN=1 cargo test --test figures and add a line to \
         CHANGES.md naming each moved golden and why it moved.",
        moved.join("\n  ")
    );

    // The golden directory holds exactly the CSVs the figures produce.
    let mut goldens: Vec<String> = std::fs::read_dir(dir)
        .expect("golden directory exists")
        .map(|e| {
            e.expect("readable entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    goldens.sort();
    rendered.sort();
    assert_eq!(
        goldens, rendered,
        "stale or missing goldens in tests/data/figures/"
    );
    assert_eq!(rendered.len(), 12, "twelve CSVs across the seven figures");
}
