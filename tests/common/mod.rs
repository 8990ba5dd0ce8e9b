//! Helpers shared by the integration tests: scratch directories,
//! checkpoint chains on disk and the golden-fixture switch. Each test
//! binary uses some of them.
#![allow(dead_code)]

use std::path::{Path, PathBuf};

use dramstack::dram::Cycle;
use dramstack::sim::{Snapshot, SnapshotDelta};

/// A fresh, empty scratch directory unique to this test process and `tag`.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dramstack-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The DRAM cycle of every checkpoint file of `key` under `dir`, base
/// first, then the deltas in chain order. Panics on a file that does not
/// decode: the tests that call this wrote the chain themselves.
pub fn on_disk_checkpoint_cycles(dir: &Path, key: &str) -> Vec<Cycle> {
    let base = std::fs::read(dir.join(format!("ckpt-{key}.base.dsnp"))).expect("chain has a base");
    let mut cycles = vec![
        Snapshot::from_binary(&base)
            .expect("base decodes")
            .dram_cycle,
    ];
    for seq in 1.. {
        let Ok(bytes) = std::fs::read(dir.join(format!("ckpt-{key}.d{seq}.dsnp"))) else {
            break;
        };
        let delta = SnapshotDelta::from_binary(&bytes).expect("delta decodes");
        cycles.push(delta.dram_cycle);
    }
    cycles
}

/// Whether this run rewrites golden fixtures instead of comparing with
/// them (`DRAMSTACK_REGEN_GOLDEN=1`).
pub fn regen_golden() -> bool {
    std::env::var("DRAMSTACK_REGEN_GOLDEN").as_deref() == Ok("1")
}
