//! Tier-1 runs of the workspace crates' oracle suites, included unchanged
//! so `cargo test` reaches them without `--workspace`: the seeded-fault
//! matrix and the chaos harness of the shadow auditor, the DRAM device's
//! property tests, the controller fuzzer and the controller's lockstep
//! matrix with its pinned snapshot image. The cpu crate's MSHR model
//! sets a global allocator, so it has a binary of its own
//! (`tests/mshr_model.rs`).

#[path = "../crates/audit/tests/fault_matrix.rs"]
mod fault_matrix;

#[path = "../crates/audit/tests/chaos_fuzz.rs"]
mod chaos_fuzz;

#[path = "../crates/dram/tests/device_properties.rs"]
mod device_properties;

#[path = "../crates/memctrl/tests/controller_fuzz.rs"]
mod controller_fuzz;

#[path = "../crates/memctrl/tests/tick_identity.rs"]
mod tick_identity;
