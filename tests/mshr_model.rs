//! Tier-1 run of `crates/cpu/tests/mshr_model.rs`, included unchanged: the
//! flat MSHR file against its hash-container reference model, and the
//! steady-state allocation count. The suite installs a counting global
//! allocator, so it cannot share a binary with the other workspace
//! oracles (`tests/workspace_oracles.rs`).

#[path = "../crates/cpu/tests/mshr_model.rs"]
mod mshr_model;
