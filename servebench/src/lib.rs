//! `servebench` — the served-query benchmark for kfusion.
//!
//! One command drives seeded query streams through
//! `QueryService::serve_catalog` from closed-loop client threads, checks
//! every answer against a scalar serial O1 oracle, and prints the
//! end-to-end metrics of a workload. A traced run replays a bounded prefix
//! of the same stream through each layer's public entry points and prints
//! the per-layer ledger. See `README.md` in this directory.

pub mod answer;
pub mod compare;
pub mod heap;
pub mod host;
pub mod layers;
pub mod ledger;
pub mod metrics;
pub mod serve;
pub mod stats;
pub mod workload;
