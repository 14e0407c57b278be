//! Host-engine selection: vectorized batch kernels vs the scalar
//! interpreter.
//!
//! The functional phase can evaluate IR bodies two ways: compiled
//! [`kfusion_ir::batch::CompiledKernel`]s over typed columnar batches (the
//! default), or the per-tuple [`kfusion_ir::interp::Machine`]. Both produce
//! bit-identical results — the equivalence tests in
//! `tests/engine_equivalence.rs` and the batch property tests enforce it —
//! so the choice exists as the oracle for those tests, for benchmarking
//! (`throughput_host` measures the gap), and as a diagnostic escape hatch.
//! Callers pass it explicitly to the operators that dispatch on it
//! (SELECT and ARITH); the executor carries it in `ExecConfig`. Bodies
//! that fail batch compilation fall back to the scalar path regardless.
//!
//! Simulated GPU timings are computed from kernel cost profiles, not from
//! host wall-clock, so they are unchanged by the engine choice by
//! construction.

/// Which host engine evaluates IR bodies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Compiled kernels over columnar batches, morsel-parallel.
    #[default]
    Batch,
    /// The per-tuple interpreter — the reference semantics.
    Scalar,
}
