//! Per-worker scratch arenas for the batch operators (DESIGN.md §14).
//!
//! Each morsel worker thread owns one [`Scratch`] in a thread-local. The
//! morsel executors ([`kfusion_vgpu::exec::par_range_map`] and friends)
//! hand every worker a *run* of chunks, so a machine checked out for the
//! first chunk is checked back in and reused for every later chunk that
//! thread processes — construction (bank allocation, constant splatting)
//! happens once per worker per kernel, not once per morsel.
//!
//! Arenas die with their worker thread (the executors use scoped threads),
//! so there is no cross-query state to invalidate. Debug builds poison
//! every reused bank before each batch (see [`kfusion_ir::batch`]).

use kfusion_ir::batch::Scratch;
use std::cell::RefCell;

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
}

/// Run `f` with this thread's scratch arena.
///
/// Do not call re-entrantly from inside `f` (operators never need to); the
/// `RefCell` will panic if you do.
pub fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}
