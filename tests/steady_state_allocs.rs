//! The zero-allocation steady state, enforced end to end (DESIGN.md §14).
//!
//! A warm batch-engine Q1 execution must not allocate inside any
//! steady-state region: the per-batch loops of the relational operators
//! run entirely out of checked-out scratch banks and preallocated output
//! buffers. This test installs the counting allocator (its own binary, so
//! no other test pays for it), warms the engine with one run, then fails
//! on the first region allocation of a second run — the same measurement
//! the `throughput_host` bench gates in CI, here at test scale.

use kfusion::core::exec::{execute, Engine, ExecConfig, Strategy};
use kfusion::tpch::gen::{generate, TpchConfig};
use kfusion::tpch::q1;
use kfusion::trace::allocwatch;
use kfusion::vgpu::GpuSystem;

#[global_allocator]
static ALLOC: allocwatch::CountingAlloc = allocwatch::CountingAlloc;

#[test]
fn warm_q1_steady_state_allocates_nothing() {
    let db = generate(TpchConfig::scale(0.02));
    let sys = GpuSystem::c2070();
    let (plan, inputs) = (q1::q1_plan(), q1::q1_inputs(&db));
    let cfg = ExecConfig { engine: Engine::Batch, ..ExecConfig::new(Strategy::Serial, &sys) };
    // Warm run: grows every reusable buffer and scratch bank to capacity.
    execute(&sys, &plan, &inputs, &cfg).unwrap();

    allocwatch::reset();
    allocwatch::set_enabled(true);
    execute(&sys, &plan, &inputs, &cfg).unwrap();
    allocwatch::set_enabled(false);

    let (region_allocs, region_bytes) = allocwatch::region_counts();
    let (total_allocs, _) = allocwatch::total_counts();
    assert!(total_allocs > 0, "counting allocator saw no allocations at all");
    assert_eq!(
        (region_allocs, region_bytes),
        (0, 0),
        "steady-state regions must not allocate: {region_allocs} allocations \
         ({region_bytes} bytes) observed inside per-batch loops"
    );
}
