//! The zero-allocation steady state, enforced end to end (DESIGN.md §14).
//!
//! A warm batch-engine Q1 execution must not allocate inside any
//! steady-state region: the per-batch loops of the relational operators
//! run entirely out of checked-out scratch banks and preallocated output
//! buffers. This test installs the counting allocator (its own binary, so
//! no other test pays for it), warms the engine with one run, then fails
//! on the first region allocation of a second run — the same measurement
//! the `throughput_host` bench gates in CI, here at test scale. The fused
//! SELECT-chain pass (DESIGN.md §17) is held to the same contract.

use kfusion::core::exec::{execute, Engine, ExecConfig, ExecResult, Strategy};
use kfusion::tpch::gen::{generate, TpchConfig};
use kfusion::tpch::{q1, sql};
use kfusion::trace::allocwatch;
use kfusion::trace::explain::ExplainNode;
use kfusion::vgpu::GpuSystem;
use std::sync::Mutex;

#[global_allocator]
static ALLOC: allocwatch::CountingAlloc = allocwatch::CountingAlloc;

/// The allocation counters are process-wide: tests measure one at a time.
static COUNTING: Mutex<()> = Mutex::new(());

#[test]
fn warm_q1_steady_state_allocates_nothing() {
    let _one = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
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

fn ran_fused_pass(node: &ExplainNode) -> bool {
    node.fused_pass.is_some() || node.children.iter().any(ran_fused_pass)
}

#[test]
fn warm_fused_select_chain_allocates_nothing() {
    let _one = COUNTING.lock().unwrap_or_else(|e| e.into_inner());
    let db = generate(TpchConfig::scale(0.02));
    let sys = GpuSystem::c2070();
    let plan = kfusion::frontend::compile(&sql::q6_sql(), &sql::q6_catalog()).unwrap().plan;
    let inputs = vec![sql::q6_wide_table(&db)];
    let cfg = ExecConfig { engine: Engine::Batch, ..ExecConfig::new(Strategy::Fusion, &sys) };
    execute(&sys, &plan, &inputs, &cfg).unwrap();

    allocwatch::reset();
    allocwatch::set_enabled(true);
    let run: ExecResult = execute(&sys, &plan, &inputs, &cfg).unwrap();
    allocwatch::set_enabled(false);

    assert!(ran_fused_pass(&run.explain), "Q6 SQL under Fusion ran no fused chain pass");
    let (region_allocs, region_bytes) = allocwatch::region_counts();
    assert!(allocwatch::total_counts().0 > 0, "counting allocator saw no allocations at all");
    assert_eq!(
        (region_allocs, region_bytes),
        (0, 0),
        "the fused pass's per-batch loop must not allocate: {region_allocs} allocations \
         ({region_bytes} bytes)"
    );
}
