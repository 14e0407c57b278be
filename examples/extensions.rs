//! The paper's stated extensions, implemented: cross-query fusion (§III-A),
//! heterogeneous CPU+GPU execution of fused kernels (§III-C's Ocelot
//! direction), and the memory-aware strategy choice (§III-B).
//!
//! ```sh
//! cargo run --release --example extensions
//! ```

use kfusion::core::exec::{execute_auto_serial, ExecConfig, Strategy};
use kfusion::core::hetero;
use kfusion::core::microbench::SelectChain;
use kfusion::core::multiquery::{batching_speedup, execute_multi, merge_plans};
use kfusion::core::{OpKind, PlanGraph};
use kfusion::relalg::{gen, predicates};
use kfusion::vgpu::{DeviceSpec, GpuSystem};

fn select_query(threshold: u64) -> PlanGraph {
    let mut g = PlanGraph::new();
    let i = g.input(0);
    g.add(OpKind::Select { pred: predicates::key_lt(threshold) }, vec![i]);
    g
}

fn main() {
    let system = GpuSystem::c2070();

    // ---- 1. Cross-query fusion -----------------------------------------
    println!("== cross-query fusion (paper §III-A) ==");
    let queries: Vec<PlanGraph> = (0..4).map(|q| select_query(1 << (28 + q))).collect();
    let input = gen::random_keys(1 << 22, 7);
    let merged = merge_plans(&queries);
    let cfg = ExecConfig::new(Strategy::Fusion, &system);
    let batch = execute_multi(&system, &merged, std::slice::from_ref(&input), &cfg).unwrap();
    println!(
        "4 queries over one relation -> {} fused kernel group(s); batch answers: {:?} rows",
        batch.fusion.groups.len(),
        batch.outputs.iter().map(|o| o.len()).collect::<Vec<_>>()
    );
    let speedup =
        batching_speedup(&system, &queries, std::slice::from_ref(&input), Strategy::Fusion)
            .unwrap();
    println!("batched vs separate runs: {speedup:.2}x\n");

    // ---- 2. Heterogeneous CPU+GPU ---------------------------------------
    println!("== heterogeneous CPU+GPU fused execution (Ocelot direction) ==");
    let cpu = DeviceSpec::xeon_e5520_pair();
    let chain = SelectChain::auto(1_000_000_000, &[0.5, 0.5]);
    let gpu_only = hetero::run_hetero(&system, &cpu, &chain, 20, 0.0).unwrap();
    let (best_frac, best) = hetero::best_split(&system, &cpu, &chain, 20).unwrap();
    println!(
        "GPU-only pipeline: {:.3} GB/s; best split keeps {:.0}% of segments on the host: {:.3} GB/s (+{:.1}%)",
        gpu_only.throughput_gbps(),
        best_frac * 100.0,
        best.throughput_gbps(),
        (best.throughput_gbps() / gpu_only.throughput_gbps() - 1.0) * 100.0
    );
    println!("(the GPU pipeline is PCIe-bound; host segments skip the bus entirely)\n");

    // ---- 3. Memory-aware strategy choice ---------------------------------
    println!("== §III-B memory rule: round-trip only when intermediates don't fit ==");
    let g = {
        let mut g = PlanGraph::new();
        let i = g.input(0);
        let s = g.add(OpKind::Select { pred: predicates::key_lt(1 << 31) }, vec![i]);
        g.add(OpKind::Select { pred: predicates::key_lt(1 << 30) }, vec![s]);
        g
    };
    let input = gen::random_keys(1 << 20, 8);
    let (strat, r) = execute_auto_serial(&system, &g, std::slice::from_ref(&input)).unwrap();
    println!(
        "full C2070 ({:.2} GiB): peak residency {:.1} MiB -> chose {strat:?}",
        system.spec.mem_capacity as f64 / (1u64 << 30) as f64,
        r.peak_resident_bytes as f64 / (1 << 20) as f64
    );
    let mut tiny = GpuSystem::c2070();
    tiny.spec.mem_capacity = 4 << 20;
    let (strat, r) = execute_auto_serial(&tiny, &g, std::slice::from_ref(&input)).unwrap();
    println!(
        "4 MiB device: peak residency {:.1} MiB -> chose {strat:?} (total {:.3} ms)",
        r.peak_resident_bytes as f64 / (1 << 20) as f64,
        r.report.total() * 1e3
    );
}
