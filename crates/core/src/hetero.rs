//! Heterogeneous CPU+GPU execution of fused kernels — the paper's stated
//! future work (§III-C): "if using an execution model translator such as
//! Ocelot, it is possible to execute fused kernels on both the CPU and GPU
//! to fully utilize the available computation power."
//!
//! The implementation extends the fission pipeline: the input is segmented
//! as usual, but a fraction of the segments never cross PCIe at all — the
//! *host* executes their fused kernel directly from host memory (Ocelot's
//! PTX→CPU translation, here the same IR body interpreted by the CPU cost
//! model). Because the GPU pipeline is PCIe-bound on data-warehousing
//! workloads, every segment kept on the CPU removes transfer load; the
//! optimum split balances the host's compute rate against the GPU
//! pipeline's transfer rate.

use crate::cost::{split_select_chain, FusionBudget};
use crate::exec::{CPU_GATHER_BW, FISSION_STREAMS};
use crate::microbench::SelectChain;
use crate::report::Report;
use crate::CoreError;
use kfusion_ir::fuse::fuse_predicate_chain;
use kfusion_relalg::profiles;
use kfusion_vgpu::{
    Command, CommandClass, DeviceSpec, GpuSystem, HostMemKind, LaunchConfig, Schedule,
};

/// Run `chain` under fused fission with `cpu_fraction` of the segments
/// executed by the host (`cpu` spec) instead of the GPU.
///
/// `cpu_fraction = 0.0` degenerates to the ordinary fused-fission pipeline.
pub fn run_hetero(
    system: &GpuSystem,
    cpu: &DeviceSpec,
    chain: &SelectChain,
    segments: u32,
    cpu_fraction: f64,
) -> Result<Report, CoreError> {
    let cards = chain.cardinalities()?;
    let cpu_segments =
        ((segments as f64 * cpu_fraction.clamp(0.0, 1.0)).round() as u32).min(segments);
    let gpu_segments = segments - cpu_segments;
    let scale = 1.0 / segments as f64;

    let budget = FusionBudget::for_device(&system.spec);
    let runs = split_select_chain(&chain.predicates(), &budget, chain.level);

    let mut sched = Schedule::new();
    let host_stream = sched.add_stream();
    let pipes: Vec<usize> = (0..FISSION_STREAMS).map(|_| sched.add_stream()).collect();

    let seg_in = ((chain.n as f64) * scale).round() as u64;
    let seg_out = ((cards[chain.depth()] as f64) * scale).round() as u64;
    let bytes = |elems: u64| (elems as f64 * chain.row_bytes).ceil() as u64;

    // GPU segments: the ordinary fused pipeline (H2D, fused kernels, D2H).
    for s in 0..gpu_segments {
        let stream = pipes[(s as usize) % pipes.len()];
        sched.push(
            stream,
            Command::h2d(
                format!("in[g{s}]"),
                CommandClass::InputOutput,
                bytes(seg_in),
                HostMemKind::Pinned,
            ),
        );
        let mut stage = 0usize;
        for (r, run) in runs.iter().enumerate() {
            let in_elems = ((cards[stage] as f64) * scale).round() as u64;
            let out_stage = stage + run.len();
            let out_elems = ((cards[out_stage] as f64) * scale).round() as u64;
            let sel =
                if cards[stage] == 0 { 0.0 } else { cards[out_stage] as f64 / cards[stage] as f64 };
            let fused_pred = fuse_predicate_chain(run);
            let filter = profiles::select_filter(
                format!("fused_filter{r}[g{s}]"),
                &fused_pred,
                chain.level,
                chain.row_bytes,
                sel,
            );
            sched.push(
                stream,
                Command::kernel(
                    filter,
                    LaunchConfig::for_elements(in_elems.max(1), &system.spec),
                    in_elems,
                ),
            );
            let gather = profiles::select_gather(format!("fused_gather{r}[g{s}]"), chain.row_bytes);
            sched.push(
                stream,
                Command::kernel(
                    gather,
                    LaunchConfig::for_elements(out_elems.max(1), &system.spec),
                    out_elems,
                ),
            );
            stage = out_stage;
        }
        sched.push(
            stream,
            Command::d2h(
                format!("out[g{s}]"),
                CommandClass::InputOutput,
                bytes(seg_out),
                HostMemKind::Pinned,
            ),
        );
    }

    // CPU segments: no PCIe at all — the host runs the fused chain at its
    // own rate (one pass; the CPU implementation needs no separate gather),
    // then appends its results to the output buffer like the CPU-side
    // gather of §IV-C.
    let cpu_launch =
        LaunchConfig { ctas: cpu.sm_count * cpu.max_threads_per_sm, threads_per_cta: 1 };
    for s in 0..cpu_segments {
        // The host runs the chain stage by stage (fusing on the CPU shares
        // the scan but still evaluates each predicate on the survivors).
        let mut t = 0.0;
        for i in 0..chain.depth() {
            let stage_in = ((cards[i] as f64) * scale).round() as u64;
            let sel = if cards[i] == 0 { 0.0 } else { cards[i + 1] as f64 / cards[i] as f64 };
            let p = profiles::cpu_select(chain.row_bytes, sel);
            t += p.time(cpu, &cpu_launch, stage_in);
        }
        sched.push(host_stream, Command::host_work(format!("cpu_fused[c{s}]"), t));
        sched.push(
            host_stream,
            Command::host_work(format!("cpu_gather[c{s}]"), bytes(seg_out) as f64 / CPU_GATHER_BW),
        );
    }

    let timeline = system.simulate(&sched)?;
    Ok(Report::from_row_bytes(timeline, chain.n, chain.row_bytes))
}

/// Sweep the CPU fraction and return `(best_fraction, best_report)`.
pub fn best_split(
    system: &GpuSystem,
    cpu: &DeviceSpec,
    chain: &SelectChain,
    segments: u32,
) -> Result<(f64, Report), CoreError> {
    let mut best: Option<(f64, Report)> = None;
    for pct in 0..=50 {
        let f = pct as f64 / 100.0;
        let r = run_hetero(system, cpu, chain, segments, f)?;
        if best.as_ref().is_none_or(|(_, b)| r.total() < b.total()) {
            best = Some((f, r));
        }
    }
    Ok(best.expect("at least one split evaluated"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (GpuSystem, DeviceSpec, SelectChain) {
        (
            GpuSystem::c2070(),
            DeviceSpec::xeon_e5520_pair(),
            SelectChain::auto(500_000_000, &[0.5, 0.5]),
        )
    }

    #[test]
    fn zero_fraction_matches_pure_gpu_pipeline_shape() {
        let (sys, cpu, chain) = setup();
        let r = run_hetero(&sys, &cpu, &chain, 16, 0.0).unwrap();
        assert!(r.total() > 0.0);
        assert!(r.label_time("cpu_fused") == 0.0, "no CPU kernels at fraction 0");
    }

    #[test]
    fn modest_cpu_share_beats_gpu_only() {
        // The GPU pipeline is PCIe-bound; handing ~10-20% of segments to the
        // host removes transfer load faster than the host's slow compute
        // costs — the whole point of the Ocelot direction.
        let (sys, cpu, chain) = setup();
        let gpu_only = run_hetero(&sys, &cpu, &chain, 20, 0.0).unwrap();
        let hetero = run_hetero(&sys, &cpu, &chain, 20, 0.15).unwrap();
        assert!(
            hetero.total() < gpu_only.total(),
            "hetero {} vs gpu-only {}",
            hetero.total(),
            gpu_only.total()
        );
    }

    #[test]
    fn all_cpu_is_much_slower_at_high_selectivity() {
        // At high selectivity the CPU's per-selected-element write path
        // dominates and the GPU pipeline wins decisively. (At *low*
        // selectivity the PCIe-bound GPU pipeline and the 16-thread host
        // are comparable — the Gregg & Hazelwood "where is the data" point
        // the paper cites.)
        let (sys, cpu, _) = setup();
        let chain = SelectChain::auto(500_000_000, &[0.9, 0.9]);
        let gpu_only = run_hetero(&sys, &cpu, &chain, 20, 0.0).unwrap();
        let cpu_only = run_hetero(&sys, &cpu, &chain, 20, 1.0).unwrap();
        assert!(
            cpu_only.total() > 2.0 * gpu_only.total(),
            "cpu {} vs gpu {}",
            cpu_only.total(),
            gpu_only.total()
        );
    }

    #[test]
    fn best_split_is_interior_and_beats_endpoints() {
        let (sys, cpu, chain) = setup();
        let (frac, best) = best_split(&sys, &cpu, &chain, 20).unwrap();
        assert!(frac > 0.0 && frac < 0.5, "optimal CPU share {frac}");
        let gpu_only = run_hetero(&sys, &cpu, &chain, 20, 0.0).unwrap();
        assert!(best.total() <= gpu_only.total());
    }
}
