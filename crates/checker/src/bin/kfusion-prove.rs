//! `kfusion-prove` — translation-validate every rewrite the compiler makes
//! on the TPC-H plans (DESIGN.md §12).
//!
//! ```sh
//! kfusion-prove [--out PATH] [--gate-inconclusive PCT] [--gate-overhead PCT]
//!               [tpch-q1] [tpch-q6] [tpch-q21]
//! ```
//!
//! For each target plan, at every optimization level O1–O3 and under each
//! of the three execution strategies, the driver re-derives the rewrites
//! the compiler performs and proves each one:
//!
//! * **serial** — every operator's IR body against its optimized form
//!   ([`prover::prove_body_equiv`]);
//! * **fusion** — every fused group's raw splice (fused at O0) against its
//!   optimized splice, which covers the fuse wiring and the cross-kernel
//!   rewrites (range-check merging, CSE) in one proof; and the same for
//!   every fused SELECT chain's running-conjunction kernel, the code the
//!   host's functional phase executes;
//! * **fusion-fission** — additionally, the segment partitions fission
//!   would emit, over the adversarial totals that defeat rounding schemes
//!   ([`prover::check_partition`]).
//!
//! Writes a `BENCH_validate.json` artifact with the instance counts and
//! the validator's overhead as a share of compile time. Exit status is
//! nonzero when any instance is `Refuted`, or when a `--gate-*` bound is
//! exceeded.

use kfusion_check::prover;
use kfusion_core::analyze::fused_group_body;
use kfusion_core::fusion::select_chains;
use kfusion_core::graph::{OpKind, PlanGraph};
use kfusion_core::{fuse_plan, FusionBudget};
use kfusion_ir::opt::{optimize, OptLevel};
use kfusion_ir::symexec;
use kfusion_ir::KernelBody;
use kfusion_vgpu::DeviceSpec;
use std::time::Instant;

/// Fission segment count matching the executor's default pipelines.
const SEGMENTS: u32 = 8;

/// Iteration-space totals for partition checks: the shapes that break
/// `ceil`/`round` scaling, plus the paper-scale row counts.
const TOTALS: [u64; 9] =
    [0, 1, 7, SEGMENTS as u64 - 1, SEGMENTS as u64 + 1, 10, 1 << 20, (1 << 20) + 3, 6_001_215];

#[derive(Default, Clone)]
struct Tally {
    instances: usize,
    verified: usize,
    refuted: usize,
    inconclusive: usize,
}

impl Tally {
    fn add(&mut self, origin: &str, verdict: symexec::Verdict) {
        self.instances += 1;
        match verdict {
            symexec::Verdict::Verified => self.verified += 1,
            symexec::Verdict::Inconclusive { .. } => self.inconclusive += 1,
            symexec::Verdict::Refuted(cx) => {
                self.refuted += 1;
                eprintln!("REFUTED: {origin}\n{cx}");
            }
        }
    }

    fn merge(&mut self, other: &Tally) {
        self.instances += other.instances;
        self.verified += other.verified;
        self.refuted += other.refuted;
        self.inconclusive += other.inconclusive;
    }

    fn inconclusive_pct(&self) -> f64 {
        if self.instances == 0 {
            0.0
        } else {
            self.inconclusive as f64 * 100.0 / self.instances as f64
        }
    }
}

fn node_ir(kind: &OpKind) -> Option<&KernelBody> {
    match kind {
        OpKind::Select { pred } => Some(pred),
        OpKind::Arith { body } | OpKind::ArithExtend { body } => Some(body),
        _ => None,
    }
}

fn budget() -> FusionBudget {
    FusionBudget::for_device(&DeviceSpec::tesla_c2070())
}

/// Prove every rewrite the compiler makes for `graph` at `level` under one
/// strategy. The pass sandwiches are switched off while instances are
/// prepared — the explicit proofs below are the measurement.
fn prove_target_level(target: &str, graph: &PlanGraph, level: OptLevel, strategy: &str) -> Tally {
    let mut tally = Tally::default();
    let was = symexec::set_enabled(false);

    // Per-operator bodies: the rewrite `optimize` performs on each one.
    for (id, node) in graph.nodes.iter().enumerate() {
        if let Some(body) = node_ir(&node.kind) {
            let opt = optimize(body, level);
            let origin = format!("{target} {level:?} {strategy}: node {id}");
            tally.add(&origin, prover::prove_body_equiv(body, &opt));
        }
    }

    if strategy != "serial" {
        // Fused groups: raw splice (fused, unoptimized) vs optimized splice.
        // One proof covers the fuse wiring plus every cross-kernel rewrite.
        let plan = fuse_plan(graph, &budget(), level);
        for (gi, members) in plan.groups.iter().enumerate() {
            let raw = fused_group_body(graph, members, OptLevel::O0);
            let opt = fused_group_body(graph, members, level);
            if let (Some(raw), Some(opt)) = (raw, opt) {
                let origin = format!("{target} {level:?} {strategy}: fused group {gi}");
                tally.add(&origin, prover::prove_body_equiv(&raw, &opt));
            }
        }
        // Fused SELECT chains: the running-conjunction kernel the host
        // executes, raw splice vs optimized.
        let roots = [graph.root];
        let raw = select_chains(graph, &plan, &roots, OptLevel::O0);
        let opt = select_chains(graph, &plan, &roots, level);
        for (ci, (raw, opt)) in raw.iter().zip(&opt).enumerate() {
            let origin = format!("{target} {level:?} {strategy}: select chain {ci}");
            tally.add(&origin, prover::prove_body_equiv(&raw.kernel, &opt.kernel));
        }
    }

    if strategy == "fusion-fission" {
        // The segmentations fission would emit must partition exactly.
        for &total in &TOTALS {
            tally.instances += 1;
            let segs = prover::partition(total, SEGMENTS);
            match prover::check_partition(total, &segs) {
                Ok(()) => tally.verified += 1,
                Err(err) => {
                    tally.refuted += 1;
                    eprintln!(
                        "REFUTED: {target} {level:?} {strategy}: \
                         partition of {total} into {SEGMENTS}: {err}"
                    );
                }
            }
        }
    }

    symexec::set_enabled(was);
    tally
}

/// Measure the validator's share of compile time: run the full query
/// compile pipeline — plan checking, per-operator optimization and batch
/// kernel compilation, fusion planning, group splicing, fusion legality —
/// with the pass sandwiches live, and compare the accumulated validation
/// time to the wall clock of the whole section.
fn measure_overhead(graph: &PlanGraph) -> f64 {
    /// One compile takes a few hundred microseconds; a single shot is
    /// dominated by first-touch warmup, so the ratio is taken over several
    /// repetitions after discarding warmup runs (process-lifetime one-time
    /// costs — lazy statics, page faults — are not validator overhead). The
    /// proof cache is cleared before *each* repetition — every measured one
    /// pays full cold-proof cost, only the noise amortizes.
    const WARMUP: u32 = 2;
    const REPS: u32 = 12;
    let was = symexec::set_enabled(true);
    let mut ratios: Vec<f64> = Vec::new();
    for rep in 0..WARMUP + REPS {
        symexec::clear_proof_cache();
        symexec::reset_validation_nanos();
        let start = Instant::now();
        let _ = kfusion_core::check::check_plan(graph);
        for level in [OptLevel::O1, OptLevel::O2, OptLevel::O3] {
            for node in &graph.nodes {
                if let Some(body) = node_ir(&node.kind) {
                    let opt = optimize(body, level);
                    // The executor's vectorized path compiles each body for
                    // i64-bound columns (polymorphic slots resolve at bind
                    // time).
                    if let Ok(slots) = kfusion_ir::verify::slot_types(&opt) {
                        let seeded: Vec<Option<kfusion_ir::Ty>> =
                            slots.iter().map(|t| Some(t.unwrap_or(kfusion_ir::Ty::I64))).collect();
                        let _ = kfusion_ir::batch::CompiledKernel::compile(&opt, &seeded);
                    }
                }
            }
            let plan = fuse_plan(graph, &budget(), level);
            for members in &plan.groups {
                let _ = fused_group_body(graph, members, level);
            }
            let _ = select_chains(graph, &plan, &[graph.root], level);
            let _ = kfusion_core::check::check_fusion(graph, &plan);
        }
        let wall = start.elapsed().as_nanos() as u64;
        let spent = symexec::validation_nanos();
        if rep >= WARMUP && wall > 0 {
            ratios.push(spent as f64 * 100.0 / wall as f64);
        }
    }
    symexec::set_enabled(was);
    // Median repetition: a repetition preempted mid-proof charges the
    // descheduled time to the validator, so the mean overstates.
    ratios.sort_by(|a, b| a.total_cmp(b));
    match ratios.len() {
        0 => 0.0,
        n if n % 2 == 1 => ratios[n / 2],
        n => (ratios[n / 2 - 1] + ratios[n / 2]) / 2.0,
    }
}

struct TargetResult {
    name: String,
    tally: Tally,
    overhead_pct: f64,
}

fn main() {
    let mut out_path =
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_validate.json").to_string();
    let mut gate_inconclusive: Option<f64> = None;
    let mut gate_overhead: Option<f64> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out PATH"),
            "--gate-inconclusive" => {
                gate_inconclusive =
                    Some(args.next().expect("--gate-inconclusive PCT").parse().expect("percent"))
            }
            "--gate-overhead" => {
                gate_overhead =
                    Some(args.next().expect("--gate-overhead PCT").parse().expect("percent"))
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: kfusion-prove [--out PATH] [--gate-inconclusive PCT] \
                     [--gate-overhead PCT] [tpch-q1|tpch-q6|tpch-q21]..."
                );
                return;
            }
            t => targets.push(t.to_string()),
        }
    }
    if targets.is_empty() {
        targets = vec!["tpch-q1".into(), "tpch-q6".into(), "tpch-q21".into()];
    }

    let mut results: Vec<TargetResult> = Vec::new();
    for t in &targets {
        let graph = match t.as_str() {
            "tpch-q1" => kfusion_tpch::q1::q1_plan(),
            "tpch-q6" => kfusion_tpch::q6::q6_plan(),
            "tpch-q21" => kfusion_tpch::q21::q21_plan(1),
            other => {
                eprintln!("unknown target {other:?} (try tpch-q1, tpch-q6, tpch-q21)");
                std::process::exit(2);
            }
        };
        let mut tally = Tally::default();
        for level in [OptLevel::O1, OptLevel::O2, OptLevel::O3] {
            for strategy in ["serial", "fusion", "fusion-fission"] {
                tally.merge(&prove_target_level(t, &graph, level, strategy));
            }
        }
        let overhead_pct = measure_overhead(&graph);
        println!(
            "{t}: {} instances, {} verified, {} refuted, {} inconclusive ({:.1}%), \
             validator overhead {:.2}% of compile",
            tally.instances,
            tally.verified,
            tally.refuted,
            tally.inconclusive,
            tally.inconclusive_pct(),
            overhead_pct
        );
        results.push(TargetResult { name: t.clone(), tally, overhead_pct });
    }

    let mut total = Tally::default();
    for r in &results {
        total.merge(&r.tally);
    }
    let max_overhead = results.iter().map(|r| r.overhead_pct).fold(0.0f64, f64::max);

    let body: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\"target\": \"{}\", \"instances\": {}, \"verified\": {}, \
                 \"refuted\": {}, \"inconclusive\": {}, \"inconclusive_pct\": {:.2}, \
                 \"overhead_pct\": {:.2}}}",
                r.name,
                r.tally.instances,
                r.tally.verified,
                r.tally.refuted,
                r.tally.inconclusive,
                r.tally.inconclusive_pct(),
                r.overhead_pct
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"validate\",\n  \"instances\": {},\n  \"verified\": {},\n  \
         \"refuted\": {},\n  \"inconclusive\": {},\n  \"inconclusive_pct\": {:.2},\n  \
         \"overhead_pct\": {:.2},\n  \"per_target\": [\n{}\n  ]\n}}\n",
        total.instances,
        total.verified,
        total.refuted,
        total.inconclusive,
        total.inconclusive_pct(),
        max_overhead,
        body.join(",\n")
    );
    std::fs::write(&out_path, json).expect("write JSON artifact");
    println!("wrote {out_path}");

    let mut failed = false;
    if total.refuted > 0 {
        eprintln!("FAIL: {} rewrite(s) refuted", total.refuted);
        failed = true;
    }
    if let Some(gate) = gate_inconclusive {
        if total.inconclusive_pct() > gate {
            eprintln!(
                "FAIL: {:.2}% of instances inconclusive, gate is {gate}%",
                total.inconclusive_pct()
            );
            failed = true;
        }
    }
    if let Some(gate) = gate_overhead {
        if max_overhead >= gate {
            eprintln!("FAIL: validator overhead {max_overhead:.2}% of compile, gate is {gate}%");
            failed = true;
        }
    }
    std::process::exit(if failed { 1 } else { 0 });
}
