//! A tour of the compiler half of kernel fusion: the IR, the optimizer, and
//! the Table III effect — ending with two traced TPC-H executions.
//!
//! ```sh
//! cargo run --release --example compiler_tour -- \
//!     [--trace-out q1.trace.json] [--metrics-out q1.metrics.txt] [--gantt]
//! ```
//!
//! The paper argues that beyond saving data movement, fusion enlarges the
//! compiler's optimization scope: two predicates that are opaque to each
//! other in separate kernels collapse to one compare once spliced into a
//! single body. This example prints the actual IR at each step, then shows
//! the static checking layer rejecting the two classic silent bugs: an
//! illegal (non-convex) fusion and a stream schedule that races an upload.
//!
//! The finale runs TPC-H Q1 under fusion+fission and Q21 fused, both with
//! the trace recorder on, and prints each query's `EXPLAIN ANALYZE` tree.
//! `--trace-out PATH` writes Q1's Chrome trace-event JSON to `PATH` (open
//! it in Perfetto to see the Fig. 13-style H2D/compute overlap) and Q21's
//! to `q21.trace.json` beside it; `--metrics-out` does the same for the
//! Prometheus text counters; `--gantt` prints ASCII Gantt charts of the
//! simulated timelines.

use kfusion::ir::builder::BodyBuilder;
use kfusion::ir::cost::{distinct_regs, instruction_count, max_live_regs};
use kfusion::ir::fuse::fuse_predicate_chain;
use kfusion::ir::interp::eval_predicate;
use kfusion::ir::opt::{optimize, OptLevel};
use kfusion::ir::Value;
use std::path::{Path, PathBuf};

/// Observability flags shared by the traced-query finale.
#[derive(Default)]
struct TraceOpts {
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    gantt: bool,
}

fn parse_args() -> TraceOpts {
    let mut opts = TraceOpts::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--trace-out" => {
                opts.trace_out = Some(PathBuf::from(args.next().expect("--trace-out PATH")))
            }
            "--metrics-out" => {
                opts.metrics_out = Some(PathBuf::from(args.next().expect("--metrics-out PATH")))
            }
            "--gantt" => opts.gantt = true,
            "--help" | "-h" => {
                eprintln!("usage: compiler_tour [--trace-out PATH] [--metrics-out PATH] [--gantt]");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown arg {other:?} (try --trace-out, --metrics-out, --gantt)");
                std::process::exit(2);
            }
        }
    }
    opts
}

fn main() {
    let opts = parse_args();
    // The paper's Table III statements.
    let a = BodyBuilder::threshold_lt(0, 100).build();
    let b = BodyBuilder::threshold_lt(0, 70).build();

    println!("kernel A body (naive lowering of `if (d < 100)`):\n{a}\n");
    println!("kernel B body (`if (d < 70)`):\n{b}\n");

    let a_o3 = optimize(&a, OptLevel::O3);
    println!(
        "A after O3 ({} -> {} instructions — the setp/selp wrapper collapses):\n{a_o3}\n",
        instruction_count(&a),
        instruction_count(&a_o3)
    );

    let fused = fuse_predicate_chain(&[a.clone(), b.clone()]);
    println!(
        "fused body (A ; B ; AND) — {} instructions, {} distinct registers \
         but only {} ever live at once:\n{fused}\n",
        instruction_count(&fused),
        distinct_regs(&fused),
        max_live_regs(&fused)
    );

    let fused_o3 = optimize(&fused, OptLevel::O3);
    println!(
        "fused after O3 — {} instructions (one compare against min(100,70)):\n{fused_o3}\n",
        instruction_count(&fused_o3)
    );

    // Every version agrees on every input.
    for d in [-5i64, 69, 70, 99, 100, 200] {
        // The redundancy is the whole point: the optimizer proves d<100 is
        // implied by d<70 (what clippy also notices here).
        #[allow(clippy::redundant_comparisons, clippy::double_comparisons)]
        let expect = d < 70;
        for (name, body) in [("fused", &fused), ("fused+O3", &fused_o3)] {
            let got = eval_predicate(body, &[Value::I64(d)]).unwrap();
            assert_eq!(got, expect, "{name} disagrees at d={d}");
        }
    }
    println!("semantics verified on sample inputs.");

    println!("\nTable III summary:");
    println!(
        "  unfused: {}x2 = {} (O0)   {}x2 = {} (O3)",
        instruction_count(&a),
        2 * instruction_count(&a),
        instruction_count(&a_o3),
        2 * instruction_count(&a_o3)
    );
    println!(
        "  fused  : {} (O0)   {} (O3)",
        instruction_count(&fused),
        instruction_count(&fused_o3)
    );
    println!("  paper  : 5x2 / 3x2 unfused, 10 / 3 fused (same 40%-vs-70% shape).");

    checker_tour();
    traced_queries(&opts);
}

/// The observability finale: run TPC-H Q1 (fusion + fission) and Q21
/// (fused) with the global trace recorder on, print their
/// `EXPLAIN ANALYZE` trees, and emit the requested artifacts.
///
/// Each query gets its own recorder session, so each trace file holds one
/// clean simulation. The scale factor is chosen so Q1's leading fused
/// JOIN+SELECT group carries enough input bytes for the fission cost model
/// to pipeline it — the trace then shows H2D segments running under the
/// fused kernel, the paper's Fig. 13 overlap.
fn traced_queries(opts: &TraceOpts) {
    use kfusion::core::exec::{ExecResult, Strategy};
    use kfusion::tpch::gen::{generate, TpchConfig};
    use kfusion::tpch::{q1, q21};
    use kfusion::vgpu::GpuSystem;

    // SF 0.2 is the smallest generator scale where the fission cost model
    // pipelines Q1's leading group with 8 segments: the per-segment PCIe
    // latency and the derated async bandwidth are then paid for by the
    // transfer time they hide (exec::MIN_SEGMENT_BYTES and the t_pipe <
    // t_serial check in the fission scheduler).
    let sys = GpuSystem::c2070();
    let db = generate(TpchConfig::scale(0.2));

    let run_traced = |f: &dyn Fn() -> ExecResult| {
        kfusion::trace::reset();
        kfusion::trace::set_enabled(true);
        let result = f();
        kfusion::trace::set_enabled(false);
        (result, kfusion::trace::take())
    };

    let (q1, q1_trace) = run_traced(&|| {
        q1::run_q1(&sys, &db, Strategy::FusionFission { segments: 8 }).expect("Q1 executes")
    });
    println!("\n== TPC-H Q1, fusion + fission (8 segments), SF 0.2 ==");
    print!("{}", q1.explain.render());
    if opts.gantt {
        print!("\n{}", q1.report.gantt(72));
    }

    let (q21, q21_trace) =
        run_traced(&|| q21::run_q21(&sys, &db, 20, Strategy::Fusion).expect("Q21 executes"));
    println!("\n== TPC-H Q21, nationkey 20, fused, SF 0.2 ==");
    print!("{}", q21.explain.render());
    if opts.gantt {
        print!("\n{}", q21.report.gantt(72));
    }

    if let Some(path) = &opts.trace_out {
        write_artifact(path, &kfusion::trace::chrome::export(&q1_trace));
        write_artifact(
            &path.with_file_name("q21.trace.json"),
            &kfusion::trace::chrome::export(&q21_trace),
        );
    }
    if let Some(path) = &opts.metrics_out {
        write_artifact(path, &kfusion::trace::metrics::export(&q1_trace));
        write_artifact(
            &path.with_file_name("q21.metrics.txt"),
            &kfusion::trace::metrics::export(&q21_trace),
        );
    }
}

fn write_artifact(path: &Path, content: &str) {
    match std::fs::write(path, content) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// The static checking layer (`kfusion::check`, DESIGN.md §7) rejecting
/// two bugs a timing simulator would otherwise execute without complaint.
fn checker_tour() {
    use kfusion::check::{plan, schedule};
    use kfusion::core::{FusionPlan, OpKind, PlanGraph};
    use kfusion::relalg::ops::SortBy;
    use kfusion::relalg::predicates;
    use kfusion::vgpu::des::{Command, CommandClass, EventId, Schedule};
    use kfusion::vgpu::{DeviceSpec, HostMemKind, KernelProfile, LaunchConfig};

    // --- An illegal fusion: the fused region is non-convex. ---------------
    // SELECT -> SORT -> SELECT, with the two SELECTs forced into one kernel
    // group. The SORT outside the group needs the first SELECT's output and
    // must finish before the second SELECT runs, so no single launch can
    // order the three correctly. (`fuse_plan` never proposes this; the
    // checker guards hand-built and future machine-built plans alike.)
    let mut g = PlanGraph::new();
    let i = g.input(0);
    let s1 = g.add(OpKind::Select { pred: predicates::key_lt(100) }, vec![i]);
    let sort = g.add(OpKind::Sort { by: SortBy::Key }, vec![s1]);
    let s2 = g.add(OpKind::Select { pred: predicates::key_lt(50) }, vec![sort]);
    let illegal = FusionPlan {
        group_of: vec![None, Some(0), Some(1), Some(0)],
        groups: vec![vec![s1, s2], vec![sort]],
        chains: Vec::new(),
    };
    let err = plan::check_fusion(&g, &illegal).expect_err("non-convex group");
    println!("\nillegal fusion rejected:\n  {err}");

    // --- A racy schedule: compute launched against an in-flight H2D. ------
    let spec = DeviceSpec::tesla_c2070();
    let filter = KernelProfile::new("filter").instr_per_elem(8.0).bytes_read_per_elem(4.0);
    let kernel = || {
        Command::kernel(filter.clone(), LaunchConfig::for_elements(1 << 20, &spec), 1 << 20)
            .reading("in")
    };
    let mut racy = Schedule::new();
    let upload = racy.add_stream();
    let compute = racy.add_stream();
    racy.push(upload, Command::h2d("in", CommandClass::InputOutput, 64 << 20, HostMemKind::Pinned));
    racy.push(compute, kernel()); // nothing orders this after the upload!
    let hazard = schedule::check_schedule(&racy).expect_err("use before def");
    println!("\nracy schedule rejected:\n  {hazard}");

    // The prescribed fix — an event edge — makes the same schedule pass.
    let mut fixed = Schedule::new();
    let upload = fixed.add_stream();
    let compute = fixed.add_stream();
    fixed
        .push(upload, Command::h2d("in", CommandClass::InputOutput, 64 << 20, HostMemKind::Pinned));
    fixed.push(upload, Command::record(EventId(0)));
    fixed.push(compute, Command::wait(EventId(0)));
    fixed.push(compute, kernel());
    assert!(schedule::check_schedule(&fixed).is_ok());
    println!("\nwith the record/wait edge inserted, the schedule verifies.");
}
