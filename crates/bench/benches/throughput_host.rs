//! Host execution-engine throughput: scalar interpreter vs vectorized
//! batch engine (`kfusion_ir::batch`).
//!
//! Unlike the fig/table benches, which report *simulated* GPU time, this
//! harness measures real host wall-clock — the first perf-trajectory
//! artifact for the functional layer. Six cases:
//!
//! 1. `fused_q1_predicate` — rows/sec evaluating the O3-optimized Q1
//!    date-range predicate (the body inside the fused JOIN+SELECT block)
//!    over a shipdate column, single-threaded, both engines.
//! 2. `tpch_q1_functional` / `tpch_q6_functional` — wall-clock of the full
//!    functional phase (`execute`, serial strategy) under
//!    `ExecConfig::engine` scalar and batch. Simulated timings are
//!    engine-independent by construction; only the host clock moves.
//! 3. `recorder_overhead_disabled` — the batch inner loop with trace
//!    instrumentation (`BatchMachine::run`, whose counters short-circuit
//!    on a relaxed atomic when the recorder is off) against the bare
//!    `run_uncounted` baseline. The CI gate pins the disabled-recorder
//!    overhead below [`MAX_OVERHEAD_FRAC`].
//! 4. `steady_state_allocs` — allocations per batch on a warm batch-engine
//!    Q1 run, counted by the installed [`CountingAlloc`]: whole-run
//!    allocations in the `scalar` column, steady-state-region allocations
//!    (the per-batch loops, DESIGN.md §14) in the `batch` column. The
//!    steady state must allocate *nothing*.
//! 5. `tpch_q6_sql_fused` — wall-clock of a prepared Q6-as-SQL execution
//!    (`execute_prepared`, batch engine) under `Strategy::Serial` (every
//!    SELECT its own operator, in the `scalar` column) and
//!    `Strategy::Fusion` (the five SELECTs as one fused host pass, in the
//!    `batch` column), measured in the same run. The fused pass must win.
//!
//! Writes `BENCH_host_throughput.json` at the repo root (override with
//! `--out`) plus the standard `BENCH_host_throughput.trace.json` /
//! `.metrics.txt` artifacts, and exits nonzero on any perf-smoke gate:
//! batch slower than scalar on the predicate or Q1 functional cases, the
//! recorder overhead above its pin, a nonzero steady-state allocation
//! count, or the fused Q6 SQL execution not faster than the serial one.
//!
//! ```sh
//! cargo bench --bench throughput_host -- [--rows N] [--scale SF] [--out PATH]
//! ```

use kfusion_bench::time_best;
use kfusion_core::exec::{execute, execute_prepared, prepare_fusion, Engine, ExecConfig, Strategy};
use kfusion_ir::batch::{BatchMachine, CompiledKernel, BATCH_ROWS};
use kfusion_ir::fuse::fuse_predicate_chain;
use kfusion_ir::interp::Machine;
use kfusion_ir::opt::{optimize, OptLevel};
use kfusion_ir::{CmpOp, KernelBody, Value};
use kfusion_relalg::{predicates, Column, Relation};
use kfusion_tpch::gen::{generate, TpchConfig, MAX_DAY, Q1_CUTOFF_DAY};
use kfusion_tpch::{q1, q6, sql};
use kfusion_trace::allocwatch;
use kfusion_vgpu::GpuSystem;

/// Every allocation in this process ticks [`allocwatch`]'s counters while
/// counting is enabled — the measurement behind `steady_state_allocs`.
#[global_allocator]
static ALLOC: allocwatch::CountingAlloc = allocwatch::CountingAlloc;

const REPS: usize = 3;

/// Rep pairs for the recorder-overhead case: the two loops differ by one
/// atomic load per batch, so more reps squeeze out scheduler noise. At the
/// CI smoke size one loop takes about 0.2 ms, short enough for one burst
/// of host noise to swamp a handful of samples.
const OVERHEAD_REPS: usize = 25;

/// Maximum tolerated disabled-recorder overhead (fraction) on the batch
/// inner loop. Pinned by CI.
const MAX_OVERHEAD_FRAC: f64 = 0.02;

/// The Q1 date-range predicate as the fused SELECT block evaluates it:
/// fused (trivially, Q1 has one predicate) and O3-optimized.
fn fused_q1_predicate() -> KernelBody {
    let pred = predicates::col_cmp_i64(0, CmpOp::Le, Q1_CUTOFF_DAY);
    optimize(&fuse_predicate_chain(std::slice::from_ref(&pred)), OptLevel::O3)
}

/// A key + shipdate relation with the generator's date distribution.
fn shipdate_relation(rows: usize) -> Relation {
    let mut rng = kfusion_prng::Rng::seed_from_u64(0x51ED47E);
    let col = (0..rows).map(|_| rng.gen_range(0..MAX_DAY + 1)).collect();
    Relation::new((0..rows as u64).collect(), vec![Column::I64(col)]).unwrap()
}

/// Scalar engine: one `Machine`, one row at a time — exactly the per-tuple
/// loop SELECT ran before the batch engine existed.
fn scalar_count(body: &KernelBody, rel: &Relation) -> u64 {
    let mut m = Machine::for_body(body);
    let mut row: Vec<Value> = Vec::with_capacity(1 + rel.n_cols());
    let mut count = 0u64;
    for i in 0..rel.len() {
        rel.ir_inputs(i, &mut row);
        count += m.run_predicate(body, &row).expect("well-typed predicate") as u64;
    }
    count
}

/// Batch engine: compiled kernel over 1024-row batches, popcounting the
/// selection bitmask. `counted` picks the instrumented `run` (counter per
/// batch) or the bare `run_uncounted` baseline the overhead gate compares
/// against.
fn batch_count_impl(body: &KernelBody, rel: &Relation, counted: bool) -> u64 {
    let k = CompiledKernel::compile(body, &rel.ir_slot_types()).expect("predicate compiles");
    let cols = rel.ir_cols();
    let mut bm = BatchMachine::new(&k);
    let mut count = 0u64;
    let mut base = 0;
    while base < rel.len() {
        let n = (rel.len() - base).min(BATCH_ROWS);
        if counted {
            bm.run(&k, &cols, base, n);
        } else {
            bm.run_uncounted(&k, &cols, base, n);
        }
        let mask = bm.selection_mask(&k);
        for (w, &word) in mask.iter().enumerate().take(n.div_ceil(64)) {
            let lo = w * 64;
            let mut m = word;
            if n - lo < 64 {
                m &= (1u64 << (n - lo)) - 1;
            }
            count += m.count_ones() as u64;
        }
        base += n;
    }
    count
}

fn batch_count(body: &KernelBody, rel: &Relation) -> u64 {
    batch_count_impl(body, rel, true)
}

struct Case {
    name: &'static str,
    unit: &'static str,
    scalar: f64,
    batch: f64,
    speedup: f64,
}

/// Wall-clock a full functional-phase execution under both engines.
fn functional_case(
    name: &'static str,
    run: impl Fn(Engine) -> f64, // returns simulated total, for the invariance check
) -> Case {
    let (sim_scalar, t_scalar) = time_best(REPS, || run(Engine::Scalar));
    let (sim_batch, t_batch) = time_best(REPS, || run(Engine::Batch));
    assert_eq!(sim_scalar, sim_batch, "{name}: engine choice changed simulated time");
    Case {
        name,
        unit: "wall_ms",
        scalar: t_scalar * 1e3,
        batch: t_batch * 1e3,
        speedup: t_scalar / t_batch,
    }
}

fn main() {
    let mut rows = 1usize << 22;
    let mut scale = 0.2f64;
    let mut out_path =
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_host_throughput.json").to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--rows" => rows = args.next().and_then(|v| v.parse().ok()).expect("--rows N"),
            "--scale" => scale = args.next().and_then(|v| v.parse().ok()).expect("--scale SF"),
            "--out" => out_path = args.next().expect("--out PATH"),
            "--bench" => {} // cargo bench appends this; ignore
            other => {
                eprintln!("unknown arg {other:?} (try --rows N, --scale SF, --out PATH)");
                std::process::exit(2);
            }
        }
    }

    println!("== throughput_host: scalar interpreter vs batch engine ==");
    println!("predicate rows: {rows}; TPC-H scale factor: {scale}\n");
    let _trace = kfusion_bench::trace_session("host_throughput");
    let mut cases = Vec::new();

    // Case 1: the fused Q1 predicate, single-threaded rows/sec.
    let body = fused_q1_predicate();
    let rel = shipdate_relation(rows);
    let (n_scalar, t_scalar) = time_best(REPS, || scalar_count(&body, &rel));
    let (n_batch, t_batch) = time_best(REPS, || batch_count(&body, &rel));
    assert_eq!(n_scalar, n_batch, "engines disagree on selectivity");
    cases.push(Case {
        name: "fused_q1_predicate",
        unit: "rows_per_sec",
        scalar: rows as f64 / t_scalar,
        batch: rows as f64 / t_batch,
        speedup: t_scalar / t_batch,
    });

    // Cases 2–3: whole functional phases, wall-clock.
    let db = generate(TpchConfig::scale(scale));
    let sys = GpuSystem::c2070();
    let q1_plan = q1::q1_plan();
    let q1_inputs = q1::q1_inputs(&db);
    let q6_plan = q6::q6_plan();
    let q6_inputs = q6::q6_inputs(&db);
    let cfg = ExecConfig::new(Strategy::Serial, &sys);
    cases.push(functional_case("tpch_q1_functional", |engine| {
        execute(&sys, &q1_plan, &q1_inputs, &ExecConfig { engine, ..cfg }).unwrap().report.total()
    }));
    cases.push(functional_case("tpch_q6_functional", |engine| {
        execute(&sys, &q6_plan, &q6_inputs, &ExecConfig { engine, ..cfg }).unwrap().report.total()
    }));

    // Case 4: disabled-recorder overhead on the fused-Q1 predicate batch
    // loop. Collection off, so the instrumented loop pays exactly the
    // per-batch relaxed atomic load the fast path promises to keep free.
    // The two loops alternate rep by rep, and which one goes first
    // alternates too, so a burst of host noise or an order effect lands on
    // both sides instead of on whichever block it happens to overlap.
    kfusion_trace::set_enabled(false);
    let mut best = [(0, f64::INFINITY); 2]; // [bare, instrumented]
    for rep in 0..OVERHEAD_REPS {
        for counted in [rep % 2 == 1, rep % 2 == 0] {
            let (n, t) = time_best(1, || batch_count_impl(&body, &rel, counted));
            let side = &mut best[usize::from(counted)];
            *side = (n, side.1.min(t));
        }
    }
    let [(n_base, t_base), (n_instr, t_instr)] = best;
    kfusion_trace::set_enabled(true);
    assert_eq!(n_base, n_instr, "instrumentation changed the answer");
    let overhead = (t_instr / t_base - 1.0).max(0.0);
    cases.push(Case {
        name: "recorder_overhead_disabled",
        unit: "wall_ms",
        scalar: t_base * 1e3,
        batch: t_instr * 1e3,
        speedup: t_base / t_instr,
    });
    println!(
        "disabled-recorder overhead: {:.2}% (gate: {:.0}%)\n",
        overhead * 100.0,
        MAX_OVERHEAD_FRAC * 100.0
    );

    // Case 5: steady-state allocations per batch on a warm batch-engine Q1
    // functional phase. The first execution warms every reusable buffer
    // (scratch machines, trace counter keys, thread-local arenas); the
    // second runs with allocation counting on. Allocations inside the
    // operators' steady-state regions — the per-batch loops — must be zero;
    // whole-run allocations (per-morsel setup, output materialization) are
    // reported alongside as the denominator's context.
    execute(&sys, &q1_plan, &q1_inputs, &cfg).unwrap();
    let batches_before = kfusion_trace::snapshot().counter("kfusion_batch_batches_total");
    allocwatch::reset();
    allocwatch::set_enabled(true);
    execute(&sys, &q1_plan, &q1_inputs, &cfg).unwrap();
    allocwatch::set_enabled(false);
    let batches = kfusion_trace::snapshot().counter("kfusion_batch_batches_total") - batches_before;
    let (steady_allocs, steady_bytes) = allocwatch::region_counts();
    let (run_allocs, _) = allocwatch::total_counts();
    allocwatch::export_counters();
    assert!(batches > 0, "batch engine processed no batches");
    let run_per_batch = run_allocs as f64 / batches as f64;
    let steady_per_batch = steady_allocs as f64 / batches as f64;
    cases.push(Case {
        name: "steady_state_allocs",
        unit: "allocs_per_batch",
        scalar: run_per_batch,
        batch: steady_per_batch,
        speedup: (run_per_batch + 1.0) / (steady_per_batch + 1.0),
    });

    // Case 6: Q6 as SQL — five SELECTs, one per conjunct — prepared once,
    // executed under Serial (one SELECT operator each) and Fusion (one
    // fused host pass). Same run, same data: the ratio is the gate.
    let q6_sql_plan = kfusion_frontend::compile(&sql::q6_sql(), &sql::q6_catalog())
        .expect("Q6 SQL compiles")
        .plan;
    let q6_sql_inputs = vec![sql::q6_wide_table(&db)];
    let prepared_run = |strategy: Strategy| {
        let cfg = ExecConfig::new(strategy, &sys);
        let fusion = prepare_fusion(&q6_sql_plan, &cfg).expect("Q6 SQL prepares");
        time_best(REPS, || {
            let r = execute_prepared(&sys, &q6_sql_plan, &q6_sql_inputs, &cfg, &fusion).unwrap();
            q6::q6_answer(&r.output).expect("Q6 answers one row")
        })
    };
    let (serial_answer, t_serial) = prepared_run(Strategy::Serial);
    let (fused_answer, t_fused) = prepared_run(Strategy::Fusion);
    assert_eq!(
        (serial_answer.0.to_bits(), serial_answer.1),
        (fused_answer.0.to_bits(), fused_answer.1),
        "fused Q6 SQL changed the answer"
    );
    cases.push(Case {
        name: "tpch_q6_sql_fused",
        unit: "wall_ms",
        scalar: t_serial * 1e3,
        batch: t_fused * 1e3,
        speedup: t_serial / t_fused,
    });

    for c in &cases {
        println!(
            "{:24} scalar {:>14.1} {u}   batch {:>14.1} {u}   speedup {:.2}x",
            c.name,
            c.scalar,
            c.batch,
            c.speedup,
            u = c.unit
        );
    }

    let body: Vec<String> = cases
        .iter()
        .map(|c| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"scalar\": {:.3}, \"batch\": {:.3}, \"speedup\": {:.3}}}",
                c.name, c.unit, c.scalar, c.batch, c.speedup
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"throughput_host\",\n  \"predicate_rows\": {rows},\n  \"tpch_scale\": {scale},\n  \"cases\": [\n{}\n  ]\n}}\n",
        body.join(",\n")
    );
    std::fs::write(&out_path, json).expect("write JSON artifact");
    println!("\nwrote {out_path}");

    // CI gate: vectorization must pay for itself on the predicate case.
    let pred = &cases[0];
    if pred.batch <= pred.scalar {
        eprintln!(
            "FAIL: batch engine ({:.0} rows/s) not faster than scalar ({:.0} rows/s)",
            pred.batch, pred.scalar
        );
        std::process::exit(1);
    }
    // CI gate: the disabled recorder must stay within the pinned overhead.
    if overhead > MAX_OVERHEAD_FRAC {
        eprintln!(
            "FAIL: disabled-recorder overhead {:.2}% exceeds the {:.0}% gate ({:.3} ms instrumented vs {:.3} ms bare)",
            overhead * 100.0,
            MAX_OVERHEAD_FRAC * 100.0,
            t_instr * 1e3,
            t_base * 1e3
        );
        std::process::exit(1);
    }
    // CI gate: the batch engine must beat the scalar interpreter on the
    // whole Q1 functional phase, not just the predicate microbenchmark.
    let q1_case = cases.iter().find(|c| c.name == "tpch_q1_functional").expect("case exists");
    if q1_case.batch >= q1_case.scalar {
        eprintln!(
            "FAIL: batch Q1 functional phase ({:.1} ms) not faster than scalar ({:.1} ms)",
            q1_case.batch, q1_case.scalar
        );
        std::process::exit(1);
    }
    // CI gate: running the Q6 SQL SELECT chain as one fused host pass must
    // beat running its five SELECTs one by one.
    let fused_case = cases.iter().find(|c| c.name == "tpch_q6_sql_fused").expect("case exists");
    if fused_case.speedup <= 1.0 {
        eprintln!(
            "FAIL: fused Q6 SQL ({:.1} ms) not faster than serial ({:.1} ms)",
            fused_case.batch, fused_case.scalar
        );
        std::process::exit(1);
    }
    // CI gate: the steady state allocates nothing once warm.
    if steady_allocs != 0 {
        eprintln!(
            "FAIL: steady-state regions allocated {steady_allocs} times ({steady_bytes} bytes) \
             across {batches} batches; the per-batch loops must not allocate"
        );
        std::process::exit(1);
    }
}
