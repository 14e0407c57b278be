//! The vectorized batch engine must never change a TPC-H answer.
//!
//! Companion to `strategy_equivalence`: that file proves the *optimizer*
//! preserves semantics across strategies; this one proves the *execution
//! engine* does across backends. Every query runs twice — once on the
//! per-tuple scalar interpreter, once on the batch engine — and the outputs
//! must be byte-identical (f64 compared by bit pattern, so even NaN payloads
//! and signed zeros may not drift). Simulated timings must match exactly:
//! the virtual GPU charges time from cardinalities and cost profiles, never
//! from host wall-clock, so the engine choice is invisible to it. The
//! `kfusion_rows_*` trace counters must match too — operators count rows
//! above the engine dispatch, so a divergence means an engine dropped or
//! duplicated work even if the final answer happens to agree.
//!
//! Scratch poisoning rides along: test builds compile with debug
//! assertions, under which every batch first overwrites its reused scratch
//! banks (and the mask beyond the tail) with sentinel bit patterns —
//! quiet-NaN payloads in f64 lanes, alternating bits in masks. The batch
//! operators' validity-bitmap-only contract says no lane beyond the live
//! count may influence an answer, so any operator that reads a stale or
//! unselected lane produces a bitwise-visible diff against the scalar
//! engine here.

use kfusion::core::exec::{execute, Engine, ExecConfig, ExecResult, Strategy};
use kfusion::core::PlanGraph;
use kfusion::relalg::{Column, Relation};
use kfusion::tpch::gen::{generate, TpchConfig, TpchDb};
use kfusion::tpch::{q1, q21, q6};
use kfusion::vgpu::GpuSystem;

fn assert_bit_identical(a: &Relation, b: &Relation, what: &str) {
    assert_eq!(a.key, b.key, "{what}: keys differ");
    assert_eq!(a.n_cols(), b.n_cols(), "{what}: column counts differ");
    for (c, (x, y)) in a.cols.iter().zip(&b.cols).enumerate() {
        match (x, y) {
            (Column::I64(x), Column::I64(y)) => assert_eq!(x, y, "{what}: i64 col {c}"),
            (Column::F64(x), Column::F64(y)) => {
                assert_eq!(x.len(), y.len(), "{what}: f64 col {c} length");
                for (r, (u, v)) in x.iter().zip(y).enumerate() {
                    assert_eq!(u.to_bits(), v.to_bits(), "{what}: f64 col {c} row {r}: {u} vs {v}");
                }
            }
            _ => panic!("{what}: col {c} changed type between engines"),
        }
    }
}

/// The engine-independent counter families: operators count rows at the
/// ops layer, above the scalar/batch dispatch, so both engines must report
/// byte-identical row totals. (The `kfusion_batch_*` families are
/// deliberately excluded — only the batch engine emits those.)
fn row_counters(trace: &kfusion::trace::Trace) -> Vec<(String, u64)> {
    trace
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("kfusion_rows_"))
        .map(|(k, &v)| (k.clone(), v))
        .collect()
}

/// Run `plan` on both engines under `strategy` and demand identical
/// answers, identical simulated timelines, and identical row counters.
fn check(what: &str, sys: &GpuSystem, plan: &PlanGraph, inputs: &[Relation], strategy: Strategy) {
    let traced = |engine: Engine| {
        let cfg = ExecConfig { engine, ..ExecConfig::new(strategy, sys) };
        kfusion::trace::reset();
        kfusion::trace::set_enabled(true);
        let result: ExecResult = execute(sys, plan, inputs, &cfg).unwrap();
        kfusion::trace::set_enabled(false);
        (result, kfusion::trace::take())
    };
    let (scalar, scalar_trace) = traced(Engine::Scalar);
    let (batch, batch_trace) = traced(Engine::Batch);
    assert_bit_identical(&scalar.output, &batch.output, what);
    assert_eq!(
        scalar.report.total(),
        batch.report.total(),
        "{what}: engine choice leaked into simulated time"
    );
    let rows = row_counters(&scalar_trace);
    assert!(!rows.is_empty(), "{what}: operators recorded no row counters");
    assert_eq!(rows, row_counters(&batch_trace), "{what}: row counters diverged between engines");
}

// The trace recorder is process-global, so this binary keeps to one test.
#[test]
fn batch_engine_never_changes_tpch_answers() {
    let db: TpchDb = generate(TpchConfig::scale(0.01));
    let sys = GpuSystem::c2070();
    let queries = [
        ("Q1", q1::q1_plan(), q1::q1_inputs(&db)),
        ("Q6", q6::q6_plan(), q6::q6_inputs(&db)),
        ("Q21", q21::q21_plan(20), q21::q21_inputs(&db)),
    ];
    for strat in [Strategy::Serial, Strategy::Fusion, Strategy::FusionFission { segments: 8 }] {
        for (name, plan, inputs) in &queries {
            check(&format!("{name} {strat:?}"), &sys, plan, inputs, strat);
        }
    }
}
