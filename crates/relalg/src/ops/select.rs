//! SELECT: filter tuples by a predicate.
//!
//! The GPU implementation (paper Fig. 3, after Diamos et al.) runs in four
//! stages: **partition** the input across CTAs, **filter** in parallel,
//! **buffer** survivors per CTA, then — after a global synchronization —
//! **gather** the per-CTA buffers into the dense result. The functional
//! implementation below executes literally that structure on host threads:
//! `par_range_map` is partition+filter+buffer, the final concatenation is
//! the gather. The first three stages are one CUDA kernel, the gather a
//! second; [`crate::profiles`] prices them accordingly.
//!
//! Predicates are evaluated by the vectorized batch engine when the body
//! compiles against the relation's column types ([`crate::engine`]): each
//! CTA runs a [`BatchMachine`] over [`BATCH_ROWS`]-row batches and gathers
//! survivors from the resulting selection bitmask. Bodies that fail batch
//! compilation fall back to the per-tuple interpreter, preserving its error
//! behavior exactly.

use crate::data::{
    col_windows, resize_zeroed_vec, slice_windows, ColWindow, Column, RelError, Relation,
};
use crate::engine::Engine;
use kfusion_ir::batch::{BankView, CompiledKernel, BATCH_ROWS};
use kfusion_ir::interp::Machine;
use kfusion_ir::{KernelBody, Ty, Value};
use kfusion_vgpu::exec::{cta_ranges, par_for_each, par_range_map, DEFAULT_CTA_CHUNK};

/// Compile `predicate` for batch execution over `input`'s columns, if
/// `engine` is [`Engine::Batch`] and the body both resolves to concrete
/// types and yields a boolean in output slot 0.
fn compile_predicate(
    input: &Relation,
    predicate: &KernelBody,
    engine: Engine,
) -> Option<CompiledKernel> {
    if engine == Engine::Scalar || input.is_empty() {
        return None;
    }
    let compiled = (|| {
        if predicate.outputs.is_empty() {
            return None;
        }
        let k = CompiledKernel::compile(predicate, &input.ir_slot_types()).ok()?;
        if k.output_ty(0) != Ty::Bool || k.check_binding(&input.ir_cols()).is_err() {
            return None;
        }
        Some(k)
    })();
    if compiled.is_none() {
        kfusion_trace::counter("kfusion_batch_fallback_total{op=\"select\"}", 1);
    }
    compiled
}

/// Visit each selected row index in `range`, reading the predicate's
/// selection bitmask batch by batch. The machine comes from (and returns
/// to) this worker's scratch arena.
fn for_each_selected(
    k: &CompiledKernel,
    input: &Relation,
    range: std::ops::Range<usize>,
    mut visit: impl FnMut(usize),
) {
    let cols = input.ir_cols();
    crate::scratch::with_scratch(|s| {
        let mut bm = s.machine(k);
        let mut base = range.start;
        while base < range.end {
            let n = (range.end - base).min(BATCH_ROWS);
            bm.run(k, &cols, base, n);
            let mask = bm.selection_mask(k);
            for (w, &word) in mask.iter().enumerate().take(n.div_ceil(64)) {
                let lo = w * 64;
                let mut m = word;
                if n - lo < 64 {
                    m &= (1u64 << (n - lo)) - 1; // tail lanes are unspecified
                }
                while m != 0 {
                    visit(base + lo + m.trailing_zeros() as usize);
                    m &= m - 1;
                }
            }
            base += n;
        }
        s.put_machine(k, bm);
    });
}

/// Copy one CTA's survivors (the set bits of `words`, lane 0 = input row
/// `start`) into its output windows, column at a time — the gather stage of
/// the two-phase batch SELECT. The windows are exactly as long as the
/// survivor count, so a full walk fills them completely.
fn scatter_window(
    input: &Relation,
    start: usize,
    words: &[u64],
    kw: &mut [u64],
    cw: Vec<ColWindow<'_>>,
) {
    scatter_col(&input.key, start, words, kw);
    for (win, col) in cw.into_iter().zip(&input.cols) {
        match (win, col) {
            (ColWindow::I64(d), Column::I64(s)) => scatter_col(s, start, words, d),
            (ColWindow::F64(d), Column::F64(s)) => scatter_col(s, start, words, d),
            _ => unreachable!("output schema reset from input"),
        }
    }
}

/// Compact `src`'s selected lanes into `dst`: one value per set bit of
/// `words`, in lane order.
fn scatter_col<T: Copy>(src: &[T], start: usize, words: &[u64], dst: &mut [T]) {
    let mut pos = 0;
    for (w, &word) in words.iter().enumerate() {
        let base = start + w * 64;
        let mut m = word;
        while m != 0 {
            dst[pos] = src[base + m.trailing_zeros() as usize];
            pos += 1;
            m &= m - 1;
        }
    }
}

/// Filter `input` to the tuples satisfying `predicate`.
///
/// The predicate is an IR body with the library calling convention: input
/// slot 0 is the key (as `i64`), slot `1+c` is payload column `c`; output 0
/// must be a boolean. `engine` picks the host evaluator; both produce the
/// same relation.
pub fn select(
    input: &Relation,
    predicate: &KernelBody,
    engine: Engine,
) -> Result<Relation, RelError> {
    let mut out = input.empty_like();
    select_into(input, predicate, &mut out, engine)?;
    Ok(out)
}

/// [`select`] writing into a caller-owned relation: `out` is cleared (its
/// capacity retained) and filled with the surviving tuples, so a caller
/// that filters repeatedly can reuse one output allocation across calls
/// (the `_into` contract, DESIGN.md §14).
///
/// # Panics
/// If `out`'s schema differs from `input`'s.
pub fn select_into(
    input: &Relation,
    predicate: &KernelBody,
    out: &mut Relation,
    engine: Engine,
) -> Result<(), RelError> {
    out.clear();
    kfusion_trace::counter("kfusion_rows_in_total{op=\"select\"}", input.len() as u64);
    if let Some(k) = compile_predicate(input, predicate, engine) {
        let mut count = [0u64];
        filter_pass(input, &k, out, &mut count);
        kfusion_trace::counter("kfusion_rows_out_total{op=\"select\"}", count[0]);
        return Ok(());
    }
    // Scalar fallback: per-tuple interpretation.
    let parts: Vec<Result<Relation, RelError>> =
        par_range_map(input.len(), DEFAULT_CTA_CHUNK, |_cta, range| {
            let mut m = Machine::for_body(predicate);
            let mut row: Vec<Value> = Vec::with_capacity(1 + input.n_cols());
            let mut buf = input.empty_like();
            for i in range {
                input.ir_inputs(i, &mut row);
                if m.run_predicate(predicate, &row)? {
                    buf.push_row_from(input, i);
                }
            }
            Ok(buf)
        });
    for p in parts {
        out.extend_from(&p?);
    }
    kfusion_trace::counter("kfusion_rows_out_total{op=\"select\"}", out.len() as u64);
    Ok(())
}

/// The two-phase batch SELECT over a compiled filter `k` whose outputs are
/// all boolean: `out` receives the rows output `k.n_outputs() - 1` selects,
/// and `counts[j]` how many rows output `j` selects.
///
/// Phase 1 — partition + filter: each CTA evaluates `k` batch-at-a-time,
/// popcounts every output's mask and keeps only the last output's words
/// (selection is bitmap-only — unselected lanes are never written
/// anywhere). Mask storage is one word per 64 rows, sized in the per-morsel
/// setup; the per-batch loop inside the steady-state region allocates
/// nothing. `BATCH_ROWS` is 64-divisible, so every non-final batch
/// contributes whole words and the chunk's words concatenate exactly.
///
/// Phase 2 — global sync + gather: survivors copy straight from the input
/// into disjoint windows of the output, one work item per CTA over the
/// bounded worker set, so the result is materialized exactly once.
fn filter_pass(input: &Relation, k: &CompiledKernel, out: &mut Relation, counts: &mut [u64]) {
    let last = k.n_outputs() - 1;
    debug_assert_eq!(counts.len(), k.n_outputs());
    let parts: Vec<(Vec<u64>, Vec<u64>)> =
        par_range_map(input.len(), DEFAULT_CTA_CHUNK, |_cta, range| {
            crate::scratch::with_scratch(|s| {
                let cols = input.ir_cols();
                let mut bm = s.machine(k);
                let mut words: Vec<u64> = Vec::with_capacity(range.len().div_ceil(64) + 16);
                let mut cta_counts = vec![0u64; k.n_outputs()];
                {
                    let _steady = kfusion_trace::allocwatch::region();
                    let mut base = range.start;
                    while base < range.end {
                        let n = (range.end - base).min(BATCH_ROWS);
                        bm.run(k, &cols, base, n);
                        for (j, count) in cta_counts.iter_mut().enumerate() {
                            let BankView::Bool(mask) = bm.output(k, j) else {
                                unreachable!("filter outputs are boolean")
                            };
                            for (w, &word) in mask.iter().enumerate().take(n.div_ceil(64)) {
                                let lo = w * 64;
                                let mut m = word;
                                if n - lo < 64 {
                                    m &= (1u64 << (n - lo)) - 1; // tail lanes are unspecified
                                }
                                *count += u64::from(m.count_ones());
                                if j == last {
                                    words.push(m);
                                }
                            }
                        }
                        base += n;
                    }
                }
                s.put_machine(k, bm);
                (words, cta_counts)
            })
        });
    let survivors: Vec<usize> = parts.iter().map(|p| p.1[last] as usize).collect();
    let total: usize = survivors.iter().sum();
    for (j, count) in counts.iter_mut().enumerate() {
        *count = parts.iter().map(|p| p.1[j]).sum();
    }
    out.reset_like(input);
    resize_zeroed_vec(&mut out.key, total);
    for c in &mut out.cols {
        c.resize_zeroed(total);
    }
    let ranges = cta_ranges(input.len(), DEFAULT_CTA_CHUNK);
    let key_wins = slice_windows(&mut out.key, &survivors);
    let col_wins = col_windows(&mut out.cols, &survivors);
    let work: Vec<_> = ranges.into_iter().zip(&parts).zip(key_wins).zip(col_wins).collect();
    par_for_each(work, |_cta, (((range, (words, _)), kw), cw)| {
        scatter_window(input, range.start, words, kw, cw)
    });
}

/// Filter `input` by a fused SELECT chain in one pass: `fused` is the
/// chain's fused kernel, whose output `j` is the conjunction of
/// `members[..=j]` (the chain's predicates, producer first). Returns the
/// rows the whole conjunction keeps — gathered once, in input order, so
/// exactly the relation the members would produce one after another — and
/// each member's exact row count (the popcount of its running
/// conjunction).
///
/// Returns `None` when the pass cannot stand in for the members: when
/// `fused` or any member does not compile for the batch engine against
/// `input`'s columns, or `fused`'s outputs do not match the chain. The
/// caller then evaluates the members one by one, which keeps the per-row
/// fallback's error behavior.
pub fn select_fused(
    input: &Relation,
    members: &[KernelBody],
    fused: &KernelBody,
) -> Option<(Relation, Vec<u64>)> {
    if members.is_empty() || fused.outputs.len() != members.len() {
        return None;
    }
    let mut out = input.empty_like();
    let mut counts = vec![0; members.len()];
    if !input.is_empty() {
        let compiles = |body: &KernelBody| compile_predicate(input, body, Engine::Batch).is_some();
        let k = match CompiledKernel::compile(fused, &input.ir_slot_types()) {
            Ok(k) if members.iter().all(compiles) => k,
            _ => return None,
        };
        if (0..k.n_outputs()).any(|j| k.output_ty(j) != Ty::Bool)
            || k.check_binding(&input.ir_cols()).is_err()
        {
            return None;
        }
        filter_pass(input, &k, &mut out, &mut counts);
    }
    // Row counters stay per member — the rows each SELECT of the chain
    // reads and keeps — so they read the same as member-by-member runs.
    let rows_in = input.len() as u64 + counts[..counts.len() - 1].iter().sum::<u64>();
    kfusion_trace::counter("kfusion_rows_in_total{op=\"select\"}", rows_in);
    kfusion_trace::counter("kfusion_rows_out_total{op=\"select\"}", counts.iter().sum());
    Some((out, counts))
}

/// SELECT with a *chain* of predicates applied as separate passes — the
/// unfused back-to-back configuration the paper measures against. Returns
/// every intermediate cardinality alongside the final relation, because the
/// executor prices each pass's kernels with the real intermediate sizes.
/// Runs on the batch engine.
pub fn select_chain_unfused(
    input: &Relation,
    predicates: &[KernelBody],
) -> Result<(Relation, Vec<usize>), RelError> {
    // Ping-pong two buffers through the chain: each pass filters `cur`
    // into `next`, then the buffers swap — after the first pass no pass
    // allocates beyond capacity growth.
    let mut cur = input.clone();
    let mut next = input.empty_like();
    let mut cards = Vec::with_capacity(predicates.len());
    for p in predicates {
        select_into(&cur, p, &mut next, Engine::Batch)?;
        std::mem::swap(&mut cur, &mut next);
        cards.push(cur.len());
    }
    Ok((cur, cards))
}

/// Count (without materializing) how many tuples satisfy `predicate` — used
/// by harnesses that only need cardinalities. Runs on the batch engine.
pub fn count_selected(input: &Relation, predicate: &KernelBody) -> Result<usize, RelError> {
    if let Some(k) = compile_predicate(input, predicate, Engine::Batch) {
        let parts: Vec<usize> = par_range_map(input.len(), DEFAULT_CTA_CHUNK, |_cta, range| {
            let mut n = 0usize;
            for_each_selected(&k, input, range, |_| n += 1);
            n
        });
        return Ok(parts.into_iter().sum());
    }
    let parts: Vec<Result<usize, RelError>> =
        par_range_map(input.len(), DEFAULT_CTA_CHUNK, |_cta, range| {
            let mut m = Machine::for_body(predicate);
            let mut row: Vec<Value> = Vec::with_capacity(1 + input.n_cols());
            let mut n = 0usize;
            for i in range {
                input.ir_inputs(i, &mut row);
                if m.run_predicate(predicate, &row)? {
                    n += 1;
                }
            }
            Ok(n)
        });
    let mut total = 0;
    for p in parts {
        total += p?;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Column;
    use crate::predicates;
    use kfusion_ir::builder::{BodyBuilder, Expr};

    /// Table I SELECT example: x = {(3,True,a), (4,True,a), (2,False,b)};
    /// select [field.0==2] x → (2,False,b).
    #[test]
    fn table1_select_example() {
        // Encode True/False as 1/0 and a/b as 1/2.
        let x = Relation::new(
            vec![3, 4, 2],
            vec![Column::I64(vec![1, 1, 0]), Column::I64(vec![1, 1, 2])],
        )
        .unwrap();
        let pred = predicates::key_eq(2);
        let out = select(&x, &pred, Engine::Batch).unwrap();
        assert_eq!(out.key, vec![2]);
        assert_eq!(out.cols[0].as_i64().unwrap(), &[0]);
        assert_eq!(out.cols[1].as_i64().unwrap(), &[2]);
    }

    #[test]
    fn select_keeps_input_order() {
        let r = Relation::from_keys(vec![5, 1, 9, 3, 7]);
        let out = select(&r, &predicates::key_lt(8), Engine::Batch).unwrap();
        assert_eq!(out.key, vec![5, 1, 3, 7]);
    }

    #[test]
    fn select_on_payload_column() {
        let r = Relation::new(vec![1, 2, 3], vec![Column::F64(vec![0.5, 1.5, 2.5])]).unwrap();
        let mut b = BodyBuilder::new(2);
        b.emit_output(Expr::input(1).gt(Expr::lit(1.0f64)));
        let out = select(&r, &b.build(), Engine::Batch).unwrap();
        assert_eq!(out.key, vec![2, 3]);
    }

    #[test]
    fn empty_input_empty_output() {
        let r = Relation::from_keys(vec![]);
        let out = select(&r, &predicates::key_lt(5), Engine::Batch).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn select_all_and_none() {
        let r = Relation::from_keys((0..1000).collect());
        assert_eq!(select(&r, &predicates::key_lt(10_000), Engine::Batch).unwrap().len(), 1000);
        assert_eq!(select(&r, &predicates::key_lt(0), Engine::Batch).unwrap().len(), 0);
    }

    #[test]
    fn large_parallel_select_matches_sequential_count() {
        let n = 300_000u64;
        let r = Relation::from_keys((0..n).rev().collect());
        let out = select(&r, &predicates::key_lt(12345), Engine::Batch).unwrap();
        assert_eq!(out.len(), 12345);
        // Partition order preserved: descending keys filtered keep order.
        assert_eq!(out.key[0], 12344);
        assert_eq!(*out.key.last().unwrap(), 0);
    }

    #[test]
    fn chain_unfused_reports_intermediates() {
        let r = Relation::from_keys((0..100).collect());
        let (out, cards) =
            select_chain_unfused(&r, &[predicates::key_lt(50), predicates::key_lt(25)]).unwrap();
        assert_eq!(cards, vec![50, 25]);
        assert_eq!(out.len(), 25);
    }

    #[test]
    fn count_matches_select_len() {
        let r = Relation::from_keys((0..10_000).map(|k| k * 7 % 1000).collect());
        let p = predicates::key_lt(500);
        assert_eq!(count_selected(&r, &p).unwrap(), select(&r, &p, Engine::Batch).unwrap().len());
    }

    #[test]
    fn type_error_is_surfaced_not_panicked() {
        let r = Relation::from_keys(vec![1, 2]);
        // Predicate output is i64, not bool.
        let mut b = BodyBuilder::new(1);
        b.emit_output(Expr::input(0).add(Expr::lit(1i64)));
        assert!(matches!(select(&r, &b.build(), Engine::Batch), Err(RelError::Eval(_))));
    }

    #[test]
    fn batch_and_scalar_engines_agree() {
        let keys: Vec<u64> = (0..40_000u64).map(|k| k.wrapping_mul(2654435761) % 100_000).collect();
        let f: Vec<f64> = keys.iter().map(|&k| k as f64 / 1000.0).collect();
        let r = Relation::new(keys, vec![Column::F64(f)]).unwrap();
        let mut b = BodyBuilder::new(2);
        b.emit_output(
            Expr::input(0)
                .lt(Expr::lit(60_000i64))
                .and(Expr::input(1).gt(Expr::lit(12.5f64)).or(Expr::input(1).lt(Expr::lit(3.0)))),
        );
        let pred = b.build();
        let scalar = select(&r, &pred, Engine::Scalar);
        let batch = select(&r, &pred, Engine::Batch);
        assert_eq!(scalar.unwrap(), batch.unwrap());
    }
}
