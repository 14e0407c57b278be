//! Vectorized batch execution of kernel bodies.
//!
//! The per-element [`crate::interp::Machine`] pays boxed [`Value`] dispatch
//! on every instruction of every tuple. This module removes that cost the
//! same way the paper's fused kernels do: resolve every register to a static
//! type *once*, then run each instruction as a tight loop over a whole batch
//! of rows. A [`CompiledKernel`] uses the verifier's union-find inference
//! ([`crate::verify::infer_with_slots`]), seeded with the bound column
//! types, to assign one [`Ty`] per register; a [`BatchMachine`] then holds
//! one typed columnar bank per register — `Vec<i64>`, `Vec<f64>`, or a
//! `u64` bitmask for bools — and evaluates column-at-a-time over batches of
//! [`BATCH_ROWS`] rows. Predicate outputs come back as selection bitmasks.
//!
//! Semantics are bit-exact with [`crate::interp::eval`]: integer arithmetic
//! wraps, `Div`/`Rem` by zero yield 0, shifts mask the amount to 6 bits,
//! float min/max keep `f64::min`/`f64::max` NaN behavior, and comparisons on
//! NaN are false except `Ne`. The property tests in
//! `crates/kernel-ir/tests/prop_batch.rs` enforce this per lane.
//!
//! Bodies that stay type-polymorphic under the given binding (or demand a
//! `bool` input column, which the relational layer cannot supply) fail to
//! compile; callers fall back to the scalar interpreter, which preserves the
//! error behavior of the per-row path. Lanes at indices `>= n` of any bank
//! are unspecified after a run of `n` rows — whole-word bitmask operations
//! deliberately process garbage tail lanes.

use crate::ir::{BinOp, CmpOp, Instr, KernelBody, Reg, UnOp};
use crate::value::{Ty, Value};
use crate::verify::{self, VerifyError};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Rows per batch: small enough for register banks to stay cache-resident,
/// large enough to amortize dispatch. 1024 lanes = 16 bitmask words.
pub const BATCH_ROWS: usize = 1024;

/// `u64` words per boolean bank.
pub const MASK_WORDS: usize = BATCH_ROWS / 64;

/// Why a body could not be compiled for batch execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchError {
    /// The body is ill-typed, or a bound column type contradicts it.
    Verify(VerifyError),
    /// A register stayed type-polymorphic under the given slot binding.
    Unresolved {
        /// The register whose type inference left ambiguous.
        reg: Reg,
    },
    /// A bound column's type does not match what the body loads from it.
    Binding {
        /// The input slot with the mismatched (or missing) column.
        slot: u32,
        /// The type the compiled body loads from that slot.
        expected: Ty,
    },
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::Verify(e) => write!(f, "{e}"),
            BatchError::Unresolved { reg } => {
                write!(f, "register r{reg} has no single type under this binding")
            }
            BatchError::Binding { slot, expected } => {
                write!(f, "input slot {slot} needs a {expected:?} column")
            }
        }
    }
}

impl std::error::Error for BatchError {}

impl From<VerifyError> for BatchError {
    fn from(e: VerifyError) -> Self {
        BatchError::Verify(e)
    }
}

/// A borrowed input column, bound to one input slot for a batch run.
///
/// Keys are `u64` in the relational layer but the IR calling convention
/// reads them as `i64`; [`ColRef::KeyU64`] performs that reinterpretation
/// per lane (`v as i64`), matching `Relation::ir_inputs`.
#[derive(Debug, Clone, Copy)]
pub enum ColRef<'a> {
    /// An `i64` payload column.
    I64(&'a [i64]),
    /// An `f64` payload column.
    F64(&'a [f64]),
    /// The `u64` key column, loaded as `i64` lanes.
    KeyU64(&'a [u64]),
}

impl ColRef<'_> {
    /// The IR-level type lanes of this column load as.
    pub fn ty(&self) -> Ty {
        match self {
            ColRef::I64(_) | ColRef::KeyU64(_) => Ty::I64,
            ColRef::F64(_) => Ty::F64,
        }
    }
}

/// A body compiled for batch execution: the instruction list plus a single
/// static [`Ty`] for every register, resolved against the caller's column
/// types. Compile once per (body, binding); run over many batches.
///
/// The instruction/output/type tables live behind `Arc`s, so cloning a
/// compiled kernel (the plan cache hands one copy to every concurrent
/// submission) is three refcount bumps, never a per-clone duplication of
/// the instruction vector.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    instrs: Arc<[Instr]>,
    outputs: Arc<[Reg]>,
    reg_ty: Arc<[Ty]>,
    /// Distinct per `compile` call; clones share it. [`Scratch`] uses this
    /// to recognize a cached [`BatchMachine`] whose bank shapes still fit.
    id: u64,
    fused: Option<Fused>,
}

static NEXT_KERNEL_ID: AtomicU64 = AtomicU64::new(1);

impl CompiledKernel {
    /// Compile `body` against known input slot types (`None` = unknown).
    ///
    /// Fails when the body is ill-typed under the binding or when any
    /// register's type stays ambiguous — the cases where the caller must
    /// fall back to the scalar interpreter.
    pub fn compile(body: &KernelBody, slot_tys: &[Option<Ty>]) -> Result<Self, BatchError> {
        let compiled = (|| {
            let assign = verify::infer_with_slots(body, slot_tys)?;
            let reg_ty = assign
                .regs
                .iter()
                .enumerate()
                .map(|(r, t)| t.ok_or(BatchError::Unresolved { reg: r as Reg }))
                .collect::<Result<Vec<Ty>, BatchError>>()?;
            let fused = Fused::recognize(&body.instrs, &body.outputs, &reg_ty);
            Ok(CompiledKernel {
                instrs: body.instrs.as_slice().into(),
                outputs: body.outputs.as_slice().into(),
                reg_ty: reg_ty.into(),
                id: NEXT_KERNEL_ID.fetch_add(1, Ordering::Relaxed),
                fused,
            })
        })();
        kfusion_trace::counter(
            match compiled {
                Ok(_) => "kfusion_batch_compile_total{result=\"ok\"}",
                Err(_) => "kfusion_batch_compile_total{result=\"err\"}",
            },
            1,
        );
        compiled
    }

    /// Identity of this compile (shared by clones, distinct across
    /// `compile` calls). The key under which [`Scratch`] caches machines.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Name of the recognized multi-op fused primitive, if any — for tests
    /// and EXPLAIN-style introspection.
    pub fn fused_primitive(&self) -> Option<&'static str> {
        self.fused.as_ref().map(|f| match f {
            Fused::PackI64 { .. } => "pack_i64",
            Fused::MoneyPair { .. } => "money_pair",
            Fused::CmpChain { .. } => "cmp_chain",
        })
    }

    /// Number of output slots.
    pub fn n_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// The static type of output slot `idx`.
    pub fn output_ty(&self, idx: usize) -> Ty {
        self.reg_ty[self.outputs[idx] as usize]
    }

    /// Check that `cols` can feed this kernel: every slot the body actually
    /// loads must be present with the loaded type. Extra columns are fine;
    /// slots the body never loads need no column (mirroring the scalar
    /// interpreter, which only errors on executed `LoadInput`s).
    pub fn check_binding(&self, cols: &[ColRef<'_>]) -> Result<(), BatchError> {
        for (r, instr) in self.instrs.iter().enumerate() {
            if let Instr::LoadInput { slot } = *instr {
                let expected = self.reg_ty[r];
                match cols.get(slot as usize) {
                    Some(c) if c.ty() == expected => {}
                    _ => return Err(BatchError::Binding { slot, expected }),
                }
            }
        }
        Ok(())
    }
}

/// A hardcoded multi-op fused primitive: one of the hottest Q1/Q6
/// instruction chains, recognized at compile time and executed as a single
/// pass over the input columns instead of one bank sweep per instruction.
///
/// Every variant is bit-exact with the generic interpretation: the fused
/// loop performs the same operations on the same operands in the same
/// order (`MoneyPair` reuses the discounted price the generic path
/// recomputes, but a repeated identical f64 expression yields identical
/// bits, so sharing it is observationally invisible).
#[derive(Debug, Clone, PartialEq)]
enum Fused {
    /// `out0 = in[a] * mul + in[b]` over i64 (Q1's group-code pack).
    PackI64 { a: u32, mul: i64, b: u32 },
    /// `out0 = p * (c_sub - d)`, `out1 = out0 * (c_add + t)` over f64
    /// (Q1's discounted/charged price pair).
    MoneyPair { price: u32, disc: u32, tax: u32, c_sub: f64, c_add: f64 },
    /// `out_j = term_0 && ... && term_{ends[j] - 1}`, each term
    /// `in[slot] <op> const`: every Q1/Q6 SELECT predicate (one output,
    /// including the two-sided range), and a fused SELECT chain's running
    /// conjunctions (one output per member, each the previous one `&&` the
    /// member's terms).
    CmpChain { terms: Vec<CmpTerm>, ends: Vec<usize> },
}

/// One comparison of a `CmpChain`: `in[slot] <op> rhs`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CmpTerm {
    slot: u32,
    op: CmpOp,
    rhs: Value,
}

impl Fused {
    fn recognize(instrs: &[Instr], outputs: &[Reg], reg_ty: &[Ty]) -> Option<Fused> {
        let load = |r: Reg| match instrs[r as usize] {
            Instr::LoadInput { slot } => Some(slot),
            _ => None,
        };
        let const_i64 = |r: Reg| match instrs[r as usize] {
            Instr::Const { value: Value::I64(c) } => Some(c),
            _ => None,
        };
        let const_f64 = |r: Reg| match instrs[r as usize] {
            Instr::Const { value: Value::F64(c) } => Some(c),
            _ => None,
        };
        // out = load(a) * mul + load(b), all i64.
        let pack = |r: Reg| -> Option<Fused> {
            if reg_ty[r as usize] != Ty::I64 {
                return None;
            }
            let (sum_l, sum_r) = match instrs[r as usize] {
                Instr::Bin { op: BinOp::Add, lhs, rhs } => (lhs, rhs),
                _ => return None,
            };
            let (mul_l, mul_r) = match instrs[sum_l as usize] {
                Instr::Bin { op: BinOp::Mul, lhs, rhs } => (lhs, rhs),
                _ => return None,
            };
            let (a, mul) = match (load(mul_l), const_i64(mul_r), const_i64(mul_l), load(mul_r)) {
                (Some(a), Some(m), _, _) => (a, m),
                (_, _, Some(m), Some(a)) => (a, m),
                _ => return None,
            };
            Some(Fused::PackI64 { a, mul, b: load(sum_r)? })
        };
        // dp(r) = load(price) * (c_sub - load(disc)), all f64.
        let discounted = |r: Reg| -> Option<(u32, u32, f64)> {
            let (p_reg, sub_reg) = match instrs[r as usize] {
                Instr::Bin { op: BinOp::Mul, lhs, rhs } => (lhs, rhs),
                _ => return None,
            };
            let (c_reg, d_reg) = match instrs[sub_reg as usize] {
                Instr::Bin { op: BinOp::Sub, lhs, rhs } => (lhs, rhs),
                _ => return None,
            };
            Some((load(p_reg)?, load(d_reg)?, const_f64(c_reg)?))
        };
        let money = |o0: Reg, o1: Reg| -> Option<Fused> {
            if reg_ty[o0 as usize] != Ty::F64 || reg_ty[o1 as usize] != Ty::F64 {
                return None;
            }
            let (price, disc, c_sub) = discounted(o0)?;
            let (dp_reg, add_reg) = match instrs[o1 as usize] {
                Instr::Bin { op: BinOp::Mul, lhs, rhs } => (lhs, rhs),
                _ => return None,
            };
            // The naive builder re-emits the discounted-price subtree; it
            // must match out0's exactly for the fused sharing to be sound.
            let (p2, d2, c2) = discounted(dp_reg)?;
            if (p2, d2, c2.to_bits()) != (price, disc, c_sub.to_bits()) {
                return None;
            }
            let (ca_reg, t_reg) = match instrs[add_reg as usize] {
                Instr::Bin { op: BinOp::Add, lhs, rhs } => (lhs, rhs),
                _ => return None,
            };
            Some(Fused::MoneyPair {
                price,
                disc,
                tax: load(t_reg)?,
                c_sub,
                c_add: const_f64(ca_reg)?,
            })
        };
        // Conjunction tree of `load <op> const` comparisons, bool result.
        fn chain_terms(instrs: &[Instr], r: Reg, terms: &mut Vec<CmpTerm>) -> bool {
            match instrs[r as usize] {
                Instr::Bin { op: BinOp::And, lhs, rhs } => {
                    chain_terms(instrs, lhs, terms) && chain_terms(instrs, rhs, terms)
                }
                Instr::Cmp { op, lhs, rhs } => {
                    let load = |x: Reg| match instrs[x as usize] {
                        Instr::LoadInput { slot } => Some(slot),
                        _ => None,
                    };
                    let konst = |x: Reg| match instrs[x as usize] {
                        Instr::Const { value: v @ (Value::I64(_) | Value::F64(_)) } => Some(v),
                        _ => None,
                    };
                    match (load(lhs), konst(rhs), konst(lhs), load(rhs)) {
                        (Some(slot), Some(rhs), _, _) => {
                            terms.push(CmpTerm { slot, op, rhs });
                            true
                        }
                        (_, _, Some(lhs), Some(slot)) => {
                            terms.push(CmpTerm { slot, op: op.swapped(), rhs: lhs });
                            true
                        }
                        _ => false,
                    }
                }
                _ => false,
            }
        }
        // Running conjunctions: out_0 is a conjunction tree, every later
        // output ANDs its predecessor with one more tree (or repeats it).
        let prefix_chain = || -> Option<Fused> {
            let (mut terms, mut ends) = (Vec::new(), Vec::with_capacity(outputs.len()));
            for (j, &o) in outputs.iter().enumerate() {
                let ok = match (j, instrs[o as usize]) {
                    (0, _) => chain_terms(instrs, o, &mut terms),
                    _ if o == outputs[j - 1] => true,
                    (_, Instr::Bin { op: BinOp::And, lhs, rhs }) if lhs == outputs[j - 1] => {
                        chain_terms(instrs, rhs, &mut terms)
                    }
                    (_, Instr::Bin { op: BinOp::And, lhs, rhs }) if rhs == outputs[j - 1] => {
                        chain_terms(instrs, lhs, &mut terms)
                    }
                    _ => false,
                };
                if !ok {
                    return None;
                }
                ends.push(terms.len());
            }
            Some(Fused::CmpChain { terms, ends })
        };
        if !outputs.is_empty() && outputs.iter().all(|&o| reg_ty[o as usize] == Ty::Bool) {
            return prefix_chain();
        }
        match outputs {
            [o] => pack(*o),
            [o0, o1] => money(*o0, *o1),
            _ => None,
        }
    }
}

/// One typed columnar register bank, [`BATCH_ROWS`] lanes wide.
#[derive(Debug, Clone)]
enum Bank {
    I64(Vec<i64>),
    F64(Vec<f64>),
    Bool(Vec<u64>),
}

impl Bank {
    fn for_ty(ty: Ty) -> Bank {
        match ty {
            Ty::I64 => Bank::I64(vec![0; BATCH_ROWS]),
            Ty::F64 => Bank::F64(vec![0.0; BATCH_ROWS]),
            Ty::Bool => Bank::Bool(vec![0; MASK_WORDS]),
        }
    }

    fn as_i64(&self) -> &[i64] {
        match self {
            Bank::I64(v) => v,
            _ => unreachable!("typed compile guarantees an i64 bank"),
        }
    }

    fn as_f64(&self) -> &[f64] {
        match self {
            Bank::F64(v) => v,
            _ => unreachable!("typed compile guarantees an f64 bank"),
        }
    }

    fn as_mask(&self) -> &[u64] {
        match self {
            Bank::Bool(v) => v,
            _ => unreachable!("typed compile guarantees a bool bank"),
        }
    }
}

/// A read-only view of one register bank after a run. Only the first `n`
/// lanes (of the `n` passed to [`BatchMachine::run`]) are meaningful.
#[derive(Debug, Clone, Copy)]
pub enum BankView<'a> {
    /// `i64` lanes.
    I64(&'a [i64]),
    /// `f64` lanes.
    F64(&'a [f64]),
    /// Boolean lanes as a bitmask, lane `j` at `mask[j / 64] >> (j % 64)`.
    Bool(&'a [u64]),
}

/// Read lane `j` of a bitmask.
#[inline]
pub fn mask_lane(mask: &[u64], j: usize) -> bool {
    (mask[j >> 6] >> (j & 63)) & 1 == 1
}

/// Sentinel lane values for poisoning: recognizable, and vicious — the f64
/// pattern is a NaN, so any arithmetic that touches a stale lane infects
/// its result.
const POISON_I64: i64 = 0x5AA5_5AA5_5AA5_5AA5_u64 as i64;
const POISON_F64_BITS: u64 = 0x7FF8_DEAD_BEEF_F00D;
const POISON_MASK: u64 = 0xAAAA_AAAA_AAAA_AAAA;

/// A per-worker scratch arena: caches [`BatchMachine`]s by kernel identity
/// and recycles index buffers, so steady-state batch loops check state out
/// and return it instead of allocating. Keep one per worker thread (the
/// relational operators hold one in a thread-local) and `reset` it when the
/// worker retires.
///
/// The checkout/return protocol moves ownership — a checked-out machine is
/// plain owned state with no lifetime tie to the arena — so holding a
/// machine across a whole morsel loop borrows nothing.
#[derive(Debug, Default)]
pub struct Scratch {
    machines: Vec<(u64, BatchMachine)>,
    idx_bufs: Vec<Vec<u32>>,
}

/// Cap on cached machines / buffers per arena; a worker only ever needs a
/// handful (one per distinct kernel in flight), so anything beyond this is
/// leak, not reuse.
const SCRATCH_CAP: usize = 16;

impl Scratch {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        Scratch::default()
    }

    /// Check out a machine for `k`: a cached one compiled from the same
    /// `CompiledKernel::compile` call when one is pooled, otherwise a fresh
    /// construction.
    pub fn machine(&mut self, k: &CompiledKernel) -> BatchMachine {
        match self.machines.iter().position(|(id, _)| *id == k.id) {
            Some(pos) => self.machines.swap_remove(pos).1,
            None => BatchMachine::new(k),
        }
    }

    /// Return a machine checked out for `k` to the pool. Dropped (not
    /// pooled) when the pool is full.
    pub fn put_machine(&mut self, k: &CompiledKernel, m: BatchMachine) {
        if self.machines.len() < SCRATCH_CAP {
            self.machines.push((k.id, m));
        }
    }

    /// Check out an empty `u32` index buffer (capacity retained from prior
    /// use).
    pub fn idx_buf(&mut self) -> Vec<u32> {
        let mut v = self.idx_bufs.pop().unwrap_or_default();
        v.clear();
        v
    }

    /// Return an index buffer to the pool.
    pub fn put_idx_buf(&mut self, v: Vec<u32>) {
        if self.idx_bufs.len() < SCRATCH_CAP {
            self.idx_bufs.push(v);
        }
    }

    /// Drop all pooled state.
    pub fn reset(&mut self) {
        self.machines.clear();
        self.idx_bufs.clear();
    }
}

/// Reusable batch evaluation state for one [`CompiledKernel`]: one typed
/// bank per register, with constant banks splatted once at construction.
/// Hold one per worker thread.
#[derive(Debug, Clone)]
pub struct BatchMachine {
    banks: Vec<Bank>,
}

impl BatchMachine {
    /// Allocate banks for `k` and pre-splat its constants.
    pub fn new(k: &CompiledKernel) -> Self {
        let banks = k.reg_ty.iter().map(|&t| Bank::for_ty(t)).collect();
        let mut m = BatchMachine { banks };
        m.splat_consts(k);
        m
    }

    fn splat_consts(&mut self, k: &CompiledKernel) {
        for (r, instr) in k.instrs.iter().enumerate() {
            if let Instr::Const { value } = *instr {
                match (&mut self.banks[r], value) {
                    (Bank::I64(d), Value::I64(c)) => d.fill(c),
                    (Bank::F64(d), Value::F64(c)) => d.fill(c),
                    (Bank::Bool(d), Value::Bool(c)) => d.fill(if c { u64::MAX } else { 0 }),
                    _ => unreachable!("const bank type mismatch"),
                }
            }
        }
    }

    /// Fill every bank with sentinel garbage, then re-splat `k`'s constant
    /// banks. Leaves the machine in the worst legal state reuse can hand a
    /// batch: nothing zeroed, every stale lane poisoned.
    pub fn poison(&mut self, k: &CompiledKernel) {
        for bank in &mut self.banks {
            match bank {
                Bank::I64(d) => d.fill(POISON_I64),
                Bank::F64(d) => d.fill(f64::from_bits(POISON_F64_BITS)),
                Bank::Bool(d) => d.fill(POISON_MASK),
            }
        }
        self.splat_consts(k);
    }

    /// Evaluate `k` over rows `base .. base + n` of `cols` (`n` at most
    /// [`BATCH_ROWS`]), leaving each register's lanes in its bank.
    ///
    /// The binding must satisfy [`CompiledKernel::check_binding`]; this
    /// method panics on a mismatched binding rather than reporting it.
    ///
    /// Counts one `kfusion_batch_batches_total` tick per call (a relaxed
    /// atomic load when tracing is off — the cost the disabled-recorder
    /// overhead gate in `throughput_host` measures).
    pub fn run(&mut self, k: &CompiledKernel, cols: &[ColRef<'_>], base: usize, n: usize) {
        kfusion_trace::counter("kfusion_batch_batches_total", 1);
        self.run_uncounted(k, cols, base, n);
    }

    /// Execute a recognized [`Fused`] primitive: a single pass straight
    /// from the input columns into the output banks, skipping per-instr
    /// bank sweeps entirely. Nothing in here allocates — this is the
    /// steady-state inner loop the allocation gate measures.
    fn run_fused(
        &mut self,
        f: &Fused,
        k: &CompiledKernel,
        cols: &[ColRef<'_>],
        base: usize,
        n: usize,
    ) {
        match f {
            Fused::PackI64 { a, mul, b } => {
                let d = match &mut self.banks[k.outputs[0] as usize] {
                    Bank::I64(d) => &mut d[..n],
                    _ => unreachable!("pack output is i64"),
                };
                let (a, b) = (I64Lanes::of(cols[*a as usize]), I64Lanes::of(cols[*b as usize]));
                for (j, dj) in d.iter_mut().enumerate() {
                    *dj = a.get(base + j).wrapping_mul(*mul).wrapping_add(b.get(base + j));
                }
            }
            Fused::MoneyPair { price, disc, tax, c_sub, c_add } => {
                let (o0, o1) = (k.outputs[0] as usize, k.outputs[1] as usize);
                // SSA: out1's defining Mul reads registers above out0's
                // whole subtree, so o0 < o1 always holds here.
                let (lo, hi) = self.banks.split_at_mut(o1);
                let (d0, d1) = match (&mut lo[o0], &mut hi[0]) {
                    (Bank::F64(d0), Bank::F64(d1)) => (&mut d0[..n], &mut d1[..n]),
                    _ => unreachable!("money outputs are f64"),
                };
                let p = f64_lanes(cols[*price as usize]);
                let dc = f64_lanes(cols[*disc as usize]);
                let t = f64_lanes(cols[*tax as usize]);
                for j in 0..n {
                    let dp = p[base + j] * (c_sub - dc[base + j]);
                    d0[j] = dp;
                    d1[j] = dp * (c_add + t[base + j]);
                }
            }
            Fused::CmpChain { terms, ends } => {
                for w in 0..n.div_ceil(64) {
                    let lo = w * 64;
                    let hi = (lo + 64).min(n);
                    // Lanes >= n of the last word cleared, like store_lanes.
                    let mut acc = if hi - lo == 64 { u64::MAX } else { (1u64 << (hi - lo)) - 1 };
                    let mut t = 0;
                    for (&end, &o) in ends.iter().zip(k.outputs.iter()) {
                        // Comparisons have no effects, so a word no lane
                        // survives skips the rest of its terms.
                        for term in &terms[t..end] {
                            if acc == 0 {
                                break;
                            }
                            acc &= cmp_term_word(term, cols, base + lo, hi - lo);
                        }
                        t = end;
                        match &mut self.banks[o as usize] {
                            Bank::Bool(d) => d[w] = acc,
                            _ => unreachable!("predicate output is bool"),
                        }
                    }
                }
            }
        }
    }

    /// [`BatchMachine::run`] without the batch counter — the baseline the
    /// disabled-recorder overhead benchmark compares against. Not for
    /// general use: operators should stay observable.
    pub fn run_uncounted(
        &mut self,
        k: &CompiledKernel,
        cols: &[ColRef<'_>],
        base: usize,
        n: usize,
    ) {
        debug_assert!(n <= BATCH_ROWS);
        // Debug builds (every `cargo test` run) poison each batch's banks,
        // so any result that reads a stale or unwritten lane diverges from
        // the scalar engine in the equivalence suites; release builds skip
        // the sweep.
        #[cfg(debug_assertions)]
        self.poison(k);
        if let Some(f) = &k.fused {
            self.run_fused(f, k, cols, base, n);
            return;
        }
        for (i, instr) in k.instrs.iter().enumerate() {
            let (prev, rest) = self.banks.split_at_mut(i);
            let dst = &mut rest[0];
            match *instr {
                Instr::Const { .. } => {} // splatted at construction
                Instr::LoadInput { slot } => load(dst, cols[slot as usize], base, n),
                Instr::Copy { src } => copy_bank(dst, &prev[src as usize], n),
                Instr::Bin { op, lhs, rhs } => {
                    bin(dst, op, &prev[lhs as usize], &prev[rhs as usize], n)
                }
                Instr::Un { op, arg } => un(dst, op, &prev[arg as usize], n),
                Instr::Cmp { op, lhs, rhs } => {
                    cmp(dst, op, &prev[lhs as usize], &prev[rhs as usize], n)
                }
                Instr::Select { cond, then_r, else_r } => select(
                    dst,
                    prev[cond as usize].as_mask(),
                    &prev[then_r as usize],
                    &prev[else_r as usize],
                    n,
                ),
                Instr::Cast { ty: _, arg } => cast(dst, &prev[arg as usize], n),
            }
        }
    }

    /// View output slot `idx` after a run.
    pub fn output(&self, k: &CompiledKernel, idx: usize) -> BankView<'_> {
        match &self.banks[k.outputs[idx] as usize] {
            Bank::I64(v) => BankView::I64(v),
            Bank::F64(v) => BankView::F64(v),
            Bank::Bool(v) => BankView::Bool(v),
        }
    }

    /// The selection bitmask of a predicate's output slot 0; panics if the
    /// output is not boolean (check [`CompiledKernel::output_ty`] first).
    pub fn selection_mask(&self, k: &CompiledKernel) -> &[u64] {
        self.banks[k.outputs[0] as usize].as_mask()
    }
}

fn load(dst: &mut Bank, col: ColRef<'_>, base: usize, n: usize) {
    match (dst, col) {
        (Bank::I64(d), ColRef::I64(s)) => d[..n].copy_from_slice(&s[base..base + n]),
        (Bank::F64(d), ColRef::F64(s)) => d[..n].copy_from_slice(&s[base..base + n]),
        (Bank::I64(d), ColRef::KeyU64(s)) => {
            for (dj, &sj) in d[..n].iter_mut().zip(&s[base..base + n]) {
                *dj = sj as i64;
            }
        }
        _ => unreachable!("binding checked by CompiledKernel::check_binding"),
    }
}

/// An `i64`-typed input column for fused primitives: either a plain slice
/// or the key column read through the `u64 -> i64` calling convention.
#[derive(Clone, Copy)]
enum I64Lanes<'a> {
    Plain(&'a [i64]),
    Key(&'a [u64]),
}

impl<'a> I64Lanes<'a> {
    fn of(col: ColRef<'a>) -> Self {
        match col {
            ColRef::I64(s) => I64Lanes::Plain(s),
            ColRef::KeyU64(s) => I64Lanes::Key(s),
            ColRef::F64(_) => unreachable!("binding checked by CompiledKernel::check_binding"),
        }
    }

    #[inline]
    fn get(&self, i: usize) -> i64 {
        match self {
            I64Lanes::Plain(s) => s[i],
            I64Lanes::Key(s) => s[i] as i64,
        }
    }
}

fn f64_lanes<'a>(col: ColRef<'a>) -> &'a [f64] {
    match col {
        ColRef::F64(s) => s,
        _ => unreachable!("binding checked by CompiledKernel::check_binding"),
    }
}

/// One bitmask word (`lanes` low bits) of `in[term.slot] <op> term.rhs`
/// evaluated at rows `start .. start + lanes`.
#[inline]
fn cmp_term_word(term: &CmpTerm, cols: &[ColRef<'_>], start: usize, lanes: usize) -> u64 {
    let range = start..start + lanes;
    match (cols[term.slot as usize], term.rhs) {
        (ColRef::I64(s), Value::I64(c)) => cmp_word(&s[range], term.op, c, |v| v),
        (ColRef::KeyU64(s), Value::I64(c)) => cmp_word(&s[range], term.op, c, |v| v as i64),
        (ColRef::F64(s), Value::F64(c)) => cmp_word(&s[range], term.op, c, |v| v),
        _ => unreachable!("binding checked by CompiledKernel::check_binding"),
    }
}

/// One mask word of `load(lane) <op> c` over `lanes` (at most 64): the
/// operator is matched once per word, so each arm is a tight lane loop.
#[inline(always)]
fn cmp_word<S: Copy, T: PartialOrd + Copy>(
    lanes: &[S],
    op: CmpOp,
    c: T,
    load: impl Fn(S) -> T + Copy,
) -> u64 {
    match op {
        CmpOp::Lt => word_bits(lanes, load, |v| v < c),
        CmpOp::Le => word_bits(lanes, load, |v| v <= c),
        CmpOp::Gt => word_bits(lanes, load, |v| v > c),
        CmpOp::Ge => word_bits(lanes, load, |v| v >= c),
        CmpOp::Eq => word_bits(lanes, load, |v| v == c),
        CmpOp::Ne => word_bits(lanes, load, |v| v != c),
    }
}

#[inline(always)]
fn word_bits<S: Copy, T>(lanes: &[S], load: impl Fn(S) -> T, hit: impl Fn(T) -> bool) -> u64 {
    // Whole 8-lane groups pack with constant shifts, which the compiler
    // turns into vector compares and mask moves; the tail goes lane by lane.
    let groups = lanes.chunks_exact(8);
    let tail = groups.remainder();
    let mut m = 0u64;
    for (g, group) in groups.enumerate() {
        let group: &[S; 8] = group.try_into().expect("exact chunk");
        let byte =
            group.iter().enumerate().fold(0u64, |b, (k, &v)| b | u64::from(hit(load(v))) << k);
        m |= byte << (8 * g);
    }
    let done = lanes.len() - tail.len();
    tail.iter().enumerate().fold(m, |m, (j, &v)| m | u64::from(hit(load(v))) << (done + j))
}

fn copy_bank(dst: &mut Bank, src: &Bank, n: usize) {
    match (dst, src) {
        (Bank::I64(d), Bank::I64(s)) => d[..n].copy_from_slice(&s[..n]),
        (Bank::F64(d), Bank::F64(s)) => d[..n].copy_from_slice(&s[..n]),
        (Bank::Bool(d), Bank::Bool(s)) => d.copy_from_slice(s),
        _ => unreachable!("copy banks share a type"),
    }
}

fn bin(dst: &mut Bank, op: BinOp, lhs: &Bank, rhs: &Bank, n: usize) {
    match dst {
        Bank::I64(d) => {
            let (a, b) = (lhs.as_i64(), rhs.as_i64());
            let d = &mut d[..n];
            match op {
                BinOp::Add => zip3(d, a, b, |x, y| x.wrapping_add(y)),
                BinOp::Sub => zip3(d, a, b, |x, y| x.wrapping_sub(y)),
                BinOp::Mul => zip3(d, a, b, |x, y| x.wrapping_mul(y)),
                BinOp::Div => zip3(d, a, b, |x, y| if y == 0 { 0 } else { x.wrapping_div(y) }),
                BinOp::Rem => zip3(d, a, b, |x, y| if y == 0 { 0 } else { x.wrapping_rem(y) }),
                BinOp::Min => zip3(d, a, b, i64::min),
                BinOp::Max => zip3(d, a, b, i64::max),
                BinOp::And => zip3(d, a, b, |x, y| x & y),
                BinOp::Or => zip3(d, a, b, |x, y| x | y),
                BinOp::Xor => zip3(d, a, b, |x, y| x ^ y),
                BinOp::Shl => zip3(d, a, b, |x, y| x.wrapping_shl(y as u32 & 63)),
                BinOp::Shr => zip3(d, a, b, |x, y| x.wrapping_shr(y as u32 & 63)),
            }
        }
        Bank::F64(d) => {
            let (a, b) = (lhs.as_f64(), rhs.as_f64());
            let d = &mut d[..n];
            match op {
                BinOp::Add => zip3(d, a, b, |x, y| x + y),
                BinOp::Sub => zip3(d, a, b, |x, y| x - y),
                BinOp::Mul => zip3(d, a, b, |x, y| x * y),
                BinOp::Div => zip3(d, a, b, |x, y| x / y),
                BinOp::Rem => zip3(d, a, b, |x, y| x % y),
                BinOp::Min => zip3(d, a, b, f64::min),
                BinOp::Max => zip3(d, a, b, f64::max),
                _ => unreachable!("verifier rejects bit ops on f64"),
            }
        }
        Bank::Bool(d) => {
            let (a, b) = (lhs.as_mask(), rhs.as_mask());
            match op {
                BinOp::And => zip3(d, a, b, |x, y| x & y),
                BinOp::Or => zip3(d, a, b, |x, y| x | y),
                BinOp::Xor => zip3(d, a, b, |x, y| x ^ y),
                _ => unreachable!("verifier rejects arithmetic on bool"),
            }
        }
    }
}

fn un(dst: &mut Bank, op: UnOp, arg: &Bank, n: usize) {
    match dst {
        Bank::I64(d) => {
            let a = arg.as_i64();
            let d = &mut d[..n];
            match op {
                UnOp::Not => zip2(d, a, |x| !x),
                UnOp::Neg => zip2(d, a, i64::wrapping_neg),
            }
        }
        Bank::F64(d) => {
            let a = arg.as_f64();
            match op {
                UnOp::Neg => zip2(&mut d[..n], a, |x| -x),
                UnOp::Not => unreachable!("verifier rejects Not on f64"),
            }
        }
        Bank::Bool(d) => match op {
            UnOp::Not => zip2(d, arg.as_mask(), |x| !x),
            UnOp::Neg => unreachable!("verifier rejects Neg on bool"),
        },
    }
}

fn cmp(dst: &mut Bank, op: CmpOp, lhs: &Bank, rhs: &Bank, n: usize) {
    let d = match dst {
        Bank::Bool(d) => d,
        _ => unreachable!("cmp result is bool"),
    };
    match lhs {
        Bank::I64(_) => {
            let (a, b) = (lhs.as_i64(), rhs.as_i64());
            match op {
                CmpOp::Lt => store_lanes(d, n, |j| a[j] < b[j]),
                CmpOp::Le => store_lanes(d, n, |j| a[j] <= b[j]),
                CmpOp::Gt => store_lanes(d, n, |j| a[j] > b[j]),
                CmpOp::Ge => store_lanes(d, n, |j| a[j] >= b[j]),
                CmpOp::Eq => store_lanes(d, n, |j| a[j] == b[j]),
                CmpOp::Ne => store_lanes(d, n, |j| a[j] != b[j]),
            }
        }
        Bank::F64(_) => {
            let (a, b) = (lhs.as_f64(), rhs.as_f64());
            match op {
                CmpOp::Lt => store_lanes(d, n, |j| a[j] < b[j]),
                CmpOp::Le => store_lanes(d, n, |j| a[j] <= b[j]),
                CmpOp::Gt => store_lanes(d, n, |j| a[j] > b[j]),
                CmpOp::Ge => store_lanes(d, n, |j| a[j] >= b[j]),
                CmpOp::Eq => store_lanes(d, n, |j| a[j] == b[j]),
                CmpOp::Ne => store_lanes(d, n, |j| a[j] != b[j]),
            }
        }
        Bank::Bool(_) => {
            let (a, b) = (lhs.as_mask(), rhs.as_mask());
            match op {
                CmpOp::Eq => zip3(d, a, b, |x, y| !(x ^ y)),
                CmpOp::Ne => zip3(d, a, b, |x, y| x ^ y),
                _ => unreachable!("verifier rejects ordered cmp on bool"),
            }
        }
    }
}

fn select(dst: &mut Bank, cond: &[u64], then_b: &Bank, else_b: &Bank, n: usize) {
    match dst {
        Bank::I64(d) => {
            let (t, e) = (then_b.as_i64(), else_b.as_i64());
            for (j, dj) in d[..n].iter_mut().enumerate() {
                *dj = if mask_lane(cond, j) { t[j] } else { e[j] };
            }
        }
        Bank::F64(d) => {
            let (t, e) = (then_b.as_f64(), else_b.as_f64());
            for (j, dj) in d[..n].iter_mut().enumerate() {
                *dj = if mask_lane(cond, j) { t[j] } else { e[j] };
            }
        }
        Bank::Bool(d) => {
            let (t, e) = (then_b.as_mask(), else_b.as_mask());
            for (w, dw) in d.iter_mut().enumerate() {
                *dw = (cond[w] & t[w]) | (!cond[w] & e[w]);
            }
        }
    }
}

fn cast(dst: &mut Bank, arg: &Bank, n: usize) {
    match (dst, arg) {
        (Bank::I64(d), Bank::I64(s)) => d[..n].copy_from_slice(&s[..n]),
        (Bank::F64(d), Bank::F64(s)) => d[..n].copy_from_slice(&s[..n]),
        (Bank::Bool(d), Bank::Bool(s)) => d.copy_from_slice(s),
        (Bank::I64(d), Bank::F64(s)) => zip2(&mut d[..n], s, |x| x as i64),
        (Bank::F64(d), Bank::I64(s)) => zip2(&mut d[..n], s, |x| x as f64),
        (Bank::I64(d), Bank::Bool(s)) => {
            for (j, dj) in d[..n].iter_mut().enumerate() {
                *dj = mask_lane(s, j) as i64;
            }
        }
        (Bank::F64(d), Bank::Bool(s)) => {
            for (j, dj) in d[..n].iter_mut().enumerate() {
                *dj = mask_lane(s, j) as u8 as f64;
            }
        }
        (Bank::Bool(d), Bank::I64(s)) => store_lanes(d, n, |j| s[j] != 0),
        (Bank::Bool(_), Bank::F64(_)) => unreachable!("verifier rejects f64 -> bool cast"),
    }
}

/// `d[j] = f(a[j], b[j])` over the common prefix — the auto-vectorizable
/// inner-loop shape every typed operation lowers to.
#[inline]
fn zip3<T: Copy, U: Copy>(d: &mut [T], a: &[U], b: &[U], f: impl Fn(U, U) -> T) {
    for (dj, (&aj, &bj)) in d.iter_mut().zip(a.iter().zip(b)) {
        *dj = f(aj, bj);
    }
}

#[inline]
fn zip2<T: Copy, U: Copy>(d: &mut [T], a: &[U], f: impl Fn(U) -> T) {
    for (dj, &aj) in d.iter_mut().zip(a) {
        *dj = f(aj);
    }
}

/// Pack per-lane booleans into whole bitmask words; lanes `>= n` of the last
/// written word are cleared, later words untouched (unspecified).
#[inline]
fn store_lanes(d: &mut [u64], n: usize, f: impl Fn(usize) -> bool) {
    for (w, dw) in d.iter_mut().enumerate().take(n.div_ceil(64)) {
        let lo = w * 64;
        let hi = (lo + 64).min(n);
        let mut m = 0u64;
        for j in lo..hi {
            m |= (f(j) as u64) << (j - lo);
        }
        *dw = m;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{BodyBuilder, Expr};
    use crate::interp;

    fn compile_all_i64(body: &KernelBody) -> CompiledKernel {
        let seeds: Vec<Option<Ty>> = vec![Some(Ty::I64); body.n_inputs as usize];
        CompiledKernel::compile(body, &seeds).unwrap()
    }

    #[test]
    fn predicate_mask_matches_interp() {
        let body = BodyBuilder::threshold_lt(0, 100).build();
        let k = compile_all_i64(&body);
        let vals: Vec<i64> = (0..200).map(|i| i * 3 - 50).collect();
        let cols = [ColRef::I64(&vals)];
        k.check_binding(&cols).unwrap();
        let mut bm = BatchMachine::new(&k);
        bm.run(&k, &cols, 0, vals.len());
        let mask = bm.selection_mask(&k);
        for (j, &v) in vals.iter().enumerate() {
            let scalar = interp::eval_predicate(&body, &[Value::I64(v)]).unwrap();
            assert_eq!(mask_lane(mask, j), scalar, "lane {j} value {v}");
        }
    }

    #[test]
    fn key_column_loads_as_i64() {
        let body = BodyBuilder::threshold_lt(0, 10).build();
        let k = compile_all_i64(&body);
        let keys: Vec<u64> = vec![0, 9, 10, u64::MAX];
        let cols = [ColRef::KeyU64(&keys)];
        k.check_binding(&cols).unwrap();
        let mut bm = BatchMachine::new(&k);
        bm.run(&k, &cols, 0, keys.len());
        let mask = bm.selection_mask(&k);
        // u64::MAX as i64 == -1 < 10: matches the scalar calling convention.
        assert_eq!(
            (0..4).map(|j| mask_lane(mask, j)).collect::<Vec<_>>(),
            vec![true, true, false, true]
        );
    }

    #[test]
    fn polymorphic_body_fails_to_compile() {
        // out = in[0] with no seed: no single register type.
        let mut b = KernelBody::new(1);
        let x = b.push(Instr::LoadInput { slot: 0 });
        b.outputs.push(x);
        assert!(matches!(
            CompiledKernel::compile(&b, &[None]),
            Err(BatchError::Unresolved { reg: 0 })
        ));
        // Seeded, it compiles.
        assert!(CompiledKernel::compile(&b, &[Some(Ty::F64)]).is_ok());
    }

    #[test]
    fn conflicting_seed_fails_to_compile() {
        let body = BodyBuilder::threshold_lt(0, 100).build(); // slot 0 is i64
        assert!(matches!(
            CompiledKernel::compile(&body, &[Some(Ty::F64)]),
            Err(BatchError::Verify(_))
        ));
    }

    #[test]
    fn binding_check_rejects_wrong_column_type() {
        let body = BodyBuilder::threshold_lt(0, 100).build();
        let k = compile_all_i64(&body);
        let f: Vec<f64> = vec![1.0];
        assert!(matches!(
            k.check_binding(&[ColRef::F64(&f)]),
            Err(BatchError::Binding { slot: 0, expected: Ty::I64 })
        ));
        assert!(matches!(k.check_binding(&[]), Err(BatchError::Binding { slot: 0, .. })));
    }

    /// Run `body` fused and generically over the same columns and assert
    /// both agree bit-for-bit with the scalar interpreter on every lane.
    fn assert_fused_matches_interp(
        body: &KernelBody,
        slot_tys: &[Option<Ty>],
        cols: &[ColRef<'_>],
        rows: &[Vec<Value>],
        expect_fused: &str,
    ) {
        let k = CompiledKernel::compile(body, slot_tys).unwrap();
        assert_eq!(k.fused_primitive(), Some(expect_fused));
        k.check_binding(cols).unwrap();
        let mut fused = BatchMachine::new(&k);
        fused.run(&k, cols, 0, rows.len());
        let mut generic = BatchMachine::new(&k);
        let mut plain = k.clone();
        plain.fused = None;
        generic.run(&plain, cols, 0, rows.len());
        for (j, row) in rows.iter().enumerate() {
            let expect = interp::eval(body, row).unwrap();
            for (slot, want) in expect.iter().enumerate() {
                for (label, m) in [("fused", &fused), ("generic", &generic)] {
                    let got = match m.output(&k, slot) {
                        BankView::I64(v) => Value::I64(v[j]),
                        BankView::F64(v) => Value::F64(v[j]),
                        BankView::Bool(mask) => Value::Bool(mask_lane(mask, j)),
                    };
                    match (got, *want) {
                        (Value::F64(a), Value::F64(b)) => {
                            assert_eq!(a.to_bits(), b.to_bits(), "{label} lane {j} out {slot}")
                        }
                        (a, b) => assert_eq!(a, b, "{label} lane {j} out {slot}"),
                    }
                }
            }
        }
    }

    #[test]
    fn fused_pack_matches_interp() {
        let mut b = BodyBuilder::new(3);
        b.emit_output(Expr::input(1).mul(Expr::lit(65536i64)).add(Expr::input(2)));
        let body = b.build();
        let flag: Vec<i64> = (0..200).map(|i| i % 3).collect();
        let status: Vec<i64> = (0..200).map(|i| (i * 7) % 5 - 2).collect();
        let keys: Vec<u64> = (0..200).collect();
        let rows: Vec<Vec<Value>> = (0..200)
            .map(|j| vec![Value::I64(keys[j] as i64), Value::I64(flag[j]), Value::I64(status[j])])
            .collect();
        assert_fused_matches_interp(
            &body,
            &[Some(Ty::I64), Some(Ty::I64), Some(Ty::I64)],
            &[ColRef::KeyU64(&keys), ColRef::I64(&flag), ColRef::I64(&status)],
            &rows,
            "pack_i64",
        );
    }

    #[test]
    fn fused_money_pair_matches_interp() {
        // The naive builder duplicates the discounted-price subtree, the
        // exact shape Q1's money kernel has.
        let mut b = BodyBuilder::new(4);
        let dp = || Expr::input(1).mul(Expr::lit(1.0f64).sub(Expr::input(2)));
        b.emit_output(dp());
        b.emit_output(dp().mul(Expr::lit(1.0f64).add(Expr::input(3))));
        let body = b.build();
        let price: Vec<f64> = (0..200).map(|i| 900.0 + (i as f64) * 1.37).collect();
        let disc: Vec<f64> = (0..200).map(|i| (i % 11) as f64 * 0.01).collect();
        let tax: Vec<f64> = (0..200).map(|i| (i % 9) as f64 * 0.01).collect();
        let keys: Vec<u64> = (0..200).collect();
        let rows: Vec<Vec<Value>> = (0..200)
            .map(|j| {
                vec![
                    Value::I64(keys[j] as i64),
                    Value::F64(price[j]),
                    Value::F64(disc[j]),
                    Value::F64(tax[j]),
                ]
            })
            .collect();
        assert_fused_matches_interp(
            &body,
            &[Some(Ty::I64), Some(Ty::F64), Some(Ty::F64), Some(Ty::F64)],
            &[ColRef::KeyU64(&keys), ColRef::F64(&price), ColRef::F64(&disc), ColRef::F64(&tax)],
            &rows,
            "money_pair",
        );
    }

    #[test]
    fn fused_cmp_chain_matches_interp() {
        // disc >= lo && disc <= hi && 24.0 > qty — mixed operand orders and
        // a three-term conjunction (Q6's range predicate shape).
        let mut b = BodyBuilder::new(3);
        let range = Expr::input(1)
            .cmp(CmpOp::Ge, Expr::lit(0.0499f64))
            .and(Expr::input(1).cmp(CmpOp::Le, Expr::lit(0.0701f64)));
        b.emit_output(range.and(Expr::lit(24.0f64).cmp(CmpOp::Gt, Expr::input(2))));
        let body = b.build();
        let disc: Vec<f64> = (0..300).map(|i| (i % 13) as f64 * 0.007).collect();
        let qty: Vec<f64> = (0..300).map(|i| (i % 50) as f64).collect();
        let keys: Vec<u64> = (0..300).collect();
        let rows: Vec<Vec<Value>> = (0..300)
            .map(|j| vec![Value::I64(keys[j] as i64), Value::F64(disc[j]), Value::F64(qty[j])])
            .collect();
        assert_fused_matches_interp(
            &body,
            &[Some(Ty::I64), Some(Ty::F64), Some(Ty::F64)],
            &[ColRef::KeyU64(&keys), ColRef::F64(&disc), ColRef::F64(&qty)],
            &rows,
            "cmp_chain",
        );
    }

    #[test]
    fn fused_running_conjunctions_match_interp() {
        // A fused SELECT chain's kernel: out0 = key < 200, out1 = out0 &&
        // disc >= lo, out2 = (disc <= hi && qty < 24) && out1 (operand order
        // swapped), out3 = out2 repeated.
        let mut body = KernelBody::new(3);
        let key = body.push(Instr::LoadInput { slot: 0 });
        let disc = body.push(Instr::LoadInput { slot: 1 });
        let qty = body.push(Instr::LoadInput { slot: 2 });
        let cmp = |body: &mut KernelBody, op, lhs, c: Value| {
            let rhs = body.push(Instr::Const { value: c });
            body.push(Instr::Cmp { op, lhs, rhs })
        };
        let o0 = cmp(&mut body, CmpOp::Lt, key, Value::I64(200));
        let lo = cmp(&mut body, CmpOp::Ge, disc, Value::F64(0.0499));
        let o1 = body.push(Instr::Bin { op: BinOp::And, lhs: o0, rhs: lo });
        let hi = cmp(&mut body, CmpOp::Le, disc, Value::F64(0.0701));
        let q = cmp(&mut body, CmpOp::Lt, qty, Value::F64(24.0));
        let range = body.push(Instr::Bin { op: BinOp::And, lhs: hi, rhs: q });
        let o2 = body.push(Instr::Bin { op: BinOp::And, lhs: range, rhs: o1 });
        body.outputs = vec![o0, o1, o2, o2];
        let disc: Vec<f64> = (0..300).map(|i| (i % 13) as f64 * 0.007).collect();
        let qty: Vec<f64> = (0..300).map(|i| (i % 50) as f64).collect();
        let keys: Vec<u64> = (0..300).collect();
        let rows: Vec<Vec<Value>> = (0..300)
            .map(|j| vec![Value::I64(keys[j] as i64), Value::F64(disc[j]), Value::F64(qty[j])])
            .collect();
        assert_fused_matches_interp(
            &body,
            &[Some(Ty::I64), Some(Ty::F64), Some(Ty::F64)],
            &[ColRef::KeyU64(&keys), ColRef::F64(&disc), ColRef::F64(&qty)],
            &rows,
            "cmp_chain",
        );
        // An output that is not its predecessor's extension stays generic.
        body.outputs = vec![o0, range];
        let k = CompiledKernel::compile(&body, &[Some(Ty::I64), Some(Ty::F64), Some(Ty::F64)]);
        assert_eq!(k.unwrap().fused_primitive(), None);
    }

    #[test]
    fn unrecognized_shapes_stay_generic() {
        // A division chain matches no fused primitive.
        let mut b = BodyBuilder::new(2);
        b.emit_output(Expr::input(1).div(Expr::lit(3i64)));
        let k = CompiledKernel::compile(&b.build(), &[Some(Ty::I64), Some(Ty::I64)]).unwrap();
        assert_eq!(k.fused_primitive(), None);
    }

    #[test]
    fn scratch_reuses_machines_by_kernel_identity() {
        let body = BodyBuilder::threshold_lt(0, 100).build();
        let k1 = compile_all_i64(&body);
        let k2 = compile_all_i64(&body); // same body, distinct compile
        assert_ne!(k1.id(), k2.id());
        assert_eq!(k1.id(), k1.clone().id(), "clones share identity");
        let mut s = Scratch::new();
        let m = s.machine(&k1);
        s.put_machine(&k1, m);
        assert_eq!(s.machines.len(), 1);
        // A different kernel misses the cache; the k1 machine stays pooled.
        let m2 = s.machine(&k2);
        assert_eq!(s.machines.len(), 1);
        s.put_machine(&k2, m2);
        assert_eq!(s.machines.len(), 2);
        // Checking k1 back out drains its pool slot.
        let _m = s.machine(&k1);
        assert_eq!(s.machines.iter().filter(|(id, _)| *id == k1.id()).count(), 0);
        s.reset();
        assert!(s.machines.is_empty());
    }

    #[test]
    fn poisoned_machine_still_computes_exact_results() {
        let body = BodyBuilder::threshold_lt(0, 100).build();
        let k = compile_all_i64(&body);
        let vals: Vec<i64> = (0..150).map(|i| i * 2 - 30).collect();
        let cols = [ColRef::I64(&vals)];
        let mut clean = BatchMachine::new(&k);
        clean.run(&k, &cols, 0, vals.len());
        let mut dirty = BatchMachine::new(&k);
        dirty.poison(&k);
        dirty.run(&k, &cols, 0, vals.len());
        for j in 0..vals.len() {
            assert_eq!(
                mask_lane(clean.selection_mask(&k), j),
                mask_lane(dirty.selection_mask(&k), j),
                "lane {j}"
            );
        }
    }

    #[test]
    fn multi_output_arith_matches_interp() {
        let mut b = BodyBuilder::new(3);
        b.emit_output(Expr::input(1).mul(Expr::input(2)));
        b.emit_output(Expr::input(1).add(Expr::lit(7i64)).cmp(CmpOp::Ge, Expr::input(2)));
        let body = b.build();
        let k =
            CompiledKernel::compile(&body, &[Some(Ty::I64), Some(Ty::I64), Some(Ty::I64)]).unwrap();
        let a: Vec<i64> = (0..100).map(|i| i * 17 - 300).collect();
        let c: Vec<i64> = (0..100).map(|i| 50 - i).collect();
        let keys: Vec<u64> = (0..100).collect();
        let cols = [ColRef::KeyU64(&keys), ColRef::I64(&a), ColRef::I64(&c)];
        k.check_binding(&cols).unwrap();
        let mut bm = BatchMachine::new(&k);
        bm.run(&k, &cols, 0, 100);
        let (o0, o1) = (bm.output(&k, 0), bm.output(&k, 1));
        for j in 0..100 {
            let row = [Value::I64(keys[j] as i64), Value::I64(a[j]), Value::I64(c[j])];
            let expect = interp::eval(&body, &row).unwrap();
            match o0 {
                BankView::I64(v) => assert_eq!(Value::I64(v[j]), expect[0]),
                _ => panic!("output 0 should be i64"),
            }
            match o1 {
                BankView::Bool(m) => assert_eq!(Value::Bool(mask_lane(m, j)), expect[1]),
                _ => panic!("output 1 should be bool"),
            }
        }
    }
}
