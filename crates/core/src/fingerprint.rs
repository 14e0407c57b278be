//! Structural plan fingerprints — the key of the server's plan cache.
//!
//! Kernel Weaver's premise (and this repo's PR-5 service) is that the
//! verify → fuse → optimize pipeline is worth paying **once per plan
//! shape**: concurrent submissions of structurally identical plans should
//! share one compiled [`FusionPlan`](crate::fusion::FusionPlan). That needs
//! a cache key that is (a) purely structural — two independently built
//! `PlanGraph`s with the same operators, bodies, and wiring must collide —
//! and (b) wide enough that accidental collisions are negligible.
//!
//! [`fingerprint_plan`] walks the graph in topological (construction) order
//! and folds every node kind, every IR instruction of every kernel body,
//! and the edge lists into **two independent 64-bit mix lanes** (a
//! splitmix64-style finalizer with different seeds). 128 bits make chance
//! collisions irrelevant at any realistic cache size. Even a collision
//! could only waste work, never corrupt an answer: the functional phase
//! runs a prepared plan's fused SELECT chains only after checking that
//! each still matches the graph it is handed — member ids, edges and
//! predicate bodies — and evaluates a mismatched chain node by node.

use crate::cost::FusionBudget;
use crate::graph::{OpKind, PlanGraph};
use kfusion_ir::ir::Instr;
use kfusion_ir::opt::OptLevel;
use kfusion_ir::value::Value;
use kfusion_ir::KernelBody;
use kfusion_relalg::ops::{Agg, SortBy};

/// A 128-bit structural fingerprint (two independent 64-bit lanes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub [u64; 2]);

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.0[0], self.0[1])
    }
}

/// The full plan-cache key: plan structure plus every knob the fusion pass
/// reads ([`FusionBudget`] and [`OptLevel`]). Two executions with equal
/// keys run the identical verify → fuse → optimize pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Structural fingerprint of the graph.
    pub plan: Fingerprint,
    /// Register budget the fusion pass was given.
    pub max_regs_per_thread: u32,
    /// IR optimization level.
    pub level: OptLevel,
}

impl PlanKey {
    /// The cache key for fusing `graph` under `budget` at `level`.
    pub fn new(graph: &PlanGraph, budget: &FusionBudget, level: OptLevel) -> Self {
        PlanKey {
            plan: fingerprint_plan(graph),
            max_regs_per_thread: budget.max_regs_per_thread,
            level,
        }
    }
}

/// Two-lane mixer: the same word stream folded through two splitmix64
/// finalizers with independent seeds/increments.
struct Mixer {
    lanes: [u64; 2],
}

const LANE_SEEDS: [u64; 2] = [0x9e37_79b9_7f4a_7c15, 0xd1b5_4a32_d192_ed03];
const LANE_STEPS: [u64; 2] = [0xbf58_476d_1ce4_e5b9, 0x94d0_49bb_1331_11eb];

impl Mixer {
    fn new() -> Self {
        Mixer { lanes: LANE_SEEDS }
    }

    fn word(&mut self, w: u64) {
        for (lane, step) in self.lanes.iter_mut().zip(LANE_STEPS) {
            let mut z = (*lane ^ w).wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(step);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            *lane = z ^ (z >> 31);
        }
    }

    fn usize(&mut self, v: usize) {
        self.word(v as u64);
    }

    fn finish(self) -> Fingerprint {
        Fingerprint(self.lanes)
    }
}

fn mix_value(m: &mut Mixer, v: &Value) {
    match v {
        // `to_bits` keeps -0.0 and NaN payloads distinct — structural, not
        // numeric, equality is what a compile cache wants.
        Value::I64(x) => {
            m.word(0x10);
            m.word(*x as u64);
        }
        Value::F64(x) => {
            m.word(0x11);
            m.word(x.to_bits());
        }
        Value::Bool(b) => {
            m.word(0x12);
            m.word(*b as u64);
        }
    }
}

fn mix_body(m: &mut Mixer, body: &KernelBody) {
    m.word(body.n_inputs as u64);
    m.usize(body.instrs.len());
    for instr in &body.instrs {
        match instr {
            Instr::LoadInput { slot } => {
                m.word(0x20);
                m.word(*slot as u64);
            }
            Instr::Const { value } => {
                m.word(0x21);
                mix_value(m, value);
            }
            Instr::Copy { src } => {
                m.word(0x22);
                m.word(*src as u64);
            }
            Instr::Bin { op, lhs, rhs } => {
                m.word(0x23);
                m.word(*op as u64);
                m.word(*lhs as u64);
                m.word(*rhs as u64);
            }
            Instr::Un { op, arg } => {
                m.word(0x24);
                m.word(*op as u64);
                m.word(*arg as u64);
            }
            Instr::Cmp { op, lhs, rhs } => {
                m.word(0x25);
                m.word(*op as u64);
                m.word(*lhs as u64);
                m.word(*rhs as u64);
            }
            Instr::Select { cond, then_r, else_r } => {
                m.word(0x26);
                m.word(*cond as u64);
                m.word(*then_r as u64);
                m.word(*else_r as u64);
            }
            Instr::Cast { ty, arg } => {
                m.word(0x27);
                m.word(*ty as u64);
                m.word(*arg as u64);
            }
        }
    }
    m.usize(body.outputs.len());
    for &r in &body.outputs {
        m.word(r as u64);
    }
}

fn mix_aggs(m: &mut Mixer, aggs: &[Agg]) {
    m.usize(aggs.len());
    for a in aggs {
        match a {
            Agg::Sum(c) => {
                m.word(0x30);
                m.usize(*c);
            }
            Agg::Count => m.word(0x31),
            Agg::Min(c) => {
                m.word(0x32);
                m.usize(*c);
            }
            Agg::Max(c) => {
                m.word(0x33);
                m.usize(*c);
            }
            Agg::Avg(c) => {
                m.word(0x34);
                m.usize(*c);
            }
        }
    }
}

fn mix_kind(m: &mut Mixer, kind: &OpKind) {
    match kind {
        OpKind::Input { input } => {
            m.word(0x01);
            m.usize(*input);
        }
        OpKind::Select { pred } => {
            m.word(0x02);
            mix_body(m, pred);
        }
        OpKind::Project { keep } => {
            m.word(0x03);
            m.usize(keep.len());
            for &c in keep {
                m.usize(c);
            }
        }
        OpKind::Arith { body } => {
            m.word(0x04);
            mix_body(m, body);
        }
        OpKind::ArithExtend { body } => {
            m.word(0x05);
            mix_body(m, body);
        }
        OpKind::Rekey { col } => {
            m.word(0x06);
            m.usize(*col);
        }
        OpKind::Join => m.word(0x07),
        OpKind::ColumnJoin => m.word(0x08),
        OpKind::Semijoin => m.word(0x09),
        OpKind::Antijoin => m.word(0x0a),
        OpKind::Product => m.word(0x0b),
        OpKind::Union => m.word(0x0c),
        OpKind::Intersect => m.word(0x0d),
        OpKind::Difference => m.word(0x0e),
        OpKind::Aggregate { aggs } => {
            m.word(0x0f);
            mix_aggs(m, aggs);
        }
        OpKind::AggregateAll { aggs } => {
            m.word(0x13);
            mix_aggs(m, aggs);
        }
        OpKind::Sort { by } => {
            m.word(0x14);
            match by {
                SortBy::Key => m.word(0x40),
                SortBy::I64Col(c) => {
                    m.word(0x41);
                    m.usize(*c);
                }
                SortBy::F64Col(c) => {
                    m.word(0x42);
                    m.usize(*c);
                }
                SortBy::KeyDesc => m.word(0x43),
                SortBy::I64ColDesc(c) => {
                    m.word(0x44);
                    m.usize(*c);
                }
                SortBy::F64ColDesc(c) => {
                    m.word(0x45);
                    m.usize(*c);
                }
            }
        }
        OpKind::Unique => m.word(0x15),
    }
}

/// Fingerprint the structure of `graph`: node kinds (bodies included),
/// edges, and the root, in topological order.
pub fn fingerprint_plan(graph: &PlanGraph) -> Fingerprint {
    let mut m = Mixer::new();
    m.usize(graph.nodes.len());
    for node in &graph.nodes {
        mix_kind(&mut m, &node.kind);
        m.usize(node.inputs.len());
        for &p in &node.inputs {
            m.usize(p);
        }
    }
    m.usize(graph.root);
    m.finish()
}

/// Fingerprint a multi-root merged plan: the graph plus every root, in
/// order — so the same batch composition (and only that) gets a cache hit.
pub fn fingerprint_multi(graph: &PlanGraph, roots: &[crate::graph::NodeId]) -> Fingerprint {
    let base = fingerprint_plan(graph);
    let mut m = Mixer::new();
    m.word(base.0[0]);
    m.word(base.0[1]);
    m.usize(roots.len());
    for &r in roots {
        m.usize(r);
    }
    m.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfusion_relalg::predicates;

    fn chain(thresholds: &[u64]) -> PlanGraph {
        let mut g = PlanGraph::new();
        let mut cur = g.input(0);
        for &t in thresholds {
            cur = g.add(OpKind::Select { pred: predicates::key_lt(t) }, vec![cur]);
        }
        g
    }

    #[test]
    fn identical_structure_same_fingerprint() {
        assert_eq!(fingerprint_plan(&chain(&[10, 20])), fingerprint_plan(&chain(&[10, 20])));
    }

    #[test]
    fn predicate_constants_distinguish_plans() {
        assert_ne!(fingerprint_plan(&chain(&[10, 20])), fingerprint_plan(&chain(&[10, 21])));
    }

    #[test]
    fn shape_changes_distinguish_plans() {
        assert_ne!(fingerprint_plan(&chain(&[10])), fingerprint_plan(&chain(&[10, 10])));
        // Same nodes, different wiring: two selects off one input vs chained.
        let mut fan = PlanGraph::new();
        let i = fan.input(0);
        let a = fan.add(OpKind::Select { pred: predicates::key_lt(10) }, vec![i]);
        let _b = fan.add(OpKind::Select { pred: predicates::key_lt(20) }, vec![i]);
        let _ = a;
        assert_ne!(fingerprint_plan(&fan), fingerprint_plan(&chain(&[10, 20])));
    }

    #[test]
    fn input_index_is_structural() {
        let mut g = PlanGraph::new();
        let i = g.input(1);
        g.add(OpKind::Select { pred: predicates::key_lt(10) }, vec![i]);
        assert_ne!(fingerprint_plan(&g), fingerprint_plan(&chain(&[10])));
    }

    #[test]
    fn plan_key_separates_budget_and_level() {
        let g = chain(&[10]);
        let b63 = FusionBudget { max_regs_per_thread: 63 };
        let b32 = FusionBudget { max_regs_per_thread: 32 };
        let k1 = PlanKey::new(&g, &b63, OptLevel::O3);
        assert_eq!(k1, PlanKey::new(&g, &b63, OptLevel::O3));
        assert_ne!(k1, PlanKey::new(&g, &b32, OptLevel::O3));
        assert_ne!(k1, PlanKey::new(&g, &b63, OptLevel::O0));
    }

    #[test]
    fn multi_fingerprint_covers_roots() {
        let merged = crate::multiquery::merge_plans(&[chain(&[10]), chain(&[20])]);
        let fp = fingerprint_multi(&merged.graph, &merged.roots);
        assert_eq!(fp, fingerprint_multi(&merged.graph, &merged.roots));
        assert_ne!(fp, fingerprint_multi(&merged.graph, &[merged.roots[0]]));
        assert_ne!(fp, fingerprint_plan(&merged.graph));
    }

    #[test]
    fn float_literals_hash_by_bits() {
        let body = |v: f64| {
            let mut b = kfusion_ir::builder::BodyBuilder::new(1);
            b.emit_output(
                kfusion_ir::builder::Expr::input(0).add(kfusion_ir::builder::Expr::lit(v)),
            );
            b.build()
        };
        let plan = |v: f64| {
            let mut g = PlanGraph::new();
            let i = g.input(0);
            g.add(OpKind::Arith { body: body(v) }, vec![i]);
            g
        };
        assert_eq!(fingerprint_plan(&plan(1.5)), fingerprint_plan(&plan(1.5)));
        assert_ne!(fingerprint_plan(&plan(0.0)), fingerprint_plan(&plan(-0.0)));
    }
}
