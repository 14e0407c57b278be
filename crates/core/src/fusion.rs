//! The kernel fusion pass: partition a plan DAG into fused kernel groups.
//!
//! Mirrors §III-C of the paper: data-dependence analysis finds candidate
//! kernels (elementwise producers/consumers fuse; SORT/UNIQUE are
//! barriers), a cost function bounds group growth by register pressure, and
//! the multi-stage structure makes code generation mechanical — one
//! partition stage, the members' compute stages interleaved in topological
//! order, one buffer + gather stage.
//!
//! The pass is greedy over the topologically-ordered nodes and supports
//! *group merging*, which the Fig. 2(f) pattern requires (a JOIN fusing
//! with both of its SELECT producers pulls two existing groups into one).

use crate::cost::{group_regs, FusionBudget};
use crate::deps::{fusability, Fusability};
use crate::graph::{NodeId, OpKind, PlanGraph};
use kfusion_ir::builder::{BodyBuilder, Expr};
use kfusion_ir::fuse::{fuse, FusedOutput, SlotSource};
use kfusion_ir::opt::{optimize, OptLevel};
use kfusion_ir::KernelBody;

/// The result of the fusion pass.
#[derive(Debug, Clone)]
pub struct FusionPlan {
    /// `group_of[node]` — the group containing each node (`None` for plan
    /// inputs).
    pub group_of: Vec<Option<usize>>,
    /// Groups in execution order; each is a topologically-ordered member
    /// list. A group of one barrier node is a "group" that simply runs its
    /// own kernels.
    pub groups: Vec<Vec<NodeId>>,
    /// The groups' SELECT chains with their fused kernels, which the
    /// host's functional phase runs as one pass each. Filled by
    /// `exec::prepare_fusion` through [`select_chains`]; empty for
    /// singleton plans and straight out of [`fuse_plan`].
    pub chains: Vec<FusedChain>,
}

/// A maximal chain of ≥ 2 `Select` members of one fusion group — each
/// member consumes the previous one, and no member but the last is a root
/// or read by anything else — compiled into one fused predicate kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedChain {
    /// The member `Select` nodes, producer first.
    pub members: Vec<NodeId>,
    /// Each member's predicate, as fused. A prepared chain only runs while
    /// the graph still holds exactly these bodies on exactly these nodes.
    pub preds: Vec<KernelBody>,
    /// The fused, optimized kernel: output `j` is the conjunction of
    /// `preds[..=j]`, so one pass yields every member's exact row count
    /// and the last output selects the chain's result.
    pub kernel: KernelBody,
}

impl FusedChain {
    /// Whether this chain still describes `graph` executed for `roots`:
    /// the same predicate on every member, each member reading only the
    /// previous one, and every member but the last read by its successor
    /// alone (`consumers` from [`PlanGraph::consumer_counts`]) and not a
    /// root. A prepared plan can outlive the graph it was built for (the
    /// server's plan cache keys on a fingerprint), so the executor checks
    /// this before every pass.
    pub(crate) fn matches(&self, graph: &PlanGraph, consumers: &[usize], roots: &[NodeId]) -> bool {
        let k = self.members.len();
        k >= 2
            && self.preds.len() == k
            && self.kernel.outputs.len() == k
            && self.members.iter().zip(&self.preds).enumerate().all(|(i, (&m, pred))| {
                let Some(node) = graph.nodes.get(m) else { return false };
                let wired = if i == 0 {
                    node.inputs.len() == 1
                } else {
                    node.inputs == [self.members[i - 1]]
                };
                let interior_ok = i + 1 == k || (consumers[m] == 1 && !roots.contains(&m));
                wired
                    && interior_ok
                    && matches!(&node.kind, OpKind::Select { pred: p } if p == pred)
            })
    }
}

/// The SELECT chains of `plan`'s groups for a graph executed for `roots`,
/// each with its fused kernel optimized at `level`: a `Select` continues
/// its producer's chain when the producer is a `Select` of the same group
/// read by nothing else and not a root. Chains whose predicates do not
/// splice into one verifiable kernel are left out (their members run one
/// by one).
///
/// The kernel comes from one [`kfusion_ir::fuse::fuse`] call — the member
/// predicates over shared input slots plus one `and` stage per running
/// conjunction — then [`optimize`]; under the `validate` feature both are
/// translation-validated, so the code the prover accepts is the code the
/// host runs.
pub fn select_chains(
    graph: &PlanGraph,
    plan: &FusionPlan,
    roots: &[NodeId],
    level: OptLevel,
) -> Vec<FusedChain> {
    let consumers = graph.consumer_counts();
    let is_select = |id: NodeId| matches!(graph.nodes[id].kind, OpKind::Select { .. });
    // next[p] = the member continuing p's chain.
    let mut next: Vec<Option<NodeId>> = vec![None; graph.len()];
    let mut continues = vec![false; graph.len()];
    for (id, node) in graph.nodes.iter().enumerate() {
        let Some(&p) = node.inputs.first() else { continue };
        if is_select(id)
            && is_select(p)
            && plan.group_of[id].is_some()
            && plan.group_of[p] == plan.group_of[id]
            && consumers[p] == 1
            && !roots.contains(&p)
        {
            next[p] = Some(id);
            continues[id] = true;
        }
    }
    let mut chains = Vec::new();
    for head in (0..graph.len()).filter(|&id| is_select(id) && !continues[id]) {
        let mut members = vec![head];
        while let Some(n) = next[*members.last().expect("non-empty")] {
            members.push(n);
        }
        if members.len() < 2 {
            continue;
        }
        let preds: Vec<KernelBody> = members
            .iter()
            .map(|&m| match &graph.nodes[m].kind {
                OpKind::Select { pred } => pred.clone(),
                _ => unreachable!("chains hold only selects"),
            })
            .collect();
        if let Some(kernel) = running_conjunction(&preds, level) {
            chains.push(FusedChain { members, preds, kernel });
        }
    }
    chains
}

/// Fuse `preds` (all reading the same tuple) into one kernel whose output
/// `j` is `preds[0] && ... && preds[j]`, optimized at `level`; `None` when
/// the splice does not verify (e.g. a non-boolean predicate).
fn running_conjunction(preds: &[KernelBody], level: OptLevel) -> Option<KernelBody> {
    let mut and = BodyBuilder::new(2);
    and.emit_output(Expr::input(0).and(Expr::input(1)));
    let and = and.build();
    let k = preds.len();
    let mut bodies: Vec<KernelBody> = preds.to_vec();
    let mut wiring: Vec<Vec<SlotSource>> =
        preds.iter().map(|p| (0..p.n_inputs).map(SlotSource::External).collect()).collect();
    let mut outputs = vec![FusedOutput { body: 0, output: 0 }];
    // Stage k + j - 1 ANDs the running conjunction so far with member j.
    for j in 1..k {
        let acc = if j == 1 { 0 } else { k + j - 2 };
        bodies.push(and.clone());
        wiring.push(vec![
            SlotSource::Producer { body: acc, output: 0 },
            SlotSource::Producer { body: j, output: 0 },
        ]);
        outputs.push(FusedOutput { body: k + j - 1, output: 0 });
    }
    let fused = fuse(&bodies, &wiring, &outputs).ok()?;
    Some(optimize(&fused, level))
}

impl FusionPlan {
    /// Number of fused kernels (groups with ≥ 2 members).
    pub fn fused_group_count(&self) -> usize {
        self.groups.iter().filter(|g| g.len() > 1).count()
    }

    /// The largest group size.
    pub fn max_group_len(&self) -> usize {
        self.groups.iter().map(Vec::len).max().unwrap_or(0)
    }
}

#[derive(Debug)]
struct GroupState {
    members: Vec<NodeId>,
    open: bool,
    /// After a merge, points at the surviving group.
    merged_into: Option<usize>,
}

fn resolve(groups: &[GroupState], mut g: usize) -> usize {
    while let Some(next) = groups[g].merged_into {
        g = next;
    }
    g
}

/// Run the fusion pass on `graph` under `budget`, with member bodies
/// optimized at `level` for the register estimate.
pub fn fuse_plan(graph: &PlanGraph, budget: &FusionBudget, level: OptLevel) -> FusionPlan {
    let n = graph.nodes.len();
    let mut groups: Vec<GroupState> = Vec::new();
    let mut group_of: Vec<Option<usize>> = vec![None; n];
    // Groups already scanning each Input leaf — the Fig. 2(c) opportunity:
    // kernels with no producer/consumer dependence still fuse when they
    // filter the *same input data* (and, across queries, §III-A's
    // cross-query fusion reduces to exactly this sibling case).
    let mut leaf_groups: Vec<Vec<usize>> = vec![Vec::new(); n];

    for id in 0..n {
        let kind = &graph.nodes[id].kind;
        if matches!(kind, OpKind::Input { .. }) {
            continue;
        }
        let f = fusability(kind);
        let mut placed = false;
        if f != Fusability::Barrier {
            // Open groups feeding this node.
            let mut producer_groups: Vec<usize> = graph.nodes[id]
                .inputs
                .iter()
                .filter_map(|&p| group_of[p])
                .map(|g| resolve(&groups, g))
                .collect();
            producer_groups.sort_unstable();
            producer_groups.dedup();
            if producer_groups.is_empty() {
                // All producers are plan inputs: consider sibling groups
                // that already scan one of the same leaves.
                let mut siblings: Vec<usize> = graph.nodes[id]
                    .inputs
                    .iter()
                    .flat_map(|&p| leaf_groups[p].iter().copied())
                    .map(|g| resolve(&groups, g))
                    .filter(|&g| groups[g].open)
                    .collect();
                siblings.sort_unstable();
                siblings.dedup();
                if let Some(&first) = siblings.first() {
                    producer_groups = vec![first];
                }
            }
            let all_open =
                !producer_groups.is_empty() && producer_groups.iter().all(|&g| groups[g].open);
            if all_open {
                // Tentative merged membership.
                let mut members: Vec<NodeId> = producer_groups
                    .iter()
                    .flat_map(|&g| groups[g].members.iter().copied())
                    .collect();
                members.push(id);
                members.sort_unstable();
                if group_regs(graph, &members, level) <= budget.max_regs_per_thread {
                    // Commit: merge into the first group.
                    let target = producer_groups[0];
                    for &g in &producer_groups[1..] {
                        groups[g].merged_into = Some(target);
                        groups[g].open = false;
                    }
                    groups[target].members = members;
                    groups[target].open = f == Fusability::Fusable;
                    group_of[id] = Some(target);
                    placed = true;
                }
            }
        }
        if !placed {
            let open = f == Fusability::Fusable;
            groups.push(GroupState { members: vec![id], open, merged_into: None });
            group_of[id] = Some(groups.len() - 1);
        }
        // Register this node's group on every Input leaf it reads directly.
        if let Some(g) = group_of[id] {
            for &p in &graph.nodes[id].inputs {
                if matches!(graph.nodes[p].kind, OpKind::Input { .. }) {
                    leaf_groups[p].push(g);
                }
            }
        }
    }

    // Compact: drop merged-away groups, renumber in order of their first
    // member (execution order).
    let mut surviving: Vec<(NodeId, Vec<NodeId>)> = groups
        .iter()
        .filter(|g| g.merged_into.is_none())
        .map(|g| (g.members[0], g.members.clone()))
        .collect();
    surviving.sort_unstable();
    let final_groups: Vec<Vec<NodeId>> = surviving.into_iter().map(|(_, m)| m).collect();
    let mut final_of: Vec<Option<usize>> = vec![None; n];
    for (gi, members) in final_groups.iter().enumerate() {
        for &m in members {
            final_of[m] = Some(gi);
        }
    }
    let plan = FusionPlan { group_of: final_of, groups: final_groups, chains: Vec::new() };
    // Pass sandwich: the legality checker audits every fusion decision. A
    // failure here is a bug in this pass, not in the caller's plan.
    #[cfg(feature = "check")]
    if let Err(e) = crate::check::check_fusion(graph, &plan) {
        panic!("fuse_plan produced an illegal fusion: {e}");
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::OpKind;
    use kfusion_relalg::ops::{Agg, SortBy};
    use kfusion_relalg::predicates;

    fn budget() -> FusionBudget {
        FusionBudget { max_regs_per_thread: 63 }
    }

    fn fuse(g: &PlanGraph) -> FusionPlan {
        fuse_plan(g, &budget(), OptLevel::O3)
    }

    /// Fig. 2(a): back-to-back SELECTs fuse into one kernel.
    #[test]
    fn select_chain_fuses() {
        let mut g = PlanGraph::new();
        let i = g.input(0);
        let s1 = g.add(OpKind::Select { pred: predicates::key_lt(10) }, vec![i]);
        let s2 = g.add(OpKind::Select { pred: predicates::key_lt(5) }, vec![s1]);
        let s3 = g.add(OpKind::Select { pred: predicates::key_lt(3) }, vec![s2]);
        let plan = fuse(&g);
        assert_eq!(plan.groups.len(), 1);
        assert_eq!(plan.groups[0], vec![s1, s2, s3]);
    }

    /// Fig. 2(f): JOIN of two SELECTed tables fuses all three (group merge).
    #[test]
    fn join_of_two_selects_merges_groups() {
        let mut g = PlanGraph::new();
        let a = g.input(0);
        let b = g.input(1);
        let s1 = g.add(OpKind::Select { pred: predicates::key_lt(10) }, vec![a]);
        let s2 = g.add(OpKind::Select { pred: predicates::key_lt(20) }, vec![b]);
        let j = g.add(OpKind::Join, vec![s1, s2]);
        let plan = fuse(&g);
        assert_eq!(plan.groups.len(), 1, "{:?}", plan.groups);
        assert_eq!(plan.groups[0], vec![s1, s2, j]);
    }

    /// Fig. 2(g): SELECT → AGGREGATION fuses, but the group closes.
    #[test]
    fn aggregation_terminates_group() {
        let mut g = PlanGraph::new();
        let i = g.input(0);
        let s = g.add(OpKind::Select { pred: predicates::key_lt(10) }, vec![i]);
        let agg = g.add(OpKind::AggregateAll { aggs: vec![Agg::Count] }, vec![s]);
        let post = g.add(OpKind::Select { pred: predicates::key_lt(10) }, vec![agg]);
        let plan = fuse(&g);
        assert_eq!(plan.group_of[s], plan.group_of[agg], "select fuses with aggregate");
        assert_ne!(plan.group_of[agg], plan.group_of[post], "nothing fuses past aggregate");
    }

    /// SORT is a barrier: its neighbours never join its group (Fig. 17's
    /// plans split exactly at the SORTs).
    #[test]
    fn sort_is_isolated() {
        let mut g = PlanGraph::new();
        let i = g.input(0);
        let s1 = g.add(OpKind::Select { pred: predicates::key_lt(10) }, vec![i]);
        let sort = g.add(OpKind::Sort { by: SortBy::Key }, vec![s1]);
        let _s2 = g.add(OpKind::Select { pred: predicates::key_lt(5) }, vec![sort]);
        let plan = fuse(&g);
        assert_eq!(plan.groups.len(), 3);
        assert_eq!(plan.groups[1], vec![sort]);
    }

    /// Q1's leading block: 6 column-joins + 1 select fuse into one kernel.
    #[test]
    fn q1_leading_block_fuses_completely() {
        let mut g = PlanGraph::new();
        let mut acc = g.input(0);
        for c in 1..7 {
            let col = g.input(c);
            acc = g.add(OpKind::ColumnJoin, vec![acc, col]);
        }
        let sel = g.add(OpKind::Select { pred: predicates::key_lt(100) }, vec![acc]);
        let plan = fuse(&g);
        assert_eq!(plan.groups.len(), 1);
        assert_eq!(plan.groups[0].len(), 7);
        assert_eq!(*plan.groups[0].last().unwrap(), sel);
    }

    /// Fig. 2(c): one SELECT feeding two consumers — both fuse into the same
    /// kernel (multi-output fused kernel).
    #[test]
    fn shared_producer_fuses_with_both_consumers() {
        let mut g = PlanGraph::new();
        let i = g.input(0);
        let s = g.add(OpKind::Select { pred: predicates::key_lt(50) }, vec![i]);
        let a = g.add(OpKind::Select { pred: predicates::key_lt(20) }, vec![s]);
        let b = g.add(OpKind::Select { pred: predicates::key_lt(30) }, vec![s]);
        let plan = fuse(&g);
        assert_eq!(plan.group_of[a], plan.group_of[s]);
        assert_eq!(plan.group_of[b], plan.group_of[s]);
    }

    /// Register pressure bounds fusion depth: a tiny budget forces splits.
    /// Distinct-column predicates, so the analyzed pressure genuinely grows
    /// with depth (same-column chains collapse and never split — see
    /// `same_column_chain_fuses_whole_under_tight_budget`).
    #[test]
    fn register_budget_limits_depth() {
        let mut g = PlanGraph::new();
        let mut cur = g.input(0);
        for k in 0..8 {
            cur = g.add(
                OpKind::Select { pred: predicates::col_cmp_i64(k, kfusion_ir::CmpOp::Lt, 100) },
                vec![cur],
            );
        }
        let tight = FusionBudget { max_regs_per_thread: kfusion_relalg::profiles::STAGE_REGS + 5 };
        let plan = fuse_plan(&g, &tight, OptLevel::O3);
        assert!(plan.groups.len() > 1, "tight budget must split: {:?}", plan.groups);
        let generous = fuse(&g);
        assert_eq!(generous.groups.len(), 1);
    }

    /// The analyzed cost model sees through collapsible chains: the same
    /// tight budget that splits distinct-column predicates keeps a
    /// same-column chain — whose compares combine into one — in one group.
    /// This is a fusion decision the summed per-op estimate gets wrong.
    #[test]
    fn same_column_chain_fuses_whole_under_tight_budget() {
        let mut g = PlanGraph::new();
        let mut cur = g.input(0);
        for k in 0..8 {
            cur = g.add(OpKind::Select { pred: predicates::key_lt(100 + k) }, vec![cur]);
        }
        let tight = FusionBudget { max_regs_per_thread: kfusion_relalg::profiles::STAGE_REGS + 5 };
        let plan = fuse_plan(&g, &tight, OptLevel::O3);
        assert_eq!(plan.groups.len(), 1, "collapsible chain split: {:?}", plan.groups);
    }

    fn three_select_chain(t: u64) -> PlanGraph {
        let mut g = PlanGraph::new();
        let mut cur = g.input(0);
        for k in 0..3 {
            cur = g.add(OpKind::Select { pred: predicates::key_lt(t + k) }, vec![cur]);
        }
        g
    }

    /// A chain only runs on a graph it still describes: same predicates,
    /// same edges, and no interior member read twice or requested.
    #[test]
    fn fused_chain_matches_only_its_own_graph() {
        let g = three_select_chain(10);
        let plan = fuse(&g);
        let chains = select_chains(&g, &plan, &[g.root], OptLevel::O3);
        assert_eq!(chains.len(), 1);
        let chain = &chains[0];
        assert_eq!(chain.members, vec![1, 2, 3]);
        assert_eq!(chain.kernel.outputs.len(), 3, "one running conjunction per member");
        assert!(chain.matches(&g, &g.consumer_counts(), &[g.root]));
        // Another literal on the same shape.
        let other = three_select_chain(20);
        assert!(!chain.matches(&other, &other.consumer_counts(), &[other.root]));
        // An interior member requested as a root.
        assert!(!chain.matches(&g, &g.consumer_counts(), &[g.root, 2]));
        // An interior member read by a second consumer.
        let mut read_twice = g.clone();
        read_twice.add(OpKind::Sort { by: SortBy::Key }, vec![2]);
        assert!(!chain.matches(&read_twice, &read_twice.consumer_counts(), &[3]));
        // Rewired edges.
        let mut rewired = g.clone();
        rewired.nodes[3].inputs = vec![1];
        assert!(!chain.matches(&rewired, &rewired.consumer_counts(), &[3]));
    }

    #[test]
    fn inputs_have_no_group() {
        let mut g = PlanGraph::new();
        let i = g.input(0);
        let s = g.add(OpKind::Select { pred: predicates::key_lt(10) }, vec![i]);
        let plan = fuse(&g);
        assert_eq!(plan.group_of[i], None);
        assert!(plan.group_of[s].is_some());
        assert_eq!(plan.fused_group_count(), 0, "single-op group is not 'fused'");
        assert_eq!(plan.max_group_len(), 1);
    }
}
