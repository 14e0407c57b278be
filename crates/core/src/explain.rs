//! Building `EXPLAIN ANALYZE` trees from executed plans.
//!
//! The generic node shape and renderer live in [`kfusion_trace::explain`];
//! this module does the attribution work that needs planner knowledge:
//! mapping timeline span labels back to plan nodes and fusion groups,
//! pairing measured cardinalities and host evaluation times with nodes,
//! and asking the register analysis for each group's pressure.

use crate::cost::group_regs;
use crate::fusion::FusionPlan;
use crate::graph::{NodeId, PlanGraph};
use kfusion_ir::opt::OptLevel;
use kfusion_trace::explain::ExplainNode;
use kfusion_vgpu::Timeline;

/// Measurements the executor hands to [`build_explain`], one slot per plan
/// node (indexed by [`NodeId`]).
pub struct NodeMeasurements<'a> {
    /// Rows each node produced in the functional phase.
    pub rows: &'a [u64],
    /// Host wall-clock seconds of each node's functional evaluation.
    pub host_seconds: &'a [f64],
    /// The fused chain pass that evaluated each node, if any.
    pub fused_pass: &'a [Option<usize>],
}

/// Attribute the simulated timeline to plan nodes.
///
/// Labels follow the executor's naming scheme: per-node kernels and
/// transfers end in `#<id>` (`filter#3`, `in#0`, `tmp_out#5`), fused-group
/// kernels end in `#g<gidx>`, and fission segments append `[seg<k>]`.
/// Group time is split evenly across the group's members — the fused
/// kernel is one indivisible launch, so an even split is the honest
/// per-node estimate.
fn sim_seconds_per_node(graph: &PlanGraph, fusion: &FusionPlan, timeline: &Timeline) -> Vec<f64> {
    let mut node_time = vec![0.0f64; graph.len()];
    let mut group_time = vec![0.0f64; fusion.groups.len()];
    for span in &timeline.spans {
        let mut label = span.label.as_str();
        if let Some(seg) = label.rfind("[seg") {
            if label.ends_with(']') {
                label = &label[..seg];
            }
        }
        let Some(hash) = label.rfind('#') else { continue };
        let tail = &label[hash + 1..];
        let dur = span.end - span.start;
        if let Some(g) = tail.strip_prefix('g') {
            if let Ok(g) = g.parse::<usize>() {
                if g < group_time.len() {
                    group_time[g] += dur;
                }
            }
        } else if let Ok(id) = tail.parse::<usize>() {
            if id < node_time.len() {
                node_time[id] += dur;
            }
        }
    }
    for (g, members) in fusion.groups.iter().enumerate() {
        if members.is_empty() {
            continue;
        }
        let share = group_time[g] / members.len() as f64;
        for &m in members {
            node_time[m] += share;
        }
    }
    node_time
}

fn build_node(
    graph: &PlanGraph,
    fusion: &FusionPlan,
    sim: &[f64],
    m: &NodeMeasurements<'_>,
    level: OptLevel,
    id: NodeId,
) -> ExplainNode {
    let node = &graph.nodes[id];
    let fusion_group = fusion.group_of[id];
    let max_live_regs = match fusion_group {
        Some(g) => group_regs(graph, &fusion.groups[g], level),
        None => 0,
    };
    ExplainNode {
        label: format!("{}#{id}", node.kind.name().to_lowercase()),
        rows: m.rows.get(id).copied().unwrap_or(0),
        sim_seconds: sim.get(id).copied().unwrap_or(0.0),
        host_seconds: m.host_seconds.get(id).copied().unwrap_or(0.0),
        fused_pass: m.fused_pass.get(id).copied().flatten(),
        fusion_group,
        max_live_regs,
        children: node
            .inputs
            .iter()
            .map(|&p| build_node(graph, fusion, sim, m, level, p))
            .collect(),
    }
}

/// Build the `EXPLAIN ANALYZE` tree for an executed plan, rooted at `root`.
///
/// The plan is a DAG; nodes with several consumers appear once per
/// consumer in the tree (standard EXPLAIN practice), each occurrence
/// carrying the same measurements.
pub fn build_explain(
    graph: &PlanGraph,
    fusion: &FusionPlan,
    timeline: &Timeline,
    measurements: &NodeMeasurements<'_>,
    level: OptLevel,
    root: NodeId,
) -> ExplainNode {
    let sim = sim_seconds_per_node(graph, fusion, timeline);
    build_node(graph, fusion, &sim, measurements, level, root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::OpKind;
    use kfusion_relalg::{gen, predicates};
    use kfusion_vgpu::des::Span;
    use kfusion_vgpu::{CommandClass, Engine};

    fn span(label: &str, start: f64, end: f64) -> Span {
        Span {
            stream: 0,
            index: 0,
            label: label.into(),
            class: CommandClass::Compute,
            engine: Some(Engine::Compute),
            start,
            end,
        }
    }

    fn two_select_graph() -> PlanGraph {
        let mut g = PlanGraph::new();
        let i = g.input(0);
        let t = gen::threshold_for_selectivity(0.5);
        let s1 = g.add(OpKind::Select { pred: predicates::key_lt(t) }, vec![i]);
        g.add(OpKind::Select { pred: predicates::key_lt(t) }, vec![s1]);
        g
    }

    #[test]
    fn attributes_node_group_and_segment_labels() {
        let graph = two_select_graph();
        // One fused group holding both selects.
        let fusion = FusionPlan {
            group_of: vec![None, Some(0), Some(0)],
            groups: vec![vec![1, 2]],
            chains: Vec::new(),
        };
        let timeline = Timeline {
            spans: vec![
                span("in#0", 0.0, 1.0),
                span("fused_compute#g0", 1.0, 3.0),
                span("fused_gather#g0[seg1]", 3.0, 4.0),
                span("out#2", 4.0, 4.5),
            ],
        };
        let rows = [100, 50, 25];
        let host = [0.0, 0.001, 0.002];
        let m = NodeMeasurements { rows: &rows, host_seconds: &host, fused_pass: &[] };
        let tree = build_explain(&graph, &fusion, &timeline, &m, OptLevel::O3, 2);
        assert_eq!(tree.count(), 3);
        assert_eq!(tree.label, "select#2");
        assert_eq!(tree.rows, 25);
        assert_eq!(tree.fusion_group, Some(0));
        assert!(tree.max_live_regs > 0);
        // Group time (2s compute + 1s segmented gather) splits evenly over
        // the two members; node 2 also owns its 0.5s output transfer.
        assert!((tree.sim_seconds - 2.0).abs() < 1e-12, "{}", tree.sim_seconds);
        let sel1 = &tree.children[0];
        assert_eq!(sel1.label, "select#1");
        assert!((sel1.sim_seconds - 1.5).abs() < 1e-12);
        let input = &sel1.children[0];
        assert_eq!(input.label, "input#0");
        assert_eq!(input.fusion_group, None);
        assert_eq!(input.max_live_regs, 0);
        assert!((input.sim_seconds - 1.0).abs() < 1e-12);
        assert!(tree.render().contains("EXPLAIN ANALYZE"));
    }
}
