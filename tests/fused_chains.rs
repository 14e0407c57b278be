//! Fused SELECT chains on the host: a chain of back-to-back SELECTs in one
//! fusion group runs as one pass of its fused predicate kernel (DESIGN.md
//! §17). These tests pin that the pass really runs where it should, that it
//! changes neither answers nor the sizes every later layer reads, and that
//! `plan_schedule` builds exactly the schedule `execute` simulates.

use kfusion::core::exec::{execute, plan_schedule, prepare_fusion, ExecConfig, Strategy};
use kfusion::core::PlanGraph;
use kfusion::relalg::Relation;
use kfusion::tpch::gen::{generate, TpchConfig};
use kfusion::tpch::{q21, sql};
use kfusion::trace::explain::ExplainNode;
use kfusion::vgpu::GpuSystem;

fn q6_sql_case(scale: f64) -> (PlanGraph, Vec<Relation>) {
    let db = generate(TpchConfig::scale(scale));
    let plan = kfusion::frontend::compile(&sql::q6_sql(), &sql::q6_catalog()).unwrap().plan;
    (plan, vec![sql::q6_wide_table(&db)])
}

/// Every node of an EXPLAIN tree, root first.
fn flatten(node: &ExplainNode, out: &mut Vec<ExplainNode>) {
    out.push(ExplainNode { children: Vec::new(), ..node.clone() });
    for c in &node.children {
        flatten(c, out);
    }
}

fn nodes(tree: &ExplainNode) -> Vec<ExplainNode> {
    let mut v = Vec::new();
    flatten(tree, &mut v);
    v
}

#[test]
fn q6_sql_runs_one_fused_pass_with_serial_row_counts() {
    let sys = GpuSystem::c2070();
    let (plan, inputs) = q6_sql_case(0.01);
    let fused = execute(&sys, &plan, &inputs, &ExecConfig::new(Strategy::Fusion, &sys)).unwrap();
    let serial = execute(&sys, &plan, &inputs, &ExecConfig::new(Strategy::Serial, &sys)).unwrap();
    assert!(sql::bit_identical(&fused.output, &serial.output), "fused pass changed the answer");

    let (fused_nodes, serial_nodes) = (nodes(&fused.explain), nodes(&serial.explain));
    let selects: Vec<&ExplainNode> =
        fused_nodes.iter().filter(|n| n.label.starts_with("select#")).collect();
    assert_eq!(selects.len(), 5, "Q6 SQL lowers to one SELECT per conjunct");
    assert!(
        selects.iter().all(|n| n.fused_pass == Some(0)),
        "every SELECT must run in fused pass 0: {selects:?}"
    );
    let passes: std::collections::BTreeSet<usize> =
        fused_nodes.iter().filter_map(|n| n.fused_pass).collect();
    assert_eq!(passes.len(), 1, "exactly one fused chain pass");
    assert!(serial_nodes.iter().all(|n| n.fused_pass.is_none()), "serial plans never fuse");
    // The chain's rows shrink monotonically (the test is not vacuous).
    assert!(selects.windows(2).all(|w| w[0].rows <= w[1].rows));
    assert!(selects.last().unwrap().rows > selects[0].rows);

    let rows = |ns: &[ExplainNode]| -> Vec<(String, u64)> {
        ns.iter().map(|n| (n.label.clone(), n.rows)).collect()
    };
    assert_eq!(rows(&fused_nodes), rows(&serial_nodes), "per-node rows differ from Serial");
}

/// `plan_schedule` runs the same functional phase as `execute`, fused
/// chains included, so simulating its schedule reproduces `execute`'s
/// timeline span for span.
#[test]
fn plan_schedule_matches_the_schedule_execute_simulates() {
    let sys = GpuSystem::c2070();
    let db = generate(TpchConfig::scale(0.01));
    let (q6_plan, q6_inputs) = q6_sql_case(0.01);
    let cases = [
        (q6_plan, q6_inputs, Strategy::Fusion),
        (q21::q21_plan(7), q21::q21_inputs(&db), Strategy::FusionFission { segments: 4 }),
    ];
    for (plan, inputs, strategy) in cases {
        let cfg = ExecConfig::new(strategy, &sys);
        let executed = execute(&sys, &plan, &inputs, &cfg).unwrap();
        let schedule = plan_schedule(&sys, &plan, &inputs, &cfg).unwrap();
        let replayed = sys.simulate(&schedule).unwrap();
        let spans = |t: &kfusion::vgpu::Timeline| -> Vec<(String, usize, u64, u64)> {
            t.spans
                .iter()
                .map(|s| (s.label.clone(), s.stream, s.start.to_bits(), s.end.to_bits()))
                .collect()
        };
        assert!(!replayed.spans.is_empty());
        assert_eq!(spans(&replayed), spans(&executed.report.timeline), "{strategy:?}");
        assert_eq!(replayed.total().to_bits(), executed.report.total().to_bits(), "{strategy:?}");
    }
}

/// A prepared plan carries its chains' fused kernels. Executed against a
/// graph of the same shape but different predicate literals — what a
/// plan-cache fingerprint collision would hand the executor — the chain
/// no longer matches, runs node by node, and the answer stays the graph's.
#[test]
fn a_prepared_chain_never_runs_on_a_graph_it_does_not_match() {
    let sys = GpuSystem::c2070();
    let (plan, inputs) = q6_sql_case(0.01);
    let cfg = ExecConfig::new(Strategy::Fusion, &sys);
    let prepared = prepare_fusion(&plan, &cfg).unwrap();
    assert_eq!(prepared.chains.len(), 1);

    let other_sql = sql::q6_sql().replace("quantity < 24", "quantity < 30");
    assert_ne!(other_sql, sql::q6_sql());
    let other = kfusion::frontend::compile(&other_sql, &sql::q6_catalog()).unwrap().plan;
    let got =
        kfusion::core::exec::execute_prepared(&sys, &other, &inputs, &cfg, &prepared).unwrap();
    let want = execute(&sys, &other, &inputs, &cfg).unwrap();
    assert!(sql::bit_identical(&got.output, &want.output), "stale chain changed the answer");
    assert!(nodes(&got.explain).iter().all(|n| n.fused_pass.is_none()), "stale chain ran");
    assert!(nodes(&want.explain).iter().any(|n| n.fused_pass.is_some()), "own chain did not run");
}
