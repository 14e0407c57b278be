//! The traced replay: one query at a time through each layer's public
//! entry point, with a benchmark-side span around every call.
//!
//! Per query the replay runs `TableRegistry::compile` (SQL only) →
//! `PlanKey::new` → `prepare_fusion` → `execute_prepared`, then
//! `plan_schedule` → `GpuSystem::simulate`. The functional phase is split
//! per operator class from the host seconds of the EXPLAIN tree that
//! `execute_prepared` returns; `exec.overhead_ms` is the rest of the
//! execute call (schedule build, DES, explain and stats). Nodes of one
//! wavefront evaluate on parallel threads, so on plans with wide waves
//! (Q21) the per-node seconds overlap and the overhead can read negative.
//! Every per-layer figure is a mean per answered query.

use crate::answer::Answer;
use crate::ledger::Ledger;
use crate::metrics::{Metric, OP_CLASSES};
use crate::serve::Tally;
use crate::workload::{Pool, Query};
use kfusion::core::exec::{execute_prepared, plan_schedule, prepare_fusion, ExecConfig};
use kfusion::core::graph::{OpKind, PlanGraph};
use kfusion::core::PlanKey;
use kfusion::server::TableRegistry;
use kfusion::trace::explain::ExplainNode;
use kfusion::vgpu::{Engine, GpuSystem};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The operator class (an index into [`OP_CLASSES`]) a plan node counts
/// under.
fn op_class(kind: &OpKind) -> usize {
    let name = match kind {
        OpKind::Select { .. } => "select",
        OpKind::Arith { .. } | OpKind::ArithExtend { .. } => "arithextend",
        OpKind::Aggregate { .. } | OpKind::AggregateAll { .. } => "aggregate",
        OpKind::Sort { .. } => "sort",
        OpKind::ColumnJoin => "columnjoin",
        OpKind::Semijoin => "semijoin",
        OpKind::Antijoin => "antijoin",
        OpKind::Project { .. } => "project",
        OpKind::Rekey { .. } => "rekey",
        OpKind::Unique => "unique",
        _ => "other",
    };
    OP_CLASSES.iter().position(|&c| c == name).expect("class is listed")
}

/// Host seconds per operator class in an EXPLAIN tree. A node shared by
/// several consumers appears once per consumer in the tree; it is counted
/// once (labels end in `#<node id>`).
fn op_seconds(plan: &PlanGraph, tree: &ExplainNode) -> [f64; OP_CLASSES.len()] {
    let mut out = [0.0; OP_CLASSES.len()];
    let mut seen = HashSet::new();
    let mut stack = vec![tree];
    while let Some(node) = stack.pop() {
        stack.extend(&node.children);
        if !seen.insert(node.label.as_str()) {
            continue;
        }
        let id: usize = node
            .label
            .rsplit('#')
            .next()
            .and_then(|s| s.parse().ok())
            .expect("EXPLAIN labels end in #<node id>");
        out[op_class(&plan.nodes[id].kind)] += node.host_seconds;
    }
    out
}

/// What the replay measured.
#[derive(Debug, Default)]
pub struct Replay {
    /// Every span, for the trace file and the self times.
    pub ledger: Ledger,
    /// Queries replayed (`wrong` left 0: check `answers`).
    pub tally: Tally,
    /// Every answer, by pool index.
    pub answers: Vec<(usize, Answer)>,
    /// Per-layer means over the answered queries.
    pub metrics: Vec<Metric>,
}

/// Replay the first queries of the run's stream (the clients' streams
/// interleaved, as they were served) one at a time, stopping after `limit`
/// queries or once `budget` has passed.
pub fn replay(
    system: &GpuSystem,
    registry: &TableRegistry,
    cfg: &ExecConfig,
    pool: &Pool,
    limit: usize,
    budget: Duration,
) -> Replay {
    let began = Instant::now();
    let mut ledger = Ledger::new();
    let mut tally = Tally::default();
    let mut answers = Vec::new();
    let mut ops = [0.0; OP_CLASSES.len()];
    let (mut groups, mut sim) = (0usize, [0.0; 3]);
    let order = (0..).flat_map(|k| pool.streams.iter().map(move |s| s[k % s.len()]));
    for (n, idx) in order.take(limit).enumerate() {
        if began.elapsed() >= budget {
            break;
        }
        let q = n as u32;
        tally.attempted += 1;
        let root = ledger.open(q, None, "query");
        let plan = match &pool.queries[idx] {
            Query::Sql(text) => {
                match ledger.time(q, Some(root), "frontend.compile", || registry.compile(text)) {
                    Ok(compiled) => compiled.plan,
                    Err(_) => {
                        ledger.close(root);
                        tally.failed += 1;
                        continue;
                    }
                }
            }
            Query::Plan(plan) => plan.clone(),
        };
        black_box(
            ledger.time(q, Some(root), "cache.key", || PlanKey::new(&plan, &cfg.budget, cfg.level)),
        );
        let tables = registry.tables();
        let run = ledger.time(q, Some(root), "prepare", || prepare_fusion(&plan, cfg)).and_then(
            |fusion| {
                let res = ledger.time(q, Some(root), "execute", || {
                    execute_prepared(system, &plan, tables, cfg, &fusion)
                })?;
                let schedule = ledger.time(q, Some(root), "schedule", || {
                    plan_schedule(system, &plan, tables, cfg)
                })?;
                black_box(
                    ledger.time(q, Some(root), "des.simulate", || system.simulate(&schedule))?,
                );
                Ok((res, fusion))
            },
        );
        ledger.close(root);
        let Ok((res, fusion)) = run else {
            tally.failed += 1;
            continue;
        };
        tally.answered += 1;
        answers.push((idx, Answer::of(&res.output)));
        for (acc, s) in ops.iter_mut().zip(op_seconds(&plan, &res.explain)) {
            *acc += s;
        }
        groups += fusion.groups.len();
        for (acc, e) in sim.iter_mut().zip([Engine::CopyH2D, Engine::Compute, Engine::CopyD2H]) {
            *acc += res.report.engine_time(e);
        }
    }
    let n = tally.answered.max(1) as f64;
    let self_s = ledger.self_seconds();
    let per_query = |name: &str, scale: f64| self_s.get(name).copied().unwrap_or(0.0) / n * scale;
    let functional = ops.iter().sum::<f64>() / n * 1e3;
    let exec_wall = per_query("execute", 1e3);
    let mut metrics = vec![
        Metric::new("ledger.queries", tally.answered as f64, "count"),
        Metric::new("frontend.compile_us", per_query("frontend.compile", 1e6), "us"),
        Metric::new("cache.key_us", per_query("cache.key", 1e6), "us"),
        Metric::new("prepare.us", per_query("prepare", 1e6), "us"),
        Metric::new("prepare.fused_groups", groups as f64 / n, "count"),
        Metric::new("exec.wall_ms", exec_wall, "ms"),
        Metric::new("exec.functional_ms", functional, "ms"),
        Metric::new("exec.overhead_ms", exec_wall - functional, "ms"),
    ];
    metrics.extend(
        OP_CLASSES
            .iter()
            .zip(ops)
            .map(|(c, s)| Metric::new(format!("op.{c}_ms"), s / n * 1e3, "ms")),
    );
    metrics.push(Metric::new("des.simulate_us", per_query("des.simulate", 1e6), "us"));
    for (name, s) in ["sim.h2d_ms", "sim.compute_ms", "sim.d2h_ms"].into_iter().zip(sim) {
        metrics.push(Metric::new(name, s / n * 1e3, "ms"));
    }
    Replay { ledger, tally, answers, metrics }
}
