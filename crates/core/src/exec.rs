//! The plan executor: functional evaluation plus simulated timing under the
//! paper's optimization strategies.
//!
//! Execution is two-phase. The **functional phase** evaluates every node of
//! the [`PlanGraph`] on real relations (host threads), which both produces
//! the query answer and measures every intermediate cardinality; under the
//! fused strategies each SELECT chain of a fusion group runs as one pass of
//! its fused predicate kernel ([`FusedChain`]). The **timing phase** then
//! emits the strategy's command stream — whose kernel profiles and transfer
//! sizes are driven by those measured cardinalities — and runs it through
//! the virtual GPU's discrete-event simulator.
//!
//! Strategies mirror the paper's evaluation (§V):
//!
//! * [`Strategy::Serial`] — the "not optimized" baseline: one kernel set
//!   per operator, intermediates resident in GPU memory.
//! * [`Strategy::SerialRoundTrip`] — additionally bounces every
//!   intermediate through the CPU (forced when GPU memory is short).
//! * [`Strategy::Fusion`] — kernels merged per the fusion pass.
//! * [`Strategy::Fission`] — unfused kernels whose leading streamable
//!   operators are segmented and pipelined over streams (§IV-B).
//! * [`Strategy::FusionFission`] — fused kernels whose leading streamable
//!   groups are segmented and pipelined over streams to hide the input
//!   transfer (the paper's combined optimization on Q1/Q21).
//!
//! The timing phase is one public entry point, [`build_schedule`]: it
//! needs only per-node sizes ([`Stats`]), so the micro-benchmark harnesses
//! ([`crate::microbench`]) drive it with measured or expected
//! cardinalities of a SELECT chain, and every figure shares one schedule
//! builder and one segmenter.

use crate::cost::{group_regs, member_instr, FusionBudget};
use crate::deps::streamable;
use crate::fusion::{fuse_plan, select_chains, FusedChain, FusionPlan};
use crate::graph::{NodeId, OpKind, PlanGraph};
use crate::report::Report;
use crate::CoreError;
use kfusion_ir::fuse::fuse_predicate_chain;
use kfusion_ir::opt::OptLevel;
use kfusion_relalg::profiles::{
    self, FILTER_BOOKKEEPING_BYTES, FILTER_STAGE_INSTR, STREAM_MEM_EFF,
};
use kfusion_relalg::{ops, Relation};
use kfusion_vgpu::des::EventId;
use kfusion_vgpu::{
    segment, Command, CommandClass, GpuSystem, HostMemKind, KernelProfile, LaunchConfig, Schedule,
};

pub use kfusion_relalg::engine::Engine;

/// Execution strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Unfused kernels, intermediates stay on the GPU ("not optimized").
    Serial,
    /// Unfused kernels, every intermediate round-trips over PCIe.
    SerialRoundTrip,
    /// Kernel fusion only.
    Fusion,
    /// Kernel fission alone: the unfused (singleton) plan with its
    /// streamable leading operators pipelined.
    Fission {
        /// Segments per pipeline.
        segments: u32,
    },
    /// Kernel fusion plus fission on streamable leading groups.
    FusionFission {
        /// Segments per pipelined group.
        segments: u32,
    },
}

/// Streams the fission pipelines rotate segments over — the paper's
/// minimum for full C2070 concurrency.
pub const FISSION_STREAMS: usize = 3;

/// Host-side reassembly bandwidth of the CPU gather that stitches a
/// pipelined result back together (bytes/s).
pub const CPU_GATHER_BW: f64 = 4.0e9;

/// Executor configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExecConfig {
    /// Strategy to simulate.
    pub strategy: Strategy,
    /// Optimization level for IR bodies.
    pub level: OptLevel,
    /// Host memory kind for synchronous transfers (fission always pins).
    pub mem_kind: HostMemKind,
    /// Register budget for the fusion pass.
    pub budget: FusionBudget,
    /// Host engine for the functional phase. Answers and simulated times
    /// are identical under both; only host wall-clock differs.
    pub engine: Engine,
}

impl ExecConfig {
    /// A configuration for `strategy` with paper defaults (O3, paged
    /// synchronous transfers, device register budget, batch engine).
    pub fn new(strategy: Strategy, system: &GpuSystem) -> Self {
        ExecConfig {
            strategy,
            level: OptLevel::O3,
            mem_kind: HostMemKind::Paged,
            budget: FusionBudget::for_device(&system.spec),
            engine: Engine::Batch,
        }
    }
}

/// The outcome of an execution: the real answer plus the simulated report.
#[derive(Debug)]
pub struct ExecResult {
    /// The query result (root node's relation).
    pub output: Relation,
    /// Simulated timing.
    pub report: Report,
    /// `EXPLAIN ANALYZE` tree: per-node rows, simulated time, host time,
    /// fusion-group membership, and register pressure.
    pub explain: kfusion_trace::explain::ExplainNode,
    /// The fusion plan used (singleton groups under serial strategies).
    pub fusion: FusionPlan,
    /// Peak simulated GPU-memory residency with intermediates kept on the
    /// device (a liveness scan over the topological order: inputs resident
    /// from upload, each output allocated at its definition and released
    /// after its last consumer).
    pub peak_resident_bytes: u64,
}

/// Execute `graph` over `inputs` on `system` with `cfg`.
pub fn execute(
    system: &GpuSystem,
    graph: &PlanGraph,
    inputs: &[Relation],
    cfg: &ExecConfig,
) -> Result<ExecResult, CoreError> {
    run_plan(system, graph, inputs, cfg, &[graph.root], None).map(Run::into_result)
}

/// Run the compile-side pipeline alone — verify (under the `check`
/// feature), then fuse at `cfg.level` under `cfg.budget` and build each
/// group's fused SELECT-chain kernel — and return the [`FusionPlan`] it
/// settles on. This is the expensive per-*shape* half of an execution;
/// `kfusion-server` caches its result behind an `Arc` so concurrent
/// submissions of structurally identical plans pay it once.
///
/// Serial strategies get the singleton plan the executor would build for
/// them, so a cached plan is valid for exactly the `(strategy-class,
/// budget, level)` it was prepared under.
pub fn prepare_fusion(graph: &PlanGraph, cfg: &ExecConfig) -> Result<FusionPlan, CoreError> {
    #[cfg(feature = "check")]
    crate::check::check_plan(graph)?;
    #[cfg(not(feature = "check"))]
    graph.validate()?;
    let _span =
        kfusion_trace::enabled().then(|| kfusion_trace::host_span("host", "prepare_fusion"));
    Ok(plan_for(graph, cfg, &[graph.root]))
}

/// The fusion plan `cfg.strategy` runs for `roots`: singleton groups (and
/// no fused chains) for the unfused strategies, the fusion pass's groups
/// and their SELECT chains otherwise.
fn plan_for(graph: &PlanGraph, cfg: &ExecConfig, roots: &[NodeId]) -> FusionPlan {
    match cfg.strategy {
        Strategy::Serial | Strategy::SerialRoundTrip | Strategy::Fission { .. } => {
            singleton_plan(graph)
        }
        Strategy::Fusion | Strategy::FusionFission { .. } => {
            let mut plan = fuse_plan(graph, &cfg.budget, cfg.level);
            plan.chains = select_chains(graph, &plan, roots, cfg.level);
            plan
        }
    }
}

/// The device schedule [`execute`] would simulate for `(graph, inputs,
/// cfg)`, without simulating it — the compile-side artifact the static
/// schedule certifier (`kfusion-model::certify`) proves deadlock-freedom
/// and memory bounds over.
///
/// Runs the compile-side pipeline and the same functional phase as
/// [`execute`] (schedules are sized from real cardinalities, so certifying
/// a schedule certifies it for the actual data, not a guess), then builds
/// the schedule exactly as execution would.
pub fn plan_schedule(
    system: &GpuSystem,
    graph: &PlanGraph,
    inputs: &[Relation],
    cfg: &ExecConfig,
) -> Result<Schedule, CoreError> {
    let fusion = prepare_fusion(graph, cfg)?;
    let roots = [graph.root];
    let functional = functional_phase(graph, inputs, cfg, &roots, &fusion)?;
    Ok(build_schedule(system, graph, &fusion, &functional.stats, cfg, &roots))
}

/// [`execute`], but with the compile-side pipeline already done: `fusion`
/// must come from [`prepare_fusion`] on a structurally identical graph
/// under the same `cfg`. The full plan check is skipped (it ran in
/// `prepare_fusion`); only the cheap structural validation repeats.
///
/// The functional phase runs the plan's fused SELECT chains, so a plan
/// prepared for a different graph could change the answer. Before each
/// pass the executor checks that the chain still matches this graph —
/// member ids, edges, predicate bodies (`==`) and roots
/// (`FusedChain::matches`); a chain that does not match runs node by
/// node. A fingerprint collision in the plan cache can therefore perturb
/// timing only, never the answer.
pub fn execute_prepared(
    system: &GpuSystem,
    graph: &PlanGraph,
    inputs: &[Relation],
    cfg: &ExecConfig,
    fusion: &FusionPlan,
) -> Result<ExecResult, CoreError> {
    run_plan(system, graph, inputs, cfg, &[graph.root], Some(fusion)).map(Run::into_result)
}

/// Multi-root execution used by [`crate::multiquery`]: same engine, one
/// output per requested root.
pub(crate) fn execute_multi_impl(
    system: &GpuSystem,
    graph: &PlanGraph,
    inputs: &[Relation],
    cfg: &ExecConfig,
    roots: &[NodeId],
    prepared: Option<&FusionPlan>,
) -> Result<crate::multiquery::MultiResult, CoreError> {
    let run = run_plan(system, graph, inputs, cfg, roots, prepared)?;
    Ok(crate::multiquery::MultiResult {
        outputs: run.outputs,
        report: run.report,
        fusion: run.fusion,
    })
}

/// Everything one [`run_plan`] produces.
struct Run {
    /// The relations at the requested roots, in order.
    outputs: Vec<Relation>,
    report: Report,
    /// Rooted at the first requested root.
    explain: kfusion_trace::explain::ExplainNode,
    fusion: FusionPlan,
    peak: u64,
}

impl Run {
    fn into_result(mut self) -> ExecResult {
        ExecResult {
            output: self.outputs.pop().expect("one root"),
            report: self.report,
            explain: self.explain,
            fusion: self.fusion,
            peak_resident_bytes: self.peak,
        }
    }
}

/// The shared engine: check, fusion plan, functional phase, schedule,
/// simulate.
fn run_plan(
    system: &GpuSystem,
    graph: &PlanGraph,
    inputs: &[Relation],
    cfg: &ExecConfig,
    roots: &[NodeId],
    prepared: Option<&FusionPlan>,
) -> Result<Run, CoreError> {
    // With the `check` feature (default-on) the full plan verifier runs —
    // body typing, column bounds, sortedness preconditions — so executor
    // and simulator only ever see plans that cannot trip their own asserts.
    // A prepared fusion plan certifies the full check already ran (in
    // `prepare_fusion`) on this structure; only the cheap validation stays.
    let fusion = match prepared {
        Some(p) => {
            graph.validate()?;
            p.clone()
        }
        None => {
            #[cfg(feature = "check")]
            crate::check::check_plan(graph)?;
            #[cfg(not(feature = "check"))]
            graph.validate()?;
            plan_for(graph, cfg, roots)
        }
    };
    let mut functional = {
        let _phase = kfusion_trace::host_span("host", "functional_phase");
        functional_phase(graph, inputs, cfg, roots, &fusion)?
    };
    let stats = &functional.stats;

    // ---- Timing phase -----------------------------------------------------
    let timeline = {
        let _phase = kfusion_trace::host_span("host", "timing_phase");
        system.simulate(&build_schedule(system, graph, &fusion, stats, cfg, roots))?
    };
    let input_bytes: f64 = plan_input_bytes(graph, stats);
    let elements: u64 = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| matches!(n.kind, OpKind::Input { .. }))
        .map(|(id, _)| stats.rows[id])
        .sum();
    let peak = peak_resident_bytes(graph, stats);
    let measurements = crate::explain::NodeMeasurements {
        rows: &stats.rows,
        host_seconds: &functional.host_secs,
        fused_pass: &functional.pass_of,
    };
    let explain = crate::explain::build_explain(
        graph,
        &fusion,
        &timeline,
        &measurements,
        cfg.level,
        roots[0],
    );
    let outputs = take_roots(&mut functional.slots, roots);
    Ok(Run { outputs, report: Report::new(timeline, elements, input_bytes), explain, fusion, peak })
}

/// The relations at `roots`, in order. An owned result moves out of its
/// slot; only a borrowed plan input, or a root requested again later in
/// `roots`, is cloned.
fn take_roots(slots: &mut [Option<NodeVal>], roots: &[NodeId]) -> Vec<Relation> {
    roots
        .iter()
        .enumerate()
        .map(|(i, &r)| match slots[r].take().expect("roots are never stolen") {
            NodeVal::Owned(rel) if !roots[i + 1..].contains(&r) => rel,
            val => {
                let rel = val.as_rel().clone();
                slots[r] = Some(val);
                rel
            }
        })
        .collect()
}

/// How the functional phase evaluates one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Its own operator.
    Node,
    /// The last member of fused chain `c` (an index into
    /// [`FusionPlan::chains`]): the whole chain runs here.
    Chain(usize),
    /// An earlier chain member, evaluated by its chain's step.
    InChain,
}

/// What the functional phase leaves behind.
struct Functional<'a> {
    /// Node results not stolen or skipped; every requested root is here.
    slots: Vec<Option<NodeVal<'a>>>,
    /// Every node's measured size, for the timing phase.
    stats: Stats,
    /// Host wall-clock seconds per node (EXPLAIN's `host=` column).
    host_secs: Vec<f64>,
    /// Per node: the fused chain pass that evaluated it, if any.
    pass_of: Vec<Option<usize>>,
}

/// One evaluated step: the value of its node plus, for every node the step
/// evaluated (a chain's members, or the node alone), its rows and host
/// seconds. Every such node has the value's schema.
struct StepOut<'a> {
    val: NodeVal<'a>,
    measured: Vec<(NodeId, u64, f64)>,
    /// The chain whose fused pass produced `val`.
    pass: Option<usize>,
}

/// The functional phase: evaluate every node of `graph` on real relations
/// (host threads), producing the answer and measuring every cardinality.
///
/// Independent nodes evaluate in parallel: topological wavefronts (a
/// node's level is one past its deepest input) run on scoped threads,
/// results land indexed by node id, and a wave's errors surface in id
/// order — so answers are deterministic and identical to a serial loop.
///
/// Under the batch engine each of `fusion`'s SELECT chains that still
/// matches the graph runs as one step at its last member: one pass of the
/// chain's fused kernel and one gather ([`ops::select_fused`]). Every
/// member still gets its exact row count, so the schedule, the residency
/// scan and EXPLAIN see the same sizes as node-by-node evaluation; the
/// other operators run on the chain's result unchanged.
fn functional_phase<'a>(
    graph: &PlanGraph,
    inputs: &'a [Relation],
    cfg: &ExecConfig,
    roots: &[NodeId],
    fusion: &FusionPlan,
) -> Result<Functional<'a>, CoreError> {
    let consumers = graph.consumer_counts();
    let mut steps = vec![Step::Node; graph.len()];
    if cfg.engine == Engine::Batch {
        for (c, chain) in fusion.chains.iter().enumerate() {
            if chain.matches(graph, &consumers, roots)
                && chain.members.iter().all(|&m| steps[m] == Step::Node)
            {
                let (&last, interior) = chain.members.split_last().expect("matched chain");
                for &m in interior {
                    steps[m] = Step::InChain;
                }
                steps[last] = Step::Chain(c);
            }
        }
    }
    let n = graph.len();
    // Cardinalities are captured the moment a slot fills, because a
    // downstream in-place operator may later *steal* the relation out of a
    // single-consumer slot (see `steal_input`) — the timing phase still
    // needs every node's measured size.
    let mut f = Functional {
        slots: (0..n).map(|_| None).collect(),
        stats: Stats { rows: vec![0; n], row_bytes: vec![0.0; n] },
        host_secs: vec![0.0; n],
        pass_of: vec![None; n],
    };
    let record = |f: &mut Functional<'a>, id: NodeId, out: StepOut<'a>| {
        let row_bytes = out.val.as_rel().row_bytes() as f64;
        for (m, rows, secs) in out.measured {
            f.stats.rows[m] = rows;
            f.stats.row_bytes[m] = row_bytes;
            f.host_secs[m] = secs;
            f.pass_of[m] = out.pass;
        }
        f.slots[id] = Some(out.val);
    };
    for (level, wave) in wavefronts(graph).into_iter().enumerate() {
        let wave: Vec<NodeId> = wave.into_iter().filter(|&id| steps[id] != Step::InChain).collect();
        if wave.is_empty() {
            continue;
        }
        let _wave = kfusion_trace::enabled()
            .then(|| kfusion_trace::host_span("host", &format!("wave#{level}")));
        if let [id] = wave[..] {
            let stolen = steal_input(graph, id, roots, &consumers, &mut f.slots);
            let out =
                eval_step(graph, fusion, id, steps[id], inputs, &f.slots, stolen, cfg.engine)?;
            record(&mut f, id, out);
        } else {
            let mut stolen: Vec<Option<Relation>> = wave
                .iter()
                .map(|&id| steal_input(graph, id, roots, &consumers, &mut f.slots))
                .collect();
            type WaveResults<'a> = Vec<(NodeId, Result<StepOut<'a>, CoreError>)>;
            let evaluated: WaveResults = std::thread::scope(|scope| {
                let handles: Vec<_> = wave
                    .iter()
                    .zip(stolen.iter_mut().map(Option::take))
                    .map(|(&id, st)| {
                        let slots = &f.slots;
                        let (step, engine) = (steps[id], cfg.engine);
                        (
                            id,
                            scope.spawn(move || {
                                eval_step(graph, fusion, id, step, inputs, slots, st, engine)
                            }),
                        )
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|(id, h)| (id, h.join().expect("plan node evaluation panicked")))
                    .collect()
            });
            for (id, r) in evaluated {
                record(&mut f, id, r?);
            }
        }
    }
    Ok(f)
}

/// Evaluate one step under a host trace span, timing it (the EXPLAIN
/// tree's `host=` column). Runs on the wave's thread, so parallel nodes
/// land on distinct host lanes.
#[allow(clippy::too_many_arguments)]
fn eval_step<'a>(
    graph: &PlanGraph,
    fusion: &FusionPlan,
    id: NodeId,
    step: Step,
    inputs: &'a [Relation],
    slots: &[Option<NodeVal<'a>>],
    stolen: Option<Relation>,
    engine: Engine,
) -> Result<StepOut<'a>, CoreError> {
    if let Step::Chain(c) = step {
        return run_chain(graph, c, &fusion.chains[c], slots, engine);
    }
    let (val, secs) = eval_node_timed(graph, id, inputs, slots, stolen, engine)?;
    Ok(StepOut { measured: vec![(id, val.as_rel().len() as u64, secs)], val, pass: None })
}

/// Run fused chain `c`: one pass of its fused kernel over the chain's
/// input, or — when the pass declines ([`ops::select_fused`]) — its
/// members one after another, exactly as node-by-node evaluation would.
/// The pass is one indivisible evaluation, so its host time is charged to
/// the member whose result it materializes, the last.
fn run_chain<'a>(
    graph: &PlanGraph,
    c: usize,
    chain: &FusedChain,
    slots: &[Option<NodeVal<'a>>],
    engine: Engine,
) -> Result<StepOut<'a>, CoreError> {
    let (first, last) = (chain.members[0], *chain.members.last().expect("matched chain"));
    let input = slots[graph.nodes[first].inputs[0]].as_ref().expect("input wave completed");
    let input = input.as_rel();
    {
        let _span = kfusion_trace::enabled()
            .then(|| kfusion_trace::host_span("host", &format!("select_chain#{first}-{last}")));
        let t0 = std::time::Instant::now();
        if let Some((rel, counts)) = ops::select_fused(input, &chain.preds, &chain.kernel) {
            let secs = t0.elapsed().as_secs_f64();
            kfusion_trace::counter("kfusion_host_fused_chain_passes_total", 1);
            let measured = chain
                .members
                .iter()
                .zip(counts)
                .map(|(&m, rows)| (m, rows, if m == last { secs } else { 0.0 }))
                .collect();
            return Ok(StepOut { val: NodeVal::Owned(rel), measured, pass: Some(c) });
        }
    }
    let mut measured = Vec::with_capacity(chain.members.len());
    let mut cur: Option<Relation> = None;
    for (&m, pred) in chain.members.iter().zip(&chain.preds) {
        let _span = kfusion_trace::enabled()
            .then(|| kfusion_trace::host_span("host", &format!("select#{m}")));
        let t0 = std::time::Instant::now();
        let out = ops::select(cur.as_ref().unwrap_or(input), pred, engine)?;
        measured.push((m, out.len() as u64, t0.elapsed().as_secs_f64()));
        cur = Some(out);
    }
    Ok(StepOut { val: NodeVal::Owned(cur.expect("matched chain")), measured, pass: None })
}

/// Evaluate one plan node under a host trace span, returning the relation
/// and the wall-clock seconds the evaluation took.
fn eval_node_timed<'a>(
    graph: &PlanGraph,
    id: NodeId,
    inputs: &'a [Relation],
    slots: &[Option<NodeVal<'a>>],
    stolen: Option<Relation>,
    engine: Engine,
) -> Result<(NodeVal<'a>, f64), CoreError> {
    let _span = kfusion_trace::enabled().then(|| {
        let name = format!("{}#{id}", graph.nodes[id].kind.name().to_lowercase());
        kfusion_trace::host_span("host", &name)
    });
    let t0 = std::time::Instant::now();
    let rel = eval_node(graph, id, inputs, slots, stolen, engine)?;
    Ok((rel, t0.elapsed().as_secs_f64()))
}

/// If node `id` may consume its first input in place — it has an in-place
/// variant, the input is an owned intermediate (never a plan input or a
/// requested root), and `id` is its only consumer — take the relation out
/// of the slot and hand it over. The stolen slot stays `None`; its
/// cardinality was recorded when it filled.
fn steal_input(
    graph: &PlanGraph,
    id: NodeId,
    roots: &[NodeId],
    consumers: &[usize],
    slots: &mut [Option<NodeVal>],
) -> Option<Relation> {
    let node = &graph.nodes[id];
    if !matches!(
        node.kind,
        OpKind::ArithExtend { .. }
            | OpKind::Rekey { .. }
            | OpKind::Sort { .. }
            | OpKind::ColumnJoin
    ) {
        return None;
    }
    let p = *node.inputs.first()?;
    if consumers[p] != 1 || roots.contains(&p) {
        return None;
    }
    match slots[p].take() {
        Some(NodeVal::Owned(r)) => Some(r),
        other => {
            slots[p] = other;
            None
        }
    }
}

/// Partition node ids into topological wavefronts: level 0 holds nodes with
/// no inputs, level `k` the nodes whose deepest input sits at `k - 1`. All
/// nodes of one wave depend only on earlier waves, so a wave may evaluate
/// in parallel. Ids within a wave stay ascending.
fn wavefronts(graph: &PlanGraph) -> Vec<Vec<NodeId>> {
    let mut level = vec![0usize; graph.len()];
    let mut waves: Vec<Vec<NodeId>> = Vec::new();
    for (id, node) in graph.nodes.iter().enumerate() {
        let l = node.inputs.iter().map(|&p| level[p] + 1).max().unwrap_or(0);
        level[id] = l;
        if waves.len() <= l {
            waves.resize_with(l + 1, Vec::new);
        }
        waves[l].push(id);
    }
    waves
}

/// A functional-phase slot value. Input nodes *borrow* the caller's
/// relation instead of cloning it (base tables are the largest relations in
/// every TPC-H plan, and the old per-node clone was a full-table copy);
/// every other operator owns its freshly computed output.
enum NodeVal<'a> {
    Ref(&'a Relation),
    Owned(Relation),
}

impl NodeVal<'_> {
    fn as_rel(&self) -> &Relation {
        match self {
            NodeVal::Ref(r) => r,
            NodeVal::Owned(r) => r,
        }
    }
}

/// Evaluate one plan node on `engine`; `slots` must hold the results of
/// all its inputs (guaranteed by wavefront order).
fn eval_node<'a>(
    graph: &PlanGraph,
    id: NodeId,
    inputs: &'a [Relation],
    slots: &[Option<NodeVal<'a>>],
    stolen: Option<Relation>,
    engine: Engine,
) -> Result<NodeVal<'a>, CoreError> {
    let node = &graph.nodes[id];
    let get = |i: usize| slots[node.inputs[i]].as_ref().expect("input wave completed").as_rel();
    if let OpKind::Input { input } = &node.kind {
        return inputs
            .get(*input)
            .map(NodeVal::Ref)
            .ok_or_else(|| CoreError::Unsupported(format!("missing plan input {input}")));
    }
    // In-place fast paths: a stolen single-consumer input is mutated rather
    // than copied. The owned variants compute the same relation as the
    // borrowing ones by construction (their tests compare the two).
    if let Some(rel) = stolen {
        return Ok(NodeVal::Owned(match &node.kind {
            OpKind::ArithExtend { body } => ops::arith_extend_owned(rel, body, engine)?,
            OpKind::Rekey { col } => ops::rekey_owned(rel, *col)?,
            OpKind::Sort { by } => ops::sort_owned(rel, *by)?,
            OpKind::ColumnJoin => ops::column_join_owned(rel, get(1))?,
            _ => unreachable!("steal_input only feeds in-place operators"),
        }));
    }
    Ok(NodeVal::Owned(match &node.kind {
        OpKind::Input { .. } => unreachable!("handled above"),
        OpKind::Select { pred } => ops::select(get(0), pred, engine)?,
        OpKind::Project { keep } => ops::project(get(0), keep)?,
        OpKind::Rekey { col } => ops::rekey(get(0), *col)?,
        OpKind::Arith { body } => ops::arith_map(get(0), body, engine)?,
        OpKind::ArithExtend { body } => ops::arith_extend(get(0), body, engine)?,
        OpKind::Join => ops::join(get(0), get(1))?,
        OpKind::ColumnJoin => ops::column_join(get(0), get(1))?,
        OpKind::Semijoin => ops::semijoin(get(0), get(1))?,
        OpKind::Antijoin => ops::antijoin(get(0), get(1))?,
        OpKind::Product => ops::product(get(0), get(1))?,
        OpKind::Union => ops::union(get(0), get(1))?,
        OpKind::Intersect => ops::intersection(get(0), get(1))?,
        OpKind::Difference => ops::difference(get(0), get(1))?,
        OpKind::Aggregate { aggs } => ops::aggregate_by_key(get(0), aggs)?,
        OpKind::AggregateAll { aggs } => ops::aggregate_all(get(0), aggs)?,
        OpKind::Sort { by } => ops::sort(get(0), *by)?,
        OpKind::Unique => ops::unique(get(0))?,
    }))
}

/// Peak simulated GPU-memory residency (bytes) of executing `graph` with
/// every intermediate kept on the device: plan inputs stay resident from
/// upload, each node's output is allocated at its definition and released
/// after its last consumer — a liveness scan over the topological order,
/// exercised against [`kfusion_vgpu::DeviceMemory`] in the tests.
fn peak_resident_bytes(graph: &PlanGraph, stats: &Stats) -> u64 {
    let mut remaining = graph.consumer_counts();
    let mut mem = kfusion_vgpu::DeviceMemory::new(u64::MAX);
    let mut live: Vec<Option<kfusion_vgpu::memory::AllocId>> = vec![None; graph.len()];
    for (id, node) in graph.nodes.iter().enumerate() {
        if matches!(node.kind, OpKind::Input { .. }) {
            live[id] = Some(mem.alloc(stats.bytes(id)).expect("unbounded tracker"));
        }
    }
    for (id, node) in graph.nodes.iter().enumerate() {
        if matches!(node.kind, OpKind::Input { .. }) {
            continue;
        }
        live[id] = Some(mem.alloc(stats.bytes(id)).expect("unbounded tracker"));
        for &p in &node.inputs {
            remaining[p] -= 1;
            if remaining[p] == 0 && p != graph.root {
                if let Some(a) = live[p].take() {
                    mem.release(a).expect("allocation is live");
                }
            }
        }
    }
    mem.high_water()
}

/// Execute with the paper's §III-B memory rule applied automatically: keep
/// intermediates resident ([`Strategy::Serial`]) when they fit the device,
/// fall back to [`Strategy::SerialRoundTrip`] when they do not ("it has to
/// be used when there is insufficient space on the GPU for storing the
/// intermediate results of the executed kernels"). Returns the chosen
/// strategy alongside the result.
pub fn execute_auto_serial(
    system: &GpuSystem,
    graph: &PlanGraph,
    inputs: &[Relation],
) -> Result<(Strategy, ExecResult), CoreError> {
    let probe = execute(system, graph, inputs, &ExecConfig::new(Strategy::Serial, system))?;
    if probe.peak_resident_bytes <= system.spec.mem_capacity {
        return Ok((Strategy::Serial, probe));
    }
    let r = execute(system, graph, inputs, &ExecConfig::new(Strategy::SerialRoundTrip, system))?;
    Ok((Strategy::SerialRoundTrip, r))
}

fn singleton_plan(graph: &PlanGraph) -> FusionPlan {
    let mut groups = Vec::new();
    let mut group_of = vec![None; graph.len()];
    for (id, node) in graph.nodes.iter().enumerate() {
        if !matches!(node.kind, OpKind::Input { .. }) {
            group_of[id] = Some(groups.len());
            groups.push(vec![id]);
        }
    }
    FusionPlan { group_of, groups, chains: Vec::new() }
}

/// Per-node sizes, indexed by [`NodeId`] — everything the timing phase
/// needs from the data. [`execute`] measures them in the functional phase;
/// the micro-benchmarks supply a SELECT chain's measured or expected
/// cardinalities directly.
#[derive(Debug, Clone, PartialEq)]
pub struct Stats {
    /// Rows each node produces (plan inputs: rows uploaded).
    pub rows: Vec<u64>,
    /// Bytes per row of each node's output.
    pub row_bytes: Vec<f64>,
}

impl Stats {
    /// Output bytes of node `id`.
    pub fn bytes(&self, id: NodeId) -> u64 {
        (self.rows[id] as f64 * self.row_bytes[id]).ceil() as u64
    }
}

fn plan_input_bytes(graph: &PlanGraph, stats: &Stats) -> f64 {
    graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| matches!(n.kind, OpKind::Input { .. }))
        .map(|(id, _)| stats.bytes(id) as f64)
        .sum()
}

/// The kernels of one *unfused* operator, with element counts.
fn node_kernels(
    graph: &PlanGraph,
    stats: &Stats,
    id: NodeId,
    level: OptLevel,
) -> Vec<(KernelProfile, u64)> {
    let node = &graph.nodes[id];
    let in0 = node.inputs.first().copied();
    let in_rows = in0.map_or(0, |i| stats.rows[i]);
    let in_bytes = in0.map_or(8.0, |i| stats.row_bytes[i]);
    let out_rows = stats.rows[id];
    let out_bytes = stats.row_bytes[id];
    let sel = if in_rows == 0 { 0.0 } else { out_rows as f64 / in_rows as f64 };
    let nm = |s: &str| format!("{s}#{id}");
    match &node.kind {
        OpKind::Input { .. } => vec![],
        OpKind::Select { pred } => vec![
            (profiles::select_filter(nm("filter"), pred, level, in_bytes, sel), in_rows),
            (profiles::select_gather(nm("gather"), out_bytes), out_rows),
        ],
        OpKind::Rekey { .. } => vec![
            (
                KernelProfile::new(nm("rekey"))
                    .instr_per_elem(3.0)
                    .bytes_read_per_elem(in_bytes)
                    .bytes_written_per_elem(out_bytes)
                    .mem_efficiency(STREAM_MEM_EFF),
                in_rows,
            ),
            (profiles::select_gather(nm("rekey_gather"), out_bytes), out_rows),
        ],
        OpKind::Project { .. } => vec![
            (
                KernelProfile::new(nm("project"))
                    .instr_per_elem(4.0)
                    .bytes_read_per_elem(in_bytes)
                    .bytes_written_per_elem(out_bytes)
                    .mem_efficiency(STREAM_MEM_EFF),
                in_rows,
            ),
            (profiles::select_gather(nm("project_gather"), out_bytes), out_rows),
        ],
        OpKind::Arith { body } | OpKind::ArithExtend { body } => vec![
            (profiles::arith_kernel(nm("arith"), body, level, in_bytes, out_bytes), in_rows),
            (profiles::select_gather(nm("arith_gather"), out_bytes), out_rows),
        ],
        OpKind::Join | OpKind::Semijoin | OpKind::Antijoin => {
            let (a, b) = (node.inputs[0], node.inputs[1]);
            let elems = stats.rows[a].max(stats.rows[b]).max(1);
            let read = (stats.bytes(a) + stats.bytes(b)) as f64 / elems as f64;
            let write = stats.bytes(id) as f64 / elems as f64;
            vec![
                (
                    KernelProfile::new(nm("join_match"))
                        .instr_per_elem(30.0)
                        .bytes_read_per_elem(read)
                        .bytes_written_per_elem(write + FILTER_BOOKKEEPING_BYTES)
                        .regs_per_thread(profiles::STAGE_REGS + 10)
                        .mem_efficiency(STREAM_MEM_EFF),
                    elems,
                ),
                (profiles::select_gather(nm("join_gather"), out_bytes), out_rows),
            ]
        }
        OpKind::ColumnJoin => {
            let (a, b) = (node.inputs[0], node.inputs[1]);
            let elems = stats.rows[a].max(1);
            let read = (stats.bytes(a) + stats.bytes(b)) as f64 / elems as f64;
            vec![
                (
                    KernelProfile::new(nm("col_join"))
                        .instr_per_elem(6.0)
                        .bytes_read_per_elem(read)
                        .bytes_written_per_elem(out_bytes)
                        .mem_efficiency(STREAM_MEM_EFF),
                    elems,
                ),
                (profiles::select_gather(nm("col_join_gather"), out_bytes), out_rows),
            ]
        }
        OpKind::Product => vec![(
            KernelProfile::new(nm("product"))
                .instr_per_elem(10.0)
                .bytes_read_per_elem(2.0)
                .bytes_written_per_elem(out_bytes)
                .mem_efficiency(STREAM_MEM_EFF),
            out_rows.max(1),
        )],
        OpKind::Union | OpKind::Intersect | OpKind::Difference => {
            let (a, b) = (node.inputs[0], node.inputs[1]);
            let elems = (stats.rows[a] + stats.rows[b]).max(1);
            let read = (stats.bytes(a) + stats.bytes(b)) as f64 / elems as f64;
            vec![(
                KernelProfile::new(nm("setop"))
                    .instr_per_elem(14.0)
                    .bytes_read_per_elem(read)
                    .bytes_written_per_elem(stats.bytes(id) as f64 / elems as f64)
                    .mem_efficiency(STREAM_MEM_EFF),
                elems,
            )]
        }
        OpKind::Aggregate { aggs } | OpKind::AggregateAll { aggs } => vec![(
            profiles::aggregate_kernel(in_bytes, aggs.len()).renamed(nm("aggregate")),
            in_rows,
        )],
        OpKind::Sort { .. } => {
            vec![(profiles::sort_kernel(in_rows, in_bytes).renamed(nm("sort")), in_rows)]
        }
        OpKind::Unique => {
            vec![(profiles::unique_kernel(in_bytes, sel).renamed(nm("unique")), in_rows)]
        }
    }
}

/// Rename helper so per-node labels stay unique in timelines.
trait Renamed {
    fn renamed(self, name: String) -> Self;
}

impl Renamed for KernelProfile {
    fn renamed(mut self, name: String) -> Self {
        self.name = name;
        self
    }
}

/// External inputs of a fused group: producers outside the group feeding
/// members. A per-plan membership bitset keeps this O(edges), not
/// O(members × edges).
fn group_externals(graph: &PlanGraph, members: &[NodeId]) -> Vec<NodeId> {
    let mut in_group = vec![false; graph.len()];
    for &m in members {
        in_group[m] = true;
    }
    let mut ext: Vec<NodeId> = members
        .iter()
        .flat_map(|&m| graph.nodes[m].inputs.iter().copied())
        .filter(|&p| !in_group[p])
        .collect();
    ext.sort_unstable();
    ext.dedup();
    ext
}

/// Outputs of a fused group: members consumed outside it, or plan roots.
/// One pass over the plan's edges marks externally consumed nodes, instead
/// of rescanning every node per member.
fn group_outputs(
    graph: &PlanGraph,
    plan: &FusionPlan,
    members: &[NodeId],
    roots: &[NodeId],
) -> Vec<NodeId> {
    let gid = plan.group_of[members[0]];
    let mut wanted = vec![false; graph.len()];
    for &r in roots {
        wanted[r] = true;
    }
    for (c, n) in graph.nodes.iter().enumerate() {
        if plan.group_of[c] != gid {
            for &p in &n.inputs {
                wanted[p] = true;
            }
        }
    }
    let mut outs: Vec<NodeId> = members.iter().copied().filter(|&m| wanted[m]).collect();
    outs.sort_unstable();
    outs.dedup();
    outs
}

/// The kernels of one fused group: a single compute kernel (shared
/// skeleton, members' stages interleaved, intermediates in registers) plus
/// one gather.
fn group_kernels(
    graph: &PlanGraph,
    plan: &FusionPlan,
    stats: &Stats,
    members: &[NodeId],
    level: OptLevel,
    gidx: usize,
    roots: &[NodeId],
) -> Vec<(KernelProfile, u64)> {
    if members.len() == 1 {
        return node_kernels(graph, stats, members[0], level);
    }
    let externals = group_externals(graph, members);
    let outputs = group_outputs(graph, plan, members, roots);
    let elems = externals.iter().map(|&e| stats.rows[e]).max().unwrap_or(1).max(1);
    let read: f64 = externals.iter().map(|&e| stats.bytes(e) as f64).sum::<f64>() / elems as f64;
    let write: f64 = outputs.iter().map(|&o| stats.bytes(o) as f64).sum::<f64>() / elems as f64;

    // Instruction count: fused SELECT predicates enjoy the Table III
    // cross-kernel optimization; other members contribute their step costs.
    let select_preds: Vec<_> = members
        .iter()
        .filter_map(|&m| match &graph.nodes[m].kind {
            OpKind::Select { pred } => Some(pred.clone()),
            _ => None,
        })
        .collect();
    let mut instr = FILTER_STAGE_INSTR;
    if select_preds.len() >= 2 {
        instr += profiles::body_instr(&fuse_predicate_chain(&select_preds), level);
    } else {
        instr += select_preds.iter().map(|p| profiles::body_instr(p, level) + 2.0).sum::<f64>();
    }
    instr += members
        .iter()
        .filter(|&&m| !matches!(graph.nodes[m].kind, OpKind::Select { .. }))
        .map(|&m| member_instr(&graph.nodes[m].kind, level))
        .sum::<f64>();

    let regs = group_regs(graph, members, level);
    let compute = KernelProfile::new(format!("fused_compute#g{gidx}"))
        .instr_per_elem(instr)
        .bytes_read_per_elem(read)
        .bytes_written_per_elem(write + FILTER_BOOKKEEPING_BYTES)
        .regs_per_thread(regs)
        .mem_efficiency(STREAM_MEM_EFF);

    let out_rows: u64 = outputs.iter().map(|&o| stats.rows[o]).max().unwrap_or(0);
    let out_bytes: f64 = if out_rows == 0 {
        8.0
    } else {
        outputs.iter().map(|&o| stats.bytes(o) as f64).sum::<f64>() / out_rows as f64
    };
    vec![
        (compute, elems),
        (profiles::select_gather(format!("fused_gather#g{gidx}"), out_bytes), out_rows),
    ]
}

fn kernel_cmds(system: &GpuSystem, kernels: Vec<(KernelProfile, u64)>) -> Vec<Command> {
    kernels
        .into_iter()
        .map(|(p, n)| {
            let launch = LaunchConfig::for_elements(n.max(1), &system.spec);
            Command::kernel(p, launch, n)
        })
        .collect()
}

/// The timing phase's single entry point: `cfg.strategy`'s device
/// schedule for `graph` under fusion plan `plan` (the plan
/// [`prepare_fusion`] settles on for `cfg`), with every transfer and
/// kernel sized from the per-node `stats`. `roots` are the nodes whose
/// results return to the host.
pub fn build_schedule(
    system: &GpuSystem,
    graph: &PlanGraph,
    plan: &FusionPlan,
    stats: &Stats,
    cfg: &ExecConfig,
    roots: &[NodeId],
) -> Schedule {
    match cfg.strategy {
        Strategy::Serial | Strategy::SerialRoundTrip | Strategy::Fusion => {
            serial_schedule(system, graph, plan, stats, cfg, roots)
        }
        Strategy::Fission { segments } | Strategy::FusionFission { segments } => {
            fission_schedule(system, graph, plan, stats, cfg, segments, roots)
        }
    }
}

/// One stream: upload every plan input, run each group's kernels in plan
/// order (bouncing each non-root group result through the host under
/// [`Strategy::SerialRoundTrip`]), download the roots.
fn serial_schedule(
    system: &GpuSystem,
    graph: &PlanGraph,
    plan: &FusionPlan,
    stats: &Stats,
    cfg: &ExecConfig,
    roots: &[NodeId],
) -> Schedule {
    let round_trip = cfg.strategy == Strategy::SerialRoundTrip;
    let mut cmds: Vec<Command> = graph
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| matches!(n.kind, OpKind::Input { .. }))
        .map(|(i, _)| {
            Command::h2d(format!("in#{i}"), CommandClass::InputOutput, stats.bytes(i), cfg.mem_kind)
        })
        .collect();
    for (gidx, members) in plan.groups.iter().enumerate() {
        cmds.extend(kernel_cmds(
            system,
            group_kernels(graph, plan, stats, members, cfg.level, gidx, roots),
        ));
        let node = *members.last().expect("groups are non-empty");
        if round_trip && !roots.contains(&node) {
            let b = stats.bytes(node);
            cmds.push(Command::d2h(
                format!("tmp_out#{node}"),
                CommandClass::RoundTrip,
                b,
                cfg.mem_kind,
            ));
            cmds.push(Command::h2d(
                format!("tmp_in#{node}"),
                CommandClass::RoundTrip,
                b,
                cfg.mem_kind,
            ));
        }
    }
    for &r in roots {
        cmds.push(Command::d2h(
            format!("out#{r}"),
            CommandClass::InputOutput,
            stats.bytes(r),
            cfg.mem_kind,
        ));
    }
    Schedule::serial(cmds)
}

/// Minimum bytes per fission segment for a pipeline to pay off.
pub const MIN_SEGMENT_BYTES: u64 = 256 * 1024;

/// A fission pipeline being collected: a head group fed by plan inputs,
/// plus every later group fed only by the pipeline's own results.
struct Pipeline {
    /// The head's plan inputs, uploaded segment by segment.
    inputs: Vec<NodeId>,
    /// Every member group's kernels, in plan order.
    kernels: Vec<(KernelProfile, u64)>,
    /// Per-node: computed inside this pipeline.
    produced: Vec<bool>,
}

impl Pipeline {
    fn join(&mut self, members: &[NodeId], kernels: Vec<(KernelProfile, u64)>) {
        for &m in members {
            self.produced[m] = true;
        }
        self.kernels.extend(kernels);
    }
}

/// The exact segmentation of `total` units (bytes or elements). Under the
/// `validate` feature it is proved to cover `0..total` exactly once.
fn segment_parts(total: u64, segments: u32, what: &str) -> Vec<segment::SegRange> {
    let parts = segment::partition(total, segments);
    #[cfg(feature = "validate")]
    if let Err(err) = segment::check_partition(total, &parts) {
        panic!("fission segments do not partition the {total} {what}: {err}");
    }
    #[cfg(not(feature = "validate"))]
    let _ = what;
    parts
}

/// Kernel fission (Fig. 13 / Fig. 15), applied judiciously. A streamable
/// group whose external inputs are all plan inputs heads a pipeline when
/// the cost model says hiding its upload pays; each of its segments runs
/// H2D → kernels on one of [`FISSION_STREAMS`] rotating streams, so one
/// segment's transfer hides under another's compute. Two rules extend a
/// pipeline:
///
/// * a later streamable group fed only by the pipeline's results joins it
///   segment by segment — it has no transfer of its own to hide, so no
///   cost check applies;
/// * a plan root computed inside the pipeline downloads per segment, and
///   a host-stream `cpu_gather` reassembles it (§IV-C), overlapping later
///   segments' GPU work.
///
/// Every other group runs serially on the main stream after joining the
/// pending pipelines. Segment sizes come from [`segment::partition`].
fn fission_schedule(
    system: &GpuSystem,
    graph: &PlanGraph,
    plan: &FusionPlan,
    stats: &Stats,
    cfg: &ExecConfig,
    segments: u32,
    roots: &[NodeId],
) -> Schedule {
    let mut sched = Schedule::new();
    let main = sched.add_stream();
    let pipes: Vec<usize> = (0..FISSION_STREAMS).map(|_| sched.add_stream()).collect();
    let mut f = FissionStreams {
        sched,
        main,
        pipes,
        host: None,
        next_event: 0,
        pending: Vec::new(),
        downloaded: vec![false; graph.len()],
    };
    // Per-plan bitset: O(1) "already uploaded?" checks however many inputs
    // the plan has.
    let mut h2d_done: Vec<bool> = vec![false; graph.len()];

    // Only a streamable group fed by plan inputs with enough data per
    // segment may head a pipeline, and only when the cost model says the
    // pipeline beats synchronous transfers — async copies run below
    // bandwidthTest rates, so hiding a transfer that is cheap relative to
    // the group's compute can *lose* (the paper's §IV-A point that "the
    // application of kernel fission must distinguish between such cases").
    let should_pipeline = |externals: &[NodeId], kernels: &[(KernelProfile, u64)]| {
        let bytes: u64 = externals.iter().map(|&e| stats.bytes(e)).sum();
        let structurally_ok =
            externals.iter().all(|&e| matches!(graph.nodes[e].kind, OpKind::Input { .. }))
                && bytes >= segments as u64 * MIN_SEGMENT_BYTES;
        if !structurally_ok {
            return false;
        }
        // Cost check: serial = sync upload + kernels; pipelined = the slower
        // of (derated async upload, kernels) plus per-segment latency.
        let kernel_time: f64 = kernels
            .iter()
            .map(|(p, n)| {
                p.time(&system.spec, &LaunchConfig::for_elements((*n).max(1), &system.spec), *n)
            })
            .sum();
        let sync_upload: f64 = externals
            .iter()
            .map(|&e| {
                system.pcie.transfer_time(
                    stats.bytes(e),
                    kfusion_vgpu::Direction::H2D,
                    cfg.mem_kind,
                )
            })
            .sum();
        let async_upload: f64 = externals
            .iter()
            .map(|&e| {
                system.pcie.transfer_time(
                    stats.bytes(e) / segments as u64,
                    kfusion_vgpu::Direction::H2D,
                    HostMemKind::Pinned,
                ) * segments as f64
                    / system.pcie.async_efficiency
            })
            .sum();
        let t_serial = sync_upload + kernel_time;
        let fill = async_upload / segments as f64;
        let t_pipe = async_upload.max(kernel_time) + fill;
        t_pipe < t_serial
    };

    let mut current: Option<Pipeline> = None;
    for (gidx, members) in plan.groups.iter().enumerate() {
        let kernels = group_kernels(graph, plan, stats, members, cfg.level, gidx, roots);
        let externals = group_externals(graph, members);
        let segmentable = segments > 1 && members.iter().all(|&m| streamable(&graph.nodes[m].kind));
        if let Some(p) = current.as_mut() {
            if segmentable && externals.iter().all(|&e| p.produced[e]) {
                p.join(members, kernels);
                continue;
            }
        }
        if let Some(p) = current.take() {
            f.emit(p, system, stats, segments, roots);
        }
        if segmentable && should_pipeline(&externals, &kernels) {
            for &e in &externals {
                h2d_done[e] = true;
            }
            let mut p = Pipeline {
                inputs: externals,
                kernels: Vec::new(),
                produced: vec![false; graph.len()],
            };
            p.join(members, kernels);
            current = Some(p);
            continue;
        }
        // Serial on the main stream; first join any pending pipelines
        // and upload any inputs the pipelines didn't cover.
        f.join_pending();
        let input_externals: Vec<NodeId> = externals
            .into_iter()
            .filter(|&e| matches!(graph.nodes[e].kind, OpKind::Input { .. }))
            .collect();
        for &e in &input_externals {
            if !h2d_done[e] {
                f.sched.push(
                    main,
                    Command::h2d(
                        format!("in#{e}"),
                        CommandClass::InputOutput,
                        stats.bytes(e),
                        cfg.mem_kind,
                    ),
                );
                h2d_done[e] = true;
            }
        }
        for cmd in kernel_cmds(system, kernels) {
            // Inputs uploaded segment-wise by an earlier pipeline carry
            // per-segment buffer names; reads of the whole-input name
            // then have no writer and are skipped by the detector, while
            // same-stream uploads above are proven ordered.
            let cmd = input_externals.iter().fold(cmd, |c, &e| c.reading(format!("in#{e}")));
            f.sched.push(main, cmd);
        }
    }
    if let Some(p) = current.take() {
        f.emit(p, system, stats, segments, roots);
    }
    f.join_pending();
    for &r in roots.iter().filter(|&&r| !f.downloaded[r]) {
        f.sched.push(
            main,
            Command::d2h(
                format!("out#{r}"),
                CommandClass::InputOutput,
                stats.bytes(r),
                cfg.mem_kind,
            ),
        );
    }
    Schedule { streams: f.sched.streams }
}

/// The streams and synchronization state of a fission schedule under
/// construction.
struct FissionStreams {
    sched: Schedule,
    main: usize,
    pipes: Vec<usize>,
    /// Host stream for the CPU gathers, added when a pipeline first
    /// downloads a root.
    host: Option<usize>,
    next_event: u32,
    /// Segment-completion events the main stream has not joined yet.
    pending: Vec<EventId>,
    /// Per-node: a root already downloaded segment by segment.
    downloaded: Vec<bool>,
}

impl FissionStreams {
    /// Make the main stream wait for every pipeline segment so far.
    fn join_pending(&mut self) {
        for ev in self.pending.drain(..) {
            self.sched.push(self.main, Command::wait(ev));
        }
    }

    /// Emit a collected pipeline segment by segment: each segment's
    /// uploads, every member kernel and its root downloads run in order on
    /// one rotating stream, which then records the event the main stream
    /// (and the segment's CPU gather) waits on.
    fn emit(
        &mut self,
        p: Pipeline,
        system: &GpuSystem,
        stats: &Stats,
        segments: u32,
        roots: &[NodeId],
    ) {
        let outs: Vec<NodeId> = roots.iter().copied().filter(|&r| p.produced[r]).collect();
        let in_parts: Vec<_> = p
            .inputs
            .iter()
            .map(|&e| segment_parts(stats.bytes(e), segments, "input transfer bytes"))
            .collect();
        let elem_parts: Vec<_> = p
            .kernels
            .iter()
            .map(|(_, n)| segment_parts(*n, segments, "kernel iteration-space elements"))
            .collect();
        let out_parts: Vec<_> = outs
            .iter()
            .map(|&r| segment_parts(stats.bytes(r), segments, "output transfer bytes"))
            .collect();
        for s in 0..segments as usize {
            let stream = self.pipes[s % self.pipes.len()];
            for (&e, parts) in p.inputs.iter().zip(&in_parts) {
                self.sched.push(
                    stream,
                    Command::h2d(
                        format!("in#{e}[seg{s}]"),
                        CommandClass::InputOutput,
                        parts[s].len(),
                        HostMemKind::Pinned,
                    ),
                );
            }
            for ((prof, _), parts) in p.kernels.iter().zip(&elem_parts) {
                let seg_n = parts[s].len();
                let mut prof = prof.clone();
                prof.name = format!("{}[seg{s}]", prof.name);
                let launch = LaunchConfig::for_elements(seg_n.max(1), &system.spec);
                let mut cmd = Command::kernel(prof, launch, seg_n);
                // Declare the segment inputs so the hazard detector can
                // prove the kernel runs after its own segment's upload
                // (same stream) and never against another stream's.
                for &e in &p.inputs {
                    cmd = cmd.reading(format!("in#{e}[seg{s}]"));
                }
                self.sched.push(stream, cmd);
            }
            for (&r, parts) in outs.iter().zip(&out_parts) {
                self.sched.push(
                    stream,
                    Command::d2h(
                        format!("out#{r}[seg{s}]"),
                        CommandClass::InputOutput,
                        parts[s].len(),
                        HostMemKind::Pinned,
                    ),
                );
            }
            let ev = EventId(self.next_event);
            self.next_event += 1;
            self.sched.push(stream, Command::record(ev));
            self.pending.push(ev);
            if !outs.is_empty() {
                let host = *self.host.get_or_insert_with(|| self.sched.add_stream());
                let bytes: u64 = out_parts.iter().map(|parts| parts[s].len()).sum();
                self.sched.push(host, Command::wait(ev));
                self.sched.push(
                    host,
                    Command::host_work(format!("cpu_gather[seg{s}]"), bytes as f64 / CPU_GATHER_BW),
                );
            }
        }
        for r in outs {
            self.downloaded[r] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns;
    use kfusion_relalg::gen;
    use kfusion_relalg::predicates;

    fn sys() -> GpuSystem {
        GpuSystem::c2070()
    }

    fn select_chain_graph(depth: usize) -> PlanGraph {
        let mut g = PlanGraph::new();
        let mut cur = g.input(0);
        for k in 0..depth {
            let t = gen::threshold_for_selectivity(0.5 / (k as f64 + 1.0));
            cur = g.add(OpKind::Select { pred: predicates::key_lt(t) }, vec![cur]);
        }
        g
    }

    #[test]
    fn strategies_agree_functionally() {
        let s = sys();
        let g = select_chain_graph(2);
        let input = gen::random_keys(100_000, 9);
        let mut outputs = Vec::new();
        for strat in [
            Strategy::Serial,
            Strategy::SerialRoundTrip,
            Strategy::Fusion,
            Strategy::FusionFission { segments: 8 },
        ] {
            let cfg = ExecConfig::new(strat, &s);
            let r = execute(&s, &g, std::slice::from_ref(&input), &cfg).unwrap();
            outputs.push(r.output);
        }
        for o in &outputs[1..] {
            assert_eq!(o, &outputs[0], "strategy changed the answer");
        }
    }

    #[test]
    fn fusion_is_faster_than_serial() {
        let s = sys();
        let g = select_chain_graph(3);
        let input = gen::random_keys(1 << 21, 4);
        let serial =
            execute(&s, &g, std::slice::from_ref(&input), &ExecConfig::new(Strategy::Serial, &s))
                .unwrap();
        let fused =
            execute(&s, &g, std::slice::from_ref(&input), &ExecConfig::new(Strategy::Fusion, &s))
                .unwrap();
        assert!(fused.report.total() < serial.report.total());
        assert_eq!(fused.fusion.groups.len(), 1);
    }

    #[test]
    fn fission_overlaps_input_transfer() {
        // The pipeline pays derated async bandwidth, so it only wins when
        // the group's compute is substantial relative to the upload — the
        // paper's "complex statistical operators" case. Build a deep
        // arithmetic expression so the fused kernel is compute-bound.
        let s = sys();
        let mut g = PlanGraph::new();
        let i = g.input(0);
        let mut expr = kfusion_ir::builder::Expr::input(0);
        for k in 1..400i64 {
            expr = expr
                .mul(kfusion_ir::builder::Expr::lit(2 * k + 1))
                .add(kfusion_ir::builder::Expr::lit(k));
        }
        let mut body = kfusion_ir::builder::BodyBuilder::new(1);
        body.emit_output(expr);
        g.add(OpKind::Arith { body: body.build() }, vec![i]);
        let input = gen::random_keys(1 << 22, 5);
        let fused =
            execute(&s, &g, std::slice::from_ref(&input), &ExecConfig::new(Strategy::Fusion, &s))
                .unwrap();
        let both = execute(
            &s,
            &g,
            std::slice::from_ref(&input),
            &ExecConfig::new(Strategy::FusionFission { segments: 8 }, &s),
        )
        .unwrap();
        assert!(
            both.report.total() < fused.report.total(),
            "fission {} vs fusion {}",
            both.report.total(),
            fused.report.total()
        );
    }

    #[test]
    fn round_trip_strategy_pays_for_intermediates() {
        let s = sys();
        let g = select_chain_graph(2);
        let input = gen::random_keys(1 << 21, 6);
        let serial =
            execute(&s, &g, std::slice::from_ref(&input), &ExecConfig::new(Strategy::Serial, &s))
                .unwrap();
        let rt = execute(
            &s,
            &g,
            std::slice::from_ref(&input),
            &ExecConfig::new(Strategy::SerialRoundTrip, &s),
        )
        .unwrap();
        assert!(rt.report.total() > serial.report.total());
        assert!(rt.report.class_time(CommandClass::RoundTrip) > 0.0);
        assert_eq!(serial.report.class_time(CommandClass::RoundTrip), 0.0);
    }

    #[test]
    fn every_fig2_pattern_executes_under_every_strategy() {
        let s = sys();
        for (name, g) in patterns::all() {
            // Build suitable inputs: sorted tables with two payload columns
            // (arith patterns read cols 0 and 1).
            let n_inputs =
                g.nodes.iter().filter(|n| matches!(n.kind, OpKind::Input { .. })).count();
            let inputs: Vec<Relation> = (0..n_inputs)
                .map(|k| {
                    let mut t = gen::sorted_table(5000, 2, k as u64);
                    // Make numeric columns f64 for the arith patterns.
                    t.cols[0] =
                        kfusion_relalg::Column::F64((0..5000).map(|i| i as f64 * 0.001).collect());
                    t.cols[1] = kfusion_relalg::Column::F64(
                        (0..5000).map(|i| (i % 90) as f64 * 0.01).collect(),
                    );
                    t
                })
                .collect();
            for strat in [Strategy::Serial, Strategy::Fusion] {
                let cfg = ExecConfig::new(strat, &s);
                let r = execute(&s, &g, &inputs, &cfg);
                assert!(r.is_ok(), "pattern {name} failed under {strat:?}: {:?}", r.err());
            }
        }
    }

    #[test]
    fn peak_residency_accounts_liveness() {
        let s = sys();
        let g = select_chain_graph(2);
        let input = gen::random_keys(100_000, 3);
        let r =
            execute(&s, &g, std::slice::from_ref(&input), &ExecConfig::new(Strategy::Serial, &s))
                .unwrap();
        // Peak must cover at least input + first intermediate, and at most
        // the sum of everything.
        let input_bytes = input.total_bytes();
        assert!(r.peak_resident_bytes >= input_bytes);
        assert!(r.peak_resident_bytes <= 3 * input_bytes);
    }

    #[test]
    fn auto_serial_keeps_intermediates_when_they_fit() {
        let s = sys();
        let g = select_chain_graph(2);
        let input = gen::random_keys(100_000, 3);
        let (strat, _) = execute_auto_serial(&s, &g, std::slice::from_ref(&input)).unwrap();
        assert_eq!(strat, Strategy::Serial);
    }

    #[test]
    fn auto_serial_falls_back_on_small_memory() {
        // Shrink the device until the intermediates cannot stay resident;
        // the executor must pick the round-trip strategy (paper SIII-B).
        let mut s = sys();
        s.spec.mem_capacity = 1 << 20; // 1 MiB
        let g = select_chain_graph(2);
        let input = gen::random_keys(200_000, 3); // 1.6 MB of keys alone
        let (strat, r) = execute_auto_serial(&s, &g, std::slice::from_ref(&input)).unwrap();
        assert_eq!(strat, Strategy::SerialRoundTrip);
        assert!(r.report.class_time(CommandClass::RoundTrip) > 0.0);
    }

    #[test]
    fn prepared_execution_is_byte_identical_to_plain() {
        let s = sys();
        let g = select_chain_graph(3);
        let input = gen::random_keys(100_000, 8);
        for strat in [Strategy::Serial, Strategy::Fusion, Strategy::FusionFission { segments: 4 }] {
            let cfg = ExecConfig::new(strat, &s);
            let fusion = prepare_fusion(&g, &cfg).unwrap();
            let prepared =
                execute_prepared(&s, &g, std::slice::from_ref(&input), &cfg, &fusion).unwrap();
            let plain = execute(&s, &g, std::slice::from_ref(&input), &cfg).unwrap();
            assert_eq!(prepared.output, plain.output);
            assert_eq!(prepared.report.total(), plain.report.total());
            assert_eq!(prepared.fusion.groups, plain.fusion.groups);
        }
    }

    /// (label, rows, fused pass) of every node of an EXPLAIN tree.
    fn explain_rows(
        node: &kfusion_trace::explain::ExplainNode,
    ) -> Vec<(String, u64, Option<usize>)> {
        let mut out = vec![(node.label.clone(), node.rows, node.fused_pass)];
        out.extend(node.children.iter().flat_map(explain_rows));
        out
    }

    /// in → s1 → s2 → s3 → s4, where `s2` is also a requested root or also
    /// read by a SORT outside the group: the chain splits after `s2` into
    /// two fused passes, and every output and row count still matches the
    /// node-by-node serial oracle.
    #[test]
    fn chains_split_at_an_interior_root_or_outside_reader() {
        let s = sys();
        let input = gen::random_keys(150_000, 11);
        for outside_reader in [false, true] {
            let mut g = PlanGraph::new();
            let mut cur = g.input(0);
            let mut sel = Vec::new();
            for k in 0..4 {
                let t = gen::threshold_for_selectivity(0.9 - 0.2 * k as f64);
                cur = g.add(OpKind::Select { pred: predicates::key_lt(t) }, vec![cur]);
                sel.push(cur);
            }
            let roots = if outside_reader {
                let sort = g.add(OpKind::Sort { by: ops::SortBy::Key }, vec![sel[1]]);
                vec![sel[3], sort]
            } else {
                vec![sel[3], sel[1]]
            };
            let run = |strategy| {
                let cfg = ExecConfig::new(strategy, &s);
                run_plan(&s, &g, std::slice::from_ref(&input), &cfg, &roots, None).unwrap()
            };
            let (fused, serial) = (run(Strategy::Fusion), run(Strategy::Serial));
            let chains: Vec<Vec<NodeId>> =
                fused.fusion.chains.iter().map(|c| c.members.clone()).collect();
            assert_eq!(chains, vec![vec![sel[0], sel[1]], vec![sel[2], sel[3]]]);
            assert_eq!(fused.outputs, serial.outputs);
            assert!(fused.outputs.iter().all(|o| !o.is_empty()), "vacuous outputs");
            let (f_rows, s_rows) = (explain_rows(&fused.explain), explain_rows(&serial.explain));
            let strip = |v: &[(String, u64, Option<usize>)]| -> Vec<(String, u64)> {
                v.iter().map(|(l, r, _)| (l.clone(), *r)).collect()
            };
            assert_eq!(strip(&f_rows), strip(&s_rows));
            let pass =
                |id: NodeId| f_rows.iter().find(|r| r.0 == format!("select#{id}")).unwrap().2;
            assert_eq!(
                sel.iter().map(|&id| pass(id)).collect::<Vec<_>>(),
                vec![Some(0), Some(0), Some(1), Some(1)]
            );
            assert_eq!(fused.report.total().to_bits(), {
                // Same sizes ⇒ the fused strategy's schedule is unchanged
                // by running its chains on the host.
                let cfg =
                    ExecConfig { engine: Engine::Scalar, ..ExecConfig::new(Strategy::Fusion, &s) };
                run_plan(&s, &g, std::slice::from_ref(&input), &cfg, &roots, None)
                    .unwrap()
                    .report
                    .total()
                    .to_bits()
            });
        }
    }

    #[test]
    fn roots_move_out_or_clone_only_when_they_must() {
        let s = sys();
        let g = select_chain_graph(2);
        let input = gen::random_keys(50_000, 12);
        // A borrowed plan input, and one select requested twice.
        let roots = [0, 1, 2, 2];
        for strategy in [Strategy::Serial, Strategy::Fusion] {
            let cfg = ExecConfig::new(strategy, &s);
            let run = run_plan(&s, &g, std::slice::from_ref(&input), &cfg, &roots, None).unwrap();
            assert_eq!(run.outputs.len(), 4);
            assert_eq!(run.outputs[0], input);
            assert!(run.outputs[1].len() > run.outputs[2].len());
            assert_eq!(run.outputs[2], run.outputs[3]);
        }
    }

    #[test]
    fn missing_input_is_reported() {
        let s = sys();
        let g = select_chain_graph(1);
        let r = execute(&s, &g, &[], &ExecConfig::new(Strategy::Serial, &s));
        assert!(matches!(r, Err(CoreError::Unsupported(_))));
    }
}
