//! The three workloads: their tables, their query pools, and the seeded
//! per-client streams drawn from those pools.
//!
//! Everything here is a pure function of the workload and the seed (plus,
//! for `sql_adhoc`, the run length that sizes its pool): the same arguments
//! regenerate the identical tables, query texts and submission order. The
//! program under test receives only the generated tables and the query
//! texts or plans.

use kfusion::core::exec::Strategy;
use kfusion::core::graph::{OpKind, PlanGraph};
use kfusion::server::TableRegistry;
use kfusion::tpch::gen::{generate, TpchConfig, MAX_DAY, Q1_CUTOFF_DAY};
use kfusion::tpch::{q1, q21, sql};
use kfusion_prng::Rng;
use std::collections::HashSet;

/// Closed-loop client threads driving the service.
pub const CLIENTS: usize = 2;

/// Service worker threads.
pub const WORKERS: usize = 2;

/// Length of each client's stream on the fixed-pool workloads, a whole
/// number of mix blocks; a client that reaches the end starts over.
const STREAM_LEN: usize = 4000;

/// Fresh `sql_adhoc` texts generated per measured second: over three times
/// the rate a 2-core host answers them, so a run ends long before its
/// clients could exhaust the pool and start hitting the plan cache on
/// repeats. Only the texts actually served are run through the oracle.
pub const ADHOC_PER_SECOND: usize = 1500;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fixed-literal TPC-H Q6 and Q1 SQL at SF 0.1: every lookup after
    /// warm-up is a plan-cache hit, and the functional phase dominates.
    SqlDashboard,
    /// Parameterised Q6-, Q1- and ORDER BY-style SQL at SF 0.002 with
    /// literals drawn per query: almost every text is a new plan shape.
    SqlAdhoc,
    /// The hand-built Q21 and Q1 plans at SF 0.05 under fusion + fission,
    /// submitted positionally: joins, sorts and column assembly.
    TpchJoins,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] =
        [Workload::SqlDashboard, Workload::SqlAdhoc, Workload::TpchJoins];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SqlDashboard => "sql_dashboard",
            Workload::SqlAdhoc => "sql_adhoc",
            Workload::TpchJoins => "tpch_joins",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// TPC-H scale factor of the generated tables.
    pub fn scale(self) -> f64 {
        match self {
            Workload::SqlDashboard => 0.1,
            Workload::SqlAdhoc => 0.002,
            Workload::TpchJoins => 0.05,
        }
    }

    /// The executor strategy the service runs.
    pub fn strategy(self) -> Strategy {
        match self {
            Workload::SqlDashboard | Workload::SqlAdhoc => Strategy::Fusion,
            Workload::TpchJoins => Strategy::FusionFission { segments: 4 },
        }
    }
}

/// One query as a client submits it.
#[derive(Debug, Clone)]
pub enum Query {
    /// SQL text over the registry's named tables.
    Sql(String),
    /// A hand-built plan over the registry's positional slots.
    Plan(PlanGraph),
}

/// The queries a run draws from and the order each client submits them in.
#[derive(Debug, Clone)]
pub struct Pool {
    /// Every query the measured stream can submit; the oracle answers each.
    pub queries: Vec<Query>,
    /// Queries served once during set-up so every code path, and on the
    /// fixed-pool workloads every plan shape, has compiled and run.
    pub warmup: Vec<Query>,
    /// Per client, indices into `queries` in submission order.
    pub streams: Vec<Vec<usize>>,
}

/// An independent seed for one consumer of the run seed, so the tables,
/// the query pool and each client's stream never share random draws.
fn sub_seed(seed: u64, consumer: u64) -> u64 {
    Rng::seed_from_u64(seed ^ consumer.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

/// Registry slot of the first Q21 input in `tpch_joins` (Q1's seven
/// per-column inputs come first).
const Q21_SLOT: usize = 7;

/// Generate the workload's tables from `seed` and register them: the Q6
/// wide table and the Q1 packed table by name for the SQL workloads, the
/// Q1 and Q21 inputs positionally for `tpch_joins`.
pub fn registry(workload: Workload, seed: u64) -> TableRegistry {
    let db = generate(TpchConfig { scale: workload.scale(), seed: sub_seed(seed, 1) });
    let mut reg = TableRegistry::new();
    match workload {
        Workload::SqlDashboard | Workload::SqlAdhoc => {
            reg.add_table("lineitem_wide", sql::q6_schema(), sql::q6_wide_table(&db))
                .expect("Q6 wide table matches its schema");
            reg.add_table("lineitem_packed", sql::q1_schema(), sql::q1_packed_table(&db))
                .expect("Q1 packed table matches its schema");
        }
        Workload::TpchJoins => {
            for rel in q1::q1_inputs(&db) {
                reg.add_relation(rel);
            }
            assert_eq!(reg.tables().len(), Q21_SLOT);
            for rel in q21::q21_inputs(&db) {
                reg.add_relation(rel);
            }
        }
    }
    reg
}

/// The query pool and client streams for a run of `seconds` seconds.
pub fn pool(workload: Workload, seed: u64, seconds: u64) -> Pool {
    let mut rng = Rng::seed_from_u64(sub_seed(seed, 2));
    match workload {
        Workload::SqlDashboard => {
            let q6 = retarget(&sql::q6_sql(), "lineitem_wide");
            let q1 = retarget(&sql::q1_sql(), "lineitem_packed");
            fixed_mix(vec![Query::Sql(q6), Query::Sql(q1)], seed)
        }
        Workload::TpchJoins => {
            let nation = rng.gen_range(0..kfusion::tpch::gen::N_NATIONS as i64);
            let q21 = offset_inputs(q21::q21_plan(nation), Q21_SLOT);
            fixed_mix(vec![Query::Plan(q21), Query::Plan(q1::q1_plan())], seed)
        }
        Workload::SqlAdhoc => {
            let mut seen = HashSet::new();
            let mut fresh = |rng: &mut Rng, n: usize| -> Vec<Query> {
                let mut out = Vec::with_capacity(n);
                while out.len() < n {
                    let text = adhoc_text(rng);
                    if seen.insert(text.clone()) {
                        out.push(Query::Sql(text));
                    }
                }
                out
            };
            let warmup = fresh(&mut rng, 12);
            let queries = fresh(&mut rng, ADHOC_PER_SECOND * seconds.max(1) as usize);
            let streams =
                (0..CLIENTS).map(|c| (c..queries.len()).step_by(CLIENTS).collect()).collect();
            Pool { queries, warmup, streams }
        }
    }
}

/// Submissions per mix block of the fixed-mix workloads: one of the heavy
/// query (Q1 on both) and the rest of the light one (Q6 on
/// `sql_dashboard`, Q21 on `tpch_joins`).
///
/// At 2% Q1 both percentiles rest on the dominant class: the median inside
/// its mode, the 95th percentile on its slowest few percent. With one Q1 in
/// ten, the 95th percentile sat in the middle of about 20 Q1 samples per
/// block. A Q1's latency swings with whatever runs on the other worker
/// beside it, and from process to process, so that tail jumped from run to
/// run.
pub const MIX_BLOCK: usize = 50;

/// A two-query pool served as a fixed mix. Each block of [`MIX_BLOCK`]
/// submissions holds exactly one of query 1 and the rest of query 0 in a
/// seeded order, so the share of each class never drifts with the seed.
fn fixed_mix(queries: Vec<Query>, seed: u64) -> Pool {
    let streams = (0..CLIENTS)
        .map(|c| {
            let mut rng = Rng::seed_from_u64(sub_seed(seed, 3 + c as u64));
            let mut stream = Vec::with_capacity(STREAM_LEN);
            while stream.len() < STREAM_LEN {
                let mut mix = [0; MIX_BLOCK];
                mix[MIX_BLOCK - 1] = 1;
                for i in (1..MIX_BLOCK).rev() {
                    mix.swap(i, rng.gen_range(0..i + 1));
                }
                stream.extend(mix);
            }
            stream
        })
        .collect();
    Pool { warmup: queries.clone(), queries, streams }
}

/// Point a `tpch::sql` text at a registry table name.
fn retarget(text: &str, table: &str) -> String {
    let out = text.replacen("FROM lineitem ", &format!("FROM {table} "), 1);
    assert_ne!(out, text, "query text has a FROM lineitem clause");
    out
}

/// Shift every `Input` leaf of a plan built from slot 0 to start at `offset`.
fn offset_inputs(mut g: PlanGraph, offset: usize) -> PlanGraph {
    for node in &mut g.nodes {
        if let OpKind::Input { input } = &mut node.kind {
            *input += offset;
        }
    }
    g
}

/// One parameterised ad-hoc text: 40% Q6-style filter-aggregates, 30%
/// Q1-style `GROUP BY KEY` aggregates, 30% filter + project + `ORDER BY`
/// over a narrow date window (about a hundred rows out).
fn adhoc_text(rng: &mut Rng) -> String {
    let roll = rng.gen_range(0..10u32);
    if roll < 4 {
        let lo = rng.gen_range(0..MAX_DAY - 800);
        let span = [180, 365, 730][rng.gen_range(0..3usize)];
        let disc = rng.gen_range(2..=9i64) as f64 / 100.0;
        let qty = rng.gen_range(10..50i64);
        format!(
            "SELECT SUM(extendedprice * discount) AS revenue, COUNT(*) FROM lineitem_wide \
             WHERE shipdate >= {lo} AND shipdate < {} \
             AND discount BETWEEN {:.4} AND {:.4} AND quantity < {qty}",
            lo + span,
            disc - 0.0101,
            disc + 0.0101
        )
    } else if roll < 7 {
        let cutoff = rng.gen_range(1200..=Q1_CUTOFF_DAY);
        let qty = rng.gen_range(20..=51i64);
        format!(
            "SELECT SUM(quantity), SUM(extendedprice), \
             SUM(extendedprice * (1 - discount)) AS disc_price, \
             AVG(quantity), AVG(discount), COUNT(*) FROM lineitem_packed \
             WHERE shipdate <= {cutoff} AND quantity < {qty} GROUP BY KEY"
        )
    } else {
        let lo = rng.gen_range(0..MAX_DAY - 100);
        let width = rng.gen_range(20..60i64);
        let qty = rng.gen_range(10..50i64);
        let (order, dir) = (
            ["net", "shipdate"][rng.gen_range(0..2usize)],
            ["ASC", "DESC"][rng.gen_range(0..2usize)],
        );
        format!(
            "SELECT shipdate, extendedprice * (1 - discount) AS net FROM lineitem_wide \
             WHERE shipdate >= {lo} AND shipdate < {} AND quantity < {qty} \
             ORDER BY {order} {dir}",
            lo + width
        )
    }
}
