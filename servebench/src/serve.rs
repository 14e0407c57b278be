//! Closed-loop load against `QueryService` and the oracle it is checked by.
//!
//! Each of [`CLIENTS`] client threads submits the next query of its own
//! stream only after the previous answer has arrived, timing submit →
//! answer on the client side. Each answer is kept as its exact digest and
//! checked, after the timed window, against the oracle: the same query
//! executed standalone under `Strategy::Serial` at `OptLevel::O1`.

use crate::answer::Answer;
use crate::heap;
use crate::host::CpuTicks;
use crate::workload::{Pool, Query, CLIENTS};
use kfusion::core::exec::{execute, ExecConfig, Strategy};
use kfusion::ir::opt::OptLevel;
use kfusion::server::{QueryOutcome, QueryRecord, ServerError, ServiceClient, TableRegistry};
use kfusion::vgpu::GpuSystem;
use std::collections::{BTreeSet, HashMap};
use std::time::{Duration, Instant};

/// The scalar serial O1 answer of each pool query in `wanted`, by pool
/// index. SQL texts compile against `registry`; plans run over its slots.
/// Two threads split the work.
pub fn oracle(
    system: &GpuSystem,
    registry: &TableRegistry,
    queries: &[Query],
    wanted: impl IntoIterator<Item = usize>,
) -> Result<HashMap<usize, Answer>, String> {
    let cfg = ExecConfig { level: OptLevel::O1, ..ExecConfig::new(Strategy::Serial, system) };
    let answer = |q: &Query| -> Result<Answer, String> {
        let plan = match q {
            Query::Sql(text) => registry.compile(text).map_err(|e| format!("{text}: {e}"))?.plan,
            Query::Plan(plan) => plan.clone(),
        };
        let out = execute(system, &plan, registry.tables(), &cfg).map_err(|e| e.to_string())?;
        Ok(Answer::of(&out.output))
    };
    let wanted: Vec<usize> = wanted.into_iter().collect::<BTreeSet<_>>().into_iter().collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let (wanted, answer) = (&wanted, &answer);
                s.spawn(move || {
                    wanted
                        .iter()
                        .skip(t)
                        .step_by(CLIENTS)
                        .map(|&i| Ok((i, answer(&queries[i])?)))
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        let mut out = HashMap::new();
        for h in handles {
            out.extend(h.join().expect("oracle thread panicked")?);
        }
        Ok(out)
    })
}

/// How many of `answers` (pool index, answer) differ from the oracle,
/// which is computed here for the distinct queries among them.
pub fn count_wrong(
    system: &GpuSystem,
    registry: &TableRegistry,
    queries: &[Query],
    answers: &[(usize, Answer)],
) -> Result<u64, String> {
    let expected = oracle(system, registry, queries, answers.iter().map(|&(i, _)| i))?;
    Ok(answers.iter().filter(|(i, a)| expected[i] != *a).count() as u64)
}

/// Submit one query and wait for its answer.
pub fn submit(client: &ServiceClient<'_>, query: &Query) -> Result<QueryOutcome, ServerError> {
    match query {
        Query::Sql(text) => client.submit_sql(text)?.wait().map(|(_, outcome)| outcome),
        Query::Plan(plan) => client.submit(plan.clone())?.wait(),
    }
}

/// Per-query counts of one stretch of load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Submissions made.
    pub attempted: u64,
    /// Answers received (right or wrong).
    pub answered: u64,
    /// Submissions the service refused or dropped: overload, shutdown,
    /// deadline.
    pub shed: u64,
    /// Submissions that failed to compile or execute.
    pub failed: u64,
    /// Answers that differ from the oracle.
    pub wrong: u64,
}

impl Tally {
    /// Attempts that did not end in a correct answer.
    pub fn unsuccessful(&self) -> u64 {
        self.shed + self.failed + self.wrong
    }

    /// Whether the stretch counts as correct: every attempt ended in a
    /// right answer. One failed, shed or wrong query fails the run; a run
    /// that lost a query class would otherwise time only the survivors.
    pub fn correct(&self) -> bool {
        self.unsuccessful() == 0
    }

    /// Add another tally's counts to this one.
    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.answered += other.answered;
        self.shed += other.shed;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }
}

/// One answered query, as the client saw it.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Pool index of the query.
    pub query: usize,
    /// The answer's exact digest.
    pub answer: Answer,
    /// Submit → answer on the client's clock, in seconds.
    pub latency_s: f64,
    /// When the answer arrived, in seconds since the stretch began.
    pub done_s: f64,
    /// This query's share of its dispatch's simulated time
    /// (`sim_batch_total / batch_size`), in seconds.
    pub sim_s: f64,
    /// The service's lifecycle record of the query.
    pub record: QueryRecord,
    /// The most heap bytes live at once between the previous answer (to
    /// any client) and this one. Counted only where the binary installs
    /// [`crate::heap::PeakHeap`]; 0 elsewhere.
    pub heap_peak: usize,
    /// The machine's CPU ticks when the answer arrived.
    pub host: CpuTicks,
}

/// The outcome of one stretch of closed-loop load.
#[derive(Debug, Clone, Default)]
pub struct Stretch {
    /// Counts over every submission.
    pub tally: Tally,
    /// Every answered query, client by client.
    pub samples: Vec<Sample>,
    /// From the first submission until the last client got its last answer.
    pub wall_s: f64,
}

impl Stretch {
    /// Append another stretch: counts and samples add, wall time adds.
    pub fn absorb(&mut self, other: Stretch) {
        self.tally.add(&other.tally);
        self.samples.extend(other.samples);
        self.wall_s += other.wall_s;
    }

    /// Every answer, by pool index.
    pub fn answers(&self) -> Vec<(usize, Answer)> {
        self.samples.iter().map(|s| (s.query, s.answer)).collect()
    }

    /// Answered queries per second of wall time.
    pub fn qps(&self) -> f64 {
        self.tally.answered as f64 / self.wall_s
    }
}

/// Drive `CLIENTS` closed-loop clients for `window`: each submits the next
/// query of its stream (resuming at `cursors[c]`) until the window has
/// passed. Answers are left unchecked (`tally.wrong` is 0).
pub fn drive(
    client: &ServiceClient<'_>,
    pool: &Pool,
    cursors: &mut [usize; CLIENTS],
    window: Duration,
) -> Stretch {
    let began = Instant::now();
    let per_client: Vec<(Tally, Vec<Sample>)> = std::thread::scope(|s| {
        let handles: Vec<_> = cursors
            .iter_mut()
            .zip(&pool.streams)
            .map(|(cursor, stream)| {
                s.spawn(move || {
                    let mut tally = Tally::default();
                    let mut samples = Vec::new();
                    while began.elapsed() < window {
                        let idx = stream[*cursor % stream.len()];
                        *cursor += 1;
                        tally.attempted += 1;
                        let sent = Instant::now();
                        let res = submit(client, &pool.queries[idx]);
                        let latency_s = sent.elapsed().as_secs_f64();
                        let heap_peak = heap::take_peak();
                        let host = CpuTicks::now();
                        match res {
                            Ok(outcome) => {
                                tally.answered += 1;
                                samples.push(Sample {
                                    query: idx,
                                    answer: Answer::of(&outcome.output),
                                    latency_s,
                                    done_s: began.elapsed().as_secs_f64(),
                                    sim_s: outcome.sim_batch_total / outcome.batch_size as f64,
                                    record: outcome.record,
                                    heap_peak,
                                    host,
                                });
                            }
                            Err(
                                ServerError::Overloaded
                                | ServerError::ShuttingDown
                                | ServerError::DeadlineExceeded,
                            ) => tally.shed += 1,
                            Err(_) => tally.failed += 1,
                        }
                    }
                    (tally, samples)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall_s = began.elapsed().as_secs_f64();
    let mut out = Stretch { wall_s, ..Stretch::default() };
    for (tally, samples) in per_client {
        out.tally.add(&tally);
        out.samples.extend(samples);
    }
    out
}
