//! The `servebench` command.
//!
//! ```text
//! servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! servebench sweep --out DIR [--runs N] [--seed0 N] [--trace 0|1] [--workloads a,b,..]
//! servebench compare PARENT_DIR CHANGE_DIR
//! ```
//!
//! A run prints a readable report and ends with one JSON result line. With
//! `--trace 0` it reports the end-to-end metrics; with `--trace 1` the
//! per-layer ledger. `sweep` repeats runs over consecutive seeds into a
//! directory and prints each metric's quartiles; `compare` judges two such
//! directories against each other. Both read the repository's
//! `BENCHMARK.json`: `sweep` takes its run length and, by default, its
//! workloads from there, and `compare` its bounds.

use kfusion::core::exec::ExecConfig;
use kfusion::server::{
    CacheStats, HostStage, QueryService, ServerConfig, ServiceClient, TableRegistry,
};
use kfusion::vgpu::GpuSystem;
use servebench::metrics::{self, Metric, END_TO_END};
use servebench::serve::{self, Stretch, Tally};
use servebench::stats::{self, mean, median, percentile, quartiles, spread};
use servebench::workload::{self, Pool, Workload, CLIENTS, WORKERS};
use servebench::{compare, heap, layers};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Share of a traced run's `--seconds` spent serving (the A/B slices that
/// give `trace.overhead_frac`); the replay gets the rest.
const SERVE_SHARE: f64 = 0.7;

struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

/// Counts live and peak heap bytes for `peak_heap_mb`; malloc keeps its
/// default policy.
#[global_allocator]
static HEAP: heap::PeakHeap = heap::PeakHeap;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let res = match args.first().map(String::as_str) {
        Some("sweep") => sweep(&args[1..]),
        Some("compare") => compare_dirs(&args[1..]),
        _ => parse_run_args(&args).and_then(run),
    };
    res.unwrap_or_else(|e| {
        eprintln!("servebench: {e}");
        ExitCode::from(2)
    })
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.filter(|&s| s > 0).ok_or("--seconds (at least 1) is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run(a: RunArgs) -> Result<ExitCode, String> {
    let system = GpuSystem::c2070();
    let pool = workload::pool(a.workload, a.seed, a.seconds);
    let mut cfg = ServerConfig::new(ExecConfig::new(a.workload.strategy(), &system));
    cfg.workers = WORKERS;
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "servebench {} seed={} seconds={} trace={} clients={CLIENTS} workers={WORKERS} \
         cores={cores} pool={} queries",
        a.workload.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        pool.queries.len()
    );
    let (tally, metrics) = if a.trace {
        traced(&system, &a, &cfg, &pool)?
    } else {
        untraced(&system, &a, &cfg, &pool)?
    };
    println!(
        "attempted {} answered {} shed {} failed {} wrong {}",
        tally.attempted, tally.answered, tally.shed, tally.failed, tally.wrong
    );
    print!("{}", metrics::table(&metrics));
    let reported: Vec<Metric> =
        metrics.into_iter().filter(|m| metrics::in_result_line(&m.name)).collect();
    let correct = tally.correct();
    println!("{}", metrics::result_line(correct, tally.attempted, tally.unsuccessful(), &reported));
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Set up `reps` times — generate the tables, build the registry, start
/// the service, serve the warm-up queries — and time each set-up. Inside
/// the last service, run `measure`. Returns the set-up times, the last
/// registry and what `measure` returned.
fn with_service<R>(
    system: &GpuSystem,
    a: &RunArgs,
    cfg: &ServerConfig,
    pool: &Pool,
    reps: usize,
    measure: impl FnOnce(&ServiceClient<'_>) -> R,
) -> Result<(Vec<f64>, TableRegistry, R), String> {
    let mut setup = Vec::with_capacity(reps);
    let mut measure = Some(measure);
    for rep in 0..reps {
        let began = Instant::now();
        let registry = workload::registry(a.workload, a.seed);
        let out = QueryService::serve_catalog(system, &registry, cfg, |client| {
            for q in &pool.warmup {
                serve::submit(client, q).map_err(|e| format!("warm-up query failed: {e}"))?;
            }
            setup.push(began.elapsed().as_secs_f64());
            let measure = if rep + 1 == reps { measure.take() } else { None };
            Ok::<_, String>(measure.map(|m| m(client)))
        })?;
        if let Some(out) = out {
            return Ok((setup, registry, out));
        }
    }
    Err("no set-up ran".into())
}

/// The untraced run: the end-to-end metrics.
fn untraced(
    system: &GpuSystem,
    a: &RunArgs,
    cfg: &ServerConfig,
    pool: &Pool,
) -> Result<(Tally, Vec<Metric>), String> {
    let window = Duration::from_secs(a.seconds);
    let (setup, registry, stretch) = with_service(system, a, cfg, pool, SETUP_REPS, |client| {
        let mut cursors = [0; CLIENTS];
        heap::reset_peak();
        let stretch = serve::drive(client, pool, &mut cursors, window);
        if cursors.iter().zip(&pool.streams).any(|(&c, s)| c > s.len()) {
            println!("note: a client ran past the end of its stream and repeated queries");
        }
        stretch
    })?;
    // Read before the oracle runs, so only set-up and serving count.
    let peak_rss = peak_rss_mb()?;
    let mut t = stretch.tally;
    t.wrong = serve::count_wrong(system, &registry, &pool.queries, &stretch.answers())?;
    let sim_ms: f64 = stretch.samples.iter().map(|s| s.sim_s * 1e3).sum();
    let [qps, p50, p95, peak_heap] = block_medians(&stretch.samples)?;
    let values = [
        qps,
        p50,
        p95,
        sim_ms / t.answered.max(1) as f64,
        t.unsuccessful() as f64 / t.attempted.max(1) as f64,
        median(&setup),
        peak_rss,
        peak_heap / MIB,
    ];
    let metrics = END_TO_END.iter().zip(values).map(|(&(n, u), v)| Metric::new(n, v, u)).collect();
    Ok((t, metrics))
}

/// Answers per block: enough for ten samples beyond the 95th percentile.
const BLOCK: usize = 200;

/// Most blocks a run is split into.
const MAX_BLOCKS: usize = 15;

/// Throughput, latency and peak heap as medians over consecutive blocks of
/// answers.
///
/// The answers, in arrival order, are split into blocks of at least
/// [`BLOCK`]. Each block gives its throughput (answers over the time since
/// the previous block's last answer), its exact p50 and p95, and the most
/// heap bytes live at once while it was served. The run reports the median
/// of each over the blocks that [`stats::calm_blocks`] keeps: the host's
/// hypervisor steal (CPU time taken by other guests of a shared machine)
/// decides which, never the figures themselves. A burst of host contention
/// then moves the figures of a minority of the kept blocks at most, and a
/// rare coincidence of the largest intermediates on both workers moves the
/// heap figure of a minority of blocks only.
fn block_medians(samples: &[serve::Sample]) -> Result<[f64; 4], String> {
    let mut by_arrival: Vec<&serve::Sample> = samples.iter().collect();
    by_arrival.sort_by(|a, b| a.done_s.total_cmp(&b.done_s));
    let mut per_block = Vec::new();
    let mut steal = Vec::new();
    let (mut since, mut host) = (0.0, by_arrival.first().map(|s| s.host).unwrap_or_default());
    for range in stats::blocks(by_arrival.len(), BLOCK, MAX_BLOCKS) {
        let block = &by_arrival[range];
        let Some(last) = block.last() else { continue };
        let lat_ms: Vec<f64> = block.iter().map(|s| s.latency_s * 1e3).collect();
        per_block.push([
            block.len() as f64 / (last.done_s - since),
            percentile(&lat_ms, 0.5).map_err(|e| e.to_string())?,
            percentile(&lat_ms, 0.95).map_err(|e| e.to_string())?,
            block.iter().map(|s| s.heap_peak).max().unwrap_or(0) as f64,
        ]);
        steal.push(last.host.steal_share_since(&host));
        (since, host) = (last.done_s, last.host);
    }
    let kept = stats::calm_blocks(&steal);
    println!(
        "latency samples {} in {} blocks; host steal per block (%): {}; {} blocks kept",
        samples.len(),
        per_block.len(),
        steal.iter().map(|s| format!("{:.1}", s * 100.0)).collect::<Vec<_>>().join(" "),
        kept.len()
    );
    Ok(std::array::from_fn(|m| median(&kept.iter().map(|&i| per_block[i][m]).collect::<Vec<_>>())))
}

/// The traced run: serve in alternating untraced / traced slices (for
/// `trace.overhead_frac` and the server-stage medians), then replay a
/// bounded prefix of the stream through each layer.
fn traced(
    system: &GpuSystem,
    a: &RunArgs,
    cfg: &ServerConfig,
    pool: &Pool,
) -> Result<(Tally, Vec<Metric>), String> {
    let window = Duration::from_secs(a.seconds);
    let slice = window.mul_f64(SERVE_SHARE / 5.0);
    let (_, registry, (off, on, before, after)) =
        with_service(system, a, cfg, pool, 1, |client| {
            let before = client.cache_stats();
            let (mut off, mut on) = (Stretch::default(), Stretch::default());
            let mut cursors = [0; CLIENTS];
            // An unrecorded lead-in lets the heap grow to its steady size
            // first; then ABBA order, so drift over the run favours neither.
            serve::drive(client, pool, &mut cursors, slice);
            for traced in [false, true, true, false] {
                kfusion::trace::set_enabled(traced);
                let s = serve::drive(client, pool, &mut cursors, slice);
                kfusion::trace::set_enabled(false);
                if traced {
                    on.absorb(s)
                } else {
                    off.absorb(s)
                }
            }
            kfusion::trace::reset();
            (off, on, before, client.cache_stats())
        })?;
    // Whole mix blocks per client on the fixed-mix workloads, so the replay
    // holds each query class in its served share.
    let limit = match a.workload {
        Workload::SqlAdhoc => 400,
        Workload::SqlDashboard | Workload::TpchJoins => CLIENTS * workload::MIX_BLOCK,
    };
    let budget = window.mul_f64(1.0 - SERVE_SHARE);
    let replay = layers::replay(system, &registry, &cfg.exec, pool, limit, budget);
    let mut answers = off.answers();
    answers.extend(on.answers());
    answers.extend(&replay.answers);

    let spans_out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(format!(
        "{}.seed{}.spans.json",
        a.workload.name(),
        a.seed
    ));
    if let Some(dir) = spans_out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&spans_out, replay.ledger.chrome_json())
        .map_err(|e| format!("{}: {e}", spans_out.display()))?;
    println!("replayed {} queries; spans in {}", replay.tally.attempted, spans_out.display());
    println!("self time per query by span:");
    let n = replay.tally.answered.max(1) as f64;
    for (name, s) in replay.ledger.self_seconds() {
        println!("  {name:<20} {:>12.1} us", s / n * 1e6);
    }

    let mut metrics = replay.metrics;
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    let lookups = hits + misses;
    metrics.extend(cache_metrics(hits, lookups, &after));
    let stage_ms = |stage: HostStage| {
        median(&off.samples.iter().map(|s| s.record.host_stage(stage) * 1e3).collect::<Vec<_>>())
    };
    metrics.push(Metric::new("server.answered", off.tally.answered as f64, "count"));
    for (name, stage) in [
        ("server.queue_wait_ms", HostStage::QueueWait),
        ("server.batch_form_ms", HostStage::BatchForm),
        ("server.compile_ms", HostStage::Compile),
        ("server.execute_ms", HostStage::Execute),
        ("server.reply_ms", HostStage::Reply),
    ] {
        metrics.push(Metric::new(name, stage_ms(stage), "ms"));
    }
    let batches: Vec<f64> = off.samples.iter().map(|s| s.record.batch_size as f64).collect();
    metrics.push(Metric::new("server.mean_batch", mean(&batches), "count"));
    metrics.push(Metric::new("trace.overhead_frac", 1.0 - on.qps() / off.qps(), "ratio"));
    println!(
        "serving: untraced {:.2} qps over {:.2} s, traced {:.2} qps over {:.2} s",
        off.qps(),
        off.wall_s,
        on.qps(),
        on.wall_s
    );

    // Order as listed in BENCHMARK.json's per_layer section.
    let order = metrics::per_layer_names();
    metrics.sort_by_key(|m| order.iter().position(|(n, _)| *n == m.name).unwrap_or(usize::MAX));
    let mut tally = off.tally;
    tally.add(&on.tally);
    tally.add(&replay.tally);
    tally.wrong = serve::count_wrong(system, &registry, &pool.queries, &answers)?;
    Ok((tally, metrics))
}

fn cache_metrics(hits: u64, lookups: u64, after: &CacheStats) -> [Metric; 3] {
    [
        Metric::new("cache.hit_rate", hits as f64 / lookups.max(1) as f64, "ratio"),
        Metric::new("cache.lookups", lookups as f64, "count"),
        Metric::new("cache.entries", after.entries as f64, "count"),
    ]
}

/// Bytes in a MiB.
const MIB: f64 = 1024.0 * 1024.0;

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The repository's `BENCHMARK.json`, which fixes the bounds, the run
/// length and the gated workloads.
fn benchmark_json() -> Result<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// `sweep`: run this command over consecutive seeds, each run as long as
/// `BENCHMARK.json`'s `run_seconds`, keep each run's output, and print
/// every metric's median, quartiles and spread.
fn sweep(args: &[String]) -> Result<ExitCode, String> {
    let spec = benchmark_json()?;
    let (seconds, gated) = compare::schedule(&spec)?;
    let (mut out, mut runs, mut seed0, mut trace) = (None, 10u64, 1u64, 0u8);
    let mut workloads = gated
        .iter()
        .map(|w| Workload::parse(w).ok_or(format!("unknown workload {w:?} in BENCHMARK.json")))
        .collect::<Result<Vec<_>, _>>()?;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--out" => out = Some(PathBuf::from(v)),
            "--runs" => runs = num(v)?,
            "--seed0" => seed0 = num(v)?,
            "--trace" => trace = num(v)?.min(1) as u8,
            "--workloads" => {
                workloads = v
                    .split(',')
                    .map(|w| Workload::parse(w).ok_or(format!("unknown workload {w:?}")))
                    .collect::<Result<_, _>>()?
            }
            other => return Err(format!("unknown sweep argument {other:?}")),
        }
    }
    let out = out.ok_or("sweep needs --out DIR")?;
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bounds = compare::bounds(&spec)?;
    let mut ok = true;
    for w in &workloads {
        for seed in seed0..seed0 + runs {
            let began = Instant::now();
            let res = std::process::Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", &trace.to_string()])
                .output()
                .map_err(|e| e.to_string())?;
            eprintln!(
                "{} seed {seed}: exit {} in {:.1} s",
                w.name(),
                res.status,
                began.elapsed().as_secs_f64()
            );
            if !res.status.success() {
                ok = false;
                eprint!("{}", String::from_utf8_lossy(&res.stderr));
                continue;
            }
            let path = out.join(format!("{}.trace{trace}.seed{seed}.json", w.name()));
            std::fs::write(&path, &res.stdout).map_err(|e| e.to_string())?;
        }
    }
    let (_, all) = compare::load_runs(&out)?;
    println!(
        "{:<14} {:<24} {:>12} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "q1", "median", "q3", "spread", "bound"
    );
    for w in &workloads {
        let Some(metrics) = all.get(w.name()).and_then(|t| t.get(&trace)) else { continue };
        for (name, v) in metrics {
            if v.len() < 2 {
                continue;
            }
            let [q1, med, q3] = quartiles(v);
            let bound = bounds.get(name).map_or(String::new(), |b| b.bound.to_string());
            println!(
                "{:<14} {name:<24} {q1:>12.4} {med:>12.4} {q3:>12.4} {:>8.4} {bound:>7}",
                w.name(),
                spread(v)
            );
        }
    }
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// `compare`: judge a change's sweep directory against the parent's.
fn compare_dirs(args: &[String]) -> Result<ExitCode, String> {
    let [parent, change] = args else {
        return Err("compare takes PARENT_DIR CHANGE_DIR".into());
    };
    let (p_seconds, parent) = compare::load_runs(Path::new(parent))?;
    let (c_seconds, change) = compare::load_runs(Path::new(change))?;
    if p_seconds != c_seconds {
        return Err(format!("parent runs last {p_seconds} s and change runs {c_seconds} s"));
    }
    print!("{}", compare::report(&parent, &change, &compare::bounds(&benchmark_json()?)?));
    Ok(ExitCode::SUCCESS)
}
