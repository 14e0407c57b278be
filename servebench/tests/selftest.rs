//! Self-tests of the benchmark's own machinery: seeded regeneration, the
//! oracle's sensitivity, the percentile helper's refusal, metric naming,
//! the quartile convention, self-time accounting and the comparator.
//!
//! ```sh
//! cargo test --manifest-path servebench/Cargo.toml
//! ```

use kfusion::core::exec::{execute, ExecConfig};
use kfusion::relalg::{Column, Relation};
use kfusion::server::{QueryService, ServerConfig};
use kfusion::vgpu::GpuSystem;
use servebench::answer::Answer;
use servebench::compare::{bounds, load_runs, schedule, verdict, Bound, Verdict};
use servebench::ledger::{self_seconds, Span};
use servebench::metrics::{per_layer_names, valid_name, END_TO_END};
use servebench::stats::{percentile, quartiles, MIN_BEYOND};
use servebench::workload::{pool, registry, Query, Workload, CLIENTS};
use servebench::{layers, serve};
use std::time::Duration;

#[test]
fn same_seed_regenerates_identical_stream() {
    for w in Workload::ALL {
        let (a, b) = (pool(w, 42, 2), pool(w, 42, 2));
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{} pool differs", w.name());
        let other = pool(w, 43, 2);
        assert_ne!(format!("{a:?}"), format!("{other:?}"), "{} stream ignores the seed", w.name());
    }
    let tables = |seed| {
        registry(Workload::SqlAdhoc, seed).tables().iter().map(Answer::of).collect::<Vec<_>>()
    };
    assert_eq!(tables(42), tables(42));
    assert_ne!(tables(42), tables(43));
}

#[test]
fn adhoc_pool_is_all_fresh_texts() {
    let p = pool(Workload::SqlAdhoc, 5, 1);
    let mut texts: Vec<&str> = p
        .queries
        .iter()
        .chain(&p.warmup)
        .map(|q| match q {
            Query::Sql(t) => t.as_str(),
            Query::Plan(_) => panic!("sql_adhoc submits SQL text"),
        })
        .collect();
    let n = texts.len();
    texts.sort_unstable();
    texts.dedup();
    assert_eq!(texts.len(), n, "warm-up and pool texts are pairwise distinct");
}

fn flip_bit(rel: &mut Relation) {
    let Column::F64(v) = rel.cols.iter_mut().find(|c| matches!(c, Column::F64(_))).unwrap() else {
        unreachable!()
    };
    v[0] = f64::from_bits(v[0].to_bits() ^ 1);
}

#[test]
fn oracle_flags_a_single_perturbed_f64_bit() {
    // Real answers: the fused, optimized execution the service runs agrees
    // with the oracle, and flipping the lowest bit of one value does not.
    let system = GpuSystem::c2070();
    let reg = registry(Workload::SqlAdhoc, 9);
    let p = pool(Workload::SqlAdhoc, 9, 1);
    let queries: Vec<Query> = p.queries.into_iter().take(8).collect();
    let oracle = serve::oracle(&system, &reg, &queries, 0..queries.len()).expect("oracle");
    let cfg = ExecConfig::new(Workload::SqlAdhoc.strategy(), &system);
    let mut checked = 0;
    for (i, q) in queries.iter().enumerate() {
        let want = &oracle[&i];
        let Query::Sql(text) = q else { unreachable!() };
        let plan = reg.compile(text).expect("pool text compiles").plan;
        let mut out = execute(&system, &plan, reg.tables(), &cfg).expect("executes").output;
        assert_eq!(Answer::of(&out), *want, "served-path answer differs: {text}");
        if out.cols.iter().any(|c| matches!(c, Column::F64(v) if !v.is_empty())) {
            flip_bit(&mut out);
            assert_ne!(Answer::of(&out), *want, "one flipped bit went unnoticed: {text}");
            checked += 1;
        }
    }
    assert!(checked > 0, "no answer had an f64 value to perturb");
    // Signed zeros differ only in their bit pattern.
    let zero = |z: f64| Relation::new(vec![0], vec![Column::F64(vec![z])]).unwrap();
    assert_ne!(Answer::of(&zero(0.0)), Answer::of(&zero(-0.0)));
}

#[test]
fn a_failing_query_fails_the_run() {
    // Client 0's stream holds a text that cannot compile; client 1's only
    // good queries. The failures are counted, and they make the run
    // incorrect even though every answer that did arrive is right.
    let system = GpuSystem::c2070();
    let reg = registry(Workload::SqlAdhoc, 4);
    let mut p = pool(Workload::SqlAdhoc, 4, 1);
    p.queries.truncate(3);
    p.queries.push(Query::Sql("SELECT nothing FROM no_such_table".into()));
    p.streams = vec![vec![0, 3], vec![1, 2]];
    let cfg = ServerConfig::new(ExecConfig::new(Workload::SqlAdhoc.strategy(), &system));
    let window = Duration::from_millis(300);
    let stretch = QueryService::serve_catalog(&system, &reg, &cfg, |client| {
        serve::drive(client, &p, &mut [0; CLIENTS], window)
    });
    let t = stretch.tally;
    assert!(t.failed > 0 && t.answered > 0, "{t:?}");
    assert_eq!(serve::count_wrong(&system, &reg, &p.queries, &stretch.answers()), Ok(0));
    assert_eq!(t.unsuccessful(), t.failed);
    assert!(!t.correct(), "failed queries must fail the run");

    p.streams = vec![vec![0, 1], vec![1, 2]];
    let healthy = QueryService::serve_catalog(&system, &reg, &cfg, |client| {
        serve::drive(client, &p, &mut [0; CLIENTS], window)
    });
    assert!(healthy.tally.correct(), "{:?}", healthy.tally);
}

#[test]
fn percentile_refuses_fewer_than_ten_beyond() {
    let samples = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
    assert!(percentile(&samples(199), 0.95).is_err());
    assert_eq!(percentile(&samples(200), 0.95), Ok(189.0));
    assert!(percentile(&samples(19), 0.5).is_err());
    assert_eq!(percentile(&samples(20), 0.5), Ok(9.0));
    let v = samples(200);
    let p95 = percentile(&v, 0.95).unwrap();
    assert_eq!(v.iter().filter(|&&x| x > p95).count(), MIN_BEYOND);
}

#[test]
fn every_emitted_metric_name_is_legal_and_declared() {
    let legal = |n: &str| {
        !n.is_empty() && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let layer = per_layer_names();
    for n in
        END_TO_END.iter().map(|(n, _)| n.to_string()).chain(layer.iter().map(|(n, _)| n.clone()))
    {
        assert!(legal(&n) && valid_name(&n), "illegal metric name {n:?}");
    }
    // The names a traced replay actually emits are all declared.
    let system = GpuSystem::c2070();
    let reg = registry(Workload::SqlAdhoc, 3);
    let p = pool(Workload::SqlAdhoc, 3, 1);
    let cfg = ExecConfig::new(Workload::SqlAdhoc.strategy(), &system);
    let replay = layers::replay(&system, &reg, &cfg, &p, 3, Duration::from_secs(60));
    assert_eq!(replay.tally.answered, 3);
    assert_eq!(serve::count_wrong(&system, &reg, &p.queries, &replay.answers), Ok(0));
    for m in &replay.metrics {
        assert!(legal(&m.name), "illegal emitted name {:?}", m.name);
        assert!(layer.iter().any(|(n, _)| *n == m.name), "undeclared metric {:?}", m.name);
    }
    // BENCHMARK.json declares exactly the metrics a run emits.
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc = kfusion::trace::json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(|v| v.as_arr())
            .expect("metric list")
            .iter()
            .map(|m| m.get("name").and_then(|n| n.as_str()).expect("name").to_string())
            .collect()
    };
    let e2e: Vec<String> = END_TO_END
        .iter()
        .filter(|(n, _)| servebench::metrics::in_result_line(n))
        .map(|(n, _)| n.to_string())
        .collect();
    assert_eq!(names("end_to_end"), e2e);
    assert_eq!(names("per_layer"), layer.into_iter().map(|(n, _)| n).collect::<Vec<_>>());
    assert_eq!(bounds(&text).expect("bounds").len(), e2e.len());
}

#[test]
fn quartiles_match_python_statistics() {
    // statistics.quantiles(v, n=4) in Python 3.11.
    let v = [5.0, 1.0, 3.0, 2.0, 4.0, 9.0, 7.0, 8.0, 6.0, 10.0];
    assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
    assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    assert_eq!(quartiles(&[3.5, 1.25, 2.0, 8.0, 4.0]), [1.625, 3.5, 6.0]);
}

#[test]
fn self_time_subtracts_covered_child_intervals() {
    let span = |parent, start, end| Span { query: 0, parent, name: "x", start, end };
    let spans = vec![
        Span { name: "root", ..span(None, 0.0, 10.0) },
        Span { name: "a", ..span(Some(0), 1.0, 4.0) },
        Span { name: "b", ..span(Some(0), 3.0, 6.0) },
        Span { name: "c", ..span(Some(2), 3.5, 4.5) },
    ];
    let s = self_seconds(&spans);
    assert_eq!(s["root"], 5.0); // children cover [1, 6]
    assert_eq!(s["a"], 3.0);
    assert_eq!(s["b"], 2.0);
    assert_eq!(s["c"], 1.0);
}

#[test]
fn comparator_verdicts() {
    let b = Bound { bound: 0.1, lower_is_better: true };
    let base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0];
    let shift = |k: f64| base.map(|x| x * k);
    assert_eq!(verdict(&base, &shift(1.05), b), Verdict::WithinBound);
    assert_eq!(verdict(&base, &shift(1.2), b), Verdict::Worse);
    assert_eq!(verdict(&base, &shift(0.9), b), Verdict::Better);
    let wide = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0];
    assert_eq!(verdict(&base, &wide, b), Verdict::Unresolved);
    let higher = Bound { bound: 0.1, lower_is_better: false };
    assert_eq!(verdict(&base, &shift(0.8), higher), Verdict::Worse);
    assert_eq!(verdict(&base, &shift(1.1), higher), Verdict::Better);
}

#[test]
fn comparator_refuses_mixed_run_lengths() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let (seconds, workloads) = schedule(&text).expect("run_seconds and workloads");
    assert!(seconds >= 1 && !workloads.is_empty());
    assert!(workloads.iter().all(|w| Workload::parse(w).is_some()), "{workloads:?}");

    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("mixed_lengths");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let run = |seed: u64, seconds: u64| {
        let out = format!(
            "servebench tpch_joins seed={seed} seconds={seconds} trace=0\n\
             {{\"correct\": true, \"attempted\": 9, \"failed\": 0, \
             \"metrics\": {{\"qps\": {{\"value\": 1.5, \"unit\": \"1/s\"}}}}}}\n"
        );
        std::fs::write(dir.join(format!("tpch_joins.trace0.seed{seed}.json")), out).unwrap();
    };
    run(1, 50);
    run(2, 50);
    let (len, runs) = load_runs(&dir).expect("one length");
    assert_eq!(len, 50);
    assert_eq!(runs["tpch_joins"][&0]["qps"], vec![1.5, 1.5]);
    run(3, 20);
    assert!(load_runs(&dir).is_err(), "runs of 50 s and 20 s were mixed");
}

#[test]
fn calm_blocks_drop_stolen_stretches() {
    use servebench::host::CpuTicks;
    use servebench::stats::calm_blocks;
    // No steal: every block is kept.
    assert_eq!(calm_blocks(&[0.0; 6]), (0..6).collect::<Vec<_>>());
    assert_eq!(calm_blocks(&[0.004, 0.0, 0.009, 0.002]), vec![0, 1, 2, 3]);
    // A short episode is dropped whole.
    assert_eq!(calm_blocks(&[0.0, 0.0, 0.3, 0.2, 0.0, 0.0, 0.0]), vec![0, 1, 4, 5, 6]);
    // A long one leaves the least-stolen half.
    assert_eq!(calm_blocks(&[0.3, 0.1, 0.4, 0.05, 0.2]), vec![1, 3, 4]);

    let stat = "cpu  100 5 20 800 3 0 2 70 9 0\ncpu0 50 2 10 400 1 0 1 35 0 0\n";
    let t = CpuTicks::parse(stat).expect("cpu line");
    assert_eq!(t, CpuTicks { steal: 70, total: 1000 });
    let later = CpuTicks { steal: 170, total: 2000 };
    assert_eq!(later.steal_share_since(&t), 0.1);
    assert_eq!(t.steal_share_since(&t), 0.0);
}

#[test]
fn blocks_cover_every_answer_once() {
    for (n, k) in [(150, 1), (1000, 5), (10_000, 15)] {
        let b = servebench::stats::blocks(n, 200, 15);
        assert_eq!(b.len(), k);
        assert_eq!(b.first().unwrap().start, 0);
        assert_eq!(b.last().unwrap().end, n);
        assert!(b.windows(2).all(|w| w[0].end == w[1].start));
        assert!(k == 1 || b.iter().all(|r| r.len() >= 200));
    }
}
