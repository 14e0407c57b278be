//! Metric names, units, and the result line a run ends with.

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, matching `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, e.g. `ms`, `1/s`, `count`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric { name: name.into(), value, unit }
    }
}

/// The end-to-end metrics of an untraced run, with units, in report order.
///
/// All are printed; two stay out of the result line's `metrics` (see
/// [`in_result_line`]).
pub const END_TO_END: [(&str, &str); 8] = [
    ("qps", "1/s"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("sim_ms_per_query", "ms"),
    ("failed_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("peak_heap_mb", "MB"),
];

/// End-to-end metrics that appear in the result line, and so are gated.
///
/// Gated end-to-end metrics must never read 0 and must repeat from run to
/// run. `failed_frac` is 0 on every passing run: a run with any failed,
/// shed or wrong query is not correct and exits nonzero, and the result
/// line's `attempted` and `failed` carry the fraction. `peak_rss_mb`
/// (`VmHWM`) depends on how glibc's per-thread arenas fragment in one run
/// more than on the program's memory; `peak_heap_mb`, the peak of live
/// heap bytes, is gated in its place.
pub fn in_result_line(name: &str) -> bool {
    !matches!(name, "failed_frac" | "peak_rss_mb")
}

/// Operator classes of the functional phase, as `op.<class>_ms` names.
pub const OP_CLASSES: [&str; 11] = [
    "select",
    "arithextend",
    "aggregate",
    "sort",
    "columnjoin",
    "semijoin",
    "antijoin",
    "project",
    "rekey",
    "unique",
    "other",
];

/// The per-layer metrics of a traced run, with units, in report order.
///
/// A traced result line carries every one of them. Unlike the end-to-end
/// metrics they may read 0: a layer that does not run on a workload
/// reports 0 there (the SQL frontend on `tpch_joins`, the join operators on
/// `sql_dashboard`).
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("ledger.queries", "count"),
        ("frontend.compile_us", "us"),
        ("cache.key_us", "us"),
        ("cache.hit_rate", "ratio"),
        ("cache.lookups", "count"),
        ("cache.entries", "count"),
        ("prepare.us", "us"),
        ("prepare.fused_groups", "count"),
        ("exec.wall_ms", "ms"),
        ("exec.functional_ms", "ms"),
        ("exec.overhead_ms", "ms"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    out.extend(OP_CLASSES.iter().map(|c| (format!("op.{c}_ms"), "ms")));
    out.extend(
        [
            ("des.simulate_us", "us"),
            ("sim.h2d_ms", "ms"),
            ("sim.compute_ms", "ms"),
            ("sim.d2h_ms", "ms"),
            ("server.answered", "count"),
            ("server.queue_wait_ms", "ms"),
            ("server.batch_form_ms", "ms"),
            ("server.compile_ms", "ms"),
            ("server.execute_ms", "ms"),
            ("server.reply_ms", "ms"),
            ("server.mean_batch", "count"),
            ("trace.overhead_frac", "ratio"),
        ]
        .into_iter()
        .map(|(n, u)| (n.to_string(), u)),
    );
    out
}

/// Whether `name` is a legal metric name: 1 to 64 letters, digits, `_`,
/// `.` or `-`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The JSON object a run prints as its last line of output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(valid_name(&m.name), "illegal metric name {:?}", m.name);
            assert!(m.value.is_finite(), "metric {} is not finite: {}", m.name, m.value);
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The human-readable metric table printed above the result line.
pub fn table(metrics: &[Metric]) -> String {
    metrics.iter().map(|m| format!("  {:<24} {:>14.6} {}\n", m.name, m.value, m.unit)).collect()
}
