//! The traced run: per-layer metrics.
//!
//! The workload's operations are replayed in this process through the
//! same public functions the CLI and the daemon call, each call timed
//! from here: `parse_program`, `analyze`, `build_hsg`,
//! `conventional_loop_test`, `Analyzer::run`, `judge_all`,
//! `lint_program`, `codegen::transform`, the report encoding and
//! `protocol::parse_request` / `ok_response`, with the summary cache
//! behind a wrapper that times `get` and `put`. A `trace::Collector`
//! installed around each operation records the spans the program
//! already emits (`sum_*`, `content:*`, `alias:*`, ...), which are
//! folded into self time per layer, and its counters.
//!
//! Passes alternate between untraced (no collector) and traced; every
//! per-layer figure is the median over traced passes of a per-pass
//! mean per analyzed program. `trace.overhead_frac` compares the two
//! kinds of pass. Every replayed report is compared with the cache-less
//! driver's report of the same source, so the replica cannot drift
//! from the path the end-to-end run measures.

use crate::gen;
use crate::service::{self, Daemon, Pipeline};
use crate::util::{self, ms};
use crate::{batch, Ctx, RunResult};
use dataflow::{
    CacheCounters, CacheKey, CachedRoutine, DiskCache, DiskTierSnapshot, MemoryCache, SummaryCache, TieredCache,
};
use panorama::driver::Outcome;
use panorama::{FuelLimits, Options};
use serde::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Cache activity, accumulated by [`TimedCache`].
#[derive(Clone, Copy, Default)]
struct CacheTally {
    get: Duration,
    put: Duration,
    hits: u64,
    misses: u64,
    puts: u64,
}

/// The daemon's summary cache behind a wrapper that times every `get`
/// and `put` it delegates.
struct TimedCache {
    inner: Arc<dyn SummaryCache>,
    tally: Mutex<CacheTally>,
}

impl TimedCache {
    /// The warm daemon's two tiers over `dir`: unbounded memory in
    /// front of a disk tier with the default byte budget.
    fn tiered(dir: &Path) -> Arc<TimedCache> {
        let disk = Arc::new(DiskCache::open(dir, None));
        Arc::new(TimedCache {
            inner: Arc::new(TieredCache::new(MemoryCache::new(), disk)),
            tally: Mutex::new(CacheTally::default()),
        })
    }

    fn tally(&self) -> CacheTally {
        *self.tally.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn snapshot(&self) -> DiskTierSnapshot {
        self.inner.disk().unwrap_or_default()
    }
}

impl SummaryCache for TimedCache {
    fn get(&self, key: &CacheKey) -> Option<Arc<CachedRoutine>> {
        let t0 = Instant::now();
        let hit = self.inner.get(key);
        let dt = t0.elapsed();
        let mut t = self.tally.lock().unwrap_or_else(PoisonError::into_inner);
        t.get += dt;
        if hit.is_some() {
            t.hits += 1;
        } else {
            t.misses += 1;
        }
        hit
    }

    fn put(&self, key: CacheKey, entry: Arc<CachedRoutine>) {
        let t0 = Instant::now();
        self.inner.put(key, entry);
        let dt = t0.elapsed();
        let mut t = self.tally.lock().unwrap_or_else(PoisonError::into_inner);
        t.put += dt;
        t.puts += 1;
    }

    fn counters(&self) -> CacheCounters {
        self.inner.counters()
    }

    fn disk(&self) -> Option<DiskTierSnapshot> {
        self.inner.disk()
    }
}

/// Per-pass totals.
#[derive(Clone, Default)]
struct Acc {
    ops: u64,
    wall: Duration,
    // Direct timers around public calls.
    decode: Duration,
    parse: Duration,
    sema: Duration,
    hsg: Duration,
    conventional: Duration,
    run: Duration,
    roots: Duration,
    judge: Duration,
    lint: Duration,
    codegen: Duration,
    report: Duration,
    encode: Duration,
    bookkeeping: Duration,
    // Span self times, microseconds.
    sum_loop: u64,
    sum_call: u64,
    sum_routine: u64,
    content_body: u64,
    content_refine: u64,
    content_lint: u64,
    alias_classify: u64,
    // Counters.
    counters: BTreeMap<String, u64>,
    nodes_processed: u64,
    peak_state: u64,
    report_bytes: u64,
    request_bytes: u64,
    response_bytes: u64,
}

impl Acc {
    /// Time claimed by the direct timers.
    fn claimed(&self) -> Duration {
        self.decode
            + self.parse
            + self.sema
            + self.hsg
            + self.conventional
            + self.run
            + self.roots
            + self.judge
            + self.lint
            + self.codegen
            + self.report
            + self.encode
            + self.bookkeeping
    }

    fn count(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Folds a span forest: self time by layer, counters by name.
    fn fold(&mut self, nodes: &[trace::SpanNode]) {
        for n in nodes {
            let children: u64 = n.children.iter().map(|c| c.dur_us).sum();
            let own = n.dur_us.saturating_sub(children);
            let slot = match n.name.as_str() {
                s if s.starts_with("sum_loop:") => Some(&mut self.sum_loop),
                s if s.starts_with("sum_call:") => Some(&mut self.sum_call),
                s if s.starts_with("sum_routine:") => Some(&mut self.sum_routine),
                "content:body" => Some(&mut self.content_body),
                "content:refine" => Some(&mut self.content_refine),
                "content:lint" => Some(&mut self.content_lint),
                s if s.starts_with("alias:") => Some(&mut self.alias_classify),
                _ => None,
            };
            if let Some(slot) = slot {
                *slot += own;
            }
            self.add_counters(&n.counters);
            self.fold(&n.children);
        }
    }

    fn add_counters(&mut self, counters: &[(String, u64)]) {
        for (k, v) in counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
    }
}

fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *slot += t0.elapsed();
    out
}

/// `deptest::conventional_loop_test` over every loop, as the pipeline's
/// pre-filter runs it.
fn conventional(program: &fortran::Program, sema: &fortran::ProgramSema) -> Vec<String> {
    fn visit<'a>(body: &'a [fortran::Stmt], f: &mut impl FnMut(&'a fortran::Stmt)) {
        for s in body {
            match &s.kind {
                fortran::StmtKind::Do { body, .. } => {
                    f(s);
                    visit(body, f);
                }
                fortran::StmtKind::If {
                    then_body,
                    else_body,
                    ..
                } => {
                    visit(then_body, f);
                    visit(else_body, f);
                }
                fortran::StmtKind::LogicalIf(_, inner) => visit(std::slice::from_ref(inner), f),
                _ => {}
            }
        }
    }
    let mut parallel = Vec::new();
    for r in &program.routines {
        let table = &sema.tables[&r.name];
        visit(&r.body, &mut |stmt| {
            if deptest::conventional_loop_test(stmt, table) == deptest::ConvVerdict::Parallel {
                if let fortran::StmtKind::Do { var, .. } = &stmt.kind {
                    parallel.push(format!("{}/{}", r.name, var));
                }
            }
        });
    }
    parallel
}

/// The analysis pipeline, one public call at a time.
fn pipeline(
    source: &str,
    opts: Options,
    emit: bool,
    limits: FuelLimits,
    cache: Option<Arc<dyn SummaryCache>>,
    acc: &mut Acc,
) -> Result<Outcome, String> {
    let program = timed(&mut acc.parse, || fortran::parse_program(source)).map_err(|e| e.to_string())?;
    let sema = timed(&mut acc.sema, || fortran::analyze(&program)).map_err(|e| e.to_string())?;
    let graph = timed(&mut acc.hsg, || hsg::build_hsg(&program)).map_err(|e| e.to_string())?;
    let conventional_parallel = timed(&mut acc.conventional, || conventional(&program, &sema));
    let t0 = Instant::now();
    let mut az = dataflow::Analyzer::with_limits(&program, &sema, &graph, opts, cache, limits);
    let routines = az.run();
    acc.run += t0.elapsed();
    let verdicts = timed(&mut acc.judge, || privatize::judge_all(&az.loops));
    let degrade_reason = az.degradation();
    let (loops, stats, trace) = az.finish();
    acc.nodes_processed += stats.nodes_processed as u64;
    acc.peak_state = acc.peak_state.max(stats.peak_state_size as u64);
    let lints = timed(&mut acc.lint, || {
        alias::lint_program(
            &program,
            &sema,
            opts.interprocedural,
            opts.value_range,
            opts.content,
        )
    });
    let analysis = panorama::Analysis {
        program,
        sema,
        hsg: graph,
        routines,
        loops,
        verdicts,
        conventional_parallel,
        stats,
        times: panorama::PhaseTimes::default(),
        trace,
        lints,
        degrade_reason,
    };
    let transform = emit.then(|| {
        timed(&mut acc.codegen, || {
            codegen::transform(
                &analysis.program,
                &analysis.sema,
                &analysis.loops,
                &analysis.verdicts,
            )
        })
    });
    Ok(Outcome {
        analysis,
        oracle: None,
        transform,
        precision: None,
    })
}

/// Runs `op` as one operation of a pass, under a fresh collector when
/// `traced`, and folds the collected spans into `acc`.
fn operation<T>(traced: bool, acc: &mut Acc, op: impl FnOnce(&mut Acc) -> T) -> T {
    let t0 = Instant::now();
    let scope = traced.then(|| trace::CollectorScope::install(trace::Collector::new()));
    let out = op(acc);
    let collector = scope.and_then(trace::CollectorScope::finish);
    acc.wall += t0.elapsed();
    acc.ops += 1;
    if let Some(c) = collector {
        acc.fold(&c.tree());
        acc.add_counters(c.top_level_counters());
    }
    out
}

/// One batch operation: the pipeline with emission and the encoded
/// report line.
fn batch_op(source: &str, opts: Options, acc: &mut Acc) -> Result<String, String> {
    let out = pipeline(source, opts, true, FuelLimits::unlimited(), None, acc)?;
    let line = timed(&mut acc.report, || serde_json::to_string(&out.json())).map_err(|e| e.to_string())?;
    acc.report_bytes += line.len() as u64;
    Ok(line)
}

/// The daemon's default budgets.
fn daemon_limits() -> FuelLimits {
    FuelLimits {
        deadline_ms: Some(60_000),
        ..FuelLimits::unlimited()
    }
}

fn reachable(graph: &BTreeMap<String, BTreeSet<String>>, root: &str) -> BTreeSet<String> {
    let mut seen = BTreeSet::new();
    let mut stack = vec![root.to_string()];
    while let Some(r) = stack.pop() {
        if seen.insert(r.clone()) {
            stack.extend(graph.get(&r).into_iter().flatten().cloned());
        }
    }
    seen
}

/// The daemon's multi-root warm-up: when the call DAG has several
/// roots, each root's subtree is summarized into the cache first (the
/// daemon does this on one thread per root; here it runs inline).
fn warm_roots(source: &str, opts: Options, cache: &Arc<dyn SummaryCache>, acc: &mut Acc) {
    let Ok(program) = timed(&mut acc.parse, || fortran::parse_program(source)) else {
        return;
    };
    let Ok(sema) = timed(&mut acc.sema, || fortran::analyze(&program)) else {
        return;
    };
    let Ok(graph) = timed(&mut acc.hsg, || hsg::build_hsg(&program)) else {
        return;
    };
    let called: BTreeSet<&String> = sema.call_graph.values().flatten().collect();
    let roots: Vec<&String> = sema.bottom_up.iter().filter(|r| !called.contains(r)).collect();
    if roots.len() < 2 {
        return;
    }
    timed(&mut acc.roots, || {
        for root in roots {
            let reach = reachable(&sema.call_graph, root);
            let mut az = dataflow::Analyzer::with_cache(&program, &sema, &graph, opts, Some(Arc::clone(cache)));
            for name in sema.bottom_up.iter().filter(|n| reach.contains(*n)) {
                az.summarize_routine(name);
            }
        }
    });
}

/// The daemon's per-request state: its summary cache, metrics registry
/// and flight recorder.
struct Service {
    cache: Arc<dyn SummaryCache>,
    metrics: panoramad::metrics::Metrics,
    flight: panoramad::flight::FlightRecorder,
}

impl Service {
    fn new(cache: Arc<dyn SummaryCache>) -> Service {
        Service {
            cache,
            metrics: panoramad::metrics::Metrics::default(),
            flight: panoramad::flight::FlightRecorder::new(panoramad::flight::DEFAULT_CAPACITY),
        }
    }
}

/// A span forest as the daemon renders it for a flight record
/// (`{"spans": [...]}`, DESIGN.md §4f). The daemon's own renderer is
/// private to `panoramad`, so the same shape is built here.
fn span_tree_value(nodes: &[trace::SpanNode]) -> Value {
    fn nodes_value(nodes: &[trace::SpanNode]) -> Value {
        Value::Array(
            nodes
                .iter()
                .map(|n| {
                    let counters = n.counters.iter().map(|(k, v)| (k.clone(), Value::UInt(*v)));
                    let events = n.events.iter().map(|e| {
                        Value::Object(vec![
                            ("at_us".to_string(), Value::UInt(e.at_us)),
                            ("name".to_string(), Value::Str(e.name.clone())),
                            ("detail".to_string(), Value::Str(e.detail.clone())),
                        ])
                    });
                    Value::Object(vec![
                        ("name".to_string(), Value::Str(n.name.clone())),
                        ("start_us".to_string(), Value::UInt(n.start_us)),
                        ("dur_us".to_string(), Value::UInt(n.dur_us)),
                        ("counters".to_string(), Value::Object(counters.collect())),
                        ("events".to_string(), Value::Array(events.collect())),
                        ("children".to_string(), nodes_value(&n.children)),
                    ])
                })
                .collect(),
        )
    }
    Value::Object(vec![("spans".to_string(), nodes_value(nodes))])
}

/// One service operation: decode, multi-root warm-up, then the pipeline
/// under a per-request span collector and precision ledger, the flight
/// record and metrics update, report and encode — the daemon's path for
/// an analyze request. The request's spans are spliced into the
/// collector already installed, if any, as the daemon does for its
/// `--trace-out` track.
fn service_op(line: &str, svc: &Service, acc: &mut Acc) -> Result<String, String> {
    let request = timed(&mut acc.decode, || panoramad::protocol::parse_request(line))?;
    let panoramad::protocol::Request::Analyze { id, source, opts, .. } = request else {
        return Err("not an analyze request".to_string());
    };
    warm_roots(&source, opts, &svc.cache, acc);
    let (saved, scope, ledger_scope) = timed(&mut acc.bookkeeping, || {
        let saved = trace::uninstall();
        let scope = trace::CollectorScope::install(trace::Collector::new());
        (saved, scope, trace::ledger::LedgerScope::install())
    });
    let out = pipeline(&source, opts, false, daemon_limits(), Some(Arc::clone(&svc.cache)), acc);
    let t0 = Instant::now();
    let ledger = ledger_scope.finish().unwrap_or_default();
    let collector = scope.finish();
    if let Some(mut outer) = saved {
        if let Some(c) = &collector {
            outer.splice(c);
        }
        trace::install(outer);
    }
    svc.metrics.record_precision(ledger.events(), ledger.dropped());
    let spans = collector.as_ref().map_or(Value::Null, |c| span_tree_value(&c.tree()));
    acc.bookkeeping += t0.elapsed();
    let out = out?;
    timed(&mut acc.bookkeeping, || {
        svc.metrics.record_analysis(&out.analysis.times, out.analysis.stats.peak_state_size, false);
        svc.metrics.record_lints(&out.analysis.lints);
        svc.flight.record(panoramad::flight::FlightRecord {
            seq: 0,
            id: id.clone(),
            digest: panoramad::flight::source_digest(&source),
            source_bytes: source.len() as u64,
            outcome: "ok".to_string(),
            degrade_reason: None,
            error: None,
            events: ledger.events().to_vec(),
            events_dropped: ledger.dropped(),
            spans,
        });
    });
    let report = timed(&mut acc.report, || out.json());
    let response = timed(&mut acc.encode, || panoramad::protocol::ok_response(&id, report));
    let head = serde_json::to_string(&id).map_or(0, |s| s.len()) + r#"{"id":,"ok":true,"report":}"#.len();
    acc.request_bytes += line.len() as u64;
    acc.response_bytes += response.len() as u64;
    acc.report_bytes += response.len().saturating_sub(head) as u64;
    Ok(response)
}

/// Per-layer figures of one traced pass, in output order.
fn pass_metrics(t: &Acc, cache: CacheTally) -> Vec<(&'static str, f64, &'static str)> {
    let n = t.ops.max(1) as f64;
    let per = |d: Duration| ms(d) / n;
    let per_us = |us: u64| us as f64 / 1e3 / n;
    let per_count = |c: u64| c as f64 / n;
    let lookups = cache.hits + cache.misses;
    vec![
        ("fortran.parse_ms", per(t.parse), "ms"),
        ("fortran.sema_ms", per(t.sema), "ms"),
        ("fortran.tokens", per_count(t.count("tokens")), "count"),
        ("hsg.build_ms", per(t.hsg), "ms"),
        ("deptest.conventional_ms", per(t.conventional), "ms"),
        ("dataflow.run_ms", per(t.run + t.roots), "ms"),
        ("dataflow.sum_loop_self_ms", per_us(t.sum_loop), "ms"),
        ("dataflow.sum_call_self_ms", per_us(t.sum_call), "ms"),
        ("dataflow.sum_routine_self_ms", per_us(t.sum_routine), "ms"),
        ("dataflow.nodes_processed", per_count(t.nodes_processed), "count"),
        ("dataflow.expansions", per_count(t.count("expansions")), "count"),
        ("dataflow.intersections", per_count(t.count("intersections")), "count"),
        ("dataflow.widenings", per_count(t.count("widenings")), "count"),
        ("dataflow.summary_gar_pieces", per_count(t.count("summary_gar_pieces")), "count"),
        ("dataflow.peak_state_size", t.peak_state as f64, "count"),
        ("vrange.range_refutes", per_count(t.count("range_refutes")), "count"),
        ("content.body_ms", per_us(t.content_body), "ms"),
        ("content.refine_ms", per_us(t.content_refine), "ms"),
        ("content.lint_ms", per_us(t.content_lint), "ms"),
        ("content.ue_refuted", per_count(t.count("content:ue_refuted")), "count"),
        ("privatize.judge_ms", per(t.judge), "ms"),
        ("alias.lint_ms", per(t.lint), "ms"),
        ("alias.classify_self_ms", per_us(t.alias_classify), "ms"),
        ("alias.classifications", per_count(t.count("alias_classifications")), "count"),
        ("codegen.transform_ms", per(t.codegen), "ms"),
        ("codegen.emitted_bytes", per_count(t.count("codegen_emitted_bytes")), "B"),
        ("core.report_ms", per(t.report), "ms"),
        ("core.report_bytes", per_count(t.report_bytes), "B"),
        ("server.decode_ms", per(t.decode), "ms"),
        ("server.encode_ms", per(t.encode), "ms"),
        ("server.bookkeeping_ms", per(t.bookkeeping), "ms"),
        ("server.request_bytes", per_count(t.request_bytes), "B"),
        ("server.response_bytes", per_count(t.response_bytes), "B"),
        ("cache.get_ms", per(cache.get), "ms"),
        ("cache.put_ms", per(cache.put), "ms"),
        ("cache.hits", per_count(cache.hits), "count"),
        ("cache.misses", per_count(cache.misses), "count"),
        (
            "cache.hit_ratio",
            if lookups == 0 { 0.0 } else { cache.hits as f64 / lookups as f64 },
            "ratio",
        ),
        (
            "unattributed_frac",
            1.0 - t.claimed().as_secs_f64() / t.wall.as_secs_f64().max(1e-9),
            "ratio",
        ),
    ]
}

fn tally_delta(after: CacheTally, before: CacheTally) -> CacheTally {
    CacheTally {
        get: after.get.saturating_sub(before.get),
        put: after.put.saturating_sub(before.put),
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        puts: after.puts - before.puts,
    }
}

/// Collects traced and untraced passes and renders the result.
#[derive(Default)]
struct Passes {
    traced: Vec<Vec<(&'static str, f64, &'static str)>>,
    traced_wall: Vec<f64>,
    untraced_wall: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Passes {
    fn record(&mut self, traced: bool, acc: &Acc, cache: CacheTally) {
        let per_op = ms(acc.wall) / acc.ops.max(1) as f64;
        if traced {
            self.traced.push(pass_metrics(acc, cache));
            self.traced_wall.push(per_op);
        } else {
            self.untraced_wall.push(per_op);
        }
    }

    /// Median over traced passes of every per-layer figure, plus the
    /// figures measured once per run.
    fn finish(self, extra: &[(&'static str, f64, &'static str)]) -> RunResult {
        let mut r = RunResult {
            attempted: self.attempted,
            failed: self.failed,
            ..RunResult::default()
        };
        let Some(first) = self.traced.first() else {
            return r;
        };
        for (i, (name, _, unit)) in first.iter().enumerate() {
            let values: Vec<f64> = self.traced.iter().map(|p| p[i].1).collect();
            r.metric(name, util::median(&values), unit);
        }
        r.metric(
            "trace.overhead_frac",
            util::median(&self.traced_wall) / util::median(&self.untraced_wall).max(1e-9) - 1.0,
            "ratio",
        );
        for (name, value, unit) in extra {
            r.metric(name, *value, unit);
        }
        r
    }
}

/// Dispatches the traced run of a workload.
pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    match ctx.workload.as_str() {
        "batch_cold" => traced_batch(ctx),
        _ => traced_warm(ctx),
    }
}

fn traced_batch(ctx: &Ctx) -> Result<RunResult, String> {
    let corpus = gen::batch_corpus(ctx.seed);
    let reference: Vec<Option<String>> = corpus
        .iter()
        .map(|p| batch::analyze(&p.source).map(|(_, l)| l).ok())
        .collect();
    let on = batch::options();
    let off = Options {
        value_range: false,
        ..on
    };
    // One uncounted pass first, so allocator and page-cache warm-up
    // land in neither kind of pass.
    for p in &corpus {
        let _ = batch_op(&p.source, on, &mut Acc::default());
    }
    let mut passes = Passes::default();
    let mut vrange = Vec::new();
    let start = Instant::now();
    while passes.traced.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        let mut traced_wall = 0.0;
        for traced in [false, true] {
            let mut acc = Acc::default();
            for (i, p) in corpus.iter().enumerate() {
                let line = operation(traced, &mut acc, |acc| batch_op(&p.source, on, acc));
                passes.attempted += 1;
                if line.ok() != reference[i] {
                    eprintln!("panobench: {}: replayed report differs from the driver's", p.name);
                    passes.failed += 1;
                }
            }
            passes.record(traced, &acc, CacheTally::default());
            traced_wall = ms(acc.wall);
        }
        // Value ranges have no span of their own: their cost is the
        // traced pass with the pass on minus one with it off.
        let mut acc = Acc::default();
        for p in &corpus {
            let _ = operation(true, &mut acc, |acc| batch_op(&p.source, off, acc));
        }
        vrange.push((traced_wall - ms(acc.wall)) / corpus.len() as f64);
    }
    let mut extra = service_absent();
    extra.push(("vrange.ms", util::median(&vrange), "ms"));
    Ok(passes.finish(&extra))
}

/// Figures of the daemon path, which `batch_cold` never takes.
fn service_absent() -> Vec<(&'static str, f64, &'static str)> {
    vec![
        ("server.unattributed_ms", 0.0, "ms"),
        ("panostore.open_ms", 0.0, "ms"),
        ("panostore.put_ms", 0.0, "ms"),
        ("panostore.disk_hits", 0.0, "count"),
        ("panostore.segments_committed", 0.0, "count"),
        ("panostore.bytes_on_disk", 0.0, "B"),
    ]
}

/// Mean over programs of daemon latency minus in-process service time
/// (each the program's median): queueing, pipe transfer, head-of-line
/// wait behind the other request in flight, and whatever the daemon
/// does per request that the library path does not.
fn unattributed(daemon: &BTreeMap<usize, f64>, inproc: &BTreeMap<usize, f64>) -> f64 {
    let diffs: Vec<f64> = daemon
        .iter()
        .filter_map(|(k, lat)| inproc.get(k).map(|svc| lat - svc))
        .collect();
    diffs.iter().sum::<f64>() / diffs.len().max(1) as f64
}

fn traced_warm(ctx: &Ctx) -> Result<RunResult, String> {
    let programs = gen::warm_programs(ctx.seed);
    let escaped: Vec<String> = programs.iter().map(|p| util::json_string(&p.source)).collect();
    let n = programs.len();
    let line = |seq: usize| format!("{{\"id\":{seq},\"source\":{}}}", escaped[seq % n]);
    let mut expected = Vec::new();
    for p in &programs {
        let (_, l) = service::reference(&p.source)?;
        expected.push(l.strip_prefix("{\"id\":0").unwrap_or(&l).to_string());
    }
    let expected_line = |seq: usize| format!("{{\"id\":{seq}{}", expected[seq % n]);
    let mut passes = Passes::default();
    let check = |seq: usize, resp: Result<String, String>, passes: &mut Passes| {
        passes.attempted += 1;
        if resp.ok() != Some(expected_line(seq)) {
            eprintln!("panobench: replayed response {seq} differs from the cache-less report");
            passes.failed += 1;
        }
    };

    // Daemon latencies per program, memory-warm, over a third of the run.
    let store = ctx.work.join("store");
    service::populate_store(ctx, &store, &escaped)?;
    let dir = store.to_string_lossy().into_owned();
    let (mut daemon, _) = Daemon::spawn(ctx, &service::warm_args(service::DEPTH, &dir))?;
    let mut lat: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    {
        let mut pipe = Pipeline::new(&mut daemon);
        let start = Instant::now();
        let mut seq = 0;
        let mut take = |done: service::Done| {
            if done.line.contains("\"ok\":true") && done.seq >= n {
                lat.entry(done.seq % n).or_default().push(ms(done.latency));
            }
        };
        while seq < 2 * n || start.elapsed().as_secs_f64() < ctx.seconds / 3.0 {
            if let Some(done) = pipe.submit(seq, &line(seq))? {
                take(done);
            }
            seq += 1;
        }
        while let Some(done) = pipe.next_done()? {
            take(done);
        }
    }
    daemon.finish()?;

    // In-process: populate a store (cold, every summary committed),
    // reopen it, one disk-warm pass, then memory-warm passes.
    let local = ctx.work.join("store-inprocess");
    if local.exists() {
        std::fs::remove_dir_all(&local).map_err(|e| format!("cannot clear the store: {e}"))?;
    }
    let cold = TimedCache::tiered(&local);
    let cold_svc = Service::new(cold.clone());
    for seq in 0..n {
        let resp = service_op(&line(seq), &cold_svc, &mut Acc::default());
        check(seq, resp, &mut passes);
    }
    let populated = cold.tally();
    let segments = populated.puts.saturating_sub(cold.snapshot().write_errors);
    drop(cold_svc);
    drop(cold);
    let mut opens = Vec::new();
    for _ in 0..5 {
        let t0 = Instant::now();
        drop(DiskCache::open(&local, None));
        opens.push(ms(t0.elapsed()));
    }
    let cache = TimedCache::tiered(&local);
    let service = Service::new(cache.clone());
    let before = cache.snapshot().disk_hits;
    for seq in n..2 * n {
        let resp = service_op(&line(seq), &service, &mut Acc::default());
        check(seq, resp, &mut passes);
    }
    let warmed = cache.snapshot();
    let disk_hits = warmed.disk_hits - before;
    let bytes_on_disk = warmed.bytes_on_disk;

    let mut svc: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let start = Instant::now();
    let mut seq = 2 * n;
    while passes.traced.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds * 2.0 / 3.0 {
        for traced in [false, true] {
            let mut acc = Acc::default();
            let before = cache.tally();
            for _ in 0..3 * n {
                let wall0 = acc.wall;
                let resp = operation(traced, &mut acc, |acc| service_op(&line(seq), &service, acc));
                if !traced {
                    svc.entry(seq % n).or_default().push(ms(acc.wall - wall0));
                }
                check(seq, resp, &mut passes);
                seq += 1;
            }
            passes.record(traced, &acc, tally_delta(cache.tally(), before));
        }
    }
    drop(service);
    drop(cache);
    let _ = std::fs::remove_dir_all(&store);
    let _ = std::fs::remove_dir_all(&local);
    let med = |m: BTreeMap<usize, Vec<f64>>| -> BTreeMap<usize, f64> {
        m.into_iter().map(|(k, v)| (k, util::median(&v))).collect()
    };
    let per = |c: u64| c as f64 / n as f64;
    let extra = vec![
        ("server.unattributed_ms", unattributed(&med(lat), &med(svc)), "ms"),
        ("panostore.open_ms", util::median(&opens), "ms"),
        ("panostore.put_ms", ms(populated.put) / n as f64, "ms"),
        ("panostore.disk_hits", per(disk_hits), "count"),
        ("panostore.segments_committed", per(segments), "count"),
        ("panostore.bytes_on_disk", bytes_on_disk as f64, "B"),
        ("vrange.ms", 0.0, "ms"),
    ];
    Ok(passes.finish(&extra))
}
