//! End-to-end pipeline benchmark with per-layer attribution.
//!
//! ```text
//! pla-perfbench --workload <ingest_wire|ingest_filter|serve_live>
//!               --seed <n> --seconds <s> --trace <0|1>
//!               [--collector-delay-us <us>]
//! ```
//!
//! A run repeats rounds until `--seconds` have passed. Each round
//! generates fresh inputs from `(seed, round)`, replays them through
//! stand-alone filters, builds the whole stack, preloads any history,
//! then times the workload and checks every output. Round 0 warms
//! caches and lazy set-up: it is checked and its set-up time counts,
//! but its timings do not. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. A traced run alternates traced and untraced rounds, so
//! it also reports what tracing itself costs, prints a per-layer
//! self-time table, and writes its spans to `.bench_out/`.
//!
//! `--collector-delay-us` busy-waits before every `Collector::pump_at`;
//! it exists only for the detection self-test (`run.py --selftest`).

mod inputs;
mod pipeline;
mod reference;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::time::Duration;

use pla_query::{Query, QueryResult, StoreQueryEngine};

use inputs::{workload, Inputs, Load, Rng, Workload};
use pipeline::{draw_query, Counters, Stack};
use stats::{median, quantile, tail, Freshness};
use trace::{layer_of, self_time_by_name, Span, Tracer, ROOT};

/// Rounds that run whatever `--seconds` says: the warm-up plus enough
/// timed rounds for a median (and, traced, both kinds of round).
const MIN_ROUNDS: u64 = 4;
/// A serving loop that makes no progress for this long has failed.
const STALL: Duration = Duration::from_secs(20);
/// Spans kept for the trace file.
const SPAN_FILE_CAP: usize = 400_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    collector_delay: Duration,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let (mut name, mut seed, mut seconds, mut trace, mut delay) = (None, None, None, None, 0u64);
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => name = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()? as f64),
            "--trace" => trace = Some(num()? != 0),
            "--collector-delay-us" => delay = num()?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    Ok(Args {
        workload: workload(&name).ok_or_else(|| format!("unknown workload {name}"))?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        collector_delay: Duration::from_micros(delay),
    })
}

/// Everything one round measured.
#[derive(Default)]
struct Round {
    traced: bool,
    setup_ns: u64,
    /// `VmHWM` over this round alone, in MiB.
    peak_rss_mib: f64,
    /// Samples pushed while timing, and how long from the first of
    /// those pushes until the store held every segment.
    live_samples: u64,
    elapsed_ns: u64,
    /// Samples and segments of the whole round, history included, and
    /// the stand-alone filter time over all of them.
    all_samples: u64,
    all_segments: u64,
    filter_ns: u64,
    live_segments: u64,
    /// Latencies in ns: every matched segment's freshness and every
    /// query's, and their medians. A run that reports end-to-end
    /// metrics drops the freshness series after taking its median, so
    /// its memory grows with rounds only by the few queries each asks.
    freshness_ns: Vec<f64>,
    query_ns: Vec<f64>,
    freshness_p50_ns: f64,
    query_p50_ns: f64,
    counters: Counters,
    finish_ns: u64,
    backpressure: u64,
    store_segments: u64,
    /// Query server counters over the timed phase.
    requests: u64,
    rebuilds: u64,
    query_bytes: u64,
    stale_reads: u64,
    dup_drops: u64,
    redials: u64,
    late_max_ns: u64,
    backlog_max: u64,
    attempted: u64,
    failed: u64,
    /// Self time per span name (traced rounds only).
    self_ns: BTreeMap<&'static str, u64>,
    /// Spans recorded, and the spans themselves while the trace file
    /// still has room for them.
    span_count: u64,
    spans: Vec<Span>,
}

fn run_round(a: &Args, round: u64) -> Result<Round, String> {
    let w = &a.workload;
    let traced = a.trace && round % 2 == 1;
    let mut tr = Tracer::new(false);
    let mut out = Round { traced, ..Round::default() };
    // Restart the peak-RSS count, so each round reports its own peak.
    // Without it the process peak creeps up over a run's rounds as the
    // allocator's retained heap fragments, and would depend on run
    // length. Kernels without the reset leave the process-wide peak.
    let _ = std::fs::write("/proc/self/clear_refs", "5");

    // --- set-up: inputs, replays, stack, history ------------------------
    let setup_start = tr.now();
    let inputs = Inputs::generate(w, a.seed, round);
    tr.set_on(traced);
    let replay = tr.open("setup.replay", ROOT);
    let emission = reference::emission_order(w, &inputs, &mut tr, replay);
    tr.close(replay);
    tr.set_on(false);
    let reference = reference::reference_logs(w, &inputs);
    let mut stack = Stack::new(w, a.collector_delay);
    stack.connect(&mut tr, ROOT)?;
    let n = inputs.ops.len();
    let hist = w.history_ops();
    let mut push_at = vec![0u64; n + 1];
    let emitted_by = |ops: usize| emission.emit_op.partition_point(|&op| (op as usize) < ops);
    if hist > 0 {
        stack.push_closed(w, &inputs, 0..hist, &mut push_at, &mut tr, ROOT)?;
        stack.settle(emitted_by(hist) as u64, hist as u32, &mut tr, ROOT)?;
    }
    out.setup_ns = tr.now() - setup_start;
    stack.counters = Counters::default();
    let held_before = stack.held();
    let server_before = stack.server_counts();

    // --- timed phase --------------------------------------------------------
    let total = emission.emit_op.len() as u64;
    let mut rng = Rng::new(a.seed, round, u64::MAX);
    tr.set_on(traced);
    let timed = tr.open("gen.timed", ROOT);
    let first = tr.now();
    match w.load {
        Load::Closed => {
            stack.push_closed(w, &inputs, hist..n, &mut push_at, &mut tr, timed)?;
            out.finish_ns = stack.finish_engine(&mut tr, timed, &mut push_at);
            let done = stack.drain(total, n as u32, &mut tr, timed, |_, _| true)?;
            out.elapsed_ns = done - first;
            tr.close(timed);
            // Remote reads of the finished store, one at a time.
            let probe = tr.open("gen.probe", ROOT);
            let span = w.per_stream() as f64 - 1.0;
            for i in 0..w.probe_queries {
                let (q, settled) = draw_query(w, &mut rng, i, span, None);
                stack.ask(q, settled, tr.now());
                while !stack.queries_done() {
                    stack.pump_queries(&mut tr, probe);
                }
            }
            tr.close(probe);
        }
        Load::Open { samples_per_s, queries_per_s } => {
            let op_ns = w.batch as f64 * 1e9 / samples_per_s;
            let query_ns = 1e9 / queries_per_s;
            let queries = ((n - hist) as f64 * op_ns / query_ns) as usize;
            let history_span = 0.9 * w.history as f64;
            let due_op = |i: usize| first + ((i - hist) as f64 * op_ns) as u64;
            let due_query = |j: usize| first + (j as f64 * query_ns) as u64;
            let (mut next, mut asked) = (hist, 0);
            let mut batch = Vec::with_capacity(w.batch);
            while next < n || asked < queries {
                while next < n && due_op(next) <= tr.now() {
                    let op = inputs.ops[next];
                    inputs.batch(w, op, &mut batch);
                    let at = tr.now();
                    out.late_max_ns = out.late_max_ns.max(at - due_op(next));
                    push_at[next] = at;
                    stack.push_one(&mut tr, timed, op.stream, &batch, at)?;
                    next += 1;
                }
                while asked < queries && due_query(asked) <= tr.now() {
                    let pushed = next;
                    let newest = |s: usize| newest_sample(w, pushed, s);
                    let (q, settled) = draw_query(w, &mut rng, asked, history_span, Some(&newest));
                    out.late_max_ns = out.late_max_ns.max(tr.now() - due_query(asked));
                    stack.ask(q, settled, due_query(asked));
                    asked += 1;
                }
                // Serve until everything pushed and asked so far is
                // through, or the next push or query falls due; then
                // idle until it does.
                let next_due = match (next < n, asked < queries) {
                    (true, true) => due_op(next).min(due_query(asked)),
                    (true, false) => due_op(next),
                    (false, _) => due_query(asked),
                };
                let since = std::time::Instant::now();
                loop {
                    stack.pump_wire(&mut tr, timed, next as u32)?;
                    stack.pump_queries(&mut tr, timed);
                    if stack.caught_up(emitted_by(next) as u64) || tr.now() >= next_due {
                        break;
                    }
                    if since.elapsed() > STALL {
                        return Err("open loop stalled".into());
                    }
                }
                while tr.now() < next_due {
                    std::hint::spin_loop();
                }
            }
            out.finish_ns = stack.finish_engine(&mut tr, timed, &mut push_at);
            let done = stack.drain(total, n as u32, &mut tr, timed, |s, tr| {
                s.pump_queries(tr, timed);
                s.queries_done()
            })?;
            out.elapsed_ns = done - first;
            tr.close(timed);
        }
    }
    tr.set_on(false);

    // --- what the timed phase saw ------------------------------------------
    let emitted_at: Vec<Option<u64>> = emission
        .emit_op
        .iter()
        .map(|&op| (op as usize >= hist).then(|| push_at[op as usize]))
        .collect();
    let mut fresh = Freshness::new(&emitted_at, held_before as usize);
    for &(pushed, held, at) in &stack.counters.observations {
        fresh.observe(held as usize, at);
        out.backlog_max =
            out.backlog_max.max((emitted_by(pushed as usize) as u64).saturating_sub(held));
    }
    out.freshness_ns = fresh.latencies_ns.iter().map(|&v| v as f64).collect();
    out.live_samples = ((n - hist) * w.batch) as u64;
    out.all_samples = (n * w.batch) as u64;
    out.all_segments = total;
    out.live_segments = total - emitted_by(hist) as u64;
    out.filter_ns = emission.filter_ns;
    let (requests, rebuilds, bytes) = stack.server_counts();
    out.requests = requests - server_before.0;
    out.rebuilds = rebuilds - server_before.1;
    out.query_bytes = bytes - server_before.2;
    let report = stack.report.as_ref().expect("the timed phase finishes the engine");
    out.backpressure = report.shards.iter().map(|s| s.backpressure).sum();

    // --- correctness gate ---------------------------------------------------
    let store = stack.store().clone();
    out.store_segments = store.total_segments();
    let mismatched = reference::store_mismatches(&store, &reference);
    let engine = StoreQueryEngine::new(store.snapshot());
    let mut failed_queries = 0;
    for asked in &stack.asked {
        match &asked.done {
            Some((at, Ok(answer))) => {
                out.query_ns.push((at - asked.due) as f64);
                match check_answer(&asked.query, asked.settled, answer, &engine) {
                    Verdict::Same => {}
                    Verdict::Stale => out.stale_reads += 1,
                    Verdict::Wrong => {
                        eprintln!("query {:?} answered {answer:?}", asked.query);
                        failed_queries += 1;
                    }
                }
            }
            Some((_, Err(e))) => {
                eprintln!("query {:?} failed: {e}", asked.query);
                failed_queries += 1;
            }
            None => failed_queries += 1,
        }
    }
    (out.dup_drops, out.redials) = stack.faults();
    let quarantined = stack.quarantines();
    if mismatched + failed_queries + quarantined + out.dup_drops + out.redials > 0 {
        eprintln!(
            "round {round}: {mismatched} store mismatches, {failed_queries} failed queries, \
             {quarantined} quarantined, {} dup drops, {} redials",
            out.dup_drops, out.redials
        );
    }
    out.attempted = out.all_samples + total + stack.asked.len() as u64;
    out.failed = mismatched + failed_queries + quarantined + out.dup_drops + out.redials;
    out.counters = std::mem::take(&mut stack.counters);
    out.freshness_p50_ns = median(&out.freshness_ns);
    out.query_p50_ns = median(&out.query_ns);
    if !a.trace {
        out.freshness_ns = Vec::new();
        out.counters.observations = Vec::new();
    }
    out.peak_rss_mib = vm_hwm_mib();
    if traced {
        out.self_ns = self_time_by_name(tr.spans());
        out.span_count = tr.spans().len() as u64;
        out.spans = tr.spans().to_vec();
    }
    Ok(out)
}

/// Newest sample time of stream `s` once the first `pushed` pushes of
/// the round-robin order are out.
fn newest_sample(w: &Workload, pushed: usize, s: usize) -> Option<f64> {
    if pushed <= s {
        return None;
    }
    let last = pushed - 1 - (pushed - 1 - s) % w.streams;
    Some(((last / w.streams) * w.batch + w.batch - 1) as f64)
}

enum Verdict {
    Same,
    /// A read of data the store did not hold yet: a correct answer for
    /// its moment, counted but not failed.
    Stale,
    Wrong,
}

/// Checks a remote answer against the final store.
fn check_answer(q: &Query, settled: bool, got: &QueryResult, engine: &StoreQueryEngine) -> Verdict {
    let want = q.run(engine);
    if got.encode() == want.encode() {
        return Verdict::Same;
    }
    if settled {
        return Verdict::Wrong;
    }
    match (got, &want) {
        // The span of a growing log: same start, end no later.
        (QueryResult::Span(Some((lo, hi))), QueryResult::Span(Some((wlo, whi))))
            if lo.to_bits() == wlo.to_bits() && hi <= whi =>
        {
            Verdict::Same
        }
        (QueryResult::Err(pla_query::QueryError::Uncovered { .. }), _) => Verdict::Stale,
        _ => Verdict::Wrong,
    }
}

fn vm_hwm_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn percentile_or_max(values: &[f64], q: f64, what: &str) -> f64 {
    tail(values, q).unwrap_or_else(|| {
        eprintln!(
            "{what}: {} samples support no p{}; reporting the maximum",
            values.len(),
            q * 100.0
        );
        quantile(values, 1.0).unwrap_or(0.0)
    })
}

struct Report {
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { format!("{v}") } else { "null".into() };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

fn sum(rounds: &[&Round], f: impl Fn(&Round) -> u64) -> f64 {
    rounds.iter().map(|r| f(r)).sum::<u64>() as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The end-to-end metrics. Throughput and query latency pool every
/// timed round of the run, so each reads as the average over the run
/// rather than one round's luck: a shared virtual machine's speed can
/// swing by 2× within seconds.
fn end_to_end(rounds: &[Round], timed: &[&Round]) -> Report {
    let mut r = Report { metrics: Vec::new() };
    r.add(
        "samples_per_s",
        ratio(sum(timed, |x| x.live_samples), sum(timed, |x| x.elapsed_ns) * 1e-9),
        "samples/s",
    );
    let queries: Vec<f64> = timed.iter().flat_map(|x| x.query_ns.iter().copied()).collect();
    r.add("query_p50_us", median(&queries) * 1e-3, "us");
    r.add(
        "wire_bytes_per_sample",
        ratio(sum(timed, |x| x.counters.wire_bytes), sum(timed, |x| x.live_samples)),
        "B",
    );
    r.add(
        "setup_s",
        median(&rounds.iter().map(|x| x.setup_ns as f64 * 1e-9).collect::<Vec<_>>()),
        "s",
    );
    r.add(
        "peak_rss_mib",
        median(&rounds.iter().map(|x| x.peak_rss_mib).collect::<Vec<_>>()),
        "MiB",
    );
    r
}

/// Layers whose self time the attribution table splits; `gen` is the
/// benchmark's own loop and is shown, but left out of the shares.
const LAYERS: [&str; 4] = ["core", "ingest", "net", "query"];

fn per_layer(w: &Workload, timed: &[&Round], attempted: u64, failed: u64) -> Report {
    let traced: Vec<&Round> = timed.iter().copied().filter(|x| x.traced).collect();
    let untraced: Vec<&Round> = timed.iter().copied().filter(|x| !x.traced).collect();
    let self_of = |name: &str| sum(&traced, |x| x.self_ns.get(name).copied().unwrap_or(0));
    let layer_self = |layer: &str| -> f64 {
        sum(&traced, |x| {
            x.self_ns
                .iter()
                .filter(|(n, _)| layer_of(n) == layer && **n != "query.request")
                .map(|(_, v)| *v)
                .sum()
        })
    };
    let live = sum(&traced, |x| x.live_samples);
    let segs = sum(&traced, |x| x.live_segments);
    let reqs = sum(&traced, |x| x.requests);
    let mut r = Report { metrics: Vec::new() };

    // core: stand-alone filters over every sample of the round.
    let core_ns = ratio(sum(timed, |x| x.filter_ns), sum(timed, |x| x.all_samples));
    r.add("core.filter_ns_per_sample", core_ns, "ns");
    r.add(
        "core.samples_per_segment",
        ratio(sum(timed, |x| x.all_samples), sum(timed, |x| x.all_segments)),
        "samples",
    );
    // ingest
    r.add("ingest.push_ns_per_sample", ratio(self_of("ingest.push"), live), "ns");
    r.add("ingest.backpressure", sum(timed, |x| x.backpressure), "count");
    r.add(
        "ingest.finish_ms",
        median(&timed.iter().map(|x| x.finish_ns as f64 * 1e-6).collect::<Vec<_>>()),
        "ms",
    );
    r.add(
        "ingest.store_segments",
        ratio(sum(timed, |x| x.store_segments), timed.len() as f64),
        "count",
    );
    // net
    for (name, span) in [
        ("net.uplink_ns_per_segment", "net.uplink"),
        ("net.session_ns_per_segment", "net.session"),
        ("net.collector_ns_per_segment", "net.collector"),
    ] {
        r.add(name, ratio(self_of(span), segs), "ns");
    }
    let c = |f: fn(&Counters) -> u64| sum(timed, |x| f(&x.counters));
    r.add(
        "net.wire_bytes_per_segment",
        ratio(c(|c| c.wire_bytes), sum(timed, |x| x.live_segments)),
        "B",
    );
    r.add(
        "net.uplink_blocked_share",
        ratio(c(|c| c.uplink_blocked), c(|c| c.uplink_rounds)),
        "ratio",
    );
    r.add(
        "net.useful_round_share",
        ratio(c(|c| c.session_useful), c(|c| c.session_rounds)),
        "ratio",
    );
    r.add("net.dup_drops", sum(timed, |x| x.dup_drops), "count");
    r.add("net.redials", sum(timed, |x| x.redials), "count");
    // query
    r.add("query.server_us_per_request", ratio(self_of("query.server"), reqs) * 1e-3, "us");
    r.add(
        "query.rebuilds_per_request",
        ratio(sum(timed, |x| x.rebuilds), sum(timed, |x| x.requests)),
        "ratio",
    );
    r.add("query.client_ns_per_request", ratio(self_of("query.client"), reqs), "ns");
    r.add(
        "query.bytes_per_request",
        ratio(sum(timed, |x| x.query_bytes), sum(timed, |x| x.requests)),
        "B",
    );
    let pooled = |f: fn(&Round) -> &Vec<f64>| -> Vec<f64> {
        timed.iter().flat_map(|x| f(x).iter().copied()).collect()
    };
    r.add("query.p99_us", percentile_or_max(&pooled(|x| &x.query_ns), 0.99, "query") * 1e-3, "us");
    r.add("query.stale_reads", sum(timed, |x| x.stale_reads), "count");
    r.add(
        "freshness_p50_us",
        median(&timed.iter().map(|x| x.freshness_p50_ns * 1e-3).collect::<Vec<_>>()),
        "us",
    );
    r.add(
        "freshness_p99_us",
        percentile_or_max(&pooled(|x| &x.freshness_ns), 0.99, "freshness") * 1e-3,
        "us",
    );
    // generator
    r.add(
        "gen.late_max_ms",
        timed.iter().map(|x| x.late_max_ns).max().unwrap_or(0) as f64 * 1e-6,
        "ms",
    );
    r.add(
        "gen.backlog_segments_max",
        timed.iter().map(|x| x.backlog_max).max().unwrap_or(0) as f64,
        "count",
    );
    r.add("failed_share", ratio(failed as f64, attempted as f64), "ratio");

    // Attribution: self time per layer, per live sample.
    let per_sample: Vec<(&str, f64)> = LAYERS
        .iter()
        .map(|&l| (l, if l == "core" { core_ns } else { ratio(layer_self(l), live) }))
        .collect();
    let busy: f64 = per_sample.iter().map(|(_, v)| v).sum();
    let gen_ns = ratio(layer_self("gen"), live);
    println!(
        "per-layer self time, workload {} ({} traced rounds, {live} samples):",
        w.name,
        traced.len()
    );
    println!("  {:<8} {:>14} {:>8}", "layer", "ns/sample", "share");
    for &(l, v) in &per_sample {
        println!("  {l:<8} {v:>14.1} {:>7.1}%", 100.0 * ratio(v, busy));
    }
    println!("  {:<8} {gen_ns:>14.1} {:>8}", "gen", "(loop)");
    for &(l, v) in &per_sample {
        r.add(format!("self.{l}_ns_per_sample"), v, "ns");
        r.add(format!("self.{l}_share"), ratio(v, busy), "ratio");
    }
    r.add("self.gen_ns_per_sample", gen_ns, "ns");

    // Tracing overhead: traced against untraced rounds of this run, on
    // the workload's headline time (time per sample for a closed loop,
    // median freshness for an open one, whose pace is fixed).
    let headline = |x: &Round| match w.load {
        Load::Closed => x.elapsed_ns as f64 / x.live_samples as f64,
        Load::Open { .. } => x.freshness_p50_ns,
    };
    let t = median(&traced.iter().map(|x| headline(x)).collect::<Vec<_>>());
    let u = median(&untraced.iter().map(|x| headline(x)).collect::<Vec<_>>());
    r.add("trace.overhead_share", ratio(t, u) - 1.0, "ratio");
    r.add("trace.spans", sum(&traced, |x| x.span_count), "count");
    r
}

fn write_spans(w: &Workload, seed: u64, rounds: &[Round]) {
    let mut all = Tracer::new(true);
    for round in rounds {
        let base = all.spans().len() as u32;
        for s in &round.spans {
            let parent = if s.parent == ROOT { ROOT } else { s.parent + base };
            all.record(Span { parent, ..*s });
        }
    }
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("spans-{}-seed{seed}.csv", w.name));
    let written = std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::File::create(&path))
        .and_then(|f| all.write_csv(&mut std::io::BufWriter::new(f)));
    match written {
        Ok(()) => eprintln!("wrote {} spans to {}", all.spans().len(), path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pla-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let start = std::time::Instant::now();
    eprintln!("kernel {:?}", pla_core::kern::Kernel::detect());
    let mut rounds = Vec::new();
    let mut kept_spans = 0;
    for round in 0.. {
        match run_round(&args, round) {
            Ok(mut r) => {
                if kept_spans + r.spans.len() > SPAN_FILE_CAP {
                    r.spans = Vec::new();
                }
                kept_spans += r.spans.len();
                eprintln!(
                    "round {round}: {:.0} samples/s, freshness p50 {:.0} us, query p50 {:.1} us, setup {:.3} s",
                    r.live_samples as f64 / (r.elapsed_ns as f64 * 1e-9),
                    r.freshness_p50_ns * 1e-3,
                    r.query_p50_ns * 1e-3,
                    r.setup_ns as f64 * 1e-9
                );
                rounds.push(r)
            }
            Err(e) => {
                eprintln!("pla-perfbench: round {round}: {e}");
                std::process::exit(1);
            }
        }
        if round + 1 >= MIN_ROUNDS && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let timed: Vec<&Round> = rounds.iter().skip(1).collect();
    eprintln!(
        "{}: {} rounds ({} timed) in {:.1} s",
        args.workload.name,
        rounds.len(),
        timed.len(),
        start.elapsed().as_secs_f64()
    );
    let report = if args.trace {
        write_spans(&args.workload, args.seed, &rounds);
        per_layer(&args.workload, &timed, attempted, failed)
    } else {
        end_to_end(&rounds, &timed)
    };
    println!("{}", report.json(failed == 0, attempted, failed));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newest_sample_follows_the_round_robin() {
        let w = workload("serve_live").unwrap();
        assert_eq!(newest_sample(&w, 0, 0), None);
        assert_eq!(newest_sample(&w, 1, 0), Some(15.0));
        assert_eq!(newest_sample(&w, 1, 1), None);
        assert_eq!(newest_sample(&w, w.streams + 1, 0), Some(31.0));
        assert_eq!(newest_sample(&w, w.streams + 1, 1), Some(15.0));
    }

    #[test]
    fn every_workload_passes_its_gate_on_a_small_round() {
        for mut w in inputs::WORKLOADS {
            w.streams = w.streams.min(6);
            w.history = w.history.min(256);
            w.live = 256;
            w.probe_queries = w.probe_queries.min(32);
            if let Load::Open { .. } = w.load {
                w.load = Load::Open { samples_per_s: 65_536.0, queries_per_s: 512.0 };
            }
            let a = Args {
                workload: w,
                seed: 3,
                seconds: 0.0,
                trace: true,
                collector_delay: Duration::ZERO,
            };
            for round in 0..2 {
                let r = run_round(&a, round).expect("round completes");
                assert_eq!(r.failed, 0, "{}", w.name);
                assert_eq!(r.store_segments, r.all_segments, "{}", w.name);
                assert!(!r.freshness_ns.is_empty() && !r.query_ns.is_empty(), "{}", w.name);
                assert_eq!(r.traced, round == 1);
                assert_eq!(r.traced, r.span_count > 0, "{}", w.name);
            }
        }
    }
}
