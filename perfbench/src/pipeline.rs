//! The production path, assembled from public functions only:
//!
//! `IngestHandle::push_batch` → `IngestEngine` (1 shard) →
//! `EngineUplink` → `SessionSender` → memory link → session-mode
//! `Collector::with_sessions` → `SegmentStore` → `QueryServer` →
//! memory link → `QueryClient`.
//!
//! Two busy threads: the caller's thread runs the generator and every
//! sans-I/O pump; the engine runs its one shard thread. Two links: the
//! session link and the query link.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pla_ingest::{IngestConfig, IngestEngine, IngestHandle, IngestReport, SegmentStore, StreamId};
use pla_net::uplink::{EngineUplink, UplinkStatus};
use pla_net::{Collector, MemoryAcceptor, MemoryRedial, NetConfig, SessionConfig, SessionSender};
use pla_query::{Query, QueryClient, QueryClientConfig, QueryResult, QueryServer, Response};
use pla_transport::wire::FixedCodec;

use crate::inputs::{Inputs, Rng, Workload};
use crate::trace::{Span, SpanId, Tracer};

/// Bytes each direction of a memory link buffers.
const LINK_CAPACITY: usize = 256 * 1024;
/// Push operations the engine shard's queue holds before `push_batch`
/// blocks: at least one round's pushes, so a closed loop never parks on
/// a full queue. A shallow queue turns a closed loop into a futex
/// ping-pong between the pushing thread and the shard, whose wake-up
/// latency then sets the pace and swings with the host's scheduling.
const QUEUE_DEPTH: usize = 1 << 15;
/// The collector numbers connections from 1; the session link is the
/// only one, so it is the store source of every segment.
const SOURCE: u64 = 1;
/// A phase that makes no progress for this long has failed.
const STALL: Duration = Duration::from_secs(20);
/// How far behind the newest pushed sample a "recent" query looks, in
/// samples of that stream.
const RECENT_LAG: usize = 64;

/// Counters taken at the benchmark's own call sites.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    /// `EngineUplink::pump` calls, and those that returned `Blocked`.
    pub uplink_rounds: u64,
    pub uplink_blocked: u64,
    /// `SessionSender::pump_at` calls, and those that moved bytes.
    pub session_rounds: u64,
    pub session_useful: u64,
    /// Bytes the sender moved, both directions.
    pub wire_bytes: u64,
    /// `(pushes issued, segments held, run-clock ns)` after every
    /// collector pump that moved bytes.
    pub observations: Vec<(u32, u64, u64)>,
}

/// One remote query the benchmark issued.
#[derive(Debug, Clone)]
pub struct Asked {
    pub query: Query,
    /// Whether the answer must equal the final store's answer bit for
    /// bit (`false` for reads of data still arriving).
    pub settled: bool,
    /// Run-clock ns when the query was due.
    pub due: u64,
    /// Run-clock ns when its answer was taken, and the answer.
    pub done: Option<(u64, Result<QueryResult, String>)>,
}

/// The assembled stack for one round.
pub struct Stack {
    engine: Option<IngestEngine>,
    handle: IngestHandle,
    uplink: EngineUplink,
    sender: SessionSender<FixedCodec, MemoryRedial>,
    collector: Collector<FixedCodec, MemoryAcceptor>,
    store: Arc<SegmentStore>,
    server: QueryServer<MemoryAcceptor>,
    client: QueryClient<MemoryRedial>,
    finned: bool,
    /// Optional busy-wait before every collector pump (the detection
    /// self-test's deliberately slowed stage).
    collector_delay: Duration,
    pub counters: Counters,
    /// Engine report, once finished.
    pub report: Option<IngestReport>,
    /// Requests the client has in flight: req id → index into `asked`.
    inflight: BTreeMap<u64, usize>,
    pub asked: Vec<Asked>,
}

fn spin(d: Duration) {
    if d.is_zero() {
        return;
    }
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

impl Stack {
    /// Builds every layer and registers the workload's streams.
    pub fn new(w: &Workload, collector_delay: Duration) -> Self {
        let store = Arc::new(SegmentStore::new());
        let net = NetConfig::default();
        let session = SessionConfig::default();
        let ingest_side = MemoryAcceptor::new();
        let ingest_dial = ingest_side.connector();
        let collector =
            Collector::with_sessions(FixedCodec, w.dims, net, session, ingest_side, store.clone());
        let (engine, tap) = IngestEngine::with_segment_tap(IngestConfig {
            shards: 1,
            queue_depth: QUEUE_DEPTH,
            shard_log: false,
        });
        let handle = engine.handle();
        for s in 0..w.streams {
            handle.register(StreamId(s as u64), w.spec(s)).expect("workload specs are valid");
        }
        let sender = SessionSender::new(
            FixedCodec,
            w.dims,
            net,
            session,
            MemoryRedial::new(ingest_dial, LINK_CAPACITY),
            Instant::now(),
        );
        let query_side = MemoryAcceptor::new();
        let query_dial = query_side.connector();
        let server = QueryServer::new(query_side, store.clone(), net);
        let client = QueryClient::new(
            MemoryRedial::new(query_dial, LINK_CAPACITY),
            QueryClientConfig { net, ..QueryClientConfig::default() },
        );
        Self {
            engine: Some(engine),
            handle,
            uplink: EngineUplink::new(tap),
            sender,
            collector,
            store,
            server,
            client,
            finned: false,
            collector_delay,
            counters: Counters::default(),
            report: None,
            inflight: BTreeMap::new(),
            asked: Vec::new(),
        }
    }

    /// The shared store.
    pub fn store(&self) -> &Arc<SegmentStore> {
        &self.store
    }

    /// Segments the store holds from the session connection.
    pub fn held(&self) -> u64 {
        self.store.watermark(SOURCE).map_or(0, |m| m.segments)
    }

    /// Dials both links and completes both handshakes.
    pub fn connect(&mut self, tr: &mut Tracer, parent: SpanId) -> Result<(), String> {
        let since = Instant::now();
        while !self.sender.is_established() {
            self.pump_wire(tr, parent, 0)?;
            if since.elapsed() > STALL {
                return Err("session handshake stalled".into());
            }
        }
        self.ask(Query::Streams, false, tr.now());
        while !self.inflight.is_empty() {
            self.pump_queries(tr, parent);
            if since.elapsed() > STALL {
                return Err("query link handshake stalled".into());
            }
        }
        self.asked.clear();
        Ok(())
    }

    /// One round of the ingest-side pumps: uplink, sender, and — when
    /// the sender moved bytes — the collector.
    pub fn pump_wire(
        &mut self,
        tr: &mut Tracer,
        parent: SpanId,
        pushed: u32,
    ) -> Result<(), String> {
        let c = &mut self.counters;
        let s = tr.start();
        let status = self.uplink.pump(self.sender.mux_mut()).map_err(|e| format!("uplink: {e}"))?;
        tr.end("net.uplink", s, parent);
        c.uplink_rounds += 1;
        match status {
            UplinkStatus::Blocked => c.uplink_blocked += 1,
            UplinkStatus::Drained if !self.finned => {
                self.sender.mux_mut().finish_all();
                self.finned = true;
            }
            _ => {}
        }
        let s = tr.start();
        let moved = self.sender.pump_at(Instant::now());
        tr.end("net.session", s, parent);
        c.session_rounds += 1;
        c.wire_bytes += moved as u64;
        if moved == 0 {
            return Ok(());
        }
        c.session_useful += 1;
        let s = tr.start();
        spin(self.collector_delay);
        let pumped = self.collector.pump_at(Instant::now());
        tr.end("net.collector", s, parent);
        if pumped.map_err(|e| format!("collector: {e}"))? > 0 {
            let held = self.store.watermark(SOURCE).map_or(0, |m| m.segments);
            self.counters.observations.push((pushed, held, tr.now()));
        }
        Ok(())
    }

    /// Pushes one batch issued at run-clock `at`, recording the push
    /// span.
    pub fn push_one(
        &mut self,
        tr: &mut Tracer,
        parent: SpanId,
        stream: usize,
        batch: &[(f64, &[f64])],
        at: u64,
    ) -> Result<(), String> {
        self.handle
            .push_batch(StreamId(stream as u64), batch)
            .map_err(|e| format!("push_batch: {e}"))?;
        if tr.on() {
            let end = tr.now();
            tr.record(Span { name: "ingest.push", start: at, end, parent, req: 0 });
        }
        Ok(())
    }

    /// Pushes `inputs.ops[range]` as a closed loop, pumping the wire
    /// after every push; returns nothing until the last push returned.
    /// `push_at[i]` receives the run-clock time push `i` was issued.
    pub fn push_closed(
        &mut self,
        w: &Workload,
        inputs: &Inputs,
        range: std::ops::Range<usize>,
        push_at: &mut [u64],
        tr: &mut Tracer,
        parent: SpanId,
    ) -> Result<(), String> {
        let mut batch = Vec::with_capacity(w.batch);
        for i in range {
            let op = inputs.ops[i];
            inputs.batch(w, op, &mut batch);
            let at = tr.now();
            push_at[i] = at;
            self.push_one(tr, parent, op.stream, &batch, at)?;
            self.pump_wire(tr, parent, i as u32 + 1)?;
        }
        Ok(())
    }

    /// Pumps the wire until the session has delivered and the collector
    /// acknowledged `forwarded` segments (history preload).
    pub fn settle(
        &mut self,
        forwarded: u64,
        pushed: u32,
        tr: &mut Tracer,
        parent: SpanId,
    ) -> Result<(), String> {
        let since = Instant::now();
        while self.uplink.forwarded() < forwarded || !self.sender.mux().all_acked() {
            self.pump_wire(tr, parent, pushed)?;
            if since.elapsed() > STALL {
                return Err("history preload stalled".into());
            }
        }
        Ok(())
    }

    /// Finishes the engine (flushing every stream) and records the
    /// flush as push `ops` at its start time. Returns the finish time in
    /// ns.
    pub fn finish_engine(&mut self, tr: &mut Tracer, parent: SpanId, push_at: &mut [u64]) -> u64 {
        let at = tr.now();
        if let Some(last) = push_at.last_mut() {
            *last = at;
        }
        let report = self.engine.take().expect("finished once").finish();
        let end = tr.now();
        tr.record(Span { name: "ingest.finish", start: at, end, parent, req: 0 });
        self.report = Some(report);
        end - at
    }

    /// Pumps until the store holds `expected` segments and the sender
    /// is idle; returns the run-clock time the store became complete.
    pub fn drain(
        &mut self,
        expected: u64,
        pushed: u32,
        tr: &mut Tracer,
        parent: SpanId,
        mut serve: impl FnMut(&mut Self, &mut Tracer) -> bool,
    ) -> Result<u64, String> {
        let since = Instant::now();
        let mut last = self.held();
        loop {
            self.pump_wire(tr, parent, pushed)?;
            let queries_done = serve(self, tr);
            let held = self.held();
            let complete = held >= expected || (self.finned && self.sender.mux().is_idle());
            if complete && queries_done {
                let full = self.counters.observations.iter().find(|o| o.1 >= expected);
                return Ok(full.map_or_else(|| tr.now(), |o| o.2));
            }
            if held != last {
                last = held;
            } else if since.elapsed() > STALL {
                return Err(format!("store stalled at {held} of {expected} segments"));
            }
        }
    }

    /// Submits a query, due at run-clock `due`.
    pub fn ask(&mut self, query: Query, settled: bool, due: u64) {
        let id = self.client.submit(query.clone(), Instant::now());
        self.inflight.insert(id, self.asked.len());
        self.asked.push(Asked { query, settled, due, done: None });
    }

    /// One round of the query-side pumps; collects finished answers.
    pub fn pump_queries(&mut self, tr: &mut Tracer, parent: SpanId) {
        let s = tr.start();
        self.client.pump_at(Instant::now());
        tr.end("query.client", s, parent);
        let s = tr.start();
        self.server.pump();
        tr.end("query.server", s, parent);
        let s = tr.start();
        self.client.pump_at(Instant::now());
        tr.end("query.client", s, parent);
        for (id, outcome) in self.client.take_completed() {
            let Some(i) = self.inflight.remove(&id) else { continue };
            let at = tr.now();
            let result = match outcome {
                Ok(Response::Result(r)) => Ok(r),
                Ok(other) => Err(format!("answered with {other:?}")),
                Err(e) => Err(e.to_string()),
            };
            let a = &mut self.asked[i];
            a.done = Some((at, result));
            tr.record(Span { name: "query.request", start: a.due, end: at, parent, req: id });
        }
    }

    /// Whether the uplink has forwarded `emitted` segments, the
    /// collector has acknowledged all of them, and no query is in
    /// flight.
    pub fn caught_up(&self, emitted: u64) -> bool {
        self.uplink.forwarded() >= emitted && self.sender.mux().all_acked() && self.queries_done()
    }

    /// Whether every submitted query has its answer.
    pub fn queries_done(&self) -> bool {
        self.inflight.is_empty()
    }

    /// Query server counters: requests, rebuilds, bytes in + out.
    pub fn server_counts(&self) -> (u64, u64, u64) {
        let s = self.server.stats();
        (s.requests, s.rebuilds, s.bytes_in + s.bytes_out)
    }

    /// Duplicate frames dropped on either link, and redials: dials
    /// beyond each link's first plus the collector's session resumes.
    pub fn faults(&self) -> (u64, u64) {
        let c = self.collector.stats();
        let q = self.client.stats();
        let dups = c.dup_drops + q.dup_drops;
        let redials = self.sender.stats().dials.saturating_sub(1) + q.dials.saturating_sub(1);
        (dups, redials + c.resumes)
    }

    /// Quarantine and refusal counts: quarantined streams in the
    /// engine, samples they dropped, failed or refused connections.
    pub fn quarantines(&self) -> u64 {
        let engine = self.report.as_ref().map_or(0, |r| {
            r.streams.values().filter_map(|o| o.quarantine.as_ref()).map(|q| 1 + q.dropped).sum()
        });
        let c = self.collector.stats();
        engine + c.failed as u64 + c.refused + c.shed_segments + self.server.stats().refused
    }
}

/// Draws the `i`-th query of a round. `span` is the time range every
/// stream's settled history covers; `recent` gives stream `s`'s newest
/// pushed sample time, when reads of still-arriving data are wanted.
pub fn draw_query(
    w: &Workload,
    rng: &mut Rng,
    i: usize,
    span: f64,
    recent: Option<&dyn Fn(usize) -> Option<f64>>,
) -> (Query, bool) {
    let stream = rng.below(w.streams);
    let id = stream as u64;
    let dim = rng.below(w.dims) as u32;
    let t = |rng: &mut Rng| rng.unit() * span;
    let kinds = if recent.is_some() { 5 } else { 4 };
    match i % kinds {
        0 => (Query::Point { stream: id, t: t(rng), dim }, true),
        1 => {
            let (a, b) = (t(rng), t(rng));
            (Query::Range { stream: id, a: a.min(b), b: a.max(b), dim }, true)
        }
        2 => {
            let times = (0..16).map(|_| t(rng)).collect();
            let threshold = 10.0 * rng.signed();
            (Query::CountAbove { stream: id, dim, threshold, eps: w.eps, times }, true)
        }
        3 => (Query::Span { stream: id }, recent.is_none()),
        _ => {
            let newest = recent.and_then(|f| f(stream)).unwrap_or(0.0);
            let t = (newest - RECENT_LAG as f64).max(0.0);
            (Query::Point { stream: id, t, dim }, false)
        }
    }
}
