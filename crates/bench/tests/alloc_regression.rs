//! The allocation-free hot-path invariant, asserted.
//!
//! After one warm-up pass (which sizes the recycled hull / raw-point /
//! regression scratch), pushing a 1-D stream through any filter —
//! including every interval close and segment emission along the way —
//! must perform **zero** heap allocations. This is the PR-3 acceptance
//! criterion for the swing and slide filters; the other families are
//! held to the same bar because their state migrated to the same
//! inline-dimension storage. The query tier's in-place engine refresh
//! is pinned the same way: free on a quiet store, and costing the same
//! whatever the number of streams that did not grow. The wire→store
//! path gets a per-segment budget rather than zero (a frame is copied
//! once for replay and once out of the decoder), one for single-segment
//! frames and a tighter one for frames carrying a run of segments, and
//! the same count whatever the number of idle streams.
//!
//! Requires the counting global allocator:
//!
//! ```sh
//! cargo test -p pla-bench --features alloc-counter
//! ```
#![cfg(feature = "alloc-counter")]

use std::sync::Mutex;

use pla_bench::{alloc_counter, multi_walk, walk_signal, FilterKind, WalkParams};
use pla_core::filters::StreamFilter;
use pla_core::metrics::CountingSink;
use pla_core::{Segment, INLINE_DIMS};
use pla_ingest::{SegmentStore, StoreSnapshot, StreamId};
use pla_query::StoreQueryEngine;

/// `alloc_counter::count` reads the calling thread's own counter, so the
/// allocations of tests libtest runs on other threads never land in a
/// measurement. The counting tests still take one lock, so none shares
/// the machine with another (a poisoned lock just means an earlier test
/// failed; counting is still safe).
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn steady_state_push_is_allocation_free_at_d1() {
    let _guard = serial();
    let signal = walk_signal(20_000, 0.5, 2.0, 0xA110C);
    for kind in FilterKind::OVERHEAD_SET {
        let mut filter = kind.build(&[0.8]).expect("valid epsilons");
        let mut sink = CountingSink::default();
        // Warm-up pass: grows hull buffers to their steady capacity and
        // exercises many interval closes; `finish` resets the filter.
        for (t, x) in signal.iter() {
            filter.push(t, x, &mut sink).unwrap();
        }
        filter.finish(&mut sink).unwrap();
        // Steady state: an identical pass must not touch the heap.
        let (_, allocs) = alloc_counter::count(|| {
            for (t, x) in signal.iter() {
                filter.push(t, x, &mut sink).unwrap();
            }
            filter.finish(&mut sink).unwrap();
        });
        assert_eq!(
            allocs,
            0,
            "{}: {allocs} heap allocations on the steady-state d=1 push path",
            kind.label()
        );
        assert!(sink.segments > 0, "{}: sanity — segments were emitted", kind.label());
    }
}

#[test]
fn batch_push_is_allocation_free_at_d1() {
    let _guard = serial();
    let signal = walk_signal(20_000, 0.5, 2.0, 0xBA7C);
    let samples: Vec<(f64, &[f64])> = signal.iter().collect();
    for kind in [FilterKind::Swing, FilterKind::Slide] {
        let mut filter = kind.build(&[0.8]).expect("valid epsilons");
        let mut sink = CountingSink::default();
        filter.push_batch(&samples, &mut sink).unwrap();
        filter.finish(&mut sink).unwrap();
        let (_, allocs) = alloc_counter::count(|| {
            filter.push_batch(&samples, &mut sink).unwrap();
            filter.finish(&mut sink).unwrap();
        });
        assert_eq!(
            allocs,
            0,
            "{}: {allocs} heap allocations on the steady-state d=1 batch path",
            kind.label()
        );
    }
}

#[test]
fn spill_regime_allocations_are_bounded_per_interval_close() {
    let _guard = serial();
    // Above INLINE_DIMS the per-dimension payloads spill to the heap.
    // PR 3 documented this regime's alloc headroom; the filter now
    // recycles every interval-close buffer — the Pending/Cone arena, the
    // filter-owned SoA envelopes, the one-point-state sample buffer, and
    // the connection probe's candidate lines — so the only steady-state
    // allocations left per close are the payloads that leave the filter
    // inside the emitted Segment (its x_start/x_end DimVecs).
    let d = 2 * INLINE_DIMS;
    let signal = multi_walk(d, WalkParams { n: 8_000, p_decrease: 0.5, max_delta: 2.0, seed: 11 });
    let eps = vec![0.8; d];
    let mut filter = pla_core::filters::SlideFilter::new(&eps).expect("valid epsilons");
    let mut sink = CountingSink::default();
    for (t, x) in signal.iter() {
        filter.push(t, x, &mut sink).unwrap();
    }
    filter.finish(&mut sink).unwrap();
    let before = sink.segments;
    let (_, allocs) = alloc_counter::count(|| {
        for (t, x) in signal.iter() {
            filter.push(t, x, &mut sink).unwrap();
        }
        filter.finish(&mut sink).unwrap();
    });
    let closes = sink.segments - before;
    assert!(closes > 20, "workload sanity: got {closes} closes");
    let per_close = allocs as f64 / closes as f64;
    eprintln!("slide d={d}: {allocs} allocs / {closes} closes = {per_close:.2} per close");
    assert!(
        per_close <= 4.0,
        "slide d={d}: {allocs} allocations over {closes} interval closes \
         ({per_close:.1}/close) — spill-regime recycling has regressed"
    );
}

#[test]
fn metric_increments_are_allocation_free() {
    let _guard = serial();
    // The ops tier's invariant (crates/ops README): once a handle is
    // registered, every increment on the hot path — counter add, gauge
    // set, histogram observe — must stay off the heap, so instrumented
    // collector/ingest loops keep their own alloc-free guarantees.
    let mut reg = pla_ops::Registry::new();
    let counter = reg.counter("pla_bench_frames_total", "Alloc-regression counter.");
    let labeled = reg.counter_with(
        "pla_bench_conn_total",
        "Alloc-regression labeled counter.",
        &[("conn", "1")],
    );
    let gauge = reg.gauge("pla_bench_attached", "Alloc-regression gauge.");
    let hist =
        reg.histogram("pla_bench_latency", "Alloc-regression histogram.", &[0.5, 2.0, 8.0, 32.0]);
    // Warm-up: first touches, in case any primitive defers work.
    counter.inc();
    labeled.add(3);
    gauge.set(1.0);
    gauge.add(0.5);
    hist.observe(1.0);
    let (_, allocs) = alloc_counter::count(|| {
        for i in 0..10_000u64 {
            counter.inc();
            labeled.add(i & 7);
            gauge.set(i as f64);
            gauge.add(0.25);
            hist.observe((i % 64) as f64);
        }
    });
    assert_eq!(allocs, 0, "{allocs} heap allocations across 50k metric increments");
}

#[test]
fn inline_dims_stream_is_allocation_free() {
    let _guard = serial();
    // The inline threshold itself (d == INLINE_DIMS) must stay heap-free;
    // one past it is allowed to allocate (spilled DimVecs).
    let d = INLINE_DIMS;
    let signal = multi_walk(d, WalkParams { n: 5_000, p_decrease: 0.5, max_delta: 2.0, seed: 7 });
    let eps = vec![0.8; d];
    for kind in [FilterKind::Swing, FilterKind::Slide] {
        let mut filter = kind.build(&eps).expect("valid epsilons");
        let mut sink = CountingSink::default();
        for (t, x) in signal.iter() {
            filter.push(t, x, &mut sink).unwrap();
        }
        filter.finish(&mut sink).unwrap();
        let (_, allocs) = alloc_counter::count(|| {
            for (t, x) in signal.iter() {
                filter.push(t, x, &mut sink).unwrap();
            }
            filter.finish(&mut sink).unwrap();
        });
        assert_eq!(
            allocs,
            0,
            "{}: {allocs} heap allocations at d = INLINE_DIMS = {d}",
            kind.label()
        );
    }
}

fn ramp_segment(k: usize) -> Segment {
    let t = k as f64;
    Segment {
        t_start: t,
        x_start: [t].into(),
        t_end: t + 1.0,
        x_end: [t + 1.0].into(),
        connected: k > 0,
        n_points: 2,
        new_recordings: 1,
    }
}

/// A default-configured store of `streams` streams (one source each),
/// every stream past a seal, and an engine refreshed up to it.
fn served_store(streams: u64) -> (SegmentStore, StoreQueryEngine) {
    let store = SegmentStore::new();
    for id in 0..streams {
        let log: Vec<Segment> = (0..100).map(ramp_segment).collect();
        store.append_batch(id, StreamId(id), &log);
    }
    let mut engine = StoreQueryEngine::new(StoreSnapshot::default());
    assert!(engine.refresh(&store));
    (store, engine)
}

#[test]
fn quiet_engine_refresh_is_allocation_free() {
    let _guard = serial();
    let (store, mut engine) = served_store(64);
    let (changed, allocs) = alloc_counter::count(|| engine.refresh(&store));
    assert!(!changed, "nothing was appended");
    assert_eq!(allocs, 0, "{allocs} heap allocations refreshing against a quiet store");
}

#[test]
fn engine_refresh_cost_is_independent_of_unchanged_streams() {
    let _guard = serial();
    let cost = |streams: u64| {
        let (store, mut engine) = served_store(streams);
        store.append(0, StreamId(0), ramp_segment(100));
        let (changed, allocs) = alloc_counter::count(|| engine.refresh(&store));
        assert!(changed, "one stream grew");
        allocs
    };
    let (small, large) = (cost(64), cost(512));
    eprintln!("refresh after one append: {small} allocs at 64 streams, {large} at 512");
    assert_eq!(
        small, large,
        "a refresh after one append must re-view only that stream: \
         {small} allocations at 64 streams but {large} at 512"
    );
}

/// The `k`-th segment of one stream on the wire→store path: two
/// connected segments follow every disconnected one, so the sender
/// ships both `Start`+`End` and lone-`End` frames.
fn wire_segment(k: usize) -> Segment {
    let t = 3.0 * k as f64;
    let connected = !k.is_multiple_of(3);
    let t_start = if connected { t - 1.0 } else { t };
    Segment {
        t_start,
        x_start: [t_start.sin()].into(),
        t_end: t + 2.0,
        x_end: [(t + 2.0).sin()].into(),
        connected,
        n_points: 3,
        new_recordings: if connected { 1 } else { 2 },
    }
}

/// Heap allocations per segment on the wire→store path at `streams`
/// d = 1 streams: `SessionSender` → memory link → session-mode
/// `Collector` → `SegmentStore`, all on this thread. Each `Data` frame
/// carries a run of `run` consecutive segments of one stream, and the
/// pumps run after every `pump_every` frames. Frames go round-robin, so
/// every stream receives the same number in the warm-up and in the
/// measured window — whatever the stream count, each stream's buffers
/// are in the same phase of growth and its store log seals exactly once
/// per window.
fn wire_to_store_allocs_per_segment(streams: u64, run: usize, pump_every: usize) -> f64 {
    use std::sync::Arc;
    use std::time::Instant;

    use pla_net::{
        Collector, MemoryAcceptor, MemoryRedial, NetConfig, SessionConfig, SessionSender,
    };
    use pla_transport::wire::FixedCodec;

    const PER_STREAM: usize = 64;
    assert!(PER_STREAM.is_multiple_of(run), "whole runs per window");
    let cfg = NetConfig::default();
    let sess = SessionConfig::default();
    let store = Arc::new(SegmentStore::new());
    let acceptor = MemoryAcceptor::new();
    let connector = acceptor.connector();
    let mut collector =
        Collector::with_sessions(FixedCodec, 1, cfg, sess, acceptor, Arc::clone(&store));
    // A frozen clock: no heartbeat or liveness deadline ever fires, so
    // every pump round is pure data and acks.
    let now = Instant::now();
    let mut tx =
        SessionSender::new(FixedCodec, 1, cfg, sess, MemoryRedial::new(connector, 1 << 20), now);
    type Tx = SessionSender<FixedCodec, MemoryRedial>;
    type Coll = Collector<FixedCodec, MemoryAcceptor>;
    let pump = |tx: &mut Tx, collector: &mut Coll| {
        tx.pump_at(now);
        collector.pump_at(now).expect("clean stream");
        tx.pump_at(now);
    };
    for _ in 0..4 {
        pump(&mut tx, &mut collector);
    }
    assert!(tx.is_established(), "the session handshake completed");

    let mut frames = 0usize;
    let mut segs: Vec<Segment> = Vec::with_capacity(run);
    let mut send_round = |tx: &mut Tx, collector: &mut Coll| {
        for _ in 0..streams {
            let stream = frames as u64 % streams;
            let k0 = frames / streams as usize * run;
            segs.clear();
            segs.extend((k0..k0 + run).map(wire_segment));
            let sent = tx.mux_mut().try_send_segments(stream, &segs);
            assert_eq!(sent, Ok(run), "credit suffices for a whole run");
            frames += 1;
            if frames.is_multiple_of(pump_every) {
                pump(tx, collector);
            }
        }
    };
    for _ in 0..PER_STREAM / run {
        send_round(&mut tx, &mut collector);
    }
    pump(&mut tx, &mut collector);
    let before = store.total_segments();
    let (_, allocs) = alloc_counter::count(|| {
        for _ in 0..PER_STREAM / run {
            send_round(&mut tx, &mut collector);
        }
    });
    let measured = streams as usize * PER_STREAM;
    pump(&mut tx, &mut collector);
    assert_eq!(
        store.total_segments() - before,
        measured as u64,
        "every measured segment reached the store"
    );
    assert_eq!(collector.stats().dup_drops, 0);
    allocs as f64 / measured as f64
}

#[test]
fn wire_to_store_allocations_are_bounded_and_independent_of_idle_streams() {
    let _guard = serial();
    let at = |streams| {
        let per_segment = wire_to_store_allocs_per_segment(streams, 1, 5);
        eprintln!("wire→store at {streams} streams: {per_segment:.3} allocations per segment");
        per_segment
    };
    let (small, mid, large) = (at(64), at(256), at(1024));
    // Two copies per segment are inherent today: the sender keeps one of
    // each frame for replay, and the decoder hands the demux an owned
    // payload. Everything else — acks, store seals, buffer growth —
    // amortizes to a small fraction.
    assert!(
        mid <= 3.0,
        "{mid:.2} allocations per segment at 256 streams — the wire→store path \
         regressed past its budget of 3"
    );
    for (streams, other) in [(64, small), (1024, large)] {
        assert!(
            (other - mid).abs() <= 0.1,
            "{other:.2} allocations per segment at {streams} streams but {mid:.2} at 256: \
             the path must not allocate for streams that carry nothing new"
        );
    }
}

#[test]
fn batched_wire_to_store_allocations_are_bounded_and_independent_of_idle_streams() {
    let _guard = serial();
    let at = |streams| {
        let per_segment = wire_to_store_allocs_per_segment(streams, 4, 1);
        eprintln!("wire→store, 4-segment runs, at {streams} streams: {per_segment:.3} allocations per segment");
        per_segment
    };
    let (small, mid, large) = (at(64), at(256), at(1024));
    // A run of 4 segments pays the two per-frame copies once: the
    // sender's replay copy and the decoder's owned payload amortize to
    // half an allocation per segment, pumping after every frame.
    assert!(
        mid <= 1.0,
        "{mid:.2} allocations per segment at 256 streams with 4-segment frames — the \
         batched wire→store path regressed past its budget of 1"
    );
    for (streams, other) in [(64, small), (1024, large)] {
        assert!(
            (other - mid).abs() <= 0.1,
            "{other:.2} allocations per segment at {streams} streams but {mid:.2} at 256: \
             the path must not allocate for streams that carry nothing new"
        );
    }
}
