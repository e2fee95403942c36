//! Set-up replays of a round's inputs through stand-alone filters.
//!
//! Two replays, for two purposes:
//!
//! * [`emission_order`] pushes the inputs in the benchmark's own push
//!   order through `StreamFilter::push_batch`, exactly as the single
//!   engine shard will, and records which push emitted the k-th
//!   segment. That order is what freshness is matched against, and its
//!   timing is the `core` layer's cost.
//! * [`reference_logs`] is the correctness reference: each stream run
//!   alone through `FilterSpec::build` + `run_filter`, then through the
//!   wire's own reconstruction (`segment_messages` → codec →
//!   `Receiver`), which is what a direct point-to-point link delivers.
//!   The store must hold exactly these logs, bit for bit.

use bytes::BytesMut;
use pla_core::filters::{run_filter, StreamFilter};
use pla_core::Segment;
use pla_ingest::{SegmentStore, StreamId};
use pla_transport::wire::{segment_messages, Codec, FixedCodec};
use pla_transport::Receiver;

use crate::inputs::{Inputs, Workload};
use crate::trace::{Span, SpanId, Tracer};

/// What the push-order replay found.
pub struct Emission {
    /// For the k-th segment in emission order, the index of the push
    /// that emitted it; `ops.len()` marks the final flush.
    pub emit_op: Vec<u32>,
    /// Nanoseconds spent inside `push_batch` and `finish`.
    pub filter_ns: u64,
}

/// Replays `inputs` in push order through fresh filters, recording a
/// `core.filter` span around each call.
pub fn emission_order(w: &Workload, inputs: &Inputs, tr: &mut Tracer, parent: SpanId) -> Emission {
    let mut filters: Vec<Box<dyn StreamFilter>> =
        (0..w.streams).map(|s| w.spec(s).build().expect("workload specs are valid")).collect();
    let mut sink: Vec<Segment> = Vec::new();
    let mut emit_op = Vec::new();
    let mut filter_ns = 0u64;
    let mut batch = Vec::with_capacity(w.batch);
    for (i, &op) in inputs.ops.iter().enumerate() {
        inputs.batch(w, op, &mut batch);
        let start = tr.now();
        filters[op.stream].push_batch(&batch, &mut sink).expect("generated samples are valid");
        let end = tr.now();
        filter_ns += end - start;
        if tr.on() {
            tr.record(Span { name: "core.filter", start, end, parent, req: 0 });
        }
        emit_op.resize(emit_op.len() + sink.len(), i as u32);
        sink.clear();
    }
    let start = tr.now();
    for f in &mut filters {
        f.finish(&mut sink).expect("finish never fails on valid streams");
    }
    let end = tr.now();
    filter_ns += end - start;
    if tr.on() {
        tr.record(Span { name: "core.filter", start, end, parent, req: 0 });
    }
    emit_op.resize(emit_op.len() + sink.len(), inputs.ops.len() as u32);
    Emission { emit_op, filter_ns }
}

/// Every stream's reference log, as a direct link would reconstruct it.
pub fn reference_logs(w: &Workload, inputs: &Inputs) -> Vec<Vec<Segment>> {
    inputs
        .signals
        .iter()
        .enumerate()
        .map(|(s, signal)| {
            let mut filter = w.spec(s).build().expect("workload specs are valid");
            let segments =
                run_filter(filter.as_mut(), signal).expect("generated samples are valid");
            reconstruct(&segments, w.dims)
        })
        .collect()
}

/// The receiver-side reconstruction of a finished filter's output.
pub fn reconstruct(segments: &[Segment], dims: usize) -> Vec<Segment> {
    let mut codec = FixedCodec;
    let mut buf = BytesMut::new();
    for seg in segments {
        segment_messages(seg, |m| {
            codec.encode(&m, dims, &mut buf);
        });
    }
    let mut rx = Receiver::new(FixedCodec, dims);
    rx.consume(buf.freeze()).expect("a lossless codec decodes its own bytes");
    rx.flush();
    rx.into_segments()
}

/// Bit-level equality of two segments: every float compared by its
/// bits, so `-0.0 ≠ 0.0` and NaN payloads count.
pub fn same_bits(a: &Segment, b: &Segment) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    a.t_start.to_bits() == b.t_start.to_bits()
        && a.t_end.to_bits() == b.t_end.to_bits()
        && bits(&a.x_start) == bits(&b.x_start)
        && bits(&a.x_end) == bits(&b.x_end)
        && a.connected == b.connected
        && a.n_points == b.n_points
        && a.new_recordings == b.new_recordings
}

/// Counts the segments of `got` that do not match `want` position for
/// position, plus every missing or surplus one.
pub fn log_mismatches(got: &[Segment], want: &[Segment]) -> u64 {
    let differing = got.iter().zip(want).filter(|(g, w)| !same_bits(g, w)).count();
    (differing + got.len().abs_diff(want.len())) as u64
}

/// The store gate: mismatched, missing or surplus segments across every
/// stream's log, against the reference logs (stream `s` is
/// `StreamId(s)`), plus every segment of a stream the reference lacks.
pub fn store_mismatches(store: &SegmentStore, want: &[Vec<Segment>]) -> u64 {
    let known = |id: &StreamId| (id.0 as usize) < want.len();
    let strays: u64 = store
        .stream_ids()
        .iter()
        .filter(|id| !known(id))
        .map(|&id| store.stream_segments(id).map_or(0, |l| l.len() as u64))
        .sum();
    let logs: u64 = want
        .iter()
        .enumerate()
        .map(|(s, w)| {
            log_mismatches(&store.stream_segments(StreamId(s as u64)).unwrap_or_default(), w)
        })
        .sum();
    strays + logs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{workload, WORKLOADS};
    use crate::trace::ROOT;

    fn small(name: &str) -> Workload {
        let mut w = workload(name).expect("known workload");
        w.streams = w.streams.min(4);
        w.history = w.history.min(64);
        w.live = 256;
        w
    }

    #[test]
    fn emission_order_counts_every_reference_segment() {
        for w in WORKLOADS {
            let w = small(w.name);
            let inputs = Inputs::generate(&w, 1, 0);
            let emitted = emission_order(&w, &inputs, &mut Tracer::new(false), ROOT);
            let raw: usize = inputs
                .signals
                .iter()
                .enumerate()
                .map(|(s, sig)| {
                    let mut f = w.spec(s).build().unwrap();
                    run_filter(f.as_mut(), sig).unwrap().len()
                })
                .sum();
            assert_eq!(emitted.emit_op.len(), raw, "{}", w.name);
            assert!(emitted.emit_op.windows(2).all(|p| p[0] <= p[1]), "emission is in push order");
        }
    }

    #[test]
    fn workloads_compress_as_described() {
        for (name, lo, hi) in
            [("ingest_wire", 3.0, 4.0), ("ingest_filter", 500.0, 5000.0), ("serve_live", 4.0, 16.0)]
        {
            let mut w = workload(name).expect("known workload");
            w.streams = w.streams.min(6);
            let inputs = Inputs::generate(&w, 9, 0);
            let segments = emission_order(&w, &inputs, &mut Tracer::new(false), ROOT).emit_op.len();
            let per_segment = (w.streams * w.per_stream()) as f64 / segments as f64;
            assert!(lo < per_segment && per_segment < hi, "{name}: {per_segment} samples/segment");
        }
    }

    fn store_of(logs: &[Vec<Segment>]) -> SegmentStore {
        let store = SegmentStore::new();
        for (s, log) in logs.iter().enumerate() {
            store.append_batch(1, StreamId(s as u64), log);
        }
        store
    }

    #[test]
    fn a_corrupted_store_segment_fails_the_gate() {
        let w = small("serve_live");
        let inputs = Inputs::generate(&w, 5, 0);
        let want = reference_logs(&w, &inputs);
        assert_eq!(store_mismatches(&store_of(&want), &want), 0);

        let mut flipped = want.clone();
        flipped[1][2].x_end[0] = f64::from_bits(flipped[1][2].x_end[0].to_bits() ^ 1);
        assert_eq!(store_mismatches(&store_of(&flipped), &want), 1, "one flipped bit");

        let mut short = want.clone();
        short[2].pop();
        assert_eq!(store_mismatches(&store_of(&short), &want), 1, "one missing segment");

        let mut signed = want.clone();
        signed[0][0].t_start = -0.0;
        assert_eq!(want[0][0].t_start, 0.0);
        assert_eq!(store_mismatches(&store_of(&signed), &want), 1, "-0.0 is not 0.0");

        let mut extra = want.clone();
        extra.push(want[0].clone());
        assert_eq!(store_mismatches(&store_of(&extra), &want), want[0].len() as u64);
    }
}
