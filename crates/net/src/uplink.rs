//! The `pla-ingest` integration: an engine's shard fan-in flows
//! straight out over one multiplexed connection.
//!
//! [`IngestEngine::with_segment_tap`](pla_ingest::IngestEngine::with_segment_tap)
//! hands back a live channel of
//! `(StreamId, Segment)` in emission order; [`EngineUplink`] drains it
//! into a [`MuxSender`]. Consecutive tapped segments of one stream
//! travel as one `Data` frame
//! ([`try_send_segments`](MuxSender::try_send_segments)): each pump
//! coalesces only what the tap already holds — it never waits for a
//! run to grow — and never reorders across streams, so the tap's global
//! order is exactly the wire's. Credit backpressure holds the unsent
//! rest of a run at the head of the line until the receiver grants
//! more. The far end's `StreamDemux` then rebuilds per-stream segment
//! logs identical to what a direct per-stream
//! [`Transmitter`](pla_transport::Transmitter) link would have
//! produced — that identity is what the loopback integration test pins.

use std::sync::mpsc;

use pla_core::Segment;
use pla_ingest::StreamId;
use pla_transport::wire::Codec;

use crate::mux::MuxSender;
use crate::NetError;

/// The most segments one pump gathers into a run before sending it.
const MAX_RUN: usize = 64;

/// What one [`EngineUplink::pump`] round left behind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UplinkStatus {
    /// The tap had nothing new; everything drained is on the wire
    /// (engine still running).
    Idle,
    /// A run is held on credit backpressure; pump again once the
    /// sender has processed grants.
    Blocked,
    /// The engine finished and every tapped segment has been handed to
    /// the sender; the uplink is done (streams can be finned).
    Drained,
}

/// Couples an engine segment tap to a multiplexing sender.
pub struct EngineUplink {
    tap: mpsc::Receiver<(StreamId, Segment)>,
    /// Tapped segments of `run_stream` not yet sent, oldest first; the
    /// buffer is reused from run to run.
    run: Vec<Segment>,
    run_stream: u64,
    /// The first tapped item of another stream: the head of the next
    /// run, held so the run ends without reordering anything.
    next: Option<(StreamId, Segment)>,
    engine_done: bool,
    forwarded: u64,
}

impl EngineUplink {
    /// Wraps the tap returned by `IngestEngine::with_segment_tap`.
    pub fn new(tap: mpsc::Receiver<(StreamId, Segment)>) -> Self {
        Self {
            tap,
            run: Vec::with_capacity(MAX_RUN),
            run_stream: 0,
            next: None,
            engine_done: false,
            forwarded: 0,
        }
    }

    /// Segments handed to the sender so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Moves as many tapped segments as credit allows into `mux`, one
    /// `Data` frame per run of a stream's consecutive segments.
    ///
    /// Segment order is the tap's: a run only ever extends with the
    /// items right behind it, and a credit-refused remainder stays at
    /// the head of the line rather than being skipped.
    pub fn pump<C: Codec>(&mut self, mux: &mut MuxSender<C>) -> Result<UplinkStatus, NetError> {
        loop {
            self.fill();
            if self.run.is_empty() {
                return Ok(if self.engine_done {
                    UplinkStatus::Drained
                } else {
                    UplinkStatus::Idle
                });
            }
            // A run cut short by credit comes straight back here and is
            // refused whole; one cut by the frame cap just sends on.
            match mux.try_send_segments(self.run_stream, &self.run) {
                Ok(sent) => {
                    self.forwarded += sent as u64;
                    self.run.drain(..sent);
                }
                Err(NetError::Backpressure) => return Ok(UplinkStatus::Blocked),
                Err(other) => return Err(other),
            }
        }
    }

    /// Extends the run with the same-stream items the tap already
    /// holds, up to [`MAX_RUN`]; never waits for more.
    fn fill(&mut self) {
        if self.run.is_empty() {
            if let Some((stream, seg)) = self.next.take() {
                self.run_stream = stream.0;
                self.run.push(seg);
            }
        }
        while self.next.is_none() && self.run.len() < MAX_RUN {
            match self.tap.try_recv() {
                Ok((stream, seg)) if self.run.is_empty() || stream.0 == self.run_stream => {
                    self.run_stream = stream.0;
                    self.run.push(seg);
                }
                Ok(other) => self.next = Some(other),
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    self.engine_done = true;
                    break;
                }
            }
        }
    }

    /// Whether the engine has finished and the tap is fully drained
    /// into the sender.
    pub fn is_drained(&self) -> bool {
        self.engine_done && self.run.is_empty() && self.next.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FrameDecoder, NetFrame};
    use crate::{NetConfig, NetReceiver};
    use pla_core::filters::{FilterKind, FilterSpec};
    use pla_ingest::{IngestConfig, IngestEngine};
    use pla_transport::wire::FixedCodec;

    #[test]
    fn consecutive_same_stream_segments_share_one_frame() {
        let seg = |t: f64| Segment {
            t_start: t,
            x_start: [0.0].into(),
            t_end: t + 1.0,
            x_end: [1.0].into(),
            connected: false,
            n_points: 2,
            new_recordings: 2,
        };
        let (feed, tap) = mpsc::channel();
        for (i, stream) in [1, 1, 1, 2, 2, 1].into_iter().enumerate() {
            feed.send((StreamId(stream), seg(i as f64 * 10.0))).unwrap();
        }
        drop(feed);
        let mut mux = MuxSender::new(FixedCodec, 1, NetConfig::default());
        let mut uplink = EngineUplink::new(tap);
        assert_eq!(uplink.pump(&mut mux).unwrap(), UplinkStatus::Drained);
        assert!(uplink.is_drained());
        assert_eq!(uplink.forwarded(), 6);

        let mut dec = FrameDecoder::new(1 << 20);
        dec.extend(&mux.take_staged());
        let mut frames = Vec::new();
        while let Some(f) = dec.try_next().unwrap() {
            match f {
                // 9-byte stream header, then Start + End (34 bytes) per segment.
                NetFrame::Data { stream, seq, payload } => {
                    frames.push((stream, seq, (payload.len() - 9) / 34))
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(frames, vec![(1, 1, 3), (2, 1, 2), (1, 2, 1)], "(stream, seq, segments)");
    }

    /// The engine's whole output, pumped through the mux under `cfg`
    /// and acknowledged over a lossless hop whenever credit blocks,
    /// reconstructs bit-identically on the far side.
    fn tap_flows_lossless(cfg: NetConfig) -> (u64, u64, u64) {
        let (engine, tap) = IngestEngine::with_segment_tap(IngestConfig {
            shards: 2,
            queue_depth: 64,
            shard_log: false,
        });
        let h = engine.handle();
        for id in 0..8u64 {
            h.register(StreamId(id), FilterSpec::new(FilterKind::Swing, &[0.4])).unwrap();
        }
        // Pushes of 16 samples, so each stream emits runs of segments.
        for block in 0..25 {
            for id in 0..8u64 {
                let samples: Vec<(f64, [f64; 1])> = (block * 16..block * 16 + 16)
                    .map(|j| (j as f64, [(j as f64 * (0.15 + id as f64 * 0.04)).sin()]))
                    .collect();
                let batch: Vec<(f64, &[f64])> =
                    samples.iter().map(|(t, x)| (*t, x.as_slice())).collect();
                h.push_batch(StreamId(id), &batch).unwrap();
            }
        }
        let report = engine.finish();

        let mut mux = MuxSender::new(FixedCodec, 1, cfg);
        let mut rx = NetReceiver::new(FixedCodec, 1, cfg);
        let mut uplink = EngineUplink::new(tap);
        let mut blocked = 0;
        loop {
            match uplink.pump(&mut mux).unwrap() {
                UplinkStatus::Drained => break,
                UplinkStatus::Blocked => {
                    // Lossless hop: let acks/credit flow back.
                    blocked += 1;
                    rx.on_bytes(&mux.take_staged()).unwrap();
                    mux.on_bytes(&rx.take_staged()).unwrap();
                }
                UplinkStatus::Idle => unreachable!("engine already finished"),
            }
        }
        let frames: u64 = mux.streams().map(|s| mux.stream_stats(s).unwrap().frames).sum();
        mux.finish_all();
        rx.on_bytes(&mux.take_staged()).unwrap();
        mux.on_bytes(&rx.take_staged()).unwrap();
        assert!(mux.is_idle());
        assert_eq!(uplink.forwarded(), report.total_segments() as u64);
        assert_eq!(rx.finished_streams().count(), 8);

        // The wire reconstruction carries every stream's segments with
        // the filter's exact endpoints (FixedCodec is lossless).
        let logs = rx.into_demux().into_segment_logs();
        assert_eq!(logs.len(), 8);
        for (id, out) in &report.streams {
            let log = &logs[&id.0];
            assert_eq!(log.len(), out.segments.len(), "{id}");
            for (got, want) in log.iter().zip(&out.segments) {
                assert_eq!(got.t_start, want.t_start);
                assert_eq!(got.t_end, want.t_end);
                assert_eq!(got.x_end, want.x_end);
                assert_eq!(got.connected, want.connected);
            }
        }
        (uplink.forwarded(), frames, blocked)
    }

    #[test]
    fn engine_tap_flows_through_the_mux_lossless() {
        let (segments, frames, _) = tap_flows_lossless(NetConfig::default());
        assert!(frames < segments, "runs share frames: {frames} frames for {segments} segments");
        // A window of a few segments cuts runs by credit mid-run.
        let (segments, frames, blocked) =
            tap_flows_lossless(NetConfig { window: 160, max_frame: 1 << 20 });
        assert!(blocked > 0, "a 160-byte window must block");
        assert!(frames < segments, "{frames} frames for {segments} segments");
    }
}
