//! The sending endpoint: N logical streams multiplexed onto one framed
//! byte stream, with per-stream credit and replayable delivery.
//!
//! [`MuxSender`] is *sans-I/O*: segments go in
//! ([`try_send_segments`](MuxSender::try_send_segments), one frame per
//! run of a stream's consecutive segments), framed bytes
//! come out ([`take_staged`](MuxSender::take_staged) or the pump
//! functions in [`driver`](crate::driver)), and inbound control bytes
//! are fed back with [`on_bytes`](MuxSender::on_bytes). Nothing here
//! touches a socket, so every protocol path — credit exhaustion, ack
//! processing, reconnect replay — is deterministically testable.

use std::collections::{BTreeMap, VecDeque};

use bytes::{Bytes, BytesMut};

use pla_core::{ProvisionalUpdate, Segment};
use pla_transport::wire::{provisional_message, segment_messages, Codec, Message};

use crate::credit::CreditWindow;
use crate::frame::{
    encode, encode_data, FrameDecoder, NetFrame, Outbox, ResumeCursor, DATA_OVERHEAD,
};
use crate::{NetConfig, NetError};

/// Per-stream sender state.
struct SendStream {
    /// Sequence number of the last `Data` frame produced (0 = none yet).
    last_seq: u64,
    /// Highest cumulatively acknowledged sequence number.
    acked: u64,
    credit: CreditWindow,
    /// Encoded `Data` frames not yet acknowledged, oldest first —
    /// exactly what a reconnect replays.
    unacked: VecDeque<(u64, Bytes)>,
    finished: bool,
}

/// Point-in-time counters for one stream, for observability and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendStreamStats {
    /// `Data` frames produced so far.
    pub frames: u64,
    /// Highest acknowledged sequence number.
    pub acked: u64,
    /// Frames retained for possible replay.
    pub unacked: usize,
    /// Credit bytes currently available.
    pub credit_available: u64,
    /// Whether [`finish_stream`](MuxSender::finish_stream) was called.
    pub finished: bool,
}

/// Builds `Data` frames. Split from the stream map so a send can hold a
/// stream's entry and the encoder at once: one map lookup per frame.
struct FrameBuilder<C: Codec> {
    codec: C,
    dims: usize,
    /// Codec bytes of the frame being built. Cleared, never split, so
    /// its capacity carries over from frame to frame.
    payload: BytesMut,
    /// The encoded `Data`/`Fin` frame being staged; reused the same way.
    frame: BytesMut,
}

impl<C: Codec> FrameBuilder<C> {
    /// Starts `stream`'s next payload with its `StreamFrame` header.
    /// Each frame is a self-contained codec unit (reset first), led by
    /// the stream's own header — the contract
    /// `StreamDemux::consume_sequenced` enforces.
    fn begin(&mut self, stream: u64) {
        self.payload.clear();
        self.codec.reset();
        self.codec.encode(&Message::StreamFrame { stream }, self.dims, &mut self.payload);
    }

    fn push(&mut self, msg: &Message) {
        self.codec.encode(msg, self.dims, &mut self.payload);
    }

    /// Seals the payload as `entry`'s next sequenced `Data` frame:
    /// reserves its credit, stages it on `out`, and retains it for
    /// replay. The caller has checked that the credit covers it.
    ///
    /// One allocation per frame: the replay copy. Both buffers keep
    /// their capacity across frames.
    fn seal(&mut self, stream: u64, entry: &mut SendStream, out: &mut Outbox) {
        let reserved = entry.credit.try_reserve(self.payload.len() as u64);
        assert!(reserved, "the caller checked the credit");
        entry.last_seq += 1;
        self.frame.clear();
        encode_data(stream, entry.last_seq, &self.payload, &mut self.frame);
        out.stage(&self.frame);
        entry.unacked.push_back((entry.last_seq, Bytes::copy_from_slice(&self.frame)));
    }
}

/// The multiplexing sender. See the [crate docs](crate) for the
/// protocol and the module docs for the sans-I/O shape.
pub struct MuxSender<C: Codec> {
    config: NetConfig,
    streams: BTreeMap<u64, SendStream>,
    out: Outbox,
    frames_in: FrameDecoder,
    build: FrameBuilder<C>,
}

impl<C: Codec> MuxSender<C> {
    /// Creates a sender for `dims`-dimensional streams.
    pub fn new(codec: C, dims: usize, config: NetConfig) -> Self {
        Self {
            config,
            streams: BTreeMap::new(),
            out: Outbox::default(),
            frames_in: FrameDecoder::new(config.max_frame),
            build: FrameBuilder { codec, dims, payload: BytesMut::new(), frame: BytesMut::new() },
        }
    }

    fn stream_entry(
        streams: &mut BTreeMap<u64, SendStream>,
        window: u64,
        stream: u64,
    ) -> &mut SendStream {
        streams.entry(stream).or_insert_with(|| SendStream {
            last_seq: 0,
            acked: 0,
            credit: CreditWindow::new(window),
            unacked: VecDeque::new(),
            finished: false,
        })
    }

    /// Sends the longest prefix of `segs` — consecutive finalized
    /// segments of `stream` — that fits one sequenced `Data` frame, and
    /// returns how many segments went.
    ///
    /// The segment→message mapping is
    /// [`wire::segment_messages`](pla_transport::wire::segment_messages)
    /// — the same one the point-to-point
    /// [`Transmitter`](pla_transport::Transmitter) uses — so the far
    /// side's reconstruction is identical to a direct single-stream
    /// link, however a stream's segments are split into frames.
    ///
    /// The frame stops before the first segment that would overrun the
    /// stream's available credit or the frame cap (a payload of at most
    /// `max_frame − 17` bytes, so a `window > max_frame` configuration
    /// never yields a frame the peer rejects as oversized). Only credit
    /// refuses a first segment: one larger than the cap on its own goes
    /// alone, since no split could carry it. Credit is reserved, and a
    /// sequence number, a replay copy and an outbox stage are spent,
    /// once per frame rather than once per segment.
    ///
    /// # Errors
    ///
    /// [`NetError::Backpressure`] when the stream's credit window cannot
    /// cover even the first segment: nothing is sent, and the caller
    /// retries after the receiver grants more (or sheds load). This is
    /// the same contract as `pla_ingest::IngestHandle::try_push`.
    /// [`NetError::Finished`] once the stream was finished.
    pub fn try_send_segments(&mut self, stream: u64, segs: &[Segment]) -> Result<usize, NetError> {
        let cap = u64::from(self.config.max_frame.saturating_sub(DATA_OVERHEAD));
        let entry = Self::stream_entry(&mut self.streams, self.config.window, stream);
        if entry.finished {
            return Err(NetError::Finished(stream));
        }
        let credit = entry.credit.available();
        let build = &mut self.build;
        build.begin(stream);
        let mut sent = 0;
        for seg in segs {
            let whole = build.payload.len();
            segment_messages(seg, |m| build.push(&m));
            let len = build.payload.len() as u64;
            if len > credit || (sent > 0 && len > cap) {
                // Trim back to the last whole segment; the codec state
                // past it dies with the next frame's reset.
                build.payload.truncate(whole);
                break;
            }
            sent += 1;
        }
        if sent == 0 {
            return Err(NetError::Backpressure);
        }
        build.seal(stream, entry, &mut self.out);
        Ok(sent)
    }

    /// Sends one finalized segment on `stream` as its own frame; see
    /// [`try_send_segments`](Self::try_send_segments).
    pub fn try_send_segment(&mut self, stream: u64, seg: &Segment) -> Result<(), NetError> {
        self.try_send_segments(stream, std::slice::from_ref(seg)).map(drop)
    }

    /// Sends a provisional (lag-bound) update on `stream`.
    pub fn try_send_provisional(
        &mut self,
        stream: u64,
        update: &ProvisionalUpdate,
    ) -> Result<(), NetError> {
        let entry = Self::stream_entry(&mut self.streams, self.config.window, stream);
        if entry.finished {
            return Err(NetError::Finished(stream));
        }
        self.build.begin(stream);
        self.build.push(&provisional_message(update));
        if self.build.payload.len() as u64 > entry.credit.available() {
            return Err(NetError::Backpressure);
        }
        self.build.seal(stream, entry, &mut self.out);
        Ok(())
    }

    /// Marks `stream` complete and stages its `Fin` frame. Further
    /// sends on it fail with [`NetError::Finished`]; finishing twice is
    /// idempotent.
    pub fn finish_stream(&mut self, stream: u64) -> Result<(), NetError> {
        let entry = Self::stream_entry(&mut self.streams, self.config.window, stream);
        if entry.finished {
            return Ok(());
        }
        entry.finished = true;
        let fin = NetFrame::Fin { stream, final_seq: entry.last_seq };
        self.build.frame.clear();
        encode(&fin, &mut self.build.frame);
        self.out.stage(&self.build.frame);
        Ok(())
    }

    /// Finishes every stream that has sent anything.
    pub fn finish_all(&mut self) {
        let ids: Vec<u64> = self.streams.keys().copied().collect();
        for id in ids {
            self.finish_stream(id).expect("finish is idempotent");
        }
    }

    /// Feeds inbound link bytes (the receiver's `Ack`/`Credit` control
    /// frames).
    pub fn on_bytes(&mut self, bytes: &[u8]) -> Result<(), NetError> {
        self.frames_in.extend(bytes);
        while let Some(frame) = self.frames_in.try_next()? {
            self.on_frame(frame)?;
        }
        Ok(())
    }

    /// Applies one already-decoded inbound frame. The session layer
    /// decodes the link itself (it must intercept `HelloAck`) and
    /// forwards the control plane here frame by frame.
    pub(crate) fn on_frame(&mut self, frame: NetFrame) -> Result<(), NetError> {
        match frame {
            // Control frames naming a stream this sender never sent
            // on are dropped without materializing state: a corrupt
            // or hostile peer must not be able to conjure phantom
            // streams (which finish_all would then Fin).
            NetFrame::Ack { stream, through_seq } => {
                if let Some(entry) = self.streams.get_mut(&stream) {
                    entry.acked = entry.acked.max(through_seq);
                    while entry.unacked.front().is_some_and(|(seq, _)| *seq <= through_seq) {
                        entry.unacked.pop_front();
                    }
                }
            }
            NetFrame::Credit { stream, granted_total } => {
                if let Some(entry) = self.streams.get_mut(&stream) {
                    entry.credit.grant_to(granted_total);
                }
            }
            // Liveness probes and echoes carry no stream state; the
            // session layer tracks arrival times, the mux ignores them.
            NetFrame::Heartbeat { .. } => {}
            NetFrame::Data { .. } => return Err(NetError::UnexpectedFrame("Data at sender")),
            NetFrame::Fin { .. } => return Err(NetError::UnexpectedFrame("Fin at sender")),
            NetFrame::Hello { .. } => return Err(NetError::UnexpectedFrame("Hello at sender")),
            NetFrame::HelloAck { .. } => {
                return Err(NetError::UnexpectedFrame("HelloAck outside handshake"))
            }
            NetFrame::QueryReq { .. }
            | NetFrame::QueryResp { .. }
            | NetFrame::EpochsReq { .. }
            | NetFrame::EpochsResp { .. } => {
                return Err(NetError::UnexpectedFrame("query frame at ingest sender"))
            }
        }
        Ok(())
    }

    /// Applies the receiver's resume cursors from a `HelloAck`: acks
    /// trim the replay buffer, grants refresh the credit windows —
    /// exactly what the per-stream `Ack`+`Credit` refresh of a plain
    /// reconnect would do, but delivered atomically with the handshake.
    /// Cursors naming unknown streams are dropped (no phantom streams).
    pub fn apply_resume(&mut self, cursors: &[ResumeCursor]) {
        for c in cursors {
            if let Some(entry) = self.streams.get_mut(&c.stream) {
                entry.acked = entry.acked.max(c.through_seq);
                while entry.unacked.front().is_some_and(|(seq, _)| *seq <= c.through_seq) {
                    entry.unacked.pop_front();
                }
                entry.credit.grant_to(c.granted_total);
            }
        }
        // The replay staged by `on_reconnect` may now contain frames the
        // cursors just acknowledged; restage from the trimmed buffers so
        // the wire never carries a *whole* frame the receiver already
        // holds. But this runs on a live link: if the link accepted a
        // partial write, the frame it tore must complete first — the
        // receiver drops duplicate frames by sequence number, it cannot
        // survive a torn one.
        let torn: Option<Vec<u8>> = self.out.partial_head().map(<[u8]>::to_vec);
        self.out.clear();
        if let Some(tail) = torn {
            self.out.stage(&tail);
        }
        self.restage_unacked();
    }

    /// The connection died: drop everything staged for the dead link,
    /// forget its partial inbound frame, and restage every
    /// unacknowledged `Data` frame (in per-stream sequence order) plus
    /// the `Fin` of every finished stream. The receiver drops whatever
    /// it already applied by sequence number, so replaying is always
    /// safe.
    pub fn on_reconnect(&mut self) {
        self.out.clear();
        self.frames_in.reset();
        self.restage_unacked();
    }

    /// Stages every unacknowledged `Data` frame (in per-stream sequence
    /// order) plus the `Fin` of every finished stream.
    fn restage_unacked(&mut self) {
        let mut fin_scratch = BytesMut::new();
        for (&stream, entry) in &self.streams {
            for (_, frame_bytes) in &entry.unacked {
                self.out.stage(frame_bytes);
            }
            if entry.finished {
                fin_scratch.clear();
                encode(&NetFrame::Fin { stream, final_seq: entry.last_seq }, &mut fin_scratch);
                self.out.stage(&fin_scratch);
            }
        }
    }

    /// Whether every produced frame has been acknowledged and nothing
    /// is waiting for the link — the sender's "safe to stop pumping"
    /// condition (together with having called
    /// [`finish_all`](Self::finish_all)).
    pub fn is_idle(&self) -> bool {
        self.out.is_empty() && self.streams.values().all(|s| s.unacked.is_empty())
    }

    /// Whether every produced frame has been acknowledged.
    pub fn all_acked(&self) -> bool {
        self.streams.values().all(|s| s.unacked.is_empty())
    }

    /// Bytes staged for the link but not yet written.
    pub fn staged_bytes(&self) -> usize {
        self.out.pending()
    }

    /// Drains every staged byte (manual pumping; the
    /// [`driver`](crate::driver) pumps incrementally instead).
    pub fn take_staged(&mut self) -> Vec<u8> {
        self.out.take()
    }

    pub(crate) fn outbox(&mut self) -> &mut Outbox {
        &mut self.out
    }

    /// Streams this sender has touched, ascending.
    pub fn streams(&self) -> impl Iterator<Item = u64> + '_ {
        self.streams.keys().copied()
    }

    /// Counters for one stream (`None` if never sent on).
    pub fn stream_stats(&self, stream: u64) -> Option<SendStreamStats> {
        self.streams.get(&stream).map(|s| SendStreamStats {
            frames: s.last_seq,
            acked: s.acked,
            unacked: s.unacked.len(),
            credit_available: s.credit.available(),
            finished: s.finished,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pla_transport::wire::FixedCodec;

    fn seg(t0: f64, x0: f64, t1: f64, x1: f64) -> Segment {
        Segment {
            t_start: t0,
            x_start: [x0].into(),
            t_end: t1,
            x_end: [x1].into(),
            connected: false,
            n_points: 2,
            new_recordings: 2,
        }
    }

    fn sender() -> MuxSender<FixedCodec> {
        MuxSender::new(FixedCodec, 1, NetConfig::default())
    }

    /// `apply_resume` arrives on the *live* link; if the link tore a
    /// frame on a partial write, the rebuilt outbox must lead with that
    /// frame's remaining bytes or the peer's decoder desyncs.
    #[test]
    fn apply_resume_preserves_a_torn_frame() {
        let mut tx = MuxSender::new(FixedCodec, 1, NetConfig { window: 4096, max_frame: 1 << 20 });
        for i in 0..4 {
            tx.try_send_segment(5, &seg(i as f64 * 10.0, 0.0, i as f64 * 10.0 + 5.0, 1.0)).unwrap();
        }
        let staged = tx.outbox().as_bytes().to_vec();
        // Frame boundaries from the length prefixes; cut mid-frame-3.
        let mut bounds = vec![0usize];
        let mut off = 0;
        while off < staged.len() {
            off += 4 + u32::from_le_bytes(staged[off..off + 4].try_into().unwrap()) as usize;
            bounds.push(off);
        }
        let cut = bounds[2] + 3;
        tx.outbox().consume(cut);

        tx.apply_resume(&[crate::frame::ResumeCursor {
            stream: 5,
            through_seq: 1,
            granted_total: 1 << 20,
        }]);

        // The wire = what the link already accepted + what goes out now.
        let mut wire = staged[..cut].to_vec();
        wire.extend(tx.take_staged());
        let mut dec = FrameDecoder::new(1 << 20);
        dec.extend(&wire);
        let mut seqs = Vec::new();
        while let Some(f) = dec.try_next().expect("wire must stay framed") {
            match f {
                NetFrame::Data { stream: 5, seq, .. } => seqs.push(seq),
                other => panic!("unexpected frame on the wire: {other:?}"),
            }
        }
        assert_eq!(dec.pending(), 0, "no torn bytes left behind");
        // Frames 1-2 were fully written, the torn frame 3 completes,
        // then the trimmed replay (unacked 2..=4) follows; the receiver
        // dedups whole frames by seq.
        assert_eq!(seqs, vec![1, 2, 3, 2, 3, 4]);
    }

    #[test]
    fn segments_become_sequenced_data_frames() {
        let mut tx = sender();
        tx.try_send_segment(4, &seg(0.0, 1.0, 5.0, 2.0)).unwrap();
        tx.try_send_segment(4, &seg(6.0, 0.0, 9.0, 1.0)).unwrap();
        tx.try_send_segment(2, &seg(0.0, 0.0, 1.0, 1.0)).unwrap();
        let bytes = tx.take_staged();
        let mut dec = FrameDecoder::new(1 << 20);
        dec.extend(&bytes);
        let mut seen = Vec::new();
        while let Some(f) = dec.try_next().unwrap() {
            match f {
                NetFrame::Data { stream, seq, .. } => seen.push((stream, seq)),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(seen, vec![(4, 1), (4, 2), (2, 1)], "per-stream sequence numbers");
        let s4 = tx.stream_stats(4).unwrap();
        assert_eq!(s4.frames, 2);
        assert_eq!(s4.unacked, 2, "frames retained until acked");
    }

    #[test]
    fn credit_exhaustion_is_backpressure_and_leaves_no_trace() {
        let mut tx = MuxSender::new(FixedCodec, 1, NetConfig { window: 64, max_frame: 1 << 20 });
        // 1-D fixed-codec segment payload: header (9) + Start (17) + End (17) = 43 bytes.
        tx.try_send_segment(1, &seg(0.0, 1.0, 5.0, 2.0)).unwrap();
        let staged_before = tx.staged_bytes();
        let frames_before = tx.stream_stats(1).unwrap().frames;
        assert_eq!(tx.try_send_segment(1, &seg(6.0, 0.0, 9.0, 1.0)), Err(NetError::Backpressure));
        // A run whose first segment does not fit is refused whole.
        assert_eq!(tx.try_send_segments(1, &run(3)), Err(NetError::Backpressure));
        assert_eq!(tx.staged_bytes(), staged_before, "refused send stages nothing");
        let s = tx.stream_stats(1).unwrap();
        assert_eq!(s.frames, frames_before, "no seq burned");
        assert_eq!(s.credit_available, 64 - 43, "no credit used");
        assert_eq!(s.unacked, 1, "nothing retained");
        // A credit grant unblocks it.
        let mut grant = BytesMut::new();
        encode(&NetFrame::Credit { stream: 1, granted_total: 1024 }, &mut grant);
        tx.on_bytes(&grant).unwrap();
        tx.try_send_segment(1, &seg(6.0, 0.0, 9.0, 1.0)).unwrap();
    }

    #[test]
    fn acks_release_unacked_frames() {
        let mut tx = sender();
        for i in 0..3 {
            tx.try_send_segment(9, &seg(i as f64 * 10.0, 0.0, i as f64 * 10.0 + 5.0, 1.0)).unwrap();
        }
        assert!(!tx.all_acked());
        let mut ack = BytesMut::new();
        encode(&NetFrame::Ack { stream: 9, through_seq: 2 }, &mut ack);
        tx.on_bytes(&ack).unwrap();
        assert_eq!(tx.stream_stats(9).unwrap().unacked, 1);
        // A stale (replayed) ack changes nothing.
        let mut stale = BytesMut::new();
        encode(&NetFrame::Ack { stream: 9, through_seq: 1 }, &mut stale);
        tx.on_bytes(&stale).unwrap();
        assert_eq!(tx.stream_stats(9).unwrap().unacked, 1);
        let mut last = BytesMut::new();
        encode(&NetFrame::Ack { stream: 9, through_seq: 3 }, &mut last);
        tx.on_bytes(&last).unwrap();
        assert!(tx.all_acked());
    }

    #[test]
    fn reconnect_replays_exactly_the_unacked_tail_and_fins() {
        let mut tx = sender();
        for i in 0..4 {
            tx.try_send_segment(5, &seg(i as f64 * 10.0, 0.0, i as f64 * 10.0 + 5.0, 1.0)).unwrap();
        }
        tx.finish_stream(5).unwrap();
        let _lost = tx.take_staged(); // written to a link that then died
        let mut ack = BytesMut::new();
        encode(&NetFrame::Ack { stream: 5, through_seq: 2 }, &mut ack);
        tx.on_bytes(&ack).unwrap();
        tx.on_reconnect();
        let mut dec = FrameDecoder::new(1 << 20);
        dec.extend(&tx.take_staged());
        let mut replay = Vec::new();
        while let Some(f) = dec.try_next().unwrap() {
            replay.push(f);
        }
        assert_eq!(replay.len(), 3, "two unacked Data frames plus the Fin");
        assert!(matches!(replay[0], NetFrame::Data { stream: 5, seq: 3, .. }));
        assert!(matches!(replay[1], NetFrame::Data { stream: 5, seq: 4, .. }));
        assert_eq!(replay[2], NetFrame::Fin { stream: 5, final_seq: 4 });
    }

    #[test]
    fn apply_resume_trims_replay_and_regrants_credit() {
        let mut tx = MuxSender::new(FixedCodec, 1, NetConfig { window: 256, max_frame: 1 << 20 });
        for i in 0..4 {
            tx.try_send_segment(5, &seg(i as f64 * 10.0, 0.0, i as f64 * 10.0 + 5.0, 1.0)).unwrap();
        }
        tx.finish_stream(5).unwrap();
        let _lost = tx.take_staged();
        tx.on_reconnect(); // 0-RTT replay staged alongside the Hello
        tx.apply_resume(&[
            crate::frame::ResumeCursor { stream: 5, through_seq: 2, granted_total: 4096 },
            // Unknown stream: dropped, never materialized.
            crate::frame::ResumeCursor { stream: 99, through_seq: 7, granted_total: 1 << 40 },
        ]);
        assert_eq!(tx.stream_stats(99), None, "cursors must not conjure streams");
        assert_eq!(tx.stream_stats(5).unwrap().unacked, 2);
        assert!(tx.stream_stats(5).unwrap().credit_available > 0, "grant refreshed");
        // The staged replay was re-trimmed to match: seq 3, 4, then Fin.
        let mut dec = FrameDecoder::new(1 << 20);
        dec.extend(&tx.take_staged());
        let mut replay = Vec::new();
        while let Some(f) = dec.try_next().unwrap() {
            replay.push(f);
        }
        assert_eq!(replay.len(), 3, "acked frames must not be replayed, got {replay:?}");
        assert!(matches!(replay[0], NetFrame::Data { stream: 5, seq: 3, .. }));
        assert!(matches!(replay[1], NetFrame::Data { stream: 5, seq: 4, .. }));
        assert_eq!(replay[2], NetFrame::Fin { stream: 5, final_seq: 4 });
    }

    #[test]
    fn heartbeats_at_the_sender_are_ignored_and_session_frames_rejected() {
        let mut tx = sender();
        tx.try_send_segment(1, &seg(0.0, 0.0, 1.0, 1.0)).unwrap();
        let mut buf = BytesMut::new();
        encode(&NetFrame::Heartbeat { seq: 3 }, &mut buf);
        tx.on_bytes(&buf).unwrap();
        let mut hello = BytesMut::new();
        encode(&NetFrame::Hello { version: 1, token: 0 }, &mut hello);
        assert!(matches!(tx.on_bytes(&hello), Err(NetError::UnexpectedFrame(_))));
    }

    #[test]
    fn finished_streams_refuse_more_payload() {
        let mut tx = sender();
        tx.try_send_segment(1, &seg(0.0, 0.0, 1.0, 1.0)).unwrap();
        tx.finish_stream(1).unwrap();
        tx.finish_stream(1).unwrap(); // idempotent
        assert_eq!(tx.try_send_segment(1, &seg(2.0, 0.0, 3.0, 1.0)), Err(NetError::Finished(1)));
        assert_eq!(tx.try_send_segments(1, &run(2)), Err(NetError::Finished(1)));
    }

    #[test]
    fn control_frames_for_unknown_streams_are_dropped_without_state() {
        let mut tx = sender();
        tx.try_send_segment(1, &seg(0.0, 0.0, 1.0, 1.0)).unwrap();
        let mut buf = BytesMut::new();
        encode(&NetFrame::Ack { stream: 999, through_seq: 3 }, &mut buf);
        encode(&NetFrame::Credit { stream: 999, granted_total: 1 << 40 }, &mut buf);
        tx.on_bytes(&buf).unwrap();
        assert_eq!(tx.stream_stats(999), None, "no phantom stream may be conjured");
        assert_eq!(tx.streams().collect::<Vec<_>>(), vec![1]);
        // finish_all therefore fins only real streams.
        tx.finish_all();
        let mut dec = FrameDecoder::new(1 << 20);
        dec.extend(&tx.take_staged());
        let mut fins = 0;
        while let Some(f) = dec.try_next().unwrap() {
            if let NetFrame::Fin { stream, .. } = f {
                assert_eq!(stream, 1);
                fins += 1;
            }
        }
        assert_eq!(fins, 1);
    }

    #[test]
    fn payload_frames_at_the_sender_are_protocol_errors() {
        let mut tx = sender();
        let mut buf = BytesMut::new();
        encode(&NetFrame::Data { stream: 1, seq: 1, payload: Bytes::from_static(b"x") }, &mut buf);
        assert!(matches!(tx.on_bytes(&buf), Err(NetError::UnexpectedFrame(_))));
    }

    /// `n` disconnected 1-D segments; each costs 34 payload bytes
    /// (`Start` + `End`) behind the 9-byte `StreamFrame` header.
    fn run(n: usize) -> Vec<Segment> {
        (0..n).map(|i| seg(i as f64 * 10.0, i as f64, i as f64 * 10.0 + 5.0, -(i as f64))).collect()
    }

    fn endpoints(segs: &[Segment]) -> Vec<(f64, f64, f64, f64, bool)> {
        segs.iter().map(|s| (s.t_start, s.x_start[0], s.t_end, s.x_end[0], s.connected)).collect()
    }

    #[test]
    fn a_whole_run_becomes_one_frame() {
        let mut tx = sender();
        let mut rx = crate::NetReceiver::new(FixedCodec, 1, NetConfig::default());
        let segs = run(7);
        assert_eq!(tx.try_send_segments(3, &segs[..5]), Ok(5));
        let s = tx.stream_stats(3).unwrap();
        assert_eq!((s.frames, s.unacked), (1, 1), "one seq and one replay copy for the run");
        assert_eq!(tx.try_send_segments(3, &segs[5..]), Ok(2));
        assert_eq!(tx.stream_stats(3).unwrap().frames, 2, "last_seq rises by one per frame");
        rx.on_bytes(&tx.take_staged()).unwrap();
        assert_eq!(rx.stats().frames_applied, 2);
        let logs = rx.into_demux().into_segment_logs();
        assert_eq!(endpoints(&logs[&3]), endpoints(&segs));
    }

    #[test]
    fn a_credit_limited_run_sends_its_longest_fitting_prefix() {
        // Room for the header and exactly three segments.
        let cfg = NetConfig { window: 9 + 3 * 34, max_frame: 1 << 20 };
        let mut tx = MuxSender::new(FixedCodec, 1, cfg);
        let mut rx = crate::NetReceiver::new(FixedCodec, 1, cfg);
        let segs = run(5);
        assert_eq!(tx.try_send_segments(1, &segs), Ok(3));
        assert_eq!(tx.stream_stats(1).unwrap().credit_available, 0);
        assert_eq!(tx.try_send_segments(1, &segs[3..]), Err(NetError::Backpressure));
        // The receiver's grant makes room for the rest.
        rx.on_bytes(&tx.take_staged()).unwrap();
        tx.on_bytes(&rx.take_staged()).unwrap();
        assert_eq!(tx.try_send_segments(1, &segs[3..]), Ok(2));
        assert_eq!(tx.stream_stats(1).unwrap().frames, 2);
        rx.on_bytes(&tx.take_staged()).unwrap();
        let logs = rx.into_demux().into_segment_logs();
        assert_eq!(endpoints(&logs[&1]), endpoints(&segs), "nothing lost or duplicated");
    }

    #[test]
    fn the_frame_cap_splits_runs_so_no_frame_is_oversized() {
        // Credit for everything, but a frame holds at most four
        // segments: 17 + 9 + 4 × 34 = 162 ≤ 170 < 196.
        let cfg = NetConfig { window: 1 << 16, max_frame: 170 };
        let mut tx = MuxSender::new(FixedCodec, 1, cfg);
        let mut rx = crate::NetReceiver::new(FixedCodec, 1, cfg);
        let segs = run(10);
        let mut at = 0;
        while at < segs.len() {
            let sent = tx.try_send_segments(2, &segs[at..]).unwrap();
            assert!(sent <= 4, "frame of {sent} segments exceeds the cap");
            at += sent;
        }
        assert_eq!(tx.stream_stats(2).unwrap().frames, 3);
        rx.on_bytes(&tx.take_staged()).expect("no frame exceeds max_frame");
        let logs = rx.into_demux().into_segment_logs();
        assert_eq!(endpoints(&logs[&2]), endpoints(&segs));
    }
}
