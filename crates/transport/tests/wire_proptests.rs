//! Property tests for the wire codecs (P3 of DESIGN.md §6).

use bytes::BytesMut;
use proptest::prelude::*;

use pla_transport::wire::{Codec, CompactCodec, FixedCodec, Message};

fn message_strategy(dims: usize) -> impl Strategy<Value = Message> {
    let vals = prop::collection::vec(-1e6f64..1e6, dims..=dims);
    let t = -1e6f64..1e6;
    prop_oneof![
        (t.clone(), vals.clone()).prop_map(|(t, x)| Message::Hold { t, x: x.into() }),
        (t.clone(), vals.clone()).prop_map(|(t, x)| Message::Start { t, x: x.into() }),
        (t.clone(), vals.clone()).prop_map(|(t, x)| Message::End { t, x: x.into() }),
        (t.clone(), vals.clone()).prop_map(|(t, x)| Message::Point { t, x: x.into() }),
        (t.clone(), vals.clone(), prop::collection::vec(-1e3f64..1e3, dims..=dims), t.clone())
            .prop_map(|(t_anchor, x_anchor, slopes, covers_through)| Message::Provisional {
                t_anchor,
                x_anchor: x_anchor.into(),
                slopes: slopes.into(),
                covers_through,
            }),
    ]
}

fn stream_strategy() -> impl Strategy<Value = (usize, Vec<Message>)> {
    (1usize..=4).prop_flat_map(|d| {
        prop::collection::vec(message_strategy(d), 1..40).prop_map(move |msgs| (d, msgs))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Fixed codec: exact round trip of arbitrary message streams.
    #[test]
    fn fixed_codec_round_trips_exactly((dims, msgs) in stream_strategy()) {
        let mut codec = FixedCodec;
        let mut buf = BytesMut::new();
        for m in &msgs {
            codec.encode(m, dims, &mut buf);
        }
        let mut bytes = buf.freeze();
        for m in &msgs {
            let got = codec.decode(&mut bytes, dims).unwrap();
            prop_assert_eq!(&got, m);
        }
        prop_assert!(bytes.is_empty());
    }

    /// Compact codec: round trip within half a quantum per scalar, and
    /// the same message kind.
    #[test]
    fn compact_codec_round_trips_within_quantum(
        (dims, msgs) in stream_strategy(),
        tq in 0.001f64..1.0,
        xq in 0.001f64..1.0,
    ) {
        let quanta = vec![xq; dims];
        let mut enc = CompactCodec::new(tq, &quanta);
        let mut dec = CompactCodec::new(tq, &quanta);
        let mut buf = BytesMut::new();
        for m in &msgs {
            enc.encode(m, dims, &mut buf);
        }
        let mut bytes = buf.freeze();
        for m in &msgs {
            let got = dec.decode(&mut bytes, dims).unwrap();
            prop_assert_eq!(std::mem::discriminant(&got), std::mem::discriminant(m));
            match (&got, m) {
                (
                    Message::Hold { t: gt, x: gx } | Message::Start { t: gt, x: gx }
                    | Message::End { t: gt, x: gx } | Message::Point { t: gt, x: gx },
                    Message::Hold { t, x } | Message::Start { t, x }
                    | Message::End { t, x } | Message::Point { t, x },
                ) => {
                    prop_assert!((gt - t).abs() <= tq / 2.0 + 1e-9);
                    for (a, b) in gx.iter().zip(x.iter()) {
                        prop_assert!((a - b).abs() <= xq / 2.0 + 1e-9);
                    }
                }
                (
                    Message::Provisional { t_anchor: gt, x_anchor: gx, .. },
                    Message::Provisional { t_anchor: t, x_anchor: x, .. },
                ) => {
                    prop_assert!((gt - t).abs() <= tq / 2.0 + 1e-9);
                    for (a, b) in gx.iter().zip(x.iter()) {
                        prop_assert!((a - b).abs() <= xq / 2.0 + 1e-9);
                    }
                }
                _ => prop_assert!(false, "kind mismatch"),
            }
        }
        prop_assert!(bytes.is_empty());
    }

    /// Truncating an encoded stream anywhere inside a message must yield
    /// `Truncated`, never a panic or a bogus message.
    #[test]
    fn truncation_is_detected((dims, msgs) in stream_strategy(), cut_frac in 0.0f64..1.0) {
        let mut codec = FixedCodec;
        let mut buf = BytesMut::new();
        // Encode exactly one message and cut inside it.
        let m = &msgs[0];
        codec.encode(m, dims, &mut buf);
        let full = buf.freeze();
        let cut = 1 + ((full.len() - 2) as f64 * cut_frac) as usize; // ∈ [1, len−1]
        let mut sliced = full.slice(0..cut);
        let result = codec.decode(&mut sliced, dims);
        prop_assert!(result.is_err());
    }
}
