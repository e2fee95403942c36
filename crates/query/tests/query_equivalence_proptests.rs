//! Remote ≡ local equivalence: for arbitrary store contents and
//! arbitrary query workloads, every answer that crosses the wire must
//! be **bit-identical** (per the codec's `f64::to_bits` round-trip) to
//! what `StoreQueryEngine` answers locally on the same snapshot —
//! including the ±ε bounded variants, `point_with_stats` comparison
//! counts, and every typed engine refusal. A server's engine is
//! refreshed in place while the store grows, so the same bytes are also
//! demanded of a refreshed engine against a freshly built one.

mod common;

use std::sync::Arc;
use std::time::Instant;

use proptest::prelude::*;

use pla_ingest::{SegmentStore, StoreConfig, StreamId};
use pla_net::listen::MemoryAcceptor;
use pla_net::{MemoryRedial, NetConfig};
use pla_query::{Query, QueryClient, QueryClientConfig, QueryServer, Response, StoreQueryEngine};

use common::{assert_bit_equal, drive_to_completion, local_answers, seg};

/// Stream ids the generated stores may populate; queries also draw the
/// never-populated 42 so `UnknownStream` refusals cross the wire.
const STREAM_POOL: [u64; 4] = [1, 2, 3, 8];

/// Per-stream segment logs on a fixed monotone grid with arbitrary
/// values and per-segment gaps, so points can land inside segments,
/// inside gaps, and outside coverage.
fn store_strategy() -> impl Strategy<Value = Vec<(u64, Vec<(f64, f64)>)>> {
    let endpoints = prop::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 0..4);
    prop::collection::vec(endpoints, STREAM_POOL.len())
        .prop_map(|per_stream| STREAM_POOL.iter().copied().zip(per_stream).collect())
}

fn build_store(logs: &[(u64, Vec<(f64, f64)>)]) -> Arc<SegmentStore> {
    let store = SegmentStore::with_config(StoreConfig { shards: 2, seal_threshold: 2 });
    for (stream, endpoints) in logs {
        for (i, &(x0, x1)) in endpoints.iter().enumerate() {
            // Segment i covers [4i, 4i+2]; (4i+2, 4i+4) is a gap.
            let t = i as f64 * 4.0;
            store.append(1, StreamId(*stream), seg(t, x0, t + 2.0, x1));
        }
    }
    Arc::new(store)
}

/// A query mix over times in `[-2, t_max)`.
fn arb_query(t_max: f64) -> impl Strategy<Value = Query> {
    let stream = || prop_oneof![Just(1u64), Just(2), Just(3), Just(8), Just(42)];
    let t = move || -2.0f64..t_max;
    let dim = || 0u32..3u32;
    // Includes an invalid epsilon so InvalidEpsilon refusals ride back.
    let eps = || prop_oneof![Just(-0.25f64), Just(0.0), 1e-6f64..1.0];
    prop_oneof![
        (stream(), t(), dim()).prop_map(|(stream, t, dim)| Query::Point { stream, t, dim }),
        (stream(), t(), dim()).prop_map(|(stream, t, dim)| Query::PointWithStats {
            stream,
            t,
            dim
        }),
        (stream(), t(), dim(), eps()).prop_map(|(stream, t, dim, eps)| Query::PointBounded {
            stream,
            t,
            dim,
            eps
        }),
        // a > b is generated too: EmptyGrid refusals must round-trip.
        (stream(), t(), t(), dim()).prop_map(|(stream, a, b, dim)| Query::Range {
            stream,
            a,
            b,
            dim
        }),
        (stream(), t(), t(), dim(), eps())
            .prop_map(|(stream, a, b, dim, eps)| Query::RangeBounded { stream, a, b, dim, eps }),
        (stream(), dim(), t(), eps(), prop::collection::vec(t(), 0..6)).prop_map(
            |(stream, dim, threshold, eps, times)| Query::CountAbove {
                stream,
                dim,
                threshold,
                eps,
                times
            }
        ),
        stream().prop_map(|stream| Query::Span { stream }),
        Just(Query::Streams),
    ]
}

/// Ships `queries` through a fresh client/server pair over `store` and
/// asserts bit-identity against the local engine, answer by answer.
fn assert_remote_equals_local(store: Arc<SegmentStore>, queries: &[Query]) {
    let reference = local_answers(&store, queries);
    let acceptor = MemoryAcceptor::new();
    let connector = acceptor.connector();
    let mut server = QueryServer::new(acceptor, store, NetConfig::default());
    let mut client =
        QueryClient::new(MemoryRedial::new(connector, 1 << 16), QueryClientConfig::default());

    let t0 = Instant::now();
    let ids: Vec<u64> = queries.iter().map(|q| client.submit(q.clone(), t0)).collect();
    let done = drive_to_completion(&mut client, &mut server, t0, &ids, 20_000);

    for ((id, query), want) in ids.iter().zip(queries).zip(&reference) {
        match &done[id] {
            Ok(Response::Result(got)) => assert_bit_equal(got, want, &format!("{query:?}")),
            other => panic!("query {query:?} must answer, got {other:?}"),
        }
    }
    assert_eq!(server.stats().requests, queries.len() as u64);
    assert_eq!(client.stats().timeouts, 0, "a healthy loopback never times out");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The flagship equivalence property: arbitrary store × arbitrary
    /// pipelined workload, every wire answer bit-equal to the local
    /// engine's.
    #[test]
    fn remote_answers_are_bit_identical_to_local(
        logs in store_strategy(),
        queries in prop::collection::vec(arb_query(18.0), 1..24),
    ) {
        assert_remote_equals_local(build_store(&logs), &queries);
    }

    /// An engine refreshed after every append batch answers the whole
    /// mix with the bytes of an engine built on a fresh snapshot. Small
    /// seal thresholds make batches cross seal boundaries (a tail's first
    /// segment becomes a run start), and streams appear mid-run.
    #[test]
    fn refreshed_engine_answers_like_a_fresh_one(
        batches in prop::collection::vec(
            (0..STREAM_POOL.len(), prop::collection::vec((-20.0f64..20.0, -20.0f64..20.0), 1..5)),
            1..10,
        ),
        shards in 1..4usize,
        seal in 1..4usize,
        queries in prop::collection::vec(arb_query(64.0), 1..24),
    ) {
        let store = SegmentStore::with_config(StoreConfig { shards, seal_threshold: seal });
        let mut engine = StoreQueryEngine::new(store.snapshot());
        let mut lens = [0usize; STREAM_POOL.len()];
        for (which, endpoints) in &batches {
            let segs: Vec<_> = endpoints
                .iter()
                .enumerate()
                .map(|(i, &(x0, x1))| {
                    let t = (lens[*which] + i) as f64 * 4.0;
                    seg(t, x0, t + 2.0, x1)
                })
                .collect();
            lens[*which] += segs.len();
            store.append_batch(1, StreamId(STREAM_POOL[*which]), &segs);
            let moved = engine.refresh(&store);
            prop_assert!(moved);
            let fresh = StoreQueryEngine::new(store.snapshot());
            for q in &queries {
                prop_assert_eq!(q.run(&engine).encode(), q.run(&fresh).encode(), "{:?}", q);
            }
        }
    }

    /// Focused bounded-variant sweep: the ±ε arithmetic happens only on
    /// the server; the wire must carry the exact bounds, and
    /// `point_with_stats` must report the *server's* comparison count
    /// unchanged.
    #[test]
    fn bounded_variants_and_stats_survive_the_wire(
        logs in store_strategy(),
        probes in prop::collection::vec((-2.0f64..18.0, 1e-6f64..2.0), 1..12),
    ) {
        let queries: Vec<Query> = probes
            .iter()
            .flat_map(|&(t, eps)| {
                STREAM_POOL.iter().flat_map(move |&stream| {
                    [
                        Query::PointBounded { stream, t, dim: 0, eps },
                        Query::PointWithStats { stream, t, dim: 0 },
                        Query::RangeBounded { stream, a: t, b: t + 3.0, dim: 0, eps },
                    ]
                })
            })
            .collect();
        assert_remote_equals_local(build_store(&logs), &queries);
    }
}
