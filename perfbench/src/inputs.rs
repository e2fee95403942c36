//! Workload definitions and the seeded input generator.
//!
//! The program under test only ever sees the samples generated here;
//! the seed and round index alone decide them, so the same seed gives
//! the same inputs on every machine. The generator lives here rather
//! than in `pla-signal` so that no change to the program can change the
//! benchmark's inputs.

use pla_core::filters::{FilterKind, FilterSpec};
use pla_core::Signal;

/// How the generator offers load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// The next batch is pushed as soon as the previous push returns.
    Closed,
    /// Batches and queries are due on a fixed schedule, whether or not
    /// the system keeps up.
    Open {
        /// Samples per second across all streams.
        samples_per_s: f64,
        /// Remote queries per second.
        queries_per_s: f64,
    },
}

/// One benchmark workload. Every field is fixed by the workload's name.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Streams, all on one connection.
    pub streams: usize,
    /// Dimensions per sample.
    pub dims: usize,
    /// Filter families, assigned to streams round-robin.
    pub kinds: &'static [FilterKind],
    /// Per-dimension precision width ε.
    pub eps: f64,
    /// Largest per-sample change of the random walk in any dimension.
    pub step: f64,
    /// Weight of the step component shared by all dimensions.
    pub rho: f64,
    /// Samples per `push_batch` call.
    pub batch: usize,
    /// Samples per stream pushed during set-up, before timing starts.
    pub history: usize,
    /// Samples per stream pushed while timing.
    pub live: usize,
    /// Remote queries per round for a closed loop (issued after the
    /// store is complete); open loops derive theirs from the rate.
    pub probe_queries: usize,
    /// Closed or open loop.
    pub load: Load,
}

/// The three workloads. See `BENCHMARK.json` for why each exists.
pub const WORKLOADS: [Workload; 3] = [
    // Low compression: uplink, mux, collector and store do most of the
    // work per sample. Swing at d = 1 takes the scalar dispatch.
    Workload {
        name: "ingest_wire",
        streams: 256,
        dims: 1,
        kinds: &[FilterKind::Swing],
        eps: 0.5,
        step: 1.0,
        rho: 0.0,
        batch: 16,
        history: 0,
        live: 2048,
        probe_queries: 1024,
        load: Load::Closed,
    },
    // High compression: filter, hull and engine dominate and the wire
    // is nearly idle.
    Workload {
        name: "ingest_filter",
        streams: 8,
        dims: 4,
        kinds: &[FilterKind::Slide],
        eps: 1.0,
        step: 0.1,
        rho: 0.5,
        batch: 16,
        history: 0,
        live: 65_536,
        probe_queries: 1024,
        load: Load::Closed,
    },
    // Reads beside writes at fixed rates, over a preloaded history.
    Workload {
        name: "serve_live",
        streams: 64,
        dims: 1,
        kinds: &[FilterKind::Swing, FilterKind::Slide, FilterKind::Cache],
        eps: 0.5,
        step: 0.5,
        rho: 0.0,
        batch: 16,
        history: 4096,
        live: 512,
        probe_queries: 0,
        load: Load::Open { samples_per_s: 32_768.0, queries_per_s: 1024.0 },
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The filter spec of stream `s`.
    pub fn spec(&self, s: usize) -> FilterSpec {
        FilterSpec::new(self.kinds[s % self.kinds.len()], &vec![self.eps; self.dims])
    }

    /// Samples per stream in one round, history included.
    pub fn per_stream(&self) -> usize {
        self.history + self.live
    }

    /// Push operations pushed during set-up.
    pub fn history_ops(&self) -> usize {
        self.streams * self.history / self.batch
    }
}

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one `(seed, round, lane)` triple.
    pub fn new(seed: u64, round: u64, lane: u64) -> Self {
        let mut r = Rng(seed ^ 0xA076_1D64_78BD_642F);
        let a = r.next_u64() ^ round.wrapping_mul(0xE703_7ED1_A0B4_28DB);
        let mut r = Rng(a);
        Rng(r.next_u64() ^ lane.wrapping_mul(0x8EBC_6AF0_9C88_C6E3))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[-1, 1)`.
    pub fn signed(&mut self) -> f64 {
        2.0 * self.unit() - 1.0
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// One stream's samples for one round: a random walk at integer times
/// `0, 1, 2, …`. Each step is `step · (rho · c + (1 - rho) · u_d)` with
/// `c` shared by all dimensions and `u_d` per dimension, both uniform in
/// `[-1, 1)`, so no dimension moves more than `step` per sample.
pub fn stream_signal(w: &Workload, seed: u64, round: u64, stream: usize) -> Signal {
    let n = w.per_stream();
    let mut rng = Rng::new(seed, round, stream as u64);
    let mut sig = Signal::with_capacity(w.dims, n);
    let mut x: Vec<f64> = (0..w.dims).map(|_| 10.0 * rng.signed()).collect();
    for j in 0..n {
        sig.push(j as f64, &x).expect("times increase and values are finite");
        let common = rng.signed();
        for v in &mut x {
            *v += w.step * (w.rho * common + (1.0 - w.rho) * rng.signed());
        }
    }
    sig
}

/// One `push_batch` call: `batch` consecutive samples of one stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Stream index (also its `StreamId`).
    pub stream: usize,
    /// First sample index within the stream.
    pub from: usize,
}

/// The push order of one round: round-robin over streams, one batch per
/// stream per tick; history ticks first.
pub fn ops(w: &Workload) -> Vec<Op> {
    let ticks = w.per_stream() / w.batch;
    (0..ticks)
        .flat_map(|tick| (0..w.streams).map(move |stream| Op { stream, from: tick * w.batch }))
        .collect()
}

/// All inputs of one round.
pub struct Inputs {
    /// Per-stream signals.
    pub signals: Vec<Signal>,
    /// Push order.
    pub ops: Vec<Op>,
}

impl Inputs {
    /// Generates round `round` of workload `w` under `seed`.
    pub fn generate(w: &Workload, seed: u64, round: u64) -> Self {
        let signals = (0..w.streams).map(|s| stream_signal(w, seed, round, s)).collect();
        Self { signals, ops: ops(w) }
    }

    /// Fills `out` with the `(t, x)` views of `op`'s samples.
    pub fn batch<'a>(&'a self, w: &Workload, op: Op, out: &mut Vec<(f64, &'a [f64])>) {
        out.clear();
        let sig = &self.signals[op.stream];
        out.extend((op.from..op.from + w.batch).map(|j| sig.sample(j)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_steps_stay_bounded() {
        for w in WORKLOADS {
            let a = stream_signal(&w, 7, 3, 1);
            let b = stream_signal(&w, 7, 3, 1);
            let c = stream_signal(&w, 8, 3, 1);
            assert_eq!(a.len(), w.per_stream());
            let mut differs = false;
            for j in 1..a.len() {
                let (ta, xa) = a.sample(j);
                let (_, xp) = a.sample(j - 1);
                assert_eq!((ta, xa), b.sample(j));
                differs |= xa != c.sample(j).1;
                for (v, p) in xa.iter().zip(xp) {
                    assert!((v - p).abs() <= w.step + 1e-12, "{}: step too large", w.name);
                }
            }
            assert!(differs, "{}: another seed must give other inputs", w.name);
        }
    }

    #[test]
    fn ops_cover_every_sample_once() {
        for w in WORKLOADS {
            let ops = ops(&w);
            assert_eq!(ops.len() * w.batch, w.streams * w.per_stream());
            assert_eq!(w.per_stream() % w.batch, 0);
            assert_eq!(w.history % w.batch, 0);
            let mut next = vec![0; w.streams];
            for op in ops {
                assert_eq!(op.from, next[op.stream], "per-stream order");
                next[op.stream] += w.batch;
            }
        }
    }
}
