//! Shared workload setup for the Criterion benchmarks.
//!
//! One bench target per paper figure (see `benches/`): the benchmarks
//! measure *filter processing cost* at each figure's operating points —
//! the quantity Figure 13 reports — while the `pla-eval` crate's `repro`
//! binary reports the compression-ratio/error numbers the other figures
//! plot (compression ratios are deterministic, so timing them adds
//! nothing).

use pla_core::metrics::CountingSink;
use pla_core::Signal;
pub use pla_eval::FilterKind;
pub use pla_signal::{multi_walk, random_walk, sea_surface, WalkParams};

/// Counting global allocator, enabled by the `alloc-counter` feature.
///
/// Every binary linking `pla-bench` with the feature on (the `hot_path`
/// bench, the alloc-regression tests) routes allocations through a
/// [`std::alloc::System`] wrapper that bumps relaxed atomic counters, so
/// a measurement can ask "how many heap allocations did this closure
/// perform?" — the number that pins the filters' allocation-free
/// hot-path invariant.
///
/// Besides the process-wide totals, each thread counts its own
/// allocations, and [`count`] reads the calling thread's counter: a
/// measurement is not disturbed by whatever other threads (libtest's
/// next test, say) allocate at the same time.
#[cfg(feature = "alloc-counter")]
pub mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        // `const`-initialised and drop-free, so touching it from inside
        // the allocator never allocates or registers a destructor.
        static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    fn record(bytes: usize) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
        // `try_with`: a thread allocating during its TLS teardown is
        // still counted process-wide.
        let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
    }

    /// [`System`] wrapper counting allocation events and bytes.
    /// Deallocations are intentionally not tracked: the invariant under
    /// test is "no new heap memory requested on the hot path".
    pub struct CountingAllocator;

    // SAFETY: delegates verbatim to `System`; the counters carry no
    // allocator state, and bumping them never allocates (atomics, plus
    // a `const`-initialised, drop-free thread-local), so the allocator
    // is never re-entered.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            record(layout.size());
            unsafe { System.alloc(layout) }
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            // A growth is a fresh allocation request from the hot path's
            // point of view.
            record(new_size);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAllocator = CountingAllocator;

    /// Allocation events observed so far (process-wide, monotonic).
    pub fn allocations() -> u64 {
        ALLOCS.load(Ordering::SeqCst)
    }

    /// Bytes requested so far (process-wide, monotonic).
    pub fn bytes() -> u64 {
        BYTES.load(Ordering::SeqCst)
    }

    /// Allocation events the calling thread has performed so far
    /// (monotonic).
    fn thread_allocations() -> u64 {
        THREAD_ALLOCS.with(Cell::get)
    }

    /// Runs `f`, returning its result plus the number of allocation
    /// events the calling thread performed meanwhile. Work `f` hands to
    /// other threads is not counted.
    pub fn count<R>(f: impl FnOnce() -> R) -> (R, u64) {
        let before = thread_allocations();
        let result = f();
        (result, thread_allocations() - before)
    }
}

/// Runs one filter over a signal, returning the recording count (consumed
/// by `black_box` in benches so the work cannot be elided).
pub fn run_filter_once(kind: FilterKind, eps: &[f64], signal: &Signal) -> u64 {
    let mut filter = kind.build(eps).expect("valid epsilons");
    let mut sink = CountingSink::default();
    for (t, x) in signal.iter() {
        filter.push(t, x, &mut sink).expect("valid signal");
    }
    filter.finish(&mut sink).expect("flush");
    sink.recordings
}

/// Runs a *pre-built* filter over a signal (push every sample, then
/// `finish`, which resets the filter for the next pass), returning the
/// recording count. This is the steady-state measurement: after the
/// first pass the filter's recycled scratch (hulls, raw-point buffers,
/// regression sums) is warm, so subsequent passes exercise the
/// allocation-free hot path the `hot_path` bench and the `alloc-counter`
/// tests measure.
pub fn run_filter_steady(filter: &mut dyn pla_core::filters::StreamFilter, signal: &Signal) -> u64 {
    let mut sink = CountingSink::default();
    for (t, x) in signal.iter() {
        filter.push(t, x, &mut sink).expect("valid signal");
    }
    filter.finish(&mut sink).expect("flush");
    sink.recordings
}

/// The paper's Figure 9/10 random-walk workload at given parameters.
pub fn walk_signal(n: usize, p_decrease: f64, max_delta: f64, seed: u64) -> Signal {
    random_walk(WalkParams { n, p_decrease, max_delta, seed })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_every_kind() {
        let signal = walk_signal(200, 0.5, 2.0, 1);
        for kind in FilterKind::OVERHEAD_SET {
            let recs = run_filter_once(kind, &[0.5], &signal);
            assert!(recs >= 2, "{}", kind.label());
        }
    }
}
