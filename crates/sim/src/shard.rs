//! Deterministic sharded execution of independent simulation tasks.
//!
//! Fleet-scale experiments run many mutually independent simulations (one
//! per vehicle) and report one merged [`MetricSet`]. [`run_sharded`] fans the
//! shard indices out over a worker pool through a guided self-scheduling
//! work queue (workers claim shrinking index chunks from one atomic cursor,
//! so a straggling shard — e.g. the compromised platoon member doing extra
//! attack work — never idles the other workers behind a static partition).
//! Each worker folds its shards' results into its own [`MetricSet`] and the
//! join folds the workers' sets. [`MetricSet::merge`] gives the same result
//! in any order, so which worker ran which shard cannot show. Combined with
//! [`DetRng::stream`](crate::DetRng::stream) for per-shard seeds, a sharded
//! run is bit-for-bit reproducible at any thread count.

use crate::metrics::MetricSet;
use std::sync::atomic::{AtomicU64, Ordering};

/// Resolves a requested thread count: `0` means the machine's available
/// parallelism (or 1 if unknown), anything else is taken literally.
///
/// Exposed so harness binaries can record the thread count a run actually
/// used (`"threads"` in every `BENCH_*.json`) instead of the raw request.
pub fn resolve_threads(threads: usize) -> usize {
    match threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
}

/// Claims the next chunk of work indices from `[next, limit)`, guided:
/// chunk size starts near `remaining / (threads * 4)` and shrinks toward 1
/// as the queue drains, so early chunks amortise the atomic traffic while
/// the tail load-balances per index. Returns `None` when the range is
/// exhausted. The CAS never moves the cursor past `limit`, so ranges can be
/// stacked back-to-back (the epoch runner claims `[epoch*shards,
/// (epoch+1)*shards)` from one monotonic cursor).
pub(crate) fn claim_chunk(next: &AtomicU64, limit: u64, threads: usize) -> Option<(u64, u64)> {
    loop {
        let cur = next.load(Ordering::Relaxed);
        if cur >= limit {
            return None;
        }
        let remaining = limit - cur;
        let chunk = (remaining / (threads as u64 * 4)).max(1);
        let end = cur + chunk;
        if next
            .compare_exchange_weak(cur, end, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
        {
            return Some((cur, end));
        }
    }
}

/// Runs `task(shard)` for every shard in `0..shards` on up to `threads`
/// worker threads and merges the resulting metric sets.
///
/// `threads == 0` uses the available parallelism (or 1 if unknown);
/// `threads == 1` runs inline on the caller's thread. The merge is
/// deterministic: any thread count, including 1, produces an identical
/// merged [`MetricSet`] as long as each shard's result depends only on its
/// index.
///
/// # Example
/// ```
/// use polsec_sim::{shard::run_sharded, MetricSet};
/// let merged = run_sharded(8, 4, |i| {
///     let mut m = MetricSet::new();
///     m.count("shards", 1);
///     m.observe("index", i as u64);
///     m
/// });
/// assert_eq!(merged.counter("shards"), 8);
/// ```
///
/// # Panics
/// A panic inside `task` is propagated once all workers have stopped.
pub fn run_sharded<F>(shards: usize, threads: usize, task: F) -> MetricSet
where
    F: Fn(usize) -> MetricSet + Sync,
{
    let threads = resolve_threads(threads).min(shards.max(1));
    let next = AtomicU64::new(0);
    let work = || {
        let mut folded = MetricSet::new();
        while let Some((start, end)) = claim_chunk(&next, shards as u64, threads) {
            for i in start..end {
                folded.merge(&task(i as usize));
            }
        }
        folded
    };
    if threads <= 1 {
        return work();
    }
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads).map(|_| scope.spawn(work)).collect();
        let mut merged = MetricSet::new();
        for worker in workers {
            match worker.join() {
                Ok(folded) => merged.merge(&folded),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        merged
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DetRng;

    fn shard_task(i: usize) -> MetricSet {
        let mut rng = DetRng::stream(99, i as u64);
        let mut m = MetricSet::new();
        m.count("events", 10 + (i as u64 % 3));
        for _ in 0..50 {
            m.observe("value", rng.next_below(1_000));
        }
        m
    }

    #[test]
    fn merged_result_is_thread_count_invariant() {
        let reference = run_sharded(16, 1, shard_task).to_json();
        for threads in [2, 3, 8, 32] {
            assert_eq!(
                run_sharded(16, threads, shard_task).to_json(),
                reference,
                "thread count {threads} changed the merged metrics"
            );
        }
    }

    #[test]
    fn all_shards_execute_exactly_once() {
        for threads in [1, 2, 7] {
            let merged = run_sharded(100, threads, |_| {
                let mut m = MetricSet::new();
                m.count("ran", 1);
                m
            });
            assert_eq!(merged.counter("ran"), 100, "threads={threads}");
        }
    }

    #[test]
    fn zero_shards_yield_empty_metrics() {
        let merged = run_sharded(0, 4, |_| MetricSet::new());
        assert_eq!(merged.counter("anything"), 0);
        assert_eq!(merged.render(), "");
    }

    #[test]
    fn zero_threads_auto_detects_parallelism() {
        let merged = run_sharded(4, 0, |i| {
            let mut m = MetricSet::new();
            m.count("sum", i as u64);
            m
        });
        assert_eq!(merged.counter("sum"), 1 + 2 + 3);
    }

    #[test]
    fn claim_chunks_cover_a_range_exactly_once_and_shrink() {
        let next = AtomicU64::new(0);
        let mut covered = Vec::new();
        let mut sizes = Vec::new();
        while let Some((start, end)) = claim_chunk(&next, 100, 4) {
            sizes.push(end - start);
            covered.extend(start..end);
        }
        assert_eq!(covered, (0..100).collect::<Vec<u64>>());
        assert!(claim_chunk(&next, 100, 4).is_none());
        assert_eq!(*sizes.first().unwrap(), 100 / 16, "guided: first chunk is big");
        assert_eq!(*sizes.last().unwrap(), 1, "guided: tail chunks shrink to one");
    }

    #[test]
    fn claim_chunk_respects_stacked_range_limits() {
        // Epoch-style stacked ranges: draining [0, 5) must stop exactly at
        // 5 so the next range [5, 10) starts aligned.
        let next = AtomicU64::new(0);
        while claim_chunk(&next, 5, 8).is_some() {}
        assert_eq!(next.load(Ordering::Relaxed), 5);
        let mut second = Vec::new();
        while let Some((s, e)) = claim_chunk(&next, 10, 8) {
            second.extend(s..e);
        }
        assert_eq!(second, vec![5, 6, 7, 8, 9]);
    }

    #[test]
    fn resolve_threads_passes_explicit_counts_through() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }
}
