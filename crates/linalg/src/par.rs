//! Deterministic data-parallel runtime — the workspace's only thread layer.
//!
//! Every parallel kernel in the repository fans out through this module
//! (enforced by the `raw-thread` lint rule in `uhscm-xtask`). The design
//! goal is *bitwise determinism*: a kernel run with any thread count
//! produces exactly the same `f64` bit patterns, so seeds, goldens and the
//! `checked` sanitizer stay valid regardless of the machine the workspace
//! lands on.
//!
//! # Determinism contract
//!
//! A kernel has **one body**, written over a band of output rows (or a
//! chunk of units), and its output is that of *any band split of that
//! body*. The serial path is not a second loop: it is the same body run
//! once over the whole buffer.
//!
//! * Work is split into **contiguous output bands** by [`partition`]: band
//!   boundaries depend only on the unit count and the thread count, never
//!   on timing.
//! * Each output element is written by exactly one band, and every
//!   floating-point reduction that feeds an element (e.g. the `k` loop of a
//!   matmul row) runs in an order that does not depend on where the band
//!   starts or ends. Bands change only the interleaving *across* elements,
//!   which IEEE-754 cannot observe.
//! * Cross-element reductions (gradient buffers, per-query metric sums) are
//!   collected per unit and folded on the calling thread in ascending unit
//!   order, whatever the split.
//!
//! # Thread-count resolution
//!
//! 1. innermost [`with_threads`] override on the current thread (used by
//!    tests and benches; forces fan-out even below the work threshold),
//! 2. the `UHSCM_THREADS` environment variable (a positive integer; `1`
//!    runs every body once, inline; unparseable values fall back to 3.),
//! 3. `std::thread::available_parallelism()`.
//!
//! Without an explicit override, kernels whose estimated work is below
//! [`MIN_PAR_WORK`] element-ops run as one band — spawn cost would dominate.

use std::cell::Cell;
use std::ops::Range;
use std::sync::OnceLock;

/// Below this many estimated element-ops a kernel stays serial unless a
/// [`with_threads`] override forces fan-out.
pub const MIN_PAR_WORK: usize = 1 << 15;

thread_local! {
    static OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// `UHSCM_THREADS`, else available cores; cached for the process lifetime.
fn configured_threads() -> usize {
    static CONFIGURED: OnceLock<usize> = OnceLock::new();
    *CONFIGURED.get_or_init(|| {
        match std::env::var("UHSCM_THREADS").ok().and_then(|v| v.trim().parse::<usize>().ok()) {
            Some(n) if n >= 1 => n,
            _ => std::thread::available_parallelism().map_or(1, usize::from),
        }
    })
}

/// Thread-count configuration for every parallel kernel in the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    threads: usize,
}

impl Parallelism {
    /// The effective configuration: innermost [`with_threads`] override on
    /// this thread, else `UHSCM_THREADS`, else available cores.
    pub fn effective() -> Self {
        Self { threads: OVERRIDE.with(Cell::get).unwrap_or_else(configured_threads) }
    }

    /// Number of worker threads kernels may use.
    pub fn threads(self) -> usize {
        self.threads
    }
}

/// Run `f` with the effective thread count forced to `threads` on the
/// current thread (restored afterwards, even on panic). An override also
/// bypasses the [`MIN_PAR_WORK`] threshold, so small inputs genuinely fan
/// out — this is how the parallel-equals-serial property tests exercise
/// real thread boundaries.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let prev = OVERRIDE.with(|o| o.replace(Some(threads.max(1))));
    let _restore = Restore(prev);
    f()
}

/// Deterministic contiguous partition of `0..n` into at most `parts`
/// non-empty ranges whose lengths differ by at most one. Depends only on
/// `(n, parts)` — never on timing — so band boundaries are reproducible.
pub fn partition(n: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.clamp(1, n.max(1));
    let base = n / parts;
    let extra = n % parts;
    (0..parts)
        .map(|p| {
            let start = p * base + p.min(extra);
            start..start + base + usize::from(p < extra)
        })
        .filter(|r| !r.is_empty())
        .collect()
}

/// How many bands to fan `units` work items out over; `1` means "run the
/// body once, inline".
fn plan(units: usize, work: usize) -> usize {
    let forced = OVERRIDE.with(Cell::get);
    let threads = forced.unwrap_or_else(configured_threads);
    let serial = threads <= 1 || units < 2 || (forced.is_none() && work < MIN_PAR_WORK);
    let parts = if serial { 1 } else { threads.min(units) };
    if uhscm_obs::enabled() {
        if parts <= 1 {
            uhscm_obs::registry::counter_add("par.plan.serial", 1);
        } else {
            uhscm_obs::registry::counter_add("par.plan.fanout", 1);
            uhscm_obs::registry::gauge_set("par.threads.effective", threads as f64);
        }
    }
    parts
}

/// Record the band sizes of one fan-out (no-op when tracing is off).
fn record_bands(ranges: &[Range<usize>]) {
    if uhscm_obs::enabled() {
        for r in ranges {
            uhscm_obs::registry::histogram_record("par.band_size", r.len() as f64);
        }
    }
}

/// Fan a mutable row-major buffer (`cols` elements per row) out over
/// contiguous row bands, calling `f(first_row, band)` on each band. `f` is
/// the kernel's only body: a serial plan (one band, or sub-threshold work)
/// calls `f(0, buf)` once, inline on the calling thread, and an empty
/// buffer or zero `cols` calls nothing. The caller's contract is that any
/// band split of `f` gives the same bits as that one band.
///
/// A fan-out over `p` bands spawns `p - 1` workers and runs the final band
/// inline on the calling thread, so the calling core does real work
/// instead of parking in `join`. Workers (and the inline band) run with
/// their own override pinned to `1`, so kernels called from inside a band
/// never nest another fan-out.
pub fn par_row_bands_mut<T, F>(buf: &mut [T], cols: usize, work: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let Some(rows) = buf.len().checked_div(cols) else {
        return;
    };
    let parts = plan(rows, work);
    if parts <= 1 {
        if !buf.is_empty() {
            f(0, buf);
        }
        return;
    }
    let ranges = partition(rows, parts);
    record_bands(&ranges);
    let mut rest = buf;
    let bands: Vec<(usize, &mut [T])> = ranges
        .into_iter()
        .map(|r| {
            let (band, tail) = std::mem::take(&mut rest).split_at_mut(r.len() * cols);
            rest = tail;
            (r.start, band)
        })
        .collect();
    fan_out(bands, |(first_row, band)| f(first_row, band));
}

/// Map `0..n` through `f` by contiguous chunks, collecting the per-chunk
/// results in ascending chunk order. A serial plan runs `f(0..n)` inline on
/// the calling thread (the exact serial path); `n == 0` yields no chunks.
/// Like [`par_row_bands_mut`], the final chunk runs inline on the calling
/// thread — `p` chunks cost `p - 1` spawns.
///
/// Callers that reduce floating-point values across units must emit one
/// value *per unit* (not per chunk) and fold them in unit order — chunk
/// partial sums would make the result depend on the thread count.
pub fn par_map_chunks<R, F>(n: usize, work: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    let parts = plan(n, work);
    if parts <= 1 {
        return if n == 0 { Vec::new() } else { vec![f(0..n)] };
    }
    let ranges = partition(n, parts);
    record_bands(&ranges);
    fan_out(ranges, f)
}

/// The one spawn/join loop behind both fan-out primitives: every item but
/// the last runs on a scoped worker, the last runs inline on the calling
/// thread, each under a `with_threads(1)` pin. Results come back in item
/// order, and a worker's panic reaches the caller with its own payload.
fn fan_out<I, R, F>(mut items: Vec<I>, f: F) -> Vec<R>
where
    I: Send,
    R: Send,
    F: Fn(I) -> R + Sync,
{
    let Some(last) = items.pop() else {
        return Vec::new();
    };
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> =
            items.into_iter().map(|item| s.spawn(move || with_threads(1, || f(item)))).collect();
        let last = with_threads(1, || f(last));
        let mut out: Vec<R> = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect();
        out.push(last);
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_contiguously() {
        for n in 0..40usize {
            for parts in 1..10usize {
                let ranges = partition(n, parts);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "gap at n={n} parts={parts}");
                    assert!(!r.is_empty());
                    next = r.end;
                }
                assert_eq!(next, n, "partition must cover 0..{n}");
                assert!(ranges.len() <= parts);
            }
        }
    }

    #[test]
    fn partition_band_sizes_balanced() {
        let ranges = partition(10, 3);
        let sizes: Vec<usize> = ranges.iter().map(Range::len).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = Parallelism::effective().threads();
        let inner = with_threads(5, || Parallelism::effective().threads());
        assert_eq!(inner, 5);
        assert_eq!(Parallelism::effective().threads(), outer);
    }

    #[test]
    fn with_threads_nests() {
        with_threads(4, || {
            assert_eq!(Parallelism::effective().threads(), 4);
            with_threads(2, || assert_eq!(Parallelism::effective().threads(), 2));
            assert_eq!(Parallelism::effective().threads(), 4);
        });
    }

    #[test]
    fn override_restored_after_worker_panic() {
        with_threads(3, || {
            let caught = std::panic::catch_unwind(|| {
                par_map_chunks(4, 0, |r| {
                    assert!(r.start < 100, "unreachable");
                    if r.start >= 2 {
                        std::panic::panic_any("boom")
                    }
                    r.len()
                })
            });
            assert!(caught.is_err(), "worker panic must propagate");
            assert_eq!(Parallelism::effective().threads(), 3);
        });
    }

    #[test]
    fn serial_plan_is_one_inline_call() {
        use std::sync::Mutex;
        let caller = std::thread::current().id();
        let calls: Mutex<Vec<(usize, usize, std::thread::ThreadId)>> = Mutex::new(Vec::new());
        let mut buf = vec![0.0f64; 8];
        // No override, tiny work: one call over the whole buffer.
        par_row_bands_mut(&mut buf, 2, 8, |first_row, band| {
            calls.lock().unwrap().push((first_row, band.len(), std::thread::current().id()));
        });
        assert_eq!(calls.into_inner().unwrap(), vec![(0, 8, caller)]);
    }

    #[test]
    fn empty_buffer_or_zero_cols_calls_nothing() {
        let called = std::sync::atomic::AtomicBool::new(false);
        let body =
            |_: usize, _: &mut [f64]| called.store(true, std::sync::atomic::Ordering::SeqCst);
        with_threads(4, || {
            par_row_bands_mut(&mut [], 3, usize::MAX, body);
            par_row_bands_mut(&mut [0.0; 6], 0, usize::MAX, body);
        });
        par_row_bands_mut(&mut [], 3, 0, body);
        assert!(!called.into_inner());
    }

    #[test]
    fn forced_fanout_writes_disjoint_bands() {
        let mut buf = vec![0.0f64; 10 * 3];
        with_threads(4, || {
            par_row_bands_mut(&mut buf, 3, 0, |first_row, band| {
                for (k, row) in band.chunks_exact_mut(3).enumerate() {
                    for v in row {
                        *v = (first_row + k) as f64;
                    }
                }
            });
        });
        for (i, row) in buf.chunks_exact(3).enumerate() {
            assert!(row.iter().all(|&v| v == i as f64), "row {i} corrupted: {row:?}");
        }
    }

    #[test]
    fn row_band_panic_keeps_its_payload() {
        with_threads(4, || {
            let mut buf = vec![0.0f64; 8];
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                par_row_bands_mut(&mut buf, 1, 0, |first_row, _| {
                    if first_row == 0 {
                        std::panic::panic_any("boom")
                    }
                });
            }));
            let payload = caught.expect_err("worker panic must propagate");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
            assert_eq!(Parallelism::effective().threads(), 4);
        });
    }

    #[test]
    fn workers_do_not_nest_fanout() {
        with_threads(4, || {
            let depth: Vec<usize> = par_map_chunks(4, 0, |_| Parallelism::effective().threads());
            assert!(depth.iter().all(|&t| t == 1), "workers must be pinned serial");
        });
    }

    #[test]
    fn one_chunk_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = with_threads(4, || par_map_chunks(4, 0, |_| std::thread::current().id()));
        assert_eq!(ids.len(), 4);
        assert_eq!(
            ids.iter().filter(|&&id| id == caller).count(),
            1,
            "exactly one chunk must execute inline on the caller"
        );
        assert_eq!(*ids.last().unwrap(), caller, "the caller takes the final chunk");
    }

    #[test]
    fn one_band_runs_on_the_calling_thread() {
        use std::sync::Mutex;
        let caller = std::thread::current().id();
        let seen: Mutex<Vec<(usize, std::thread::ThreadId)>> = Mutex::new(Vec::new());
        let mut buf = vec![0.0f64; 8 * 2];
        with_threads(4, || {
            par_row_bands_mut(&mut buf, 2, 0, |first_row, _| {
                seen.lock().unwrap().push((first_row, std::thread::current().id()));
            });
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable_by_key(|&(row, _)| row);
        assert_eq!(seen.len(), 4);
        let on_caller: Vec<usize> =
            seen.iter().filter(|&&(_, id)| id == caller).map(|&(row, _)| row).collect();
        assert_eq!(on_caller, vec![6], "only the final band (rows 6..8) runs inline");
    }

    #[test]
    fn par_map_chunks_orders_results() {
        let chunks = with_threads(3, || par_map_chunks(10, 0, |r| r.collect::<Vec<_>>()));
        let flat: Vec<usize> = chunks.into_iter().flatten().collect();
        assert_eq!(flat, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_chunks_empty_input() {
        let chunks: Vec<Vec<usize>> = par_map_chunks(0, 0, |r| r.collect());
        assert!(chunks.is_empty());
    }
}
