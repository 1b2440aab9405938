//! Admission control and batch formation.
//!
//! Connection handlers push [`PendingQuery`]s into a bounded
//! [`AdmissionQueue`]; a single batch worker pops them in arrival order, up
//! to `max_batch` at a time. Batching is work-conserving: the worker parks
//! only while the queue is empty and never waits for a batch to fill, so a
//! batch is whatever queued while the previous one ran. The bound is the
//! overload valve: when the queue is full, `submit` hands the query
//! straight back with [`SubmitError::Overloaded`] so the caller can answer
//! `overloaded` immediately instead of letting latency grow without limit.
//!
//! Shutdown is cooperative: [`AdmissionQueue::close`] stops admissions
//! (subsequent submits get [`SubmitError::Draining`]) but the worker keeps
//! draining what was already admitted; [`AdmissionQueue::next_batch`]
//! returns `None` only once the queue is both closed and empty, which is
//! the worker's signal that the drain is complete.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

use uhscm_obs::obs_gauge;

use crate::protocol::Response;

/// How the batch worker answers a query; the connection handler captures
/// its write half in this closure.
pub type Reply = Box<dyn FnOnce(Response) + Send>;

/// A query admitted to the queue, waiting to be batched.
pub struct PendingQuery {
    pub id: u64,
    pub features: Vec<f64>,
    pub top_k: usize,
    /// Absolute deadline; if it passes before the query is dequeued, the
    /// worker answers `deadline_exceeded` without encoding.
    pub deadline: Option<Instant>,
    pub reply: Reply,
}

/// Why a submission was refused. The query itself is handed back alongside
/// this so the caller still owns its reply channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// Queue at capacity — request shed.
    Overloaded,
    /// Queue closed for shutdown.
    Draining,
}

struct QueueState {
    queue: VecDeque<PendingQuery>,
    open: bool,
}

/// Bounded MPSC hand-off between connection handlers and the batch worker.
pub struct AdmissionQueue {
    cap: usize,
    state: Mutex<QueueState>,
    ready: Condvar,
}

/// Mutex poisoning only happens if a peer thread panicked; the queue state
/// (a deque and a flag) is valid after any partial operation, so recover
/// the guard rather than cascading the panic into every connection.
fn recover<'a, T>(lock: &'a Mutex<T>) -> MutexGuard<'a, T> {
    match lock.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl AdmissionQueue {
    /// A queue admitting at most `cap` (clamped to ≥ 1) waiting queries.
    pub fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            state: Mutex::new(QueueState { queue: VecDeque::new(), open: true }),
            ready: Condvar::new(),
        }
    }

    /// Admit a query, or hand it back with the refusal reason.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Overloaded`] when full, [`SubmitError::Draining`]
    /// after [`AdmissionQueue::close`].
    pub fn submit(&self, q: PendingQuery) -> Result<(), (PendingQuery, SubmitError)> {
        let mut state = recover(&self.state);
        if !state.open {
            return Err((q, SubmitError::Draining));
        }
        if state.queue.len() >= self.cap {
            return Err((q, SubmitError::Overloaded));
        }
        state.queue.push_back(q);
        obs_gauge!("serve.queue.depth", state.queue.len() as f64);
        self.ready.notify_one();
        Ok(())
    }

    /// Stop admitting; already-queued work will still be drained.
    pub fn close(&self) {
        recover(&self.state).open = false;
        self.ready.notify_all();
    }

    /// Queries currently waiting (diagnostic).
    pub fn depth(&self) -> usize {
        recover(&self.state).queue.len()
    }

    /// Whether the queue still admits new work. Mutations bypass the batch
    /// queue, so the connection handler consults this to give writes the
    /// same drain semantics as queries: once the queue closes, writes are
    /// answered `draining` instead of silently committing past shutdown.
    pub fn is_open(&self) -> bool {
        recover(&self.state).open
    }

    /// Block until a query is queued, then pop up to `max_batch` (clamped
    /// to ≥ 1) queued queries in arrival order.
    ///
    /// Never waits for a batch to fill: the worker sleeps only while the
    /// queue is empty. Returns `None` once the queue is closed *and* empty:
    /// the drain is complete and the worker should exit.
    pub fn next_batch(&self, max_batch: usize) -> Option<Vec<PendingQuery>> {
        let mut state = recover(&self.state);
        while state.queue.is_empty() {
            if !state.open {
                return None;
            }
            state = match self.ready.wait(state) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
        let take = state.queue.len().min(max_batch.max(1));
        let batch: Vec<PendingQuery> = state.queue.drain(..take).collect();
        obs_gauge!("serve.queue.depth", state.queue.len() as f64);
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    fn query(id: u64) -> PendingQuery {
        PendingQuery {
            id,
            features: vec![0.0; 2],
            top_k: 1,
            deadline: None,
            reply: Box::new(|_| {}),
        }
    }

    #[test]
    fn batches_preserve_arrival_order() {
        let q = AdmissionQueue::new(16);
        for id in 0..5 {
            q.submit(query(id)).map_err(|(_, e)| e).expect("under capacity");
        }
        let batch = q.next_batch(8).expect("queue open");
        let ids: Vec<u64> = batch.iter().map(|p| p.id).collect();
        assert_eq!(ids, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn max_batch_splits_and_leftovers_survive() {
        let q = AdmissionQueue::new(16);
        for id in 0..5 {
            q.submit(query(id)).map_err(|(_, e)| e).expect("under capacity");
        }
        let first = q.next_batch(3).expect("open");
        assert_eq!(first.len(), 3);
        assert_eq!(q.depth(), 2);
        let second = q.next_batch(3).expect("open");
        let ids: Vec<u64> = second.iter().map(|p| p.id).collect();
        assert_eq!(ids, [3, 4]);
    }

    #[test]
    fn parked_worker_wakes_on_submit_and_on_close() {
        let q = Arc::new(AdmissionQueue::new(4));
        let (tx, rx) = mpsc::channel();
        let mut pool = crate::pool::WorkerPool::new();
        {
            let q = Arc::clone(&q);
            pool.spawn("parked", move || {
                for _ in 0..2 {
                    let ids = q.next_batch(8).map(|b| b.iter().map(|p| p.id).collect::<Vec<_>>());
                    if tx.send(ids).is_err() {
                        return;
                    }
                }
            })
            .expect("spawn");
        }
        // A missed wake fails on a timeout instead of hanging the suite.
        let wait = Duration::from_secs(5);
        let parked = Duration::from_millis(50);
        assert!(rx.recv_timeout(parked).is_err(), "returned from an empty open queue");
        q.submit(query(7)).map_err(|(_, e)| e).expect("open");
        assert_eq!(rx.recv_timeout(wait).expect("submit wakes the worker"), Some(vec![7]));
        assert!(rx.recv_timeout(parked).is_err(), "returned from an empty open queue");
        q.close();
        assert_eq!(rx.recv_timeout(wait).expect("close wakes the worker"), None);
        pool.join_all();
    }

    #[test]
    fn full_queue_sheds_and_returns_the_query() {
        let q = AdmissionQueue::new(2);
        q.submit(query(0)).map_err(|(_, e)| e).expect("slot 0");
        q.submit(query(1)).map_err(|(_, e)| e).expect("slot 1");
        match q.submit(query(7)) {
            Err((shed, SubmitError::Overloaded)) => assert_eq!(shed.id, 7),
            other => panic!("expected shed, got {:?}", other.map(|()| ()).map_err(|(_, e)| e)),
        }
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn closed_queue_drains_then_signals_exit() {
        let q = AdmissionQueue::new(8);
        q.submit(query(0)).map_err(|(_, e)| e).expect("open");
        assert!(q.is_open());
        q.close();
        assert!(!q.is_open());
        match q.submit(query(1)) {
            Err((back, SubmitError::Draining)) => assert_eq!(back.id, 1),
            other => panic!("expected draining, got {:?}", other.map(|()| ()).map_err(|(_, e)| e)),
        }
        // Admitted work still comes out...
        let batch = q.next_batch(8).expect("drain");
        assert_eq!(batch.len(), 1);
        // ...and only then does the queue report drain-complete.
        assert!(q.next_batch(8).is_none());
    }

    #[test]
    fn poisoned_queue_lock_recovers_and_keeps_serving() {
        // A worker that panics while holding the queue mutex poisons it;
        // every entry point goes through `recover`, so the queue must keep
        // admitting, reporting depth, and forming batches afterwards.
        let q = Arc::new(AdmissionQueue::new(8));
        q.submit(query(0)).map_err(|(_, e)| e).expect("open");

        let mut pool = crate::pool::WorkerPool::new();
        {
            let q = Arc::clone(&q);
            pool.spawn("poison", move || {
                let _guard = recover(&q.state);
                panic!("die holding the queue lock");
            })
            .expect("spawn");
        }
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.join_all()))
            .expect_err("worker panic must resurface at join");
        assert_eq!(
            payload.downcast_ref::<&str>().copied().unwrap_or_default(),
            "die holding the queue lock"
        );

        // The mutex is now poisoned. Nothing below may panic.
        assert_eq!(q.depth(), 1);
        q.submit(query(1)).map_err(|(_, e)| e).expect("poisoned queue still admits");
        let batch = q.next_batch(8).expect("open");
        let ids: Vec<u64> = batch.iter().map(|p| p.id).collect();
        assert_eq!(ids, [0, 1], "arrival order survives the poisoning");
        q.close();
        assert!(q.next_batch(8).is_none(), "drain still completes");
    }

    #[test]
    fn replies_are_owned_by_the_dequeued_batch() {
        let hits = Arc::new(AtomicUsize::new(0));
        let q = AdmissionQueue::new(4);
        let h = Arc::clone(&hits);
        let p = PendingQuery {
            id: 1,
            features: vec![1.0],
            top_k: 1,
            deadline: Some(Instant::now()),
            reply: Box::new(move |_| {
                h.fetch_add(1, Ordering::SeqCst);
            }),
        };
        q.submit(p).map_err(|(_, e)| e).expect("open");
        let batch = q.next_batch(8).expect("open");
        for p in batch {
            (p.reply)(Response::Pong);
        }
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }
}
