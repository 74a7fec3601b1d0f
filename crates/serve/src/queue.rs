//! A bounded, blocking MPMC job queue with tenant-fair lanes.
//!
//! `std::sync::mpsc` gives unbounded channels (or `sync_channel`, whose
//! bounded `send` *blocks* — the opposite of what an admission path
//! wants: a full queue must answer "come back later" immediately, not
//! stall the connection thread that every other frame on that session
//! is waiting behind). So the queue is a `Mutex` + `Condvar`:
//! producers fail fast with [`PushError::Full`], consumers block in
//! [`pop`](JobQueue::pop), and [`close`](JobQueue::close) drains
//! shutdown cleanly — workers finish what was already admitted, then
//! see `None`.
//!
//! **Fair share.** Items queue in one FIFO lane per [`Laned::lane`]
//! (the tenant), and [`pop`](JobQueue::pop) serves the lanes round-
//! robin. The server checks a job out for exactly one chunk and hands
//! an unfinished job back with [`requeue`](JobQueue::requeue), which
//! puts it at the *front* of its lane while the rotation moves on to
//! the next tenant. So a tenant with a million-trial job costs an
//! interactive tenant one chunk of waiting, not the whole job, and
//! jobs of one tenant still run (and finish) in submission order.
//!
//! Admission counts only items that have never been checked out: a job
//! between chunks is in flight, exactly like a job on a worker, so
//! interleaving never tightens backpressure.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Names the fair-share lane an item queues in.
pub trait Laned {
    /// The lane key — for campaign jobs, the tenant.
    fn lane(&self) -> &str;
}

/// Why [`JobQueue::try_push`] refused an item.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity; `queued` never-started items are
    /// waiting.
    Full {
        /// Items waiting that have never been checked out (equals the
        /// capacity).
        queued: usize,
    },
    /// The queue was closed for shutdown.
    Closed,
}

struct Entry<T> {
    item: T,
    /// Checked out before and handed back by [`JobQueue::requeue`].
    started: bool,
}

struct State<T> {
    lanes: HashMap<String, VecDeque<Entry<T>>>,
    /// Every non-empty lane, once, in rotation order.
    ring: VecDeque<String>,
    /// Entries that have never been checked out.
    waiting: usize,
    closed: bool,
}

impl<T: Laned> State<T> {
    /// Adds `item` at the back (new work) or, when `started`, the front
    /// (a job between chunks) of its lane; a lane that was empty joins
    /// the rotation last.
    fn insert(&mut self, item: T, started: bool) {
        if !started {
            self.waiting += 1;
        }
        let entry = Entry { item, started };
        if let Some(lane) = self.lanes.get_mut(entry.item.lane()) {
            if started {
                lane.push_front(entry);
            } else {
                lane.push_back(entry);
            }
            return;
        }
        let name = entry.item.lane().to_string();
        self.ring.push_back(name.clone());
        self.lanes.insert(name, VecDeque::from([entry]));
    }
}

/// A bounded multi-producer multi-consumer queue with non-blocking
/// admission, blocking consumption and round-robin lanes.
pub struct JobQueue<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T: Laned> JobQueue<T> {
    /// A queue admitting at most `capacity` never-started items
    /// (minimum 1).
    pub fn new(capacity: usize) -> JobQueue<T> {
        JobQueue {
            state: Mutex::new(State {
                lanes: HashMap::new(),
                ring: VecDeque::new(),
                waiting: 0,
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state
            .lock()
            .expect("no thread panics while holding the queue lock")
    }

    /// The admission bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items waiting that have never been checked out (racy by nature;
    /// for display/backoff hints only).
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().waiting
    }

    /// Whether no never-started item is waiting (racy; display only).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admits `item` at the back of its lane without blocking.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`close`](JobQueue::close). The item is dropped either way — the
    /// caller answers the client with a typed rejection, not a retry.
    pub fn try_push(&self, item: T) -> Result<(), PushError> {
        self.try_push_with(item, |_| {})
    }

    /// [`try_push`](JobQueue::try_push), calling `admitted` once the
    /// item is admitted but before any consumer can see it — so a
    /// caller can announce the admission (the server's `Accepted`
    /// frame) strictly ahead of anything a worker sends about the item.
    ///
    /// # Errors
    ///
    /// As [`try_push`](JobQueue::try_push); `admitted` is not called.
    pub fn try_push_with(&self, item: T, admitted: impl FnOnce(&T)) -> Result<(), PushError> {
        let mut st = self.lock();
        if st.closed {
            return Err(PushError::Closed);
        }
        if st.waiting >= self.capacity {
            return Err(PushError::Full { queued: st.waiting });
        }
        admitted(&item);
        st.insert(item, false);
        drop(st);
        self.ready.notify_one();
        Ok(())
    }

    /// Admits `item` even past capacity (never `Full`) — the
    /// restart-recovery path, which must re-enqueue *every* journaled
    /// unfinished job: refusing one would silently drop work the
    /// server already accepted durably. New submissions still go
    /// through [`try_push`](JobQueue::try_push) and feel backpressure
    /// from the recovered backlog.
    ///
    /// # Errors
    ///
    /// [`PushError::Closed`] after [`close`](JobQueue::close).
    pub fn restore(&self, item: T) -> Result<(), PushError> {
        let mut st = self.lock();
        if st.closed {
            return Err(PushError::Closed);
        }
        st.insert(item, false);
        drop(st);
        self.ready.notify_one();
        Ok(())
    }

    /// Hands a checked-out item back to the *front* of its lane, so it
    /// keeps its place among its tenant's items while the rotation
    /// serves the other tenants first. Never refused, not even after
    /// [`close`](JobQueue::close): the item was already admitted and
    /// must drain.
    pub fn requeue(&self, item: T) {
        self.lock().insert(item, true);
        self.ready.notify_one();
    }

    /// Blocks until an item is available or the queue is closed *and*
    /// drained, returning `None` in the latter case. Serves the head of
    /// the next lane in rotation, then moves that lane to the back.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.lock();
        loop {
            if let Some(name) = st.ring.pop_front() {
                let lane = st.lanes.get_mut(&name).expect("ring names non-empty lanes");
                let entry = lane.pop_front().expect("ring names non-empty lanes");
                if lane.is_empty() {
                    st.lanes.remove(&name);
                } else {
                    st.ring.push_back(name);
                }
                if !entry.started {
                    st.waiting -= 1;
                }
                return Some(entry.item);
            }
            if st.closed {
                return None;
            }
            st = self
                .ready
                .wait(st)
                .expect("no thread panics while holding the queue lock");
        }
    }

    /// Closes the queue: future pushes fail, and every consumer wakes —
    /// each drains remaining items, then gets `None`. A worker holding
    /// a checked-out job requeues it and pops it again itself, so
    /// closing never strands a job between chunks.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Bare numbers share one lane: the queue is plain FIFO.
    impl Laned for i32 {
        fn lane(&self) -> &str {
            ""
        }
    }

    /// `(tenant, job)` pairs for the rotation tests.
    impl Laned for (&'static str, u32) {
        fn lane(&self) -> &str {
            self.0
        }
    }

    #[test]
    fn fifo_and_backpressure() {
        let q = JobQueue::new(2);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Ok(()));
        assert_eq!(q.try_push(3), Err(PushError::Full { queued: 2 }));
        assert_eq!(q.pop(), Some(1));
        // Popping freed a slot: admission works again.
        assert_eq!(q.try_push(3), Ok(()));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn close_drains_then_ends() {
        let q = JobQueue::new(4);
        q.try_push(10).unwrap();
        q.close();
        assert_eq!(q.try_push(11), Err(PushError::Closed));
        // Already-admitted work still runs...
        assert_eq!(q.pop(), Some(10));
        // ...then consumers see the end.
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_consumer_wakes_on_push_and_on_close() {
        let q = Arc::new(JobQueue::new(1));
        let qc = Arc::clone(&q);
        let consumer = std::thread::spawn(move || (qc.pop(), qc.pop()));
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(consumer.join().unwrap(), (Some(7), None));
    }

    #[test]
    fn restore_bypasses_capacity_but_not_close() {
        let q = JobQueue::new(1);
        q.try_push(1).unwrap();
        assert_eq!(q.try_push(2), Err(PushError::Full { queued: 1 }));
        // Recovery inserts past the bound...
        assert_eq!(q.restore(2), Ok(()));
        assert_eq!(q.restore(3), Ok(()));
        // ...and new admissions keep feeling the backlog.
        assert_eq!(q.try_push(4), Err(PushError::Full { queued: 3 }));
        assert_eq!((q.pop(), q.pop(), q.pop()), (Some(1), Some(2), Some(3)));
        q.close();
        assert_eq!(q.restore(5), Err(PushError::Closed));
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let q = JobQueue::new(0);
        assert_eq!(q.capacity(), 1);
        assert_eq!(q.try_push(1), Ok(()));
        assert!(!q.is_empty());
    }

    #[test]
    fn lanes_rotate_and_requeued_jobs_keep_their_place() {
        let q = JobQueue::new(8);
        for item in [("a", 1), ("a", 2), ("b", 1), ("c", 1)] {
            q.try_push(item).unwrap();
        }
        // a1 runs a chunk and is handed back unfinished: it returns to
        // the front of lane a, but b and c get their turns first.
        assert_eq!(q.pop(), Some(("a", 1)));
        q.requeue(("a", 1));
        assert_eq!(q.pop(), Some(("b", 1)));
        assert_eq!(q.pop(), Some(("c", 1)));
        // c1 is unfinished too; lane c rejoins the rotation after a.
        q.requeue(("c", 1));
        // Within a lane, the started job stays ahead of a2 (FIFO).
        assert_eq!(q.pop(), Some(("a", 1)));
        assert_eq!(q.pop(), Some(("c", 1)));
        assert_eq!(q.pop(), Some(("a", 2)));
        assert!(q.is_empty());
    }

    #[test]
    fn new_tenant_is_served_after_one_chunk_of_a_long_job() {
        let q = JobQueue::new(8);
        q.try_push(("bulk", 1)).unwrap();
        assert_eq!(q.pop(), Some(("bulk", 1)));
        // Submitted while bulk's first chunk runs.
        q.try_push(("interactive", 1)).unwrap();
        q.requeue(("bulk", 1));
        assert_eq!(q.pop(), Some(("interactive", 1)));
        assert_eq!(q.pop(), Some(("bulk", 1)));
    }

    #[test]
    fn only_never_started_items_count_against_capacity() {
        let q = JobQueue::new(1);
        q.try_push(("a", 1)).unwrap();
        assert_eq!(q.pop(), Some(("a", 1)));
        // Between chunks, a1 is in flight, not waiting.
        q.requeue(("a", 1));
        assert_eq!(q.len(), 0);
        assert_eq!(q.try_push(("b", 1)), Ok(()));
        assert_eq!(q.try_push(("b", 2)), Err(PushError::Full { queued: 1 }));
        // Lane a rejoined the rotation before b existed, so a1 runs
        // its next chunk first; serving b1 then frees b's slot.
        assert_eq!(q.pop(), Some(("a", 1)));
        assert_eq!(q.try_push(("b", 2)), Err(PushError::Full { queued: 1 }));
        assert_eq!(q.pop(), Some(("b", 1)));
        assert_eq!(q.try_push(("b", 2)), Ok(()));
    }

    #[test]
    fn requeue_after_close_drains_before_the_end() {
        let q = JobQueue::new(4);
        q.try_push(("a", 1)).unwrap();
        q.try_push(("b", 1)).unwrap();
        assert_eq!(q.pop(), Some(("a", 1)));
        q.close();
        assert_eq!(q.try_push(("c", 1)), Err(PushError::Closed));
        // A job checked out at close time comes back and still runs.
        q.requeue(("a", 1));
        assert_eq!(q.pop(), Some(("b", 1)));
        assert_eq!(q.pop(), Some(("a", 1)));
        assert_eq!(q.pop(), None);
    }
}
