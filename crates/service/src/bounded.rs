//! A bounded multi-producer multi-consumer queue on `Mutex` + `Condvar`.
//!
//! Producers never block: a full queue is reported back as an error so
//! submitters get immediate backpressure. Consumers block in
//! [`BoundedQueue::pop`] until an item arrives or the queue is closed
//! *and* drained — which is exactly the graceful-shutdown contract the
//! service needs (accepted jobs still run after `close`).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Recovers the guard from a poisoned lock. Every lock in this crate
/// allows it: the queue's invariants hold at every await point, and cache
/// updates are plain map/counter writes that never panic mid-mutation,
/// so a panic elsewhere never leaves the data half-updated and it is
/// always safe to continue.
pub(crate) fn relock<'a, T>(
    r: Result<MutexGuard<'a, T>, PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// Why a push was rejected.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum PushError<T> {
    /// The queue holds `capacity` items; the value is handed back.
    Full(T),
    /// The queue was closed; the value is handed back.
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// The queue. All methods take `&self`; share it via `Arc`.
pub(crate) struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity,
        }
    }

    /// The maximum number of queued items.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueues without blocking.
    ///
    /// # Errors
    ///
    /// Returns the item back inside [`PushError::Full`] or
    /// [`PushError::Closed`].
    pub(crate) fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = relock(self.inner.lock());
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Blocks until an item is available and returns it, or returns
    /// `None` once the queue is closed **and** fully drained.
    pub(crate) fn pop(&self) -> Option<T> {
        let inner = relock(self.inner.lock());
        relock(
            self.not_empty
                .wait_while(inner, |inner| inner.items.is_empty() && !inner.closed),
        )
        .items
        .pop_front()
    }

    /// Closes the queue: pushes start failing immediately, pops keep
    /// draining what was already accepted, then return `None`.
    pub(crate) fn close(&self) {
        relock(self.inner.lock()).closed = true;
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_capacity() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4);
        q.try_push("a").unwrap();
        q.close();
        assert_eq!(q.try_push("b"), Err(PushError::Closed("b")));
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_consumers_wake_on_close() {
        let q = Arc::new(BoundedQueue::<u32>::new(1));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let q = q.clone();
                std::thread::spawn(move || q.pop())
            })
            .collect();
        q.try_push(7).unwrap();
        q.close();
        let mut got: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        got.sort();
        assert_eq!(got, vec![None, None, Some(7)]);
    }

    #[test]
    fn many_producers_many_consumers() {
        let q = Arc::new(BoundedQueue::new(64));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for i in 0..16 {
                        loop {
                            if q.try_push(p * 100 + i).is_ok() {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = q.clone();
                std::thread::spawn(move || {
                    let mut seen = Vec::new();
                    while let Some(v) = q.pop() {
                        seen.push(v);
                    }
                    seen
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<_> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort();
        let mut expected: Vec<_> = (0..4)
            .flat_map(|p| (0..16).map(move |i| p * 100 + i))
            .collect();
        expected.sort();
        assert_eq!(all, expected);
    }
}
