//! A bounded multi-producer/multi-consumer queue on `Mutex` + `Condvar`.
//!
//! This is the pool's backpressure mechanism: producers block in
//! [`BoundedQueue::push`] while the queue is full, consumers block in
//! [`BoundedQueue::pop`] while it is empty, and [`BoundedQueue::close`]
//! starts a drain — pending items are still delivered, then every `pop`
//! returns `None` and every `push` fails. The queue also tracks its depth
//! high-water mark under the same lock, so the metric is exact.
//!
//! **Close-wake audit** (the SHUTDOWN drain-hang class of bug): `close()`
//! must use `notify_all` on *both* condvars — `notify_one` would wake a
//! single blocked producer (or consumer) and leave its siblings parked
//! forever, hanging the drain whenever more than one connection was
//! blocked in `submit` at shutdown. Both broadcasts happen after the
//! `closed` flag is published under the lock, so a waiter either observes
//! `closed` before sleeping or is guaranteed to receive the broadcast;
//! there is no window for a lost wakeup. Per-item wakeups (`push`/`pop`)
//! stay `notify_one` deliberately: each delivers exactly one item or one
//! free slot, so waking one waiter is sufficient and avoids a thundering
//! herd. `close_wakes_every_blocked_producer_and_consumer` is the
//! regression test for all of this.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a [`BoundedQueue::try_push`] was refused. The two cases demand
/// different serving-layer answers: `Full` is transient overload (shed the
/// request with a `BUSY` reply), `Closed` is terminal (the pool is
/// draining for shutdown).
#[derive(Debug, PartialEq, Eq)]
pub enum TryPushError<T> {
    /// The queue is at capacity; the item is handed back.
    Full(T),
    /// The queue has been closed; the item is handed back.
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    high_water: usize,
}

/// A bounded blocking MPMC queue (see module docs).
///
/// # Example
///
/// ```
/// use lac_serve::queue::BoundedQueue;
///
/// let q = BoundedQueue::new(2);
/// q.push(1).unwrap();
/// q.push(2).unwrap();
/// assert_eq!(q.pop(), Some(1));
/// q.close();
/// assert_eq!(q.pop(), Some(2)); // close drains, it does not drop
/// assert_eq!(q.pop(), None);
/// assert!(q.push(3).is_err());
/// ```
pub struct BoundedQueue<T> {
    capacity: usize,
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (a zero-capacity rendezvous is never
    /// what the pool wants — it would deadlock single-threaded tests).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            capacity,
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity),
                closed: false,
                high_water: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Block until there is room, then enqueue `item`.
    ///
    /// # Errors
    ///
    /// Returns the item back if the queue has been closed (either before
    /// the call or while waiting for room).
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        loop {
            if inner.closed {
                return Err(item);
            }
            if inner.items.len() < self.capacity {
                inner.items.push_back(item);
                let depth = inner.items.len();
                if depth > inner.high_water {
                    inner.high_water = depth;
                }
                self.not_empty.notify_one();
                return Ok(());
            }
            inner = self.not_full.wait(inner).expect("queue lock poisoned");
        }
    }

    /// Enqueue without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`TryPushError::Closed`] if the queue has been closed and
    /// [`TryPushError::Full`] if it is at capacity, handing the item back
    /// in both cases. The distinction is load-bearing: the event-driven
    /// server sheds `Full` with a `BUSY` reply but answers `Closed` with a
    /// shutdown error.
    pub fn try_push(&self, item: T) -> Result<(), TryPushError<T>> {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        if inner.closed {
            return Err(TryPushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(TryPushError::Full(item));
        }
        inner.items.push_back(item);
        let depth = inner.items.len();
        if depth > inner.high_water {
            inner.high_water = depth;
        }
        self.not_empty.notify_one();
        Ok(())
    }

    /// Block until an item is available (or the queue is closed and
    /// drained). Returns `None` only after `close()` once no items remain.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        loop {
            if let Some(item) = inner.items.pop_front() {
                self.not_full.notify_one();
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).expect("queue lock poisoned");
        }
    }

    /// Close the queue: wake every waiter; pending items still drain.
    /// Idempotent.
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        inner.closed = true;
        drop(inner);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue lock poisoned").items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of items the queue holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The deepest the queue has ever been (exact, tracked under the lock).
    pub fn high_water_mark(&self) -> usize {
        self.inner.lock().expect("queue lock poisoned").high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn fifo_order_within_capacity() {
        let q = BoundedQueue::new(4);
        for i in 0..4 {
            q.push(i).unwrap();
        }
        assert_eq!(q.len(), 4);
        assert_eq!(q.high_water_mark(), 4);
        for i in 0..4 {
            assert_eq!(q.pop(), Some(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn try_push_distinguishes_full_from_closed() {
        let q = BoundedQueue::new(1);
        q.try_push(1).unwrap();
        assert_eq!(q.try_push(2), Err(TryPushError::Full(2)));
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap();
        q.close();
        assert_eq!(q.try_push(4), Err(TryPushError::Closed(4)));
    }

    #[test]
    fn push_blocks_until_consumer_makes_room() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(0u32).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(1).is_ok())
        };
        // Give the producer a moment to block on the full queue.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.pop(), Some(0));
        assert!(producer.join().unwrap());
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn pop_blocks_until_producer_arrives() {
        let q = Arc::new(BoundedQueue::new(1));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(Duration::from_millis(20));
        q.push(42).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(42));
    }

    #[test]
    fn close_wakes_blocked_consumers() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop())
            })
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        for c in consumers {
            assert_eq!(c.join().unwrap(), None);
        }
    }

    #[test]
    fn close_wakes_blocked_producer_with_error() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(0u32).unwrap();
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.push(1))
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(producer.join().unwrap(), Err(1));
        // Drain still works after close.
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn many_producers_many_consumers_deliver_everything() {
        let q = Arc::new(BoundedQueue::new(3));
        let producers: Vec<_> = (0..4u32)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..25u32 {
                        q.push(p * 100 + i).unwrap();
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let mut expected: Vec<u32> = (0..4u32)
            .flat_map(|p| (0..25u32).map(move |i| p * 100 + i))
            .collect();
        expected.sort_unstable();
        assert_eq!(all, expected);
        assert!(q.high_water_mark() <= 3);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = BoundedQueue::<u8>::new(0);
    }

    /// Regression test for the SHUTDOWN drain hang: when `close()` runs
    /// while *many* producers are blocked in `push` and many consumers are
    /// blocked in `pop`, every single one must wake — producers with an
    /// error, consumers with the drained items then `None`. A `notify_one`
    /// in `close()` would strand all but one of each and this test would
    /// hang (the harness timeout turns that into a failure).
    #[test]
    fn close_wakes_every_blocked_producer_and_consumer() {
        for _round in 0..8 {
            let q = Arc::new(BoundedQueue::new(1));
            q.push(0u32).unwrap();
            let producers: Vec<_> = (1..=6u32)
                .map(|i| {
                    let q = Arc::clone(&q);
                    std::thread::spawn(move || q.push(i))
                })
                .collect();
            std::thread::sleep(Duration::from_millis(10));
            q.close();
            let mut rejected = 0;
            for p in producers {
                if p.join().unwrap().is_err() {
                    rejected += 1;
                }
            }
            // Every producer was blocked on a full queue when it closed.
            assert_eq!(rejected, 6, "all blocked producers must error out");
            assert_eq!(q.pop(), Some(0));
            assert_eq!(q.pop(), None);

            // Same broadcast requirement on the consumer side.
            let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4));
            let consumers: Vec<_> = (0..6)
                .map(|_| {
                    let q = Arc::clone(&q);
                    std::thread::spawn(move || q.pop())
                })
                .collect();
            std::thread::sleep(Duration::from_millis(10));
            q.close();
            for c in consumers {
                assert_eq!(c.join().unwrap(), None);
            }
        }
    }
}
