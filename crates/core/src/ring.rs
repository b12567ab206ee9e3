//! Bounded SPSC ring channels for the parallel ingest pipeline.
//!
//! The pipeline's dispatcher (paper §3.2's real-time constraint, scaled out
//! per §3.1.1's load-balancing note) talks to each shard worker over exactly
//! two of these channels: batches of frames flow dispatcher → worker, and
//! drained batch arenas flow worker → dispatcher for reuse. Each channel has
//! one producer and one consumer, a fixed capacity (backpressure, so a slow
//! shard throttles ingest instead of ballooning memory), and closes when
//! either endpoint drops.
//!
//! Built on `std::sync::{Mutex, Condvar}` only — no external dependencies.
//! Under `--cfg loom` the mutex comes from the loom shim (which has no
//! condvar) and blocking operations become yield loops, so the handoff
//! protocol itself is exercised by `tests/loom_ring.rs` across perturbed
//! schedules (which also drive the batched operations directly — the
//! module is `pub` under `--cfg loom` for exactly that).
//!
//! Per-item locking is pure overhead at millions of frames per second, so
//! every endpoint has batched forms ([`Sender::send_batch`],
//! [`Receiver::recv_batch`] and their non-blocking `try_` variants) that
//! move N values per lock acquisition; the singular blocking forms remain
//! for control edges (the rotation barrier's reply ring).

use std::collections::VecDeque;

#[cfg(loom)]
use loom::sync::{Arc, Mutex};
#[cfg(loom)]
use std::sync::MutexGuard;
#[cfg(not(loom))]
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Queue state behind the channel's one mutex.
struct State<T> {
    queue: VecDeque<T>,
    /// Set when either endpoint drops; senders then fail, receivers drain.
    closed: bool,
}

/// Shared core of one channel.
struct Shared<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    #[cfg(not(loom))]
    not_empty: Condvar,
    #[cfg(not(loom))]
    not_full: Condvar,
}

impl<T> Shared<T> {
    /// Lock the state; a poisoned mutex (a panicked peer thread) yields the
    /// inner state anyway — the channel must stay usable so the other
    /// endpoint can observe `closed` and wind down instead of deadlocking.
    #[cfg(not(loom))]
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        match self.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    #[cfg(loom)]
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock()
    }
}

/// Producing endpoint. Dropping it closes the channel (the receiver drains
/// what was already queued, then sees end-of-stream).
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// Consuming endpoint. Dropping it closes the channel (subsequent sends
/// fail, letting the producer stop early).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Error returned by [`Sender::send`] when the receiver is gone; carries the
/// unsent value back so the caller can recover it.
#[derive(Debug)]
pub struct SendError<T>(pub T);

/// Build a bounded channel of the given capacity (minimum 1).
pub fn channel<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::with_capacity(capacity.max(1)),
            closed: false,
        }),
        capacity: capacity.max(1),
        #[cfg(not(loom))]
        not_empty: Condvar::new(),
        #[cfg(not(loom))]
        not_full: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Block until there is room, then enqueue. Fails (returning the value)
    /// only when the receiver is gone.
    #[cfg(not(loom))]
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut st = self.shared.lock();
        let mut stalled = false;
        loop {
            if st.closed {
                return Err(SendError(value));
            }
            if st.queue.len() < self.shared.capacity {
                st.queue.push_back(value);
                dnhunter_telemetry::tm_observe!(
                    dnhunter_telemetry::Metric::RingOccupancy,
                    st.queue.len() as u64
                );
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            // Count a stall once per blocking send, not once per wakeup.
            if !stalled {
                stalled = true;
                dnhunter_telemetry::tm_count!(dnhunter_telemetry::Metric::PipelineSendStalls);
            }
            st = match self.shared.not_full.wait(st) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Loom variant: the shim has no condvar, so blocking is a yield loop —
    /// every pass is a schedule-exploration point.
    #[cfg(loom)]
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        loop {
            let mut st = self.shared.lock();
            if st.closed {
                return Err(SendError(value));
            }
            if st.queue.len() < self.shared.capacity {
                st.queue.push_back(value);
                return Ok(());
            }
            drop(st);
            loom::thread::yield_now();
        }
    }

    /// Enqueue a whole batch under as few lock acquisitions as possible:
    /// drains `values` from the front, moving as many as fit per
    /// acquisition and blocking (like [`Sender::send`]) whenever the ring
    /// is full. On `Err` (receiver gone) the unsent values remain in
    /// `values` for the caller to recover. Counts one `PipelineSendStalls`
    /// per blocking episode: a batch that waits through several wakeups
    /// still counts once.
    #[cfg(not(loom))]
    pub fn send_batch(&self, values: &mut Vec<T>) -> Result<(), SendError<()>> {
        if values.is_empty() {
            return Ok(());
        }
        let mut st = self.shared.lock();
        let mut stalled = false;
        loop {
            if st.closed {
                return Err(SendError(()));
            }
            let space = self.shared.capacity - st.queue.len();
            if space > 0 {
                let n = space.min(values.len());
                st.queue.extend(values.drain(..n));
                dnhunter_telemetry::tm_observe!(
                    dnhunter_telemetry::Metric::RingOccupancy,
                    st.queue.len() as u64
                );
                self.shared.not_empty.notify_one();
                if values.is_empty() {
                    return Ok(());
                }
            }
            if !stalled {
                stalled = true;
                dnhunter_telemetry::tm_count!(dnhunter_telemetry::Metric::PipelineSendStalls);
            }
            st = match self.shared.not_full.wait(st) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Loom variant of [`Sender::send_batch`] (yield loop, see
    /// [`Sender::send`]).
    #[cfg(loom)]
    pub fn send_batch(&self, values: &mut Vec<T>) -> Result<(), SendError<()>> {
        loop {
            let mut st = self.shared.lock();
            if st.closed {
                return Err(SendError(()));
            }
            let space = self.shared.capacity - st.queue.len();
            let n = space.min(values.len());
            st.queue.extend(values.drain(..n));
            if values.is_empty() {
                return Ok(());
            }
            drop(st);
            loom::thread::yield_now();
        }
    }

    /// Non-blocking [`Sender::send_batch`]: move as many front values as
    /// currently fit, never waiting. Returns how many moved (0 when full or
    /// closed); the rest remain in `values`. Used for the best-effort arena
    /// recycle path, where dropping a buffer is acceptable and blocking the
    /// worker is not.
    pub fn try_send_batch(&self, values: &mut Vec<T>) -> usize {
        let mut st = self.shared.lock();
        if st.closed {
            return 0;
        }
        let space = self.shared.capacity - st.queue.len();
        let n = space.min(values.len());
        st.queue.extend(values.drain(..n));
        #[cfg(not(loom))]
        if n > 0 {
            self.shared.not_empty.notify_one();
        }
        n
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.shared.lock();
        st.closed = true;
        drop(st);
        #[cfg(not(loom))]
        self.shared.not_empty.notify_all();
    }
}

impl<T> Receiver<T> {
    /// Block until a value arrives; `None` once the channel is closed *and*
    /// drained (so nothing sent before the close is ever lost).
    #[cfg(not(loom))]
    pub fn recv(&self) -> Option<T> {
        let mut st = self.shared.lock();
        loop {
            if let Some(value) = st.queue.pop_front() {
                self.shared.not_full.notify_one();
                return Some(value);
            }
            if st.closed {
                return None;
            }
            st = match self.shared.not_empty.wait(st) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Loom variant of [`Receiver::recv`] (yield loop, see [`Sender::send`]).
    #[cfg(loom)]
    pub fn recv(&self) -> Option<T> {
        loop {
            let mut st = self.shared.lock();
            if let Some(value) = st.queue.pop_front() {
                return Some(value);
            }
            if st.closed {
                return None;
            }
            drop(st);
            loom::thread::yield_now();
        }
    }

    /// Batched [`Receiver::recv`]: block until at least one value is
    /// queued, then drain up to `max` of them into `out` under the single
    /// lock acquisition. Returns how many arrived; `0` means closed *and*
    /// drained (the same end-of-stream contract as [`Receiver::recv`]
    /// returning `None` — nothing sent before the close is ever lost,
    /// because the queue is checked before `closed`).
    #[cfg(not(loom))]
    pub fn recv_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        let mut st = self.shared.lock();
        loop {
            if !st.queue.is_empty() {
                let n = max.max(1).min(st.queue.len());
                out.extend(st.queue.drain(..n));
                self.shared.not_full.notify_one();
                return n;
            }
            if st.closed {
                return 0;
            }
            st = match self.shared.not_empty.wait(st) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Loom variant of [`Receiver::recv_batch`] (yield loop, see
    /// [`Sender::send`]).
    #[cfg(loom)]
    pub fn recv_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        loop {
            let mut st = self.shared.lock();
            if !st.queue.is_empty() {
                let n = max.max(1).min(st.queue.len());
                out.extend(st.queue.drain(..n));
                return n;
            }
            if st.closed {
                return 0;
            }
            drop(st);
            loom::thread::yield_now();
        }
    }

    /// A DELIBERATELY RACY [`Receiver::recv_batch`] used only to prove the
    /// loom harness would catch an ordering bug in the batched drain: it
    /// checks `closed` *before* looking at the queue, so a producer that
    /// sends a batch and then drops on the wrong interleaving has its
    /// queued values reported as end-of-stream and silently lost.
    /// `tests/loom_ring.rs` asserts loom finds such a schedule.
    #[cfg(loom)]
    pub fn recv_batch_racy(&self, out: &mut Vec<T>, max: usize) -> usize {
        loop {
            let st_probe = self.shared.lock();
            let closed = st_probe.closed;
            drop(st_probe);
            // BUG under scrutiny: the close flag was read in a separate
            // critical section from the drain — a send+drop between the
            // two loses the queued values.
            if closed {
                return 0;
            }
            let mut st = self.shared.lock();
            if !st.queue.is_empty() {
                let n = max.max(1).min(st.queue.len());
                out.extend(st.queue.drain(..n));
                return n;
            }
            drop(st);
            loom::thread::yield_now();
        }
    }

    /// Non-blocking [`Receiver::recv_batch`]: drain up to `max` queued
    /// values into `out` without waiting. Returns how many moved (0 when
    /// empty). Used by the dispatcher to opportunistically reuse recycled
    /// arenas.
    pub fn try_recv_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        let mut st = self.shared.lock();
        let n = max.min(st.queue.len());
        out.extend(st.queue.drain(..n));
        #[cfg(not(loom))]
        if n > 0 {
            self.shared.not_full.notify_one();
        }
        n
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.shared.lock();
        st.closed = true;
        st.queue.clear();
        drop(st);
        #[cfg(not(loom))]
        self.shared.not_full.notify_all();
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_order_and_close_on_sender_drop() {
        let (tx, rx) = channel::<u32>(2);
        let producer = thread::spawn(move || {
            for i in 0..100 {
                tx.send(i).map_err(|_| "receiver gone")?;
            }
            Ok::<(), &str>(())
        });
        let got: Vec<u32> = std::iter::from_fn(|| rx.recv()).collect();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert!(producer.join().is_ok());
    }

    #[test]
    fn send_fails_after_receiver_drop() {
        let (tx, rx) = channel::<u32>(1);
        drop(rx);
        assert!(tx.send(7).is_err());
    }

    #[test]
    fn queued_values_survive_sender_drop() {
        let (tx, rx) = channel::<u32>(4);
        assert!(tx.send(1).is_ok());
        assert!(tx.send(2).is_ok());
        drop(tx);
        assert_eq!(rx.recv(), Some(1));
        assert_eq!(rx.recv(), Some(2));
        assert_eq!(rx.recv(), None);
    }

    #[test]
    fn batched_fifo_across_threads() {
        // Batches larger than the ring capacity must cross intact and in
        // order, the sender blocking through multiple refills.
        let (tx, rx) = channel::<u32>(3);
        let producer = thread::spawn(move || {
            let mut batch: Vec<u32> = (0..50).collect();
            tx.send_batch(&mut batch).map_err(|_| "receiver gone")?;
            assert!(batch.is_empty());
            let mut rest: Vec<u32> = (50..100).collect();
            tx.send_batch(&mut rest).map_err(|_| "receiver gone")?;
            Ok::<(), &str>(())
        });
        let mut got = Vec::new();
        let mut buf = Vec::new();
        loop {
            let n = rx.recv_batch(&mut buf, 8);
            if n == 0 {
                break;
            }
            assert!(n <= 8);
            got.append(&mut buf);
        }
        assert_eq!(got, (0..100).collect::<Vec<_>>());
        assert!(producer.join().is_ok());
    }

    #[test]
    fn batched_values_survive_sender_drop() {
        let (tx, rx) = channel::<u32>(4);
        let mut batch = vec![1, 2, 3];
        assert!(tx.send_batch(&mut batch).is_ok());
        drop(tx);
        let mut out = Vec::new();
        assert_eq!(rx.recv_batch(&mut out, 16), 3);
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(rx.recv_batch(&mut out, 16), 0);
    }

    #[test]
    fn send_batch_after_receiver_drop_keeps_values() {
        let (tx, rx) = channel::<u32>(2);
        drop(rx);
        let mut batch = vec![7, 8, 9];
        assert!(tx.send_batch(&mut batch).is_err());
        // Nothing was consumed: the caller can recover every value.
        assert_eq!(batch, vec![7, 8, 9]);
    }

    #[test]
    fn try_batches_move_what_fits_and_never_block() {
        let (tx, rx) = channel::<u32>(2);
        let mut batch = vec![1, 2, 3, 4];
        assert_eq!(tx.try_send_batch(&mut batch), 2); // capacity 2
        assert_eq!(batch, vec![3, 4]); // remainder stays
        assert_eq!(tx.try_send_batch(&mut batch), 0); // full
        let mut out = Vec::new();
        assert_eq!(rx.try_recv_batch(&mut out, 1), 1);
        assert_eq!(out, vec![1]);
        assert_eq!(rx.try_recv_batch(&mut out, 8), 1);
        assert_eq!(out, vec![1, 2]);
        assert_eq!(rx.try_recv_batch(&mut out, 8), 0); // empty
        drop(rx);
        assert_eq!(tx.try_send_batch(&mut batch), 0); // closed
        assert_eq!(batch, vec![3, 4]);
    }

    #[test]
    fn empty_send_batch_is_a_noop_even_when_closed() {
        let (tx, rx) = channel::<u32>(1);
        drop(rx);
        let mut empty: Vec<u32> = Vec::new();
        assert!(tx.send_batch(&mut empty).is_ok());
    }
}
