//! MPMC channels with `crossbeam-channel`'s API surface (the subset this
//! workspace uses): `bounded` / `unbounded` constructors, cloneable
//! senders *and* receivers, blocking and non-blocking send/recv, timeouts,
//! and iteration until disconnect. Backed by a `Mutex<VecDeque>` plus two
//! condvars (not-empty / not-full).

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Error returned by [`Sender::send`] when all receivers are gone.
#[derive(PartialEq, Eq, Clone, Copy)]
pub struct SendError<T>(pub T);

/// Error returned by [`Sender::try_send`].
#[derive(PartialEq, Eq, Clone, Copy)]
pub enum TrySendError<T> {
    /// The channel is at capacity.
    Full(T),
    /// All receivers are gone.
    Disconnected(T),
}

/// Error returned by [`Receiver::recv`] when the channel is empty and all
/// senders are gone.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub struct RecvError;

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum TryRecvError {
    Empty,
    Disconnected,
}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum RecvTimeoutError {
    Timeout,
    Disconnected,
}

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Debug for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full(_) => f.write_str("Full(..)"),
            TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
        }
    }
}

impl<T> TrySendError<T> {
    pub fn into_inner(self) -> T {
        match self {
            TrySendError::Full(v) | TrySendError::Disconnected(v) => v,
        }
    }

    pub fn is_full(&self) -> bool {
        matches!(self, TrySendError::Full(_))
    }
}

struct Shared<T> {
    queue: Mutex<VecDeque<T>>,
    /// None = unbounded.
    cap: Option<usize>,
    not_empty: Condvar,
    not_full: Condvar,
    senders: AtomicUsize,
    receivers: AtomicUsize,
}

impl<T> Shared<T> {
    fn no_senders(&self) -> bool {
        self.senders.load(Ordering::SeqCst) == 0
    }

    fn no_receivers(&self) -> bool {
        self.receivers.load(Ordering::SeqCst) == 0
    }
}

/// The sending half of a channel. Cloneable (MPMC).
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half of a channel. Cloneable (MPMC).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Creates a channel of bounded capacity. `send` blocks while full;
/// `try_send` fails fast with [`TrySendError::Full`].
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    make(Some(cap))
}

/// Creates a channel of unbounded capacity.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    make(None)
}

fn make<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        queue: Mutex::new(VecDeque::new()),
        cap,
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        senders: AtomicUsize::new(1),
        receivers: AtomicUsize::new(1),
    });
    (Sender { shared: Arc::clone(&shared) }, Receiver { shared })
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.senders.fetch_add(1, Ordering::SeqCst);
        Sender { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last sender gone: wake all blocked receivers. Under the
            // queue lock, or a receiver that read "senders remain" and
            // has not begun to wait yet would sleep through this.
            let _queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.receivers.fetch_add(1, Ordering::SeqCst);
        Receiver { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        if self.shared.receivers.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Last receiver gone: wake all blocked senders (under the
            // lock, for the same reason).
            let _queue = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.not_full.notify_all();
        }
    }
}

impl<T> Sender<T> {
    /// Blocking send; fails only when every receiver has been dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let shared = &*self.shared;
        let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if shared.no_receivers() {
                return Err(SendError(value));
            }
            match shared.cap {
                Some(cap) if queue.len() >= cap => {
                    queue = shared.not_full.wait(queue).unwrap_or_else(|e| e.into_inner());
                }
                _ => break,
            }
        }
        queue.push_back(value);
        drop(queue);
        shared.not_empty.notify_one();
        Ok(())
    }

    /// Non-blocking send: sheds immediately when the queue is full.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let shared = &*self.shared;
        let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        if shared.no_receivers() {
            return Err(TrySendError::Disconnected(value));
        }
        if let Some(cap) = shared.cap {
            if queue.len() >= cap {
                return Err(TrySendError::Full(value));
            }
        }
        queue.push_back(value);
        drop(queue);
        shared.not_empty.notify_one();
        Ok(())
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.shared.queue.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The channel capacity (None = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.shared.cap
    }
}

impl<T> Receiver<T> {
    /// Blocking receive; fails once the channel is empty and every sender
    /// has been dropped.
    pub fn recv(&self) -> Result<T, RecvError> {
        let shared = &*self.shared;
        let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(v) = queue.pop_front() {
                drop(queue);
                shared.not_full.notify_one();
                return Ok(v);
            }
            if shared.no_senders() {
                return Err(RecvError);
            }
            queue = shared.not_empty.wait(queue).unwrap_or_else(|e| e.into_inner());
        }
    }

    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let shared = &*self.shared;
        let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(v) = queue.pop_front() {
            drop(queue);
            shared.not_full.notify_one();
            return Ok(v);
        }
        if shared.no_senders() {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let shared = &*self.shared;
        let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(v) = queue.pop_front() {
                drop(queue);
                shared.not_full.notify_one();
                return Ok(v);
            }
            if shared.no_senders() {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            let (q, _res) = shared
                .not_empty
                .wait_timeout(queue, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            queue = q;
        }
    }

    /// Number of messages currently queued.
    pub fn len(&self) -> usize {
        self.shared.queue.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocking iterator: yields until all senders disconnect.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter { receiver: self }
    }

    /// Non-blocking iterator: yields queued messages, then stops.
    pub fn try_iter(&self) -> TryIter<'_, T> {
        TryIter { receiver: self }
    }
}

pub struct Iter<'a, T> {
    receiver: &'a Receiver<T>,
}

impl<T> Iterator for Iter<'_, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.receiver.recv().ok()
    }
}

impl<'a, T> IntoIterator for &'a Receiver<T> {
    type Item = T;
    type IntoIter = Iter<'a, T>;
    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

pub struct TryIter<'a, T> {
    receiver: &'a Receiver<T>,
}

impl<T> Iterator for TryIter<'_, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.receiver.try_recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_backpressure() {
        let (tx, rx) = bounded(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert!(matches!(tx.try_send(3), Err(TrySendError::Full(3))));
        assert_eq!(rx.try_recv().unwrap(), 1);
        tx.try_send(3).unwrap();
        assert_eq!(rx.iter().take(2).collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn iter_ends_on_disconnect() {
        let (tx, rx) = unbounded();
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        drop(tx);
        assert_eq!(rx.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_fails_without_receivers() {
        let (tx, rx) = bounded(1);
        drop(rx);
        assert!(tx.send(7).is_err());
    }

    #[test]
    fn mpmc_across_threads() {
        let (tx, rx) = bounded::<u64>(4);
        let total = std::thread::scope(|s| {
            let mut consumers = Vec::new();
            for _ in 0..3 {
                let rx = rx.clone();
                consumers.push(s.spawn(move || rx.iter().sum::<u64>()));
            }
            drop(rx);
            for producer in 0..2 {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..100 {
                        tx.send(producer * 1000 + i).unwrap();
                    }
                });
            }
            drop(tx);
            consumers.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
        });
        let expect: u64 = (0..100).sum::<u64>() + (0..100).map(|i| 1000 + i).sum::<u64>();
        assert_eq!(total, expect);
    }

    /// A receiver that has seen "senders remain" and is about to wait must
    /// not miss the last sender's goodbye (nor a blocked sender the last
    /// receiver's): a miss parks the thread forever, so each round is
    /// given a deadline instead of a join. Both sides start off one flag,
    /// which lands the hang-up inside the other's check-then-wait within
    /// a few hundred rounds when the notify is not under the lock.
    #[test]
    fn a_disconnect_is_never_missed_by_a_thread_about_to_wait() {
        use std::sync::atomic::AtomicBool;
        type Side<R> = Box<dyn FnOnce() -> R + Send>;
        for round in 0..20_000 {
            let (tx, rx) = bounded::<u8>(1);
            let (blocks, hang_up): (Side<bool>, Side<()>) = if round % 2 == 0 {
                (Box::new(move || rx.recv().is_err()), Box::new(move || drop(tx)))
            } else {
                tx.send(0).unwrap();
                (Box::new(move || tx.send(1).is_err()), Box::new(move || drop(rx)))
            };
            let started = Arc::new(AtomicBool::new(false));
            let (flag, (done_tx, done_rx)) = (Arc::clone(&started), std::sync::mpsc::channel());
            std::thread::spawn(move || {
                flag.store(true, Ordering::SeqCst);
                done_tx.send(blocks())
            });
            while !started.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
            hang_up();
            let saw_disconnect = done_rx.recv_timeout(Duration::from_secs(10));
            assert_eq!(saw_disconnect, Ok(true), "round {round}: a blocked thread was never woken");
        }
    }

    #[test]
    fn recv_timeout_times_out() {
        let (_tx, rx) = bounded::<u8>(1);
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Err(RecvTimeoutError::Timeout));
    }
}
