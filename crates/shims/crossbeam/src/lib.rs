//! Offline stand-in for the `crossbeam` crate.
//!
//! Provides `crossbeam::channel`: multi-producer **multi-consumer**
//! channels (std's mpsc receivers are not clonable, which the RPC worker
//! pool requires). Implemented as a mutex-protected deque with two
//! condvars, `not_empty` and `not_full`.
//!
//! The waiter-count rule: the channel counts, under its mutex, the
//! receivers blocked in `recv`/`recv_timeout` and the senders blocked on
//! a full bounded channel. A send notifies `not_empty` only if a receiver
//! waits, and a pop notifies `not_full` only if a sender waits. A
//! condvar notify is a `FUTEX_WAKE` syscall even when nobody sleeps, and
//! an RPC node's work queue takes one send and one pop per request; the
//! real `crossbeam` likewise makes no syscall when nobody is parked. No
//! wake-up is lost: a waiter is counted before it releases the mutex to
//! sleep, so a send or pop made under that mutex sees it.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Receivers asleep on `not_empty`.
        recv_waiting: usize,
        /// Senders asleep on `not_full`.
        send_waiting: usize,
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        not_empty: Condvar,
        not_full: Condvar,
        cap: Option<usize>,
    }

    impl<T> Chan<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(|e| e.into_inner())
        }

        /// Unlocks after a pop, waking a sender only if one waits.
        fn unlock_popped(&self, st: MutexGuard<'_, State<T>>) {
            let wake = st.send_waiting > 0;
            drop(st);
            if wake {
                self.not_full.notify_one();
            }
        }

        /// Waits for a message until `deadline` (forever if `None`).
        fn recv_until(&self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
            let mut st = self.lock();
            loop {
                if let Some(msg) = st.queue.pop_front() {
                    self.unlock_popped(st);
                    return Ok(msg);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
                if left == Some(Duration::ZERO) {
                    return Err(RecvTimeoutError::Timeout);
                }
                st.recv_waiting += 1;
                st = match left {
                    None => self.not_empty.wait(st).unwrap_or_else(|e| e.into_inner()),
                    Some(left) => {
                        self.not_empty.wait_timeout(st, left).unwrap_or_else(|e| e.into_inner()).0
                    }
                };
                st.recv_waiting -= 1;
            }
        }
    }

    fn with_cap<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                recv_waiting: 0,
                send_waiting: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cap,
        });
        (Sender { chan: Arc::clone(&chan) }, Receiver { chan })
    }

    /// An unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_cap(None)
    }

    /// A bounded MPMC channel; `send` blocks while full.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        // A zero-capacity rendezvous degenerates to capacity 1 here: the
        // workspace only uses small positive bounds as backpressure.
        with_cap(Some(cap.max(1)))
    }

    /// Error returned by [`Sender::send`] when all receivers are gone;
    /// carries the unsent message back.
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    impl<T> std::error::Error for SendError<T> {}

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => f.write_str("timed out waiting on channel"),
                RecvTimeoutError::Disconnected => f.write_str("channel is empty and disconnected"),
            }
        }
    }

    impl std::error::Error for RecvTimeoutError {}

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => f.write_str("channel is empty"),
                TryRecvError::Disconnected => f.write_str("channel is empty and disconnected"),
            }
        }
    }

    impl std::error::Error for TryRecvError {}

    /// The sending half; clonable.
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    impl<T> Sender<T> {
        /// Sends `msg`, blocking while a bounded channel is full. Fails
        /// only when every receiver is gone.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut st = self.chan.lock();
            loop {
                if st.receivers == 0 {
                    return Err(SendError(msg));
                }
                match self.chan.cap {
                    Some(cap) if st.queue.len() >= cap => {
                        st.send_waiting += 1;
                        st = self
                            .chan
                            .not_full
                            .wait(st)
                            .unwrap_or_else(|e| e.into_inner());
                        st.send_waiting -= 1;
                    }
                    _ => break,
                }
            }
            st.queue.push_back(msg);
            let wake = st.recv_waiting > 0;
            drop(st);
            if wake {
                self.chan.not_empty.notify_one();
            }
            Ok(())
        }

        pub fn len(&self) -> usize {
            self.chan.lock().queue.len()
        }

        pub fn is_empty(&self) -> bool {
            self.chan.lock().queue.is_empty()
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            self.chan.lock().senders += 1;
            Sender { chan: Arc::clone(&self.chan) }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.chan.lock();
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                self.chan.not_empty.notify_all();
            }
        }
    }

    /// The receiving half; clonable (MPMC).
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or all senders are gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.chan.recv_until(None).map_err(|_| RecvError)
        }

        /// Blocks up to `timeout` for a message.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.chan.recv_until(Some(Instant::now() + timeout))
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.chan.lock();
            if let Some(msg) = st.queue.pop_front() {
                self.chan.unlock_popped(st);
                return Ok(msg);
            }
            if st.senders == 0 {
                return Err(TryRecvError::Disconnected);
            }
            Err(TryRecvError::Empty)
        }

        pub fn len(&self) -> usize {
            self.chan.lock().queue.len()
        }

        pub fn is_empty(&self) -> bool {
            self.chan.lock().queue.is_empty()
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Receiver<T> {
            self.chan.lock().receivers += 1;
            Receiver { chan: Arc::clone(&self.chan) }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.chan.lock();
            st.receivers -= 1;
            if st.receivers == 0 {
                drop(st);
                self.chan.not_full.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel;
    use std::thread;
    use std::time::{Duration, Instant};

    #[test]
    fn send_recv_roundtrip() {
        let (tx, rx) = channel::unbounded();
        tx.send(7).unwrap();
        assert_eq!(rx.recv().unwrap(), 7);
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = channel::unbounded::<u32>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(channel::RecvTimeoutError::Timeout)
        );
        tx.send(1).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(1));
    }

    #[test]
    fn disconnect_propagates_both_ways() {
        let (tx, rx) = channel::unbounded::<u32>();
        drop(rx);
        assert!(tx.send(1).is_err());

        let (tx, rx) = channel::unbounded::<u32>();
        drop(tx);
        assert_eq!(rx.recv(), Err(channel::RecvError));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(1)),
            Err(channel::RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn cloned_receivers_share_the_queue() {
        let (tx, rx) = channel::unbounded();
        let rx2 = rx.clone();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let a = rx.recv().unwrap();
        let b = rx2.recv().unwrap();
        let mut got = [a, b];
        got.sort_unstable();
        assert_eq!(got, [1, 2]);
    }

    #[test]
    fn bounded_blocks_until_drained() {
        let (tx, rx) = channel::bounded(1);
        tx.send(1).unwrap();
        // The second send finds the one slot taken and sleeps until a pop
        // wakes it.
        let t = thread::spawn(move || tx.send(2).is_ok());
        thread::sleep(Duration::from_millis(50));
        assert_eq!(rx.recv().unwrap(), 1);
        // Only a woken sender can have queued the 2 (on failure, dropping
        // `rx` wakes the sender with an error).
        assert_eq!(rx.recv_timeout(Duration::from_secs(2)), Ok(2));
        assert!(t.join().unwrap());
    }

    // Lost-wakeup tests (with `bounded_blocks_until_drained` above): a
    // send or pop skips its notify when it counts no waiter, so a waiter
    // that went uncounted would sleep through it. Each test bounds its
    // wait, so a lost wake-up fails rather than hangs.

    #[test]
    fn a_waiting_receiver_wakes_on_a_later_send() {
        let (tx, rx) = channel::unbounded::<u32>();
        // A sender outlives the test: the last one's drop would wake the
        // receiver by itself.
        let _keep = tx.clone();
        let sender = thread::spawn(move || {
            thread::sleep(Duration::from_millis(50));
            tx.send(1).unwrap();
            Instant::now()
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(1));
        let sent = sender.join().unwrap();
        let late = sent.elapsed();
        assert!(late < Duration::from_secs(1), "woke {late:?} after the send");
    }

    #[test]
    fn four_senders_and_four_receivers_on_one_slot_deliver_each_message_once() {
        const SENDERS: u32 = 4;
        const PER_SENDER: u32 = 5_000;
        let (tx, rx) = channel::bounded::<u32>(1);
        let deadline = Instant::now() + Duration::from_secs(10);
        let senders: Vec<_> = (0..SENDERS)
            .map(|s| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for i in 0..PER_SENDER {
                        if tx.send(s * PER_SENDER + i).is_err() {
                            return; // the receivers gave up
                        }
                    }
                })
            })
            .collect();
        drop(tx);
        // The receivers stop when the last sender is gone or, on a lost
        // wake-up, at the deadline; the last one to go wakes any sender
        // still asleep, with an error.
        let receivers: Vec<_> = (0..4)
            .map(|_| {
                let rx = rx.clone();
                thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Ok(m) =
                        rx.recv_timeout(deadline.saturating_duration_since(Instant::now()))
                    {
                        got.push(m);
                    }
                    got
                })
            })
            .collect();
        drop(rx);
        let mut got: Vec<u32> = receivers.into_iter().flat_map(|r| r.join().unwrap()).collect();
        assert!(Instant::now() < deadline, "stalled: {} of 20000 delivered", got.len());
        for s in senders {
            s.join().unwrap();
        }
        got.sort_unstable();
        assert_eq!(got, (0..SENDERS * PER_SENDER).collect::<Vec<_>>());
    }
}
