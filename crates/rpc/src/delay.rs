//! The delay line: items held until a due time, then handed to a sink.
//!
//! One timing heap on one thread, the one mechanism of the two places
//! that hold messages back in time — [`crate::inmem`]'s latency model
//! (one line per network) and [`crate::faults`]' delay fault (one line
//! per plan). Release order is `(due, arrival)`:
//! earliest due time first, FIFO among equal due times, so a constant
//! delay preserves per-link order. Dropping the line closes it: whatever
//! is still held is released at once, in the same order, and the thread
//! is joined.

use std::collections::BinaryHeap;
use std::time::Instant;

use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};

struct Held<T> {
    due: Instant,
    /// Arrival number at the line's thread (the tie-break).
    seq: u64,
    item: T,
}

impl<T> PartialEq for Held<T> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<T> Eq for Held<T> {}
impl<T> PartialOrd for Held<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Held<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // `BinaryHeap` is a max-heap; reverse for earliest-first.
        other.due.cmp(&self.due).then(other.seq.cmp(&self.seq))
    }
}

pub(crate) struct DelayLine<T> {
    tx: Option<Sender<(Instant, T)>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl<T: Send + 'static> DelayLine<T> {
    /// Starts the line's thread; `sink` receives each item once its due
    /// time has passed (or the line closes).
    pub(crate) fn spawn(name: &str, sink: impl FnMut(T) + Send + 'static) -> DelayLine<T> {
        let (tx, rx) = channel::unbounded();
        let thread = std::thread::Builder::new()
            .name(name.into())
            .spawn(move || run(rx, sink))
            // lint: allow(no-panic) — spawn failure while assembling a test
            // fabric (latency model / fault injector) is fatal by design.
            .expect("spawn delay line");
        DelayLine { tx: Some(tx), thread: Some(thread) }
    }

    /// Holds `item` until `due`. False when the line's thread is gone.
    pub(crate) fn hold(&self, due: Instant, item: T) -> bool {
        self.tx.as_ref().is_some_and(|tx| tx.send((due, item)).is_ok())
    }
}

impl<T> Drop for DelayLine<T> {
    fn drop(&mut self) {
        drop(self.tx.take());
        // A sink can drop its own line: the last reference to a node, and
        // through it to the network that owns the line, can die inside a
        // delivery. That drop runs on the line's thread — nothing to join.
        let me = std::thread::current().id();
        if let Some(thread) = self.thread.take().filter(|t| t.thread().id() != me) {
            let _ = thread.join();
        }
    }
}

fn run<T>(rx: Receiver<(Instant, T)>, mut sink: impl FnMut(T)) {
    let mut heap: BinaryHeap<Held<T>> = BinaryHeap::new();
    let mut seq = 0u64;
    loop {
        // Wait for the next due item or the next arrival, whichever
        // comes first.
        let next = match heap.peek() {
            Some(head) => {
                let wait = head.due.saturating_duration_since(Instant::now());
                if wait.is_zero() {
                    if let Some(h) = heap.pop() {
                        sink(h.item);
                    }
                    continue;
                }
                rx.recv_timeout(wait)
            }
            None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
        };
        match next {
            Ok((due, item)) => {
                heap.push(Held { due, seq, item });
                seq += 1;
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                while let Some(h) = heap.pop() {
                    sink(h.item);
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn line() -> (DelayLine<u64>, Receiver<u64>) {
        let (out_tx, out_rx) = channel::unbounded();
        let line = DelayLine::spawn("delay-test", move |id| {
            let _ = out_tx.send(id);
        });
        (line, out_rx)
    }

    #[test]
    fn releases_in_due_order_fifo_on_ties() {
        let (line, out) = line();
        let t0 = Instant::now();
        let late = t0 + Duration::from_millis(30);
        let soon = t0 + Duration::from_millis(10);
        assert!(line.hold(late, 1));
        for id in 2..=5 {
            assert!(line.hold(soon, id));
        }
        let got: Vec<u64> =
            (0..5).map(|_| out.recv_timeout(Duration::from_secs(2)).unwrap()).collect();
        assert_eq!(got, [2, 3, 4, 5, 1]);
        assert!(t0.elapsed() >= Duration::from_millis(30), "released before due");
    }

    #[test]
    fn a_sink_may_drop_its_own_line() {
        // What the in-memory fabric's line does when a delivery holds the
        // last reference to a node and, through it, to the network.
        let slot = Arc::new(parking_lot::Mutex::new(None::<DelayLine<u64>>));
        let (done_tx, done_rx) = channel::unbounded();
        let owner = Arc::clone(&slot);
        let line = DelayLine::spawn("delay-self", move |_id| {
            drop(owner.lock().take());
            let _ = done_tx.send(());
        });
        let mut guard = slot.lock();
        assert!(line.hold(Instant::now(), 1));
        *guard = Some(line);
        drop(guard);
        done_rx.recv_timeout(Duration::from_secs(2)).expect("the line's thread died joining itself");
    }

    #[test]
    fn close_drains_what_is_held_in_order() {
        let (line, out) = line();
        let t0 = Instant::now();
        assert!(line.hold(t0 + Duration::from_secs(60), 1));
        assert!(line.hold(t0 + Duration::from_secs(30), 2));
        assert!(line.hold(t0 + Duration::from_secs(30), 3));
        drop(line); // joins the thread: everything held has been released
        let got: Vec<u64> = std::iter::from_fn(|| out.try_recv().ok()).collect();
        assert_eq!(got, [2, 3, 1]);
        assert!(t0.elapsed() < Duration::from_secs(10), "close waited for due times");
    }
}
