//! Test doubles shared by this crate's unit tests.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{self, Receiver, Sender};
use kera_common::{KeraError, Result};
use kera_wire::frames::Envelope;

use crate::transport::{Deliver, Transport};

/// A [`Deliver`] target standing in for a node: it collects what a raw
/// endpoint receives so a test can read it back in arrival order.
pub(crate) struct Collector {
    tx: Sender<Envelope>,
    rx: Receiver<Envelope>,
    closed: AtomicBool,
}

impl Collector {
    /// Binds a fresh collector to `transport`, making the endpoint
    /// reachable. The caller keeps the `Arc`: the fabric holds a `Weak`.
    pub(crate) fn bind(transport: &dyn Transport) -> Arc<Collector> {
        let (tx, rx) = channel::unbounded();
        let collector = Arc::new(Collector { tx, rx, closed: AtomicBool::new(false) });
        transport.bind(Arc::downgrade(&collector) as _);
        collector
    }

    /// The next collected frame, waiting up to `timeout`: `Ok(None)` on
    /// timeout and `Err` once the fabric closed the endpoint.
    pub(crate) fn recv(&self, timeout: Duration) -> Result<Option<Envelope>> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(KeraError::ShuttingDown);
        }
        Ok(self.rx.recv_timeout(timeout).ok())
    }
}

/// A raw endpoint made reachable by binding a collecting target to it.
pub(crate) fn endpoint<T: Transport>(transport: T) -> (T, Arc<Collector>) {
    let inbox = Collector::bind(&transport);
    (transport, inbox)
}

impl Deliver for Collector {
    fn deliver(&self, env: Envelope) {
        let _ = self.tx.send(env);
    }

    fn closed(&self) {
        self.closed.store(true, Ordering::SeqCst);
    }
}
