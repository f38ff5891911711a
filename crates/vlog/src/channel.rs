//! The replication channel abstraction.
//!
//! The virtual log is transport-agnostic: it hands fully-formed
//! [`BackupWriteRequest`]s to a [`BackupChannel`], which `kera-broker`
//! implements over the RPC stack (fanning one request out to all the
//! virtual segment's backups in parallel). The channel only *starts* a
//! write; whoever started it collects the acknowledgements later, so a
//! caller can have any number of writes — to different virtual
//! segments, of different virtual logs — outstanding at once. Tests use
//! [`MockChannel`].

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use kera_common::ids::NodeId;
use kera_common::{KeraError, Result};
use kera_wire::messages::{BackupWriteRequest, BackupWriteResponse, EncodedBackupWrite};

/// The acknowledgements a started write is still owed. Calling it waits
/// for all of them and returns the response of the slowest backup (they
/// must agree on `durable_offset` in a correct run).
pub type PendingAcks<'a> = Box<dyn FnOnce() -> Result<BackupWriteResponse> + 'a>;

/// Ships replication batches to backups.
///
/// The request arrives already on the wire format
/// ([`EncodedBackupWrite`]): the virtual log packs header and chunk
/// bytes exactly once, and a transport implementation just hands the
/// shared body to each fan-out send.
pub trait BackupChannel: Send + Sync + 'static {
    /// Sends `req` to every node in `backups` **in parallel** and returns
    /// without waiting for any of them.
    fn start<'a>(&'a self, backups: &[NodeId], req: &EncodedBackupWrite) -> PendingAcks<'a>;
}

/// Test double recording every batch it is asked to replicate — at
/// once, when the write is started; the acknowledgement it hands back is
/// ready.
#[derive(Default)]
pub struct MockChannel {
    pub batches: parking_lot::Mutex<Vec<(Vec<NodeId>, BackupWriteRequest)>>,
    /// When set, every write fails.
    pub fail: AtomicBool,
    /// Writes started whose acknowledgements have not been collected.
    pub outstanding: AtomicUsize,
    /// The most there ever were at once.
    pub peak_outstanding: AtomicUsize,
}

impl MockChannel {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn batch_count(&self) -> usize {
        self.batches.lock().len()
    }
}

impl BackupChannel for MockChannel {
    fn start<'a>(&'a self, backups: &[NodeId], req: &EncodedBackupWrite) -> PendingAcks<'a> {
        let result = if self.fail.load(Ordering::Relaxed) {
            Err(KeraError::Timeout { op: "mock replicate" })
        } else {
            // Decode the shared body back into a struct (sliced, not
            // copied) so tests can assert on fields.
            req.request().map(|req| {
                let durable_offset = req.vseg_offset + req.chunks.len() as u32;
                self.batches.lock().push((backups.to_vec(), req));
                BackupWriteResponse { durable_offset }
            })
        };
        let outstanding = self.outstanding.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_outstanding.fetch_max(outstanding, Ordering::Relaxed);
        Box::new(move || {
            self.outstanding.fetch_sub(1, Ordering::Relaxed);
            result
        })
    }
}
