//! The replication channel abstraction.
//!
//! The virtual log is transport-agnostic: it hands fully-formed
//! [`BackupWriteRequest`]s to a [`BackupChannel`], which `kera-broker`
//! implements over the RPC stack (fanning one request out to all the
//! virtual segment's backups in parallel). The channel only *starts* a
//! write and nobody waits for it: each backup's answer runs the write's
//! [`Acked`] on the thread that delivered it, so any number of writes —
//! to different virtual segments, of different virtual logs — can be
//! outstanding at once. Tests use [`MockChannel`].

use std::sync::atomic::{AtomicBool, Ordering};

use kera_common::ids::NodeId;
use kera_common::{KeraError, Result};
use kera_wire::messages::{BackupWriteRequest, EncodedBackupWrite};

/// What a started write tells about one backup, once: `Ok` when it
/// acknowledged the write, else why not. It is handed the channel the
/// write went out on, so that the thread landing a round can send the
/// next one.
pub type Acked = Box<dyn FnOnce(&dyn BackupChannel, Result<()>) + Send>;

/// Ships replication batches to backups.
///
/// The request arrives already on the wire format
/// ([`EncodedBackupWrite`]): the virtual log packs header and chunk
/// bytes exactly once, and a transport implementation just hands the
/// shared body to each fan-out send.
pub trait BackupChannel: Send + Sync + 'static {
    /// Sends `req` to every node in `backups` **in parallel** and returns
    /// without waiting for any of them; each backup's `acked`, in the same
    /// order, runs when its answer arrives.
    fn start(&self, backups: &[NodeId], req: &EncodedBackupWrite, acked: Vec<Acked>);
}

/// Test double recording every batch it is asked to replicate and
/// acknowledging it inside `start`: a round shipped through it has landed
/// by the time the shipping call returns.
#[derive(Default)]
pub struct MockChannel {
    pub batches: parking_lot::Mutex<Vec<(Vec<NodeId>, BackupWriteRequest)>>,
    /// When set, every write fails.
    pub fail: AtomicBool,
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
    fn start(&self, backups: &[NodeId], req: &EncodedBackupWrite, acked: Vec<Acked>) {
        let acks = if self.fail.load(Ordering::Relaxed) {
            Err(KeraError::Timeout { op: "mock replicate" })
        } else {
            // Decode the shared body back into a struct (sliced, not
            // copied) so tests can assert on fields.
            req.request().map(|req| self.batches.lock().push((backups.to_vec(), req)))
        };
        for acked in acked {
            acked(self, acks.clone());
        }
    }
}
