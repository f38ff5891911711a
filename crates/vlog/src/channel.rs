//! The replication channel abstraction.
//!
//! The virtual log is transport-agnostic: it hands fully-formed
//! [`BackupWriteRequest`]s to a [`BackupChannel`], which `kera-broker`
//! implements over the RPC stack (fanning one request out to all the
//! virtual segment's backups in parallel). Tests use [`MockChannel`].

use kera_common::ids::NodeId;
use kera_common::Result;
use kera_wire::messages::{BackupWriteRequest, BackupWriteResponse, EncodedBackupWrite};

/// Ships replication batches to backups.
///
/// The request arrives already on the wire format
/// ([`EncodedBackupWrite`]): the virtual log packs header and chunk
/// bytes exactly once, and a transport implementation just hands the
/// shared body to each fan-out send.
pub trait BackupChannel: Send + Sync + 'static {
    /// Sends `req` to every node in `backups` **in parallel** and waits
    /// for all acknowledgements. Returns the response of the slowest
    /// backup (they must agree on `durable_offset` in a correct run).
    fn replicate(&self, backups: &[NodeId], req: &EncodedBackupWrite)
        -> Result<BackupWriteResponse>;
}

/// Test double recording every batch it is asked to replicate.
#[derive(Default)]
pub struct MockChannel {
    pub batches: parking_lot::Mutex<Vec<(Vec<NodeId>, BackupWriteRequest)>>,
    /// When set, `replicate` fails with this error constructor.
    pub fail: std::sync::atomic::AtomicBool,
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
    fn replicate(
        &self,
        backups: &[NodeId],
        req: &EncodedBackupWrite,
    ) -> Result<BackupWriteResponse> {
        if self.fail.load(std::sync::atomic::Ordering::Relaxed) {
            return Err(kera_common::KeraError::Timeout { op: "mock replicate" });
        }
        // Decode the shared body back into a struct (sliced, not
        // copied) so tests can assert on fields.
        let req = req.request()?;
        let durable = req.vseg_offset + req.chunks.len() as u32;
        self.batches.lock().push((backups.to_vec(), req));
        Ok(BackupWriteResponse { durable_offset: durable })
    }
}
