//! The real replication channel: one `BackupWrite` RPC per backup, fanned
//! out in parallel ("it also sends (replicates) the chunk in parallel to
//! the backups", paper §II-B) and issued without waiting — the caller
//! collects the acknowledgements when it has started every write it
//! means to overlap.
//!
//! Transient loss is the RPC plane's problem: each fan-out call
//! retransmits its request id under the node's retry policy while it is
//! waited on, and the backup's at-most-once cache absorbs the
//! duplicates. Only when the overall replication budget (or the
//! retransmission budget) runs out does a backup's failure normalize to
//! `Disconnected(backup)`, which is the virtual log's signal to
//! re-replicate around the node.

use std::time::{Duration, Instant};

use kera_common::ids::NodeId;
use kera_common::KeraError;
use kera_rpc::RpcClient;
use kera_vlog::channel::{BackupChannel, PendingAcks};
use kera_wire::frames::OpCode;
use kera_wire::messages::{BackupWriteResponse, EncodedBackupWrite};

/// Ships replication batches over the RPC fabric.
pub struct RpcBackupChannel {
    pub(crate) client: RpcClient,
    timeout: Duration,
}

impl RpcBackupChannel {
    pub fn new(client: RpcClient, timeout: Duration) -> Self {
        Self { client, timeout }
    }
}

impl BackupChannel for RpcBackupChannel {
    fn start<'a>(&'a self, backups: &[NodeId], req: &EncodedBackupWrite) -> PendingAcks<'a> {
        // Already on the wire format: the one body is shared by all
        // fan-out sends without re-encoding.
        let payload = req.body();
        let overall = Instant::now() + self.timeout;
        let calls: Vec<_> = backups
            .iter()
            // lint: allow(no-hot-copy) — refcount clone per fan-out send
            .map(|&b| (b, self.client.call_async(b, OpCode::BackupWrite, payload.clone())))
            .collect();
        Box::new(move || {
            let mut last = BackupWriteResponse { durable_offset: 0 };
            for (backup, call) in calls {
                let remaining = overall.saturating_duration_since(Instant::now());
                let resp = call.wait(remaining).map_err(|e| match e {
                    // Normalize exhausted transient failures to
                    // Disconnected(backup) so the virtual log can
                    // re-replicate around the dead node.
                    KeraError::Disconnected(_) | KeraError::Timeout { .. } => {
                        KeraError::Disconnected(backup)
                    }
                    other => other,
                })?;
                last = BackupWriteResponse::decode(&resp)?;
            }
            Ok(last)
        })
    }
}
