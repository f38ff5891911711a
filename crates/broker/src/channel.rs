//! The real replication channel: one `BackupWrite` RPC per backup, fanned
//! out in parallel ("it also sends (replicates) the chunk in parallel to
//! the backups", paper §II-B). Nobody waits on the calls: each is a
//! detached call whose answer runs that backup's `Acked` on the thread
//! that delivers it.
//!
//! Transient loss is the RPC plane's problem: each call retransmits its
//! request id under the node's retry policy, driven by the node's workers,
//! and the backup's at-most-once cache absorbs the duplicates. Only when a
//! call's budget (or its retransmissions) runs out does a backup's failure
//! normalize to `Disconnected(backup)`, which is the virtual log's signal
//! to re-replicate around the node.

use std::time::Duration;

use bytes::Bytes;
use kera_common::ids::NodeId;
use kera_common::{KeraError, Result};
use kera_rpc::RpcClient;
use kera_vlog::channel::{Acked, BackupChannel};
use kera_wire::frames::OpCode;
use kera_wire::messages::{BackupWriteResponse, EncodedBackupWrite};

/// Ships replication batches over the RPC fabric.
#[derive(Clone)]
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
    fn start(&self, backups: &[NodeId], req: &EncodedBackupWrite, acked: Vec<Acked>) {
        for (&backup, acked) in backups.iter().zip(acked) {
            let channel = self.clone();
            let answered = move |reply: Result<Bytes>| {
                // Out of budget or retransmits — like a send the fabric
                // refused, `Disconnected(backup)` already — it is dead.
                let reply = reply.map_err(|e| match e {
                    KeraError::Timeout { .. } => KeraError::Disconnected(backup),
                    other => other,
                });
                let reply = reply.and_then(|body| BackupWriteResponse::decode(&body).map(drop));
                acked(&channel, reply);
            };
            // Already on the wire format: the one body is shared by all
            // fan-out sends without re-encoding.
            // lint: allow(no-hot-copy) — refcount clone per fan-out send
            let payload = req.body().clone();
            self.client.call_detached(backup, OpCode::BackupWrite, payload, self.timeout, answered);
        }
    }
}
