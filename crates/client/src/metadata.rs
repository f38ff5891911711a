//! Stream metadata lookup and caching.
//!
//! Replica-aware: the coordinator may be replicated (DESIGN.md §10), so
//! every coordinator call goes through `RpcClient::call_leader`, which
//! probes the replica set, follows `NotLeader` redirect hints and rides
//! out election windows. The node that last answered is cached and
//! tried first on the next call.

use std::collections::HashMap;
use std::time::Duration;

use bytes::Bytes;
use kera_common::config::StreamConfig;
use kera_common::ids::{NodeId, StreamId};
use kera_common::Result;
use kera_rpc::RpcClient;
use kera_wire::frames::OpCode;
use kera_wire::messages::{
    CreateStreamRequest, DeleteStreamRequest, GetMetadataRequest, StreamMetadata,
};
use parking_lot::{Mutex, RwLock};

const TIMEOUT: Duration = Duration::from_secs(10);

/// Talks to the (possibly replicated) coordinator and caches stream
/// metadata.
pub struct MetadataClient {
    rpc: RpcClient,
    /// Coordinator replica set, in replica order.
    replicas: Vec<NodeId>,
    /// The replica that served our last call — tried first next time.
    leader: Mutex<Option<NodeId>>,
    cache: RwLock<HashMap<StreamId, StreamMetadata>>,
}

impl MetadataClient {
    /// Single-coordinator constructor (the historical signature; also
    /// correct for replica 0 of a replicated coordinator, which will
    /// redirect us to its siblings).
    pub fn new(rpc: RpcClient, coordinator: NodeId) -> Self {
        Self::with_replicas(rpc, vec![coordinator])
    }

    /// Replica-aware constructor: `replicas` lists every coordinator
    /// replica; calls go to whichever currently leads.
    pub fn with_replicas(rpc: RpcClient, replicas: Vec<NodeId>) -> Self {
        Self {
            rpc,
            replicas,
            leader: Mutex::named("client.meta_leader", None),
            cache: RwLock::new(HashMap::new()),
        }
    }

    pub fn rpc(&self) -> &RpcClient {
        &self.rpc
    }

    /// Coordinator call through the leader, remembering who answered.
    fn call_coordinator(&self, opcode: OpCode, payload: Bytes) -> Result<Bytes> {
        let preferred = *self.leader.lock();
        let (resp, served_by) = self.rpc.call_leader(&self.replicas, preferred, opcode, payload, TIMEOUT)?;
        *self.leader.lock() = Some(served_by);
        Ok(resp)
    }

    /// Creates a stream and caches its metadata.
    pub fn create_stream(&self, config: StreamConfig) -> Result<StreamMetadata> {
        let resp =
            self.call_coordinator(OpCode::CreateStream, CreateStreamRequest { config }.encode())?;
        let md = StreamMetadata::decode(&resp)?;
        self.cache.write().insert(md.config.id, md.clone());
        Ok(md)
    }

    /// Returns (possibly cached) metadata for `stream`.
    pub fn metadata(&self, stream: StreamId) -> Result<StreamMetadata> {
        if let Some(md) = self.cache.read().get(&stream) {
            return Ok(md.clone());
        }
        self.refresh(stream)
    }

    /// Bypasses the cache (after an error suggesting stale placement).
    pub fn refresh(&self, stream: StreamId) -> Result<StreamMetadata> {
        let resp =
            self.call_coordinator(OpCode::GetMetadata, GetMetadataRequest { stream }.encode())?;
        let md = StreamMetadata::decode(&resp)?;
        self.cache.write().insert(stream, md.clone());
        Ok(md)
    }

    /// Deletes a stream cluster-wide (dedicated virtual logs and their
    /// replicated backup segments are freed; see the broker's
    /// `handle_delete` for the shared-pool caveat).
    pub fn delete_stream(&self, stream: StreamId) -> Result<()> {
        self.call_coordinator(OpCode::DeleteStream, DeleteStreamRequest { stream }.encode())?;
        self.cache.write().remove(&stream);
        Ok(())
    }

    /// Drops a cache entry (e.g. after a broker error).
    pub fn invalidate(&self, stream: StreamId) {
        self.cache.write().remove(&stream);
    }
}
