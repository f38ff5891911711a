//! Topic creation with leader/follower placement.
//!
//! Partition `i` of a topic is led by broker `i mod B`; its `R − 1`
//! followers are the next brokers in the ring — Kafka's default
//! round-robin replica assignment.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use bytes::Bytes;
use kera_common::ids::{NodeId, StreamId, StreamletId};
use kera_common::{KeraError, Result};
use kera_rpc::fabric::leader_index;
use kera_rpc::{Reply, RequestContext, RpcClient, Service};
use kera_wire::frames::OpCode;
use kera_wire::messages::{
    CreateStreamRequest, GetMetadataRequest, HostAssignment, HostStreamRequest, ReplicaRole,
    StreamMetadata, StreamletPlacement,
};
use parking_lot::Mutex;

const HOST_TIMEOUT: Duration = Duration::from_secs(5);

/// A HostStream call to one broker.
type Push = (NodeId, OpCode, Bytes);

/// The Kafka-style coordinator (the controller, roughly).
pub struct KafkaCoordinator {
    node: NodeId,
    brokers: Vec<NodeId>,
    topics: Mutex<HashMap<StreamId, StreamMetadata>>,
    client: OnceLock<RpcClient>,
}

impl KafkaCoordinator {
    pub fn new(node: NodeId, brokers: Vec<NodeId>) -> Arc<Self> {
        Arc::new(Self { node, brokers, topics: Mutex::new(HashMap::new()), client: OnceLock::new() })
    }

    pub fn attach_client(&self, client: RpcClient) {
        let _ = self.client.set(client);
    }

    fn client(&self) -> Result<&RpcClient> {
        self.client
            .get()
            .ok_or_else(|| KeraError::Protocol("kafka coordinator not attached".into()))
    }

    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Places a topic and records it; returns its metadata and the
    /// HostStream push to each of its brokers.
    fn create(&self, req: CreateStreamRequest) -> Result<(StreamMetadata, Vec<Push>)> {
        req.config.validate()?;
        let b = self.brokers.len() as u32;
        if req.config.replication.factor > b {
            return Err(KeraError::NoCapacity(format!(
                "replication factor {} exceeds broker count {b}",
                req.config.replication.factor
            )));
        }
        {
            let topics = self.topics.lock();
            if topics.contains_key(&req.config.id) {
                return Err(KeraError::StreamExists(req.config.id));
            }
        }
        // Leader placement + follower rings.
        let mut placements = Vec::with_capacity(req.config.streamlets as usize);
        let mut per_broker: HashMap<NodeId, Vec<HostAssignment>> = HashMap::new();
        for p in 0..req.config.streamlets {
            let leader_idx = leader_index(req.config.id, p, b as usize);
            let leader = self.brokers[leader_idx];
            placements.push(StreamletPlacement { streamlet: StreamletId(p), broker: leader });
            per_broker.entry(leader).or_default().push(HostAssignment {
                streamlet: StreamletId(p),
                role: ReplicaRole::Leader,
                leader,
            });
            for f in 1..req.config.replication.factor {
                let follower = self.brokers[(leader_idx + f as usize) % b as usize];
                per_broker.entry(follower).or_default().push(HostAssignment {
                    streamlet: StreamletId(p),
                    role: ReplicaRole::Follower,
                    leader,
                });
            }
        }
        let metadata = StreamMetadata { config: req.config.clone(), placements };
        self.topics.lock().insert(req.config.id, metadata.clone());
        let pushes = per_broker
            .into_iter()
            .map(|(broker, assignments)| {
                let host = HostStreamRequest { metadata: metadata.clone(), assignments };
                (broker, OpCode::HostStream, host.encode())
            })
            .collect();
        Ok((metadata, pushes))
    }

    fn handle_metadata(&self, req: GetMetadataRequest) -> Result<StreamMetadata> {
        self.topics
            .lock()
            .get(&req.stream)
            .cloned()
            .ok_or(KeraError::UnknownStream(req.stream))
    }
}

impl Service for KafkaCoordinator {
    fn handle(&self, ctx: &RequestContext, payload: Bytes) -> Result<Bytes> {
        match ctx.opcode {
            OpCode::Ping => Ok(Bytes::new()),
            OpCode::GetMetadata => {
                let req = GetMetadataRequest::decode(&payload)?;
                Ok(self.handle_metadata(req)?.encode())
            }
            other => {
                Err(KeraError::Protocol(format!("kafka coordinator cannot serve {other:?}")))
            }
        }
    }

    /// A CreateStream keeps its `Reply`: the last of its HostStream
    /// pushes to end answers it.
    fn serve(&self, ctx: &RequestContext, payload: Bytes, reply: Reply) {
        if ctx.opcode != OpCode::CreateStream {
            return reply.send(self.handle(ctx, payload));
        }
        let created = CreateStreamRequest::decode(&payload).and_then(|req| self.create(req));
        match (created, self.client()) {
            (Ok((metadata, pushes)), Ok(client)) => {
                client.call_all(pushes, HOST_TIMEOUT, reply, metadata.encode())
            }
            (Err(e), _) | (_, Err(e)) => reply.send(Err(e)),
        }
    }
}
