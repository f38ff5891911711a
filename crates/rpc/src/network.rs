//! A transport-polymorphic network handle, so cluster assembly can run
//! over in-memory channels (fast, fault-injectable) or real TCP sockets
//! (the paper's clients use "one synchronous TCP request per broker").

use std::sync::Arc;

use kera_common::config::NetworkModel;
use kera_common::ids::NodeId;
use kera_common::Result;

use crate::inmem::InMemNetwork;
use crate::tcp::TcpNetwork;
use crate::transport::Transport;

/// Which fabric a cluster runs on: the cluster configuration's choice.
pub use kera_common::config::TransportChoice as TransportKind;

/// Either fabric, behind one registration API.
#[derive(Clone)]
pub enum AnyNetwork {
    InMem(InMemNetwork),
    Tcp(TcpNetwork),
}

impl AnyNetwork {
    pub fn new(kind: TransportKind, model: NetworkModel) -> AnyNetwork {
        Self::with_max_frame(kind, model, kera_common::config::DEFAULT_MAX_FRAME_BYTES)
    }

    /// Like [`AnyNetwork::new`] with an explicit frame-size cap for
    /// stream transports (ignored by the in-memory fabric, which never
    /// parses untrusted length prefixes).
    pub fn with_max_frame(
        kind: TransportKind,
        model: NetworkModel,
        max_frame_bytes: usize,
    ) -> AnyNetwork {
        match kind {
            TransportKind::InMemory => AnyNetwork::InMem(InMemNetwork::new(model)),
            TransportKind::Tcp => AnyNetwork::Tcp(TcpNetwork::with_max_frame(max_frame_bytes)),
        }
    }

    /// Registers a node and returns its transport endpoint.
    pub fn register(&self, id: NodeId) -> Result<Arc<dyn Transport>> {
        Ok(match self {
            AnyNetwork::InMem(net) => Arc::new(net.register(id)),
            AnyNetwork::Tcp(net) => Arc::new(net.register(id)?),
        })
    }

    /// Crashes a node (fault injection). Returns `false` on TCP, which
    /// does not support surgical crashes — use the in-memory fabric for
    /// failure experiments.
    pub fn crash(&self, id: NodeId) -> bool {
        match self {
            AnyNetwork::InMem(net) => {
                net.crash(id);
                true
            }
            AnyNetwork::Tcp(_) => false,
        }
    }

    /// The in-memory fabric, if that is what this is (tests use it for
    /// fault injection assertions).
    pub fn as_inmem(&self) -> Option<&InMemNetwork> {
        match self {
            AnyNetwork::InMem(net) => Some(net),
            AnyNetwork::Tcp(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{NodeRuntime, NullService, RequestContext, Service};
    use bytes::Bytes;
    use kera_wire::frames::OpCode;
    use std::time::Duration;

    struct Echo;
    impl Service for Echo {
        fn handle(&self, _ctx: &RequestContext, payload: Bytes) -> Result<Bytes> {
            Ok(payload)
        }
    }

    #[test]
    fn both_fabrics_roundtrip() {
        for kind in [TransportKind::InMemory, TransportKind::Tcp] {
            let net = AnyNetwork::new(kind, NetworkModel::default());
            let server =
                NodeRuntime::start(net.register(NodeId(1)).unwrap(), Arc::new(Echo), 1);
            let client =
                NodeRuntime::start(net.register(NodeId(2)).unwrap(), Arc::new(NullService), 1);
            let got = client
                .client()
                .call(NodeId(1), OpCode::Ping, Bytes::from_static(b"hi"), Duration::from_secs(2))
                .unwrap();
            assert_eq!(&got[..], b"hi");
            drop(server);
            drop(client);
        }
    }

    #[test]
    fn crash_support_by_kind() {
        let inmem = AnyNetwork::new(TransportKind::InMemory, NetworkModel::default());
        let _t = inmem.register(NodeId(1)).unwrap();
        assert!(inmem.crash(NodeId(1)));
        assert!(inmem.as_inmem().is_some());

        let tcp = AnyNetwork::new(TransportKind::Tcp, NetworkModel::default());
        let _t = tcp.register(NodeId(1)).unwrap();
        assert!(!tcp.crash(NodeId(1)));
        assert!(tcp.as_inmem().is_none());
    }
}
