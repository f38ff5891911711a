//! Trace propagation across the lossy-network machinery: a dropped and
//! retried call must stay one logical trace, and a duplicated request
//! must surface the server-side dedup hit as a span event linked to the
//! caller's span.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use kera_common::config::{FaultProfile, RetryPolicy};
use kera_common::ids::NodeId;
use kera_common::Result;
use kera_obs::{NodeObs, Stage};
use kera_rpc::{
    FaultInjector, FaultPlan, InMemNetwork, NodeRuntime, NullService, RequestContext, Service,
};
use kera_wire::frames::OpCode;

const SERVER: NodeId = NodeId(1);
const CLIENT: NodeId = NodeId(2);

struct EchoService;

impl Service for EchoService {
    fn handle(&self, _ctx: &RequestContext, payload: Bytes) -> Result<Bytes> {
        Ok(payload)
    }
}

/// One traced server + one traced client whose sends pass through a
/// fault injector driven by `plan`.
fn traced_pair(
    plan: &FaultPlan,
    retry: RetryPolicy,
) -> (InMemNetwork, NodeRuntime, NodeRuntime, Arc<NodeObs>, Arc<NodeObs>) {
    let net = InMemNetwork::new();
    let server_obs = NodeObs::new(SERVER.raw(), true);
    let client_obs = NodeObs::new(CLIENT.raw(), true);
    let server = NodeRuntime::start_with_obs(
        Arc::new(net.register(SERVER)),
        Arc::new(EchoService),
        2,
        retry,
        Arc::clone(&server_obs),
    );
    let client = NodeRuntime::start_with_obs(
        Arc::new(FaultInjector::new(Arc::new(net.register(CLIENT)), plan.clone())),
        Arc::new(NullService),
        1,
        retry,
        Arc::clone(&client_obs),
    );
    (net, server, client, server_obs, client_obs)
}

/// A call whose first attempts are black-holed must retry under the
/// *same* trace: one RpcCall span, RpcRetry events parented to it, and
/// the eventual server-side RpcServe span in the same trace.
#[test]
fn retried_call_stays_one_trace() {
    let plan = FaultPlan::new(FaultProfile::default()).unwrap();
    let retry = RetryPolicy {
        max_attempts: 8,
        attempt_timeout: Duration::from_millis(40),
        initial_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(10),
    };
    let (_net, server, client, server_obs, client_obs) = traced_pair(&plan, retry);

    // Black-hole client -> server; heal after the first attempt has
    // certainly been swallowed so a retry can get through.
    plan.partition_one_way(CLIENT, SERVER);
    let healer = {
        let plan = plan.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            plan.heal_all();
        })
    };
    let got = client
        .client()
        .call(SERVER, OpCode::Ping, Bytes::from_static(b"hi"), Duration::from_secs(10))
        .expect("call succeeds after healing");
    assert_eq!(&got[..], b"hi");
    healer.join().unwrap();
    assert!(plan.blocked() >= 1, "partition swallowed at least one attempt");

    let client_events = client_obs.recorder().read();
    let calls: Vec<_> =
        client_events.iter().filter(|e| e.stage() == Some(Stage::RpcCall)).collect();
    assert_eq!(calls.len(), 1, "one logical call = one RpcCall span: {client_events:?}");
    let call = calls[0];
    assert!(call.aux >= 2, "span aux records the attempt count, got {}", call.aux);

    let retries: Vec<_> =
        client_events.iter().filter(|e| e.stage() == Some(Stage::RpcRetry)).collect();
    assert!(!retries.is_empty(), "retries were recorded: {client_events:?}");
    for r in &retries {
        assert_eq!(r.trace_id, call.trace_id, "retry shares the call's trace");
        assert_eq!(r.parent_span_id, call.span_id, "retry is a child of the call span");
    }

    // The served request carries the same trace over the wire.
    let server_events = server_obs.recorder().read();
    let serves: Vec<_> =
        server_events.iter().filter(|e| e.stage() == Some(Stage::RpcServe)).collect();
    assert_eq!(serves.len(), 1, "{server_events:?}");
    assert_eq!(serves[0].trace_id, call.trace_id);
    assert_eq!(serves[0].parent_span_id, call.span_id);

    server.shutdown();
    client.shutdown();
}

/// Every message delivered twice: the server must execute the request
/// once, answer the duplicate from the dedup cache, and make the hit
/// visible as an RpcDedupHit event inside the caller's trace.
#[test]
fn duplicate_delivery_surfaces_dedup_hit_in_trace() {
    let plan =
        FaultPlan::new(FaultProfile { duplicate_rate: 1.0, ..FaultProfile::default() }).unwrap();
    let (_net, server, client, server_obs, client_obs) =
        traced_pair(&plan, RetryPolicy::default());

    let got = client
        .client()
        .call(SERVER, OpCode::Ping, Bytes::from_static(b"once"), Duration::from_secs(5))
        .unwrap();
    assert_eq!(&got[..], b"once");
    assert!(plan.duplicated() >= 1);
    // The duplicate races the original; give the server a moment to
    // finish serving both copies before reading the ring.
    std::thread::sleep(Duration::from_millis(100));

    let call = client_obs
        .recorder()
        .read()
        .into_iter()
        .find(|e| e.stage() == Some(Stage::RpcCall))
        .expect("client call span recorded");

    let server_events = server_obs.recorder().read();
    let serves =
        server_events.iter().filter(|e| e.stage() == Some(Stage::RpcServe)).count();
    assert_eq!(serves, 1, "duplicate must not be re-executed: {server_events:?}");
    let dedup: Vec<_> =
        server_events.iter().filter(|e| e.stage() == Some(Stage::RpcDedupHit)).collect();
    assert!(!dedup.is_empty(), "dedup hit recorded: {server_events:?}");
    for d in &dedup {
        assert_eq!(d.trace_id, call.trace_id, "dedup event lives in the caller's trace");
        assert_eq!(d.parent_span_id, call.span_id);
    }

    server.shutdown();
    client.shutdown();
}
