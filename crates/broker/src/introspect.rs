//! Shared serving path for the `Introspect` RPC (opcode 20).
//!
//! Every node role — broker, backup, coordinator replica — answers the
//! same wire shape: a fixed health header plus two optional JSON
//! sections (metrics snapshot, sampled slow-span trees) selected by the
//! request's section bitmask. The role-specific service fills in the
//! health fields it owns; this helper adds everything derived from the
//! node's [`NodeObs`] handle and encodes the response.

use bytes::Bytes;
use kera_common::Result;
use kera_obs::NodeObs;
use kera_wire::messages::{introspect_sections, IntrospectRequest, IntrospectResponse, NodeRole};

/// Role-owned health fields of an introspection response. The obs-derived
/// fields (in-flight window, progress heartbeat, watchdog arming, the
/// metrics and traces sections) are filled in by [`serve`].
#[derive(Default)]
pub struct HealthFields {
    pub role: NodeRole,
    pub is_leader: bool,
    pub term: u64,
    pub vlogs: u32,
    pub segments: u32,
    pub appended_bytes: u64,
    pub durable_bytes: u64,
    pub consumer_lag_bytes: u64,
    pub quota_enabled: bool,
    pub quota_queue_bytes: u64,
    pub quota_queue_hwm_bytes: u64,
    pub quota_throttles: u64,
    pub quota_rejections: u64,
}

/// Decodes the request, assembles the selected sections and encodes the
/// response.
pub fn serve(obs: &NodeObs, payload: &[u8], h: HealthFields) -> Result<Bytes> {
    let req = IntrospectRequest::decode(payload)?;
    let metrics_json = if req.sections & introspect_sections::METRICS != 0 {
        let mut snap = obs.registry().snapshot();
        // Lock contention is process-global in the parking_lot shim, so
        // every node of an in-process cluster reports the same classes;
        // scrapers must merge it once per process, not once per node.
        snap.merge(&kera_obs::lock_contention_snapshot());
        snap.to_json()
    } else {
        String::new()
    };
    let traces_json = if req.sections & introspect_sections::TRACES != 0 {
        obs.slow_traces().to_json(obs.recorder())
    } else {
        String::new()
    };
    IntrospectResponse {
        node: obs.node(),
        role: h.role,
        is_leader: h.is_leader,
        quota_enabled: h.quota_enabled,
        term: h.term,
        vlogs: h.vlogs,
        segments: h.segments,
        appended_bytes: h.appended_bytes,
        durable_bytes: h.durable_bytes,
        consumer_lag_bytes: h.consumer_lag_bytes,
        quota_queue_bytes: h.quota_queue_bytes,
        quota_queue_hwm_bytes: h.quota_queue_hwm_bytes,
        quota_throttles: h.quota_throttles,
        quota_rejections: h.quota_rejections,
        inflight: obs.inflight(),
        progress: obs.progress_counter(),
        watchdog_ms: obs.watchdog_ms(),
        metrics_json,
        traces_json,
    }
    .encode()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kera_obs::Stage;
    use kera_wire::messages::NodeRole;

    #[test]
    fn sections_bitmask_gates_the_json_payloads() {
        let obs = NodeObs::new(77, true);
        obs.root_span(Stage::Append).finish();
        let fields = || HealthFields {
            role: NodeRole::Broker,
            appended_bytes: 123,
            ..Default::default()
        };

        let health_only =
            serve(&obs, &IntrospectRequest { sections: introspect_sections::HEALTH }.encode(), fields())
                .unwrap();
        let resp = IntrospectResponse::decode(&health_only).unwrap();
        assert_eq!(resp.node, 77);
        assert_eq!(resp.appended_bytes, 123);
        assert!(resp.metrics_json.is_empty());
        assert!(resp.traces_json.is_empty());

        let all =
            serve(&obs, &IntrospectRequest { sections: introspect_sections::ALL }.encode(), fields())
                .unwrap();
        let resp = IntrospectResponse::decode(&all).unwrap();
        assert!(resp.metrics_json.contains("kera.trace.stage"));
        assert!(resp.traces_json.contains("\"stage\":\"append\""), "{}", resp.traces_json);
    }
}
