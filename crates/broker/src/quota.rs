//! Multi-tenant admission control: the broker-side gate of the
//! backpressure plane (DESIGN.md §11).
//!
//! Every produce request passes through [`AdmissionControl::admit`]
//! before any append work happens. Each tenant (client node) owns a
//! token bucket (bytes/sec with a burst cap) and an in-flight byte
//! window; the broker as a whole owns an admission-queue byte cap — the
//! RSS proxy that bounds how much unacknowledged producer data the
//! broker will ever hold. A request that cannot be admitted gets a
//! structured answer instead of a queue slot, climbing the degradation
//! ladder:
//!
//! 1. **Throttle** — over rate or over window, in good standing:
//!    `Throttled { retry_after, window_hint }`. A polite client sleeps
//!    and retries through the idempotent dedup path.
//! 2. **Reject** — the tenant kept sending through throttles
//!    (`reject_after_throttles` in a row), or the broker-wide queue cap
//!    is hit: `Rejected { reason }`, no retry hint.
//! 3. **Evict** — `evict_after_rejections` ladder rejections: the
//!    session is refused outright for `evict_cooldown`, then may start
//!    fresh. Sessions idle past `zombie_idle` are swept the same way so
//!    dead clients cannot pin accounting forever.
//!
//! Admission state lives under one `broker.quota` lock, acquired only
//! for short, RPC-free critical sections (kera-lint enforces this); the
//! admitted-byte total is a plain atomic so releasing a permit after
//! the durability wait touches the lock only to fix the per-tenant
//! window. With quotas disabled (the default) the gate is a single
//! relaxed atomic load.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use kera_common::config::QuotaConfig;
use kera_common::ids::NodeId;
use kera_common::metrics::Counter;
use kera_common::{KeraError, Result};
use kera_obs::{Gauge, NodeObs, Stage};
use kera_wire::frames::OpCode;
use parking_lot::Mutex;

/// Floor on computed retry hints so clients never busy-spin on a
/// sub-microsecond suggestion.
const MIN_RETRY_AFTER: Duration = Duration::from_micros(200);
/// Ceiling on computed retry hints; anything longer means the request
/// can never be admitted at the current rate and rejection is near.
const MAX_RETRY_AFTER: Duration = Duration::from_millis(500);

/// Per-tenant admission state. Counters are per-tenant label series of
/// `kera.broker.quota_throttles_total` / `quota_rejections_total`.
struct TenantState {
    /// Produce token balance in bytes; refilled at `produce_bytes_per_sec`
    /// up to `burst_bytes`.
    tokens: f64,
    /// Fetch bytes owed (debt model: serve first, charge after; a tenant
    /// in debt is throttled until the debt drains at `fetch_bytes_per_sec`).
    fetch_debt: f64,
    last_refill: Instant,
    last_seen: Instant,
    /// Admitted-but-unacknowledged bytes of this tenant.
    inflight: u64,
    consecutive_throttles: u32,
    ladder_rejections: u32,
    evicted_until: Option<Instant>,
    throttles: Arc<Counter>,
    rejections: Arc<Counter>,
}

struct QuotaState {
    cfg: QuotaConfig,
    tenants: HashMap<u32, TenantState>,
    last_sweep: Instant,
}

/// One tenant's quota accounting plus the broker-wide admission-queue
/// gauges, as [`AdmissionControl::snapshot`] reads them. Broker-local
/// (in-process drills and the `Introspect` health block); a tenant the
/// broker has no session for reports `known == false` and zeroes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QuotaSnapshot {
    /// The broker holds session state for the asked-about tenant.
    pub known: bool,
    /// Tenant's admitted-but-unacknowledged bytes.
    pub inflight_bytes: u64,
    /// Broker-wide admitted-but-unacknowledged bytes right now.
    pub queue_bytes: u64,
    /// High-water mark of `queue_bytes` since the broker started — the
    /// bounded-memory gate reads this.
    pub queue_hwm_bytes: u64,
    /// Total throttle responses issued (all tenants, produce + fetch).
    pub throttles: u64,
    /// Total rejections issued (all tenants).
    pub rejections: u64,
    /// Total session evictions (ladder + zombie sweep).
    pub evictions: u64,
}

/// The broker's admission gate. One per [`crate::broker::BrokerService`].
pub struct AdmissionControl {
    /// Fast-path switch; `false` makes `admit` a single relaxed load.
    enabled: AtomicBool,
    state: Mutex<QuotaState>,
    /// Broker-wide admitted-but-unacknowledged bytes (the memory bound).
    queue_bytes: AtomicU64,
    /// High-water mark of `queue_bytes` since start — the RSS-proxy gate.
    queue_hwm: AtomicU64,
    throttles_total: AtomicU64,
    rejections_total: AtomicU64,
    evictions_total: AtomicU64,
    queue_gauge: Arc<Gauge>,
    hwm_gauge: Arc<Gauge>,
    evictions_ctr: Arc<Counter>,
    obs: Arc<NodeObs>,
}

impl AdmissionControl {
    pub fn new(cfg: QuotaConfig, obs: Arc<NodeObs>) -> Arc<Self> {
        let reg = obs.registry();
        let now = Instant::now();
        Arc::new(Self {
            enabled: AtomicBool::new(cfg.enabled),
            state: Mutex::named("broker.quota", QuotaState {
                cfg,
                tenants: HashMap::new(),
                last_sweep: now,
            }),
            queue_bytes: AtomicU64::new(0),
            queue_hwm: AtomicU64::new(0),
            throttles_total: AtomicU64::new(0),
            rejections_total: AtomicU64::new(0),
            evictions_total: AtomicU64::new(0),
            queue_gauge: reg.gauge("kera.broker.admission_queue_bytes", &[]),
            hwm_gauge: reg.gauge("kera.broker.admission_queue_hwm_bytes", &[]),
            evictions_ctr: reg.counter("kera.broker.quota_evictions_total", &[]),
            obs,
        })
    }

    /// Quotas active right now (runtime-flippable, see [`Self::set_enabled`]).
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flips the gate at runtime (quota-flapping drills). Tenant
    /// accounting persists across flips; in-flight permits release
    /// normally either way.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Adjusts the per-tenant produce rate at runtime. Existing token
    /// balances are kept (they re-clamp to the burst cap on next refill).
    pub fn set_produce_rate(&self, bytes_per_sec: u64) {
        self.state.lock().cfg.produce_bytes_per_sec = bytes_per_sec.max(1);
    }

    /// Broker-wide admitted-but-unacknowledged bytes right now.
    pub fn queue_bytes(&self) -> u64 {
        self.queue_bytes.load(Ordering::Relaxed)
    }

    /// High-water mark of [`Self::queue_bytes`] since the broker started.
    pub fn queue_hwm(&self) -> u64 {
        self.queue_hwm.load(Ordering::Relaxed)
    }

    /// Number of live tenant sessions (zombie-sweep observability).
    pub fn tenant_count(&self) -> usize {
        self.state.lock().tenants.len()
    }

    /// The admission gate on the produce path. Returns a permit whose
    /// `Drop` releases the tenant's window and the broker's queue bytes
    /// once the request is acknowledged (or fails). With quotas off the
    /// permit is inert and this is one atomic load.
    pub fn admit(self: &Arc<Self>, tenant: NodeId, bytes: u64) -> Result<AdmissionPermit> {
        if !self.is_enabled() {
            return Ok(AdmissionPermit::inactive());
        }
        let tenant = tenant.raw();
        let now = Instant::now();
        let mut s = self.state.lock();
        self.sweep_zombies(&mut s, now);
        if !s.tenants.contains_key(&tenant) {
            // First contact: create the per-tenant counter series with
            // the quota lock *released* — the registry has its own lock
            // and we keep the two strictly un-nested.
            drop(s);
            let (throttles, rejections) = self.tenant_counters(tenant);
            s = self.state.lock();
            let cfg = s.cfg;
            s.tenants.entry(tenant).or_insert_with(|| TenantState {
                tokens: cfg.burst_bytes as f64,
                fetch_debt: 0.0,
                last_refill: now,
                last_seen: now,
                inflight: 0,
                consecutive_throttles: 0,
                ladder_rejections: 0,
                evicted_until: None,
                throttles,
                rejections,
            });
        }
        let cfg = s.cfg;
        let queue = self.queue_bytes.load(Ordering::Relaxed);
        // lint: allow(no-panic) — inserted above under this same lock
        // hold; no sweep can run in between.
        let t = s.tenants.get_mut(&tenant).expect("tenant just ensured");
        t.last_seen = now;
        refill(t, &cfg, now);

        if let Some(until) = t.evicted_until {
            if now < until {
                t.rejections.inc();
                self.rejections_total.fetch_add(1, Ordering::Relaxed);
                return Err(KeraError::Rejected {
                    reason: format!("session evicted for {}ms more", (until - now).as_millis()),
                });
            }
            // Cooldown served: fresh session, full bucket, clean slate.
            t.evicted_until = None;
            t.consecutive_throttles = 0;
            t.ladder_rejections = 0;
            t.tokens = cfg.burst_bytes as f64;
        }

        // Broker-wide memory bound first: running out of admission-queue
        // room is pressure, not politeness — reject without a retry hint,
        // but don't walk this tenant toward eviction for it.
        if queue.saturating_add(bytes) > cfg.admission_queue_bytes {
            return Err(self.reject(t, tenant, "admission queue full", false, now, &cfg));
        }

        let window_ok = t.inflight.saturating_add(bytes) <= cfg.max_inflight_bytes;
        if window_ok && t.tokens >= bytes as f64 {
            t.tokens -= bytes as f64;
            t.consecutive_throttles = 0;
            t.ladder_rejections = 0;
            t.inflight += bytes;
            drop(s);
            let q = self.queue_bytes.fetch_add(bytes, Ordering::Relaxed) + bytes;
            self.queue_gauge.add(bytes as i64);
            if q > self.queue_hwm.fetch_max(q, Ordering::Relaxed) {
                self.hwm_gauge.set(q as i64);
            }
            return Ok(AdmissionPermit { ctl: Some(Arc::clone(self)), tenant, bytes });
        }

        // Over rate or over window: throttle, escalating to rejection if
        // the tenant has been ignoring the hints.
        t.consecutive_throttles += 1;
        if t.consecutive_throttles > cfg.reject_after_throttles {
            return Err(self.reject(t, tenant, "quota exceeded and throttles ignored", true, now, &cfg));
        }
        let deficit = (bytes as f64 - t.tokens).max(0.0);
        let refill_wait =
            Duration::from_secs_f64(deficit / cfg.produce_bytes_per_sec.max(1) as f64);
        let retry_after = refill_wait.clamp(MIN_RETRY_AFTER, MAX_RETRY_AFTER);
        t.throttles.inc();
        self.throttles_total.fetch_add(1, Ordering::Relaxed);
        self.obs.event(
            Stage::QuotaThrottle,
            kera_obs::current(),
            OpCode::Produce as u8,
            u64::from(tenant),
        );
        Err(KeraError::Throttled { retry_after, window_hint: cfg.max_inflight_bytes })
    }

    /// The fetch-side gate (debt model): a tenant still paying off
    /// previously served bytes is throttled; otherwise the fetch is
    /// served and [`Self::charge_fetch`] records the debt afterwards.
    pub fn admit_fetch(&self, tenant: NodeId) -> Result<()> {
        if !self.is_enabled() {
            return Ok(());
        }
        let tenant = tenant.raw();
        let now = Instant::now();
        let mut s = self.state.lock();
        let cfg = s.cfg;
        if cfg.fetch_bytes_per_sec == 0 {
            return Ok(());
        }
        let Some(t) = s.tenants.get_mut(&tenant) else {
            return Ok(()); // no history, nothing owed
        };
        t.last_seen = now;
        refill(t, &cfg, now);
        if t.fetch_debt <= 0.0 {
            return Ok(());
        }
        let retry_after = Duration::from_secs_f64(t.fetch_debt / cfg.fetch_bytes_per_sec as f64)
            .clamp(MIN_RETRY_AFTER, MAX_RETRY_AFTER);
        t.throttles.inc();
        self.throttles_total.fetch_add(1, Ordering::Relaxed);
        self.obs.event(
            Stage::QuotaThrottle,
            kera_obs::current(),
            OpCode::Fetch as u8,
            u64::from(tenant),
        );
        Err(KeraError::Throttled { retry_after, window_hint: 0 })
    }

    /// Records `bytes` of served fetch data against the tenant's debt.
    pub fn charge_fetch(&self, tenant: NodeId, bytes: u64) {
        if !self.is_enabled() || bytes == 0 {
            return;
        }
        let tenant = tenant.raw();
        let now = Instant::now();
        let mut s = self.state.lock();
        let cfg = s.cfg;
        if cfg.fetch_bytes_per_sec == 0 {
            return;
        }
        if !s.tenants.contains_key(&tenant) {
            drop(s);
            let (throttles, rejections) = self.tenant_counters(tenant);
            s = self.state.lock();
            let cfg = s.cfg;
            s.tenants.entry(tenant).or_insert_with(|| TenantState {
                tokens: cfg.burst_bytes as f64,
                fetch_debt: 0.0,
                last_refill: now,
                last_seen: now,
                inflight: 0,
                consecutive_throttles: 0,
                ladder_rejections: 0,
                evicted_until: None,
                throttles,
                rejections,
            });
        }
        // lint: allow(no-panic) — inserted above under this same lock
        // hold; no sweep can run in between.
        let t = s.tenants.get_mut(&tenant).expect("tenant just ensured");
        t.last_seen = now;
        t.fetch_debt += bytes as f64;
    }

    /// Diagnostic snapshot. `tenant` is the raw node id to report on;
    /// unknown tenants report zeroed accounting.
    pub fn snapshot(&self, tenant: u32) -> QuotaSnapshot {
        let s = self.state.lock();
        let tenant = s.tenants.get(&tenant);
        QuotaSnapshot {
            known: tenant.is_some(),
            inflight_bytes: tenant.map_or(0, |t| t.inflight),
            queue_bytes: self.queue_bytes.load(Ordering::Relaxed),
            queue_hwm_bytes: self.queue_hwm.load(Ordering::Relaxed),
            throttles: self.throttles_total.load(Ordering::Relaxed),
            rejections: self.rejections_total.load(Ordering::Relaxed),
            evictions: self.evictions_total.load(Ordering::Relaxed),
        }
    }

    /// Registers (or re-finds) the per-tenant counter series. Never
    /// called with the quota lock held — the registry lock must not
    /// nest under `broker.quota`.
    fn tenant_counters(&self, tenant: u32) -> (Arc<Counter>, Arc<Counter>) {
        let reg = self.obs.registry();
        let id = tenant.to_string();
        (
            reg.counter("kera.broker.quota_throttles_total", &[("tenant", &id)]),
            reg.counter("kera.broker.quota_rejections_total", &[("tenant", &id)]),
        )
    }

    /// One step up the ladder: count a rejection and, if `escalate` and
    /// the tenant has burned through its allowance, evict the session.
    fn reject(
        &self,
        t: &mut TenantState,
        tenant: u32,
        reason: &str,
        escalate: bool,
        now: Instant,
        cfg: &QuotaConfig,
    ) -> KeraError {
        t.rejections.inc();
        self.rejections_total.fetch_add(1, Ordering::Relaxed);
        self.obs.event(
            Stage::QuotaReject,
            kera_obs::current(),
            OpCode::Produce as u8,
            u64::from(tenant),
        );
        if escalate {
            t.ladder_rejections += 1;
            if t.ladder_rejections >= cfg.evict_after_rejections {
                t.evicted_until = Some(now + cfg.evict_cooldown);
                self.evictions_total.fetch_add(1, Ordering::Relaxed);
                self.evictions_ctr.inc();
                self.obs.event(
                    Stage::QuotaEvict,
                    kera_obs::current(),
                    OpCode::Produce as u8,
                    u64::from(tenant),
                );
                return KeraError::Rejected {
                    reason: format!("{reason}; session evicted"),
                };
            }
        }
        KeraError::Rejected { reason: reason.to_string() }
    }

    /// Drops sessions idle past `zombie_idle` — a crashed client must
    /// not pin tenant accounting forever. The broker-wide queue bytes
    /// are owned by outstanding permits and untouched here, so a
    /// stuck-in-flight request still releases correctly on permit drop.
    fn sweep_zombies(&self, s: &mut QuotaState, now: Instant) {
        let interval = (s.cfg.zombie_idle / 2).max(Duration::from_millis(50));
        if now.duration_since(s.last_sweep) < interval {
            return;
        }
        s.last_sweep = now;
        let idle = s.cfg.zombie_idle;
        let before = s.tenants.len();
        s.tenants.retain(|_, t| now.duration_since(t.last_seen) <= idle);
        let swept = before - s.tenants.len();
        if swept > 0 {
            self.evictions_total.fetch_add(swept as u64, Ordering::Relaxed);
            self.evictions_ctr.add(swept as u64);
        }
    }

    fn release(&self, tenant: u32, bytes: u64) {
        self.queue_bytes.fetch_sub(bytes, Ordering::Relaxed);
        self.queue_gauge.sub(bytes as i64);
        let mut s = self.state.lock();
        if let Some(t) = s.tenants.get_mut(&tenant) {
            t.inflight = t.inflight.saturating_sub(bytes);
        }
    }
}

fn refill(t: &mut TenantState, cfg: &QuotaConfig, now: Instant) {
    let dt = now.duration_since(t.last_refill).as_secs_f64();
    t.last_refill = now;
    t.tokens = (t.tokens + dt * cfg.produce_bytes_per_sec as f64).min(cfg.burst_bytes as f64);
    if cfg.fetch_bytes_per_sec > 0 {
        t.fetch_debt = (t.fetch_debt - dt * cfg.fetch_bytes_per_sec as f64).max(0.0);
    }
}

/// RAII admission slot: holds the tenant's window share and the
/// broker's queue bytes from admission until the produce request is
/// acknowledged (or fails) — dropping it releases both.
pub struct AdmissionPermit {
    ctl: Option<Arc<AdmissionControl>>,
    tenant: u32,
    bytes: u64,
}

impl AdmissionPermit {
    /// The no-op permit handed out when quotas are off or the request
    /// bypasses the gate (recovery re-ingestion).
    pub fn inactive() -> Self {
        Self { ctl: None, tenant: 0, bytes: 0 }
    }
}

impl std::fmt::Debug for AdmissionPermit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionPermit")
            .field("active", &self.ctl.is_some())
            .field("tenant", &self.tenant)
            .field("bytes", &self.bytes)
            .finish()
    }
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        if let Some(ctl) = self.ctl.take() {
            ctl.release(self.tenant, self.bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quotas() -> QuotaConfig {
        QuotaConfig {
            enabled: true,
            produce_bytes_per_sec: 1_000_000,
            burst_bytes: 10_000,
            fetch_bytes_per_sec: 1_000_000,
            max_inflight_bytes: 8_000,
            admission_queue_bytes: 20_000,
            reject_after_throttles: 3,
            evict_after_rejections: 2,
            evict_cooldown: Duration::from_millis(50),
            zombie_idle: Duration::from_millis(120),
        }
    }

    fn ctl(cfg: QuotaConfig) -> Arc<AdmissionControl> {
        AdmissionControl::new(cfg, NodeObs::disabled(1))
    }

    #[test]
    fn disabled_gate_admits_everything() {
        let ctl = ctl(QuotaConfig::default());
        for _ in 0..1000 {
            ctl.admit(NodeId(2001), u64::MAX / 2).unwrap();
        }
        assert_eq!(ctl.queue_bytes(), 0);
        assert_eq!(ctl.tenant_count(), 0);
    }

    #[test]
    fn bucket_admits_then_throttles_and_permit_releases() {
        let ctl = ctl(quotas());
        let p = ctl.admit(NodeId(2001), 6_000).unwrap();
        assert_eq!(ctl.queue_bytes(), 6_000);
        // Burst exhausted (10 KB bucket, 6 KB spent): an instant 6 KB
        // follow-up throttles with a structured hint.
        match ctl.admit(NodeId(2001), 6_000).unwrap_err() {
            KeraError::Throttled { retry_after, window_hint } => {
                assert!(retry_after >= MIN_RETRY_AFTER);
                assert_eq!(window_hint, 8_000);
            }
            other => panic!("wrong error: {other}"),
        }
        drop(p);
        assert_eq!(ctl.queue_bytes(), 0);
        assert_eq!(ctl.snapshot(2001).inflight_bytes, 0);
        assert!(ctl.queue_hwm() >= 6_000);
    }

    #[test]
    fn inflight_window_binds_even_with_tokens() {
        let cfg = QuotaConfig { burst_bytes: 100_000, ..quotas() };
        let ctl = ctl(cfg);
        let _p = ctl.admit(NodeId(2001), 8_000).unwrap();
        // Tokens remain, but the 8 KB window is full.
        assert!(matches!(
            ctl.admit(NodeId(2001), 1_000).unwrap_err(),
            KeraError::Throttled { .. }
        ));
    }

    #[test]
    fn ladder_escalates_to_reject_then_evict_then_cooldown_resets() {
        let ctl = ctl(quotas());
        let tenant = NodeId(2002);
        // Oversized batches (bigger than the burst cap and the window,
        // though within the broker-wide queue cap) can never be
        // admitted: throttles, then rejections, then eviction.
        let mut throttles = 0;
        let mut rejections = 0;
        let mut evicted = false;
        for _ in 0..20 {
            match ctl.admit(tenant, 15_000).unwrap_err() {
                KeraError::Throttled { .. } => throttles += 1,
                KeraError::Rejected { reason } => {
                    rejections += 1;
                    if reason.contains("evicted") {
                        evicted = true;
                        break;
                    }
                }
                other => panic!("wrong error: {other}"),
            }
        }
        assert_eq!(throttles, 3);
        assert_eq!(rejections, 2);
        assert!(evicted);
        // During cooldown even a polite request is refused...
        assert!(matches!(
            ctl.admit(tenant, 100).unwrap_err(),
            KeraError::Rejected { .. }
        ));
        // ...and after it the session starts fresh.
        std::thread::sleep(Duration::from_millis(60));
        ctl.admit(tenant, 100).unwrap();
        let snap = ctl.snapshot(tenant.raw());
        assert!(snap.evictions >= 1);
        assert!(snap.throttles >= 3);
    }

    #[test]
    fn queue_cap_rejects_without_escalation() {
        let cfg = QuotaConfig {
            burst_bytes: 20_000,
            max_inflight_bytes: 20_000,
            admission_queue_bytes: 20_000,
            ..quotas()
        };
        let ctl = ctl(cfg);
        let _a = ctl.admit(NodeId(2001), 15_000).unwrap();
        // A *different* tenant hits the broker-wide cap: rejected, but
        // its ladder standing is untouched (no eviction risk).
        for _ in 0..10 {
            assert!(matches!(
                ctl.admit(NodeId(2002), 10_000).unwrap_err(),
                KeraError::Rejected { .. }
            ));
        }
        drop(_a);
        ctl.admit(NodeId(2002), 10_000).unwrap();
    }

    #[test]
    fn zombie_sessions_are_swept() {
        let ctl = ctl(quotas());
        ctl.admit(NodeId(2001), 100).unwrap();
        assert_eq!(ctl.tenant_count(), 1);
        std::thread::sleep(Duration::from_millis(150));
        // Any other tenant's traffic triggers the sweep.
        ctl.admit(NodeId(2002), 100).unwrap();
        assert_eq!(ctl.tenant_count(), 1);
        assert!(ctl.snapshot(0).evictions >= 1);
        assert!(!ctl.snapshot(2001).known);
    }

    #[test]
    fn fetch_debt_throttles_until_it_drains() {
        let ctl = ctl(quotas());
        let tenant = NodeId(2005);
        ctl.admit_fetch(tenant).unwrap(); // no history, free
        ctl.charge_fetch(tenant, 5_000);
        match ctl.admit_fetch(tenant).unwrap_err() {
            KeraError::Throttled { retry_after, .. } => assert!(retry_after > Duration::ZERO),
            other => panic!("wrong error: {other}"),
        }
        // 5 KB at 1 MB/s drains in 5 ms.
        std::thread::sleep(Duration::from_millis(10));
        ctl.admit_fetch(tenant).unwrap();
    }

    #[test]
    fn runtime_flapping_keeps_accounting_consistent() {
        let ctl = ctl(quotas());
        let p = ctl.admit(NodeId(2001), 4_000).unwrap();
        ctl.set_enabled(false);
        ctl.admit(NodeId(2001), u64::MAX / 2).unwrap(); // gate bypassed
        ctl.set_produce_rate(2_000_000);
        ctl.set_enabled(true);
        drop(p);
        assert_eq!(ctl.queue_bytes(), 0);
        assert_eq!(ctl.snapshot(2001).inflight_bytes, 0);
    }
}
