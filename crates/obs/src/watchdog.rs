//! Per-node stall watchdog.
//!
//! A node that accepts RPCs but stops making progress (deadlock, frozen
//! thread, stuck replication ship) is the worst failure to triage after
//! the fact: by the time a human attaches, the interesting state is gone.
//! The watchdog samples two cheap signals the node already maintains —
//! the [`NodeObs`] progress heartbeat and the in-flight RPC gauge — and
//! when there is work in flight but the heartbeat has not moved for the
//! armed threshold, it automatically dumps the node's flight-recorder
//! ring and the slow traces sampled from it — the panic hook's dump
//! format, plus the stall's context — to a discriminated directory
//! under the results tree, then re-arms for the next stall.
//!
//! Armed by the cluster when `KERA_WATCHDOG_MS` is set; with
//! observability disabled the signals never move, so the watchdog stays
//! silent by construction.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
// lint: allow(std-lock) — last_dump is read after the worker thread is
// joined or from tests; not worth a lock-order class.
use std::sync::{Arc, Mutex as StdMutex, Weak};
use std::time::{Duration, Instant};

use crate::flightrec::dump_run_dir;
use crate::NodeObs;

/// A running stall watchdog for one node. Dropping it stops and joins
/// the monitor thread.
pub struct Watchdog {
    stop: Arc<AtomicBool>,
    fired: Arc<AtomicU64>,
    last_dump: Arc<StdMutex<Option<PathBuf>>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    /// Arms a watchdog over `obs`: if `obs.inflight() > 0` and the
    /// progress heartbeat stays unchanged for `threshold`, the node's
    /// ring and slow traces are dumped under `dump_base` (routed through
    /// the discriminated `tmp/flightrec/` scheme). Fires at most once per
    /// stall; progress re-arms it.
    pub fn arm(obs: &Arc<NodeObs>, threshold: Duration, dump_base: &Path) -> Watchdog {
        obs.set_watchdog_ms(threshold.as_millis().min(u128::from(u32::MAX)) as u32);
        let stop = Arc::new(AtomicBool::new(false));
        let fired = Arc::new(AtomicU64::new(0));
        let last_dump: Arc<StdMutex<Option<PathBuf>>> = Arc::new(StdMutex::new(None));
        let weak = Arc::downgrade(obs);
        let node = obs.node();
        let base = dump_base.to_path_buf();
        let tick = (threshold / 4).clamp(Duration::from_millis(5), Duration::from_millis(250));
        let handle = {
            let stop = Arc::clone(&stop);
            let fired = Arc::clone(&fired);
            let last_dump = Arc::clone(&last_dump);
            std::thread::Builder::new()
                .name(format!("kera-watchdog-{node}"))
                .spawn(move || {
                    monitor(&weak, &stop, &fired, &last_dump, threshold, tick, &base)
                })
                .expect("spawn watchdog thread")
        };
        Watchdog { stop, fired, last_dump, handle: Some(handle) }
    }

    /// How many stalls have been dumped so far.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Acquire)
    }

    /// Path of the most recent stall dump, if any.
    pub fn last_dump(&self) -> Option<PathBuf> {
        self.last_dump.lock().ok().and_then(|g| g.clone())
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn monitor(
    weak: &Weak<NodeObs>,
    stop: &AtomicBool,
    fired: &AtomicU64,
    last_dump: &StdMutex<Option<PathBuf>>,
    threshold: Duration,
    tick: Duration,
    base: &Path,
) {
    let mut last_progress: Option<u64> = None;
    let mut stall_started: Option<Instant> = None;
    let mut fired_this_stall = false;
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(tick);
        let Some(obs) = weak.upgrade() else { return };
        let progress = obs.progress_counter();
        let stalled = obs.inflight() > 0 && last_progress == Some(progress);
        if stalled {
            let since = *stall_started.get_or_insert_with(Instant::now);
            if !fired_this_stall && since.elapsed() >= threshold {
                fired_this_stall = true;
                if let Some(path) = dump_stall(&obs, threshold, base) {
                    if let Ok(mut g) = last_dump.lock() {
                        *g = Some(path);
                    }
                }
                fired.fetch_add(1, Ordering::Release); // last: seen with its dump
            }
        } else {
            stall_started = None;
            fired_this_stall = false;
        }
        last_progress = Some(progress);
    }
}

/// Writes `watchdog-<node>.json` — [`FlightRecorder::dump_json`] with the
/// stall's context in front — into a fresh discriminated dump directory.
/// Returns the path, or `None` on I/O failure (logged; a broken disk
/// must not take the watchdog down).
///
/// [`FlightRecorder::dump_json`]: crate::FlightRecorder::dump_json
fn dump_stall(obs: &Arc<NodeObs>, threshold: Duration, base: &Path) -> Option<PathBuf> {
    let dir = dump_run_dir(base, &format!("watchdog-node{}", obs.node()));
    let body = obs.recorder().dump_json(&format!(
        "\"reason\":\"stall\",\"watchdog_ms\":{},\"inflight\":{},\"progress\":{},",
        threshold.as_millis(),
        obs.inflight(),
        obs.progress_counter(),
    ));
    let path = dir.join(format!("watchdog-{}.json", obs.node()));
    let write = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body));
    match write {
        Ok(()) => {
            eprintln!(
                "[watchdog] node {}: no progress for {}ms with {} RPC(s) in flight -> {}",
                obs.node(),
                threshold.as_millis(),
                obs.inflight(),
                path.display(),
            );
            Some(path)
        }
        Err(e) => {
            eprintln!("[watchdog] node {}: stall dump failed: {}", obs.node(), e);
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Stage;

    fn temp_base(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("kera-watchdog-{tag}-{}", std::process::id()))
    }

    #[test]
    fn stall_with_inflight_work_dumps_ring_and_slow_traces() {
        let obs = NodeObs::new(42, true);
        // Populate the ring and the slow-trace store with one real span.
        obs.root_span(Stage::Append).finish();
        obs.inflight_enter();

        let base = temp_base("stall");
        let wd = Watchdog::arm(&obs, Duration::from_millis(40), &base);
        assert_eq!(obs.watchdog_ms(), 40);

        let deadline = Instant::now() + Duration::from_secs(5);
        while wd.fired() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(wd.fired() >= 1, "watchdog never fired on a stalled node");
        let path = wd.last_dump().expect("dump path recorded");
        assert!(path.starts_with(base.join("tmp").join("flightrec")));
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"node\":42"));
        assert!(body.contains("\"reason\":\"stall\""));
        assert!(body.contains("\"ring\":{"), "ring missing: {body}");
        assert!(
            body.contains("\"slow_traces\":[{"),
            "expected at least one sampled slow span tree: {body}"
        );
        assert!(body.contains("\"stage\":\"append\""));

        // One stall fires once, not once per tick.
        std::thread::sleep(Duration::from_millis(120));
        assert_eq!(wd.fired(), 1);

        // Progress re-arms; a new stall fires again.
        obs.bump_progress();
        let deadline = Instant::now() + Duration::from_secs(5);
        while wd.fired() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(wd.fired(), 2);

        obs.inflight_exit();
        drop(wd);
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn idle_or_progressing_nodes_never_fire() {
        let obs = NodeObs::new(43, true);
        let base = temp_base("idle");
        let wd = Watchdog::arm(&obs, Duration::from_millis(30), &base);

        // Idle: nothing in flight.
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(wd.fired(), 0);

        // Busy but progressing.
        obs.inflight_enter();
        for _ in 0..12 {
            obs.bump_progress();
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(wd.fired(), 0, "progressing node must not trip the watchdog");
        obs.inflight_exit();
        drop(wd);
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn disabled_obs_keeps_the_watchdog_silent() {
        let obs = NodeObs::disabled(44);
        let base = temp_base("disabled");
        let wd = Watchdog::arm(&obs, Duration::from_millis(20), &base);
        // inflight_enter is a no-op when disabled, so the stall predicate
        // can never hold.
        obs.inflight_enter();
        std::thread::sleep(Duration::from_millis(100));
        assert_eq!(wd.fired(), 0);
        drop(wd);
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn env_knob_parses() {
        // Not set in the test environment unless CI arms it globally; we
        // only check the parse edge cases via the raw parser.
        assert_eq!("250".parse::<u64>().ok().filter(|&ms| ms > 0), Some(250));
        assert_eq!("0".parse::<u64>().ok().filter(|&ms| ms > 0), None);
        assert_eq!("nope".parse::<u64>().ok().filter(|&ms| ms > 0), None);
    }
}
