//! Per-lock-class wait-time accounting.
//!
//! Named locks ([`crate::Mutex::named`] / [`crate::RwLock::named`]) can
//! record how long threads *block* on them: the lock methods try a
//! non-blocking acquire first and only start a timer when that fails, so
//! the uncontended fast path never reads the clock. Disabled (the
//! default) the whole plane costs one relaxed load and one branch per
//! acquisition; `kera-obs` flips it on when observability is enabled.
//!
//! Stats live in a global fixed-size table keyed by the class name's
//! `&'static str` pointer — allocation-free, lock-free, and safe to read
//! from any thread at any time. Each lock instance caches its table slot
//! in an `AtomicU32` so steady-state recording is two indexed atomic
//! adds. Buckets follow `kera-common`'s `LatencyHistogram` convention
//! (bucket *i* counts waits whose nanosecond value has its highest set
//! bit at position *i*), so scrapers can lift a slot straight into a
//! histogram snapshot.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Number of distinct lock classes the table can hold. The workspace
/// declares ~30 classes in `lint/lock-order.toml`; overflowing classes
/// are silently untimed rather than evicting earlier ones.
const MAX_CLASSES: usize = 64;

/// Buckets per class; matches `LatencyHistogram`'s 64 log₂ buckets.
const BUCKETS: usize = 64;

/// Sentinel for "slot not resolved yet" in per-lock caches.
pub(crate) const UNRESOLVED: u32 = u32::MAX;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Arms or disarms contention timing process-wide.
pub fn set_contention_timing(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether contention timing is armed (one relaxed load).
#[inline]
pub fn contention_timing_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

struct ClassSlot {
    /// Pointer half of the class name's `&'static str`; 0 = free.
    name_ptr: AtomicUsize,
    name_len: AtomicUsize,
    contended: AtomicU64,
    wait_sum_ns: AtomicU64,
    wait_max_ns: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl ClassSlot {
    const fn new() -> ClassSlot {
        // `[const { ... }; N]` array-of-atomics initialization.
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        ClassSlot {
            name_ptr: AtomicUsize::new(0),
            name_len: AtomicUsize::new(0),
            contended: AtomicU64::new(0),
            wait_sum_ns: AtomicU64::new(0),
            wait_max_ns: AtomicU64::new(0),
            buckets: [ZERO; BUCKETS],
        }
    }

    /// SAFETY of the reconstruction: `name_ptr`/`name_len` are only ever
    /// stored from a `&'static str`, which lives for the process.
    fn name(&self) -> Option<&'static str> {
        let ptr = self.name_ptr.load(Ordering::Acquire);
        if ptr == 0 {
            return None;
        }
        let len = self.name_len.load(Ordering::Acquire);
        // SAFETY: (ptr, len) came from a 'static str (see claim_slot);
        // the Acquire load pairs with the Release store of name_len,
        // which happens after name_ptr is claimed.
        unsafe {
            let bytes = std::slice::from_raw_parts(ptr as *const u8, len);
            Some(std::str::from_utf8_unchecked(bytes))
        }
    }
}

static TABLE: [ClassSlot; MAX_CLASSES] = {
    #[allow(clippy::declare_interior_mutable_const)]
    const SLOT: ClassSlot = ClassSlot::new();
    [SLOT; MAX_CLASSES]
};

/// Finds or claims the table slot for `name`, returning its index or
/// `UNRESOLVED` when the table is full. Comparison is by pointer first
/// (all `named()` call sites pass literals, so one class is usually one
/// pointer), falling back to a byte comparison so two crates naming the
/// same class string still share a slot.
fn resolve_slot(name: &'static str) -> u32 {
    let want_ptr = name.as_ptr() as usize;
    for (i, slot) in TABLE.iter().enumerate() {
        let ptr = slot.name_ptr.load(Ordering::Acquire);
        if ptr == 0 {
            // Try to claim the first free slot.
            if slot
                .name_ptr
                .compare_exchange(0, want_ptr, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                slot.name_len.store(name.len(), Ordering::Release);
                return i as u32;
            }
            // Lost the race; re-check what the winner stored.
        }
        let ptr = slot.name_ptr.load(Ordering::Acquire);
        if ptr == want_ptr {
            return i as u32;
        }
        if let Some(existing) = slot.name() {
            if existing == name {
                return i as u32;
            }
        }
    }
    UNRESOLVED
}

/// A wait-timing in progress: created *after* a failed non-blocking
/// acquire, finished once the blocking acquire returns.
pub(crate) struct WaitTimer {
    start: Instant,
    slot: u32,
}

impl WaitTimer {
    /// Starts timing one contended acquisition of `name`'s class.
    /// `cache` is the lock instance's slot cache. Returns `None` when
    /// timing is disarmed (checked by the caller too, but cheap) or the
    /// class table is full.
    #[inline]
    pub(crate) fn start(name: &'static str, cache: &AtomicU32) -> Option<WaitTimer> {
        if !contention_timing_enabled() {
            return None;
        }
        let mut slot = cache.load(Ordering::Relaxed);
        if slot == UNRESOLVED {
            slot = resolve_slot(name);
            if slot == UNRESOLVED {
                return None; // table full; stay untimed
            }
            cache.store(slot, Ordering::Relaxed);
        }
        Some(WaitTimer { start: Instant::now(), slot })
    }

    /// Records the elapsed wait into the class slot.
    pub(crate) fn finish(self) {
        let ns = self.start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let slot = &TABLE[self.slot as usize];
        let bucket = 63 - ns.max(1).leading_zeros() as usize;
        slot.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        slot.contended.fetch_add(1, Ordering::Relaxed);
        slot.wait_sum_ns.fetch_add(ns, Ordering::Relaxed);
        slot.wait_max_ns.fetch_max(ns, Ordering::Relaxed);
    }
}

/// One class's accumulated wait stats (process lifetime totals).
#[derive(Clone, Debug)]
pub struct LockContention {
    /// Lock-class name as declared at the `named()` call site.
    pub class: &'static str,
    /// Acquisitions that found the lock held and had to block.
    pub contended: u64,
    pub wait_sum_ns: u64,
    pub wait_max_ns: u64,
    /// Log₂ wait-time buckets (`LatencyHistogram` convention).
    pub buckets: [u64; BUCKETS],
}

/// Snapshot of every class that has recorded at least one contended
/// acquisition since the process started.
pub fn contention_snapshot() -> Vec<LockContention> {
    let mut out = Vec::new();
    for slot in TABLE.iter() {
        let Some(class) = slot.name() else { continue };
        let contended = slot.contended.load(Ordering::Relaxed);
        if contended == 0 {
            continue;
        }
        out.push(LockContention {
            class,
            contended,
            wait_sum_ns: slot.wait_sum_ns.load(Ordering::Relaxed),
            wait_max_ns: slot.wait_max_ns.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| slot.buckets[i].load(Ordering::Relaxed)),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    /// The timing switch is process-global and these tests flip it: one
    /// test disarming it mid-way through another's blocked acquisition
    /// loses that test's sample. They take turns.
    static SWITCH: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn own_the_switch() -> std::sync::MutexGuard<'static, ()> {
        SWITCH.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn contended_lock_records_wait_when_armed() {
        let _turn = own_the_switch();
        set_contention_timing(true);
        let m = Arc::new(crate::Mutex::named("lockdep-test.contention", 0u32));
        let m2 = Arc::clone(&m);
        let g = m.lock();
        let t = std::thread::spawn(move || {
            let _g = m2.lock(); // blocks until the holder releases
        });
        std::thread::sleep(Duration::from_millis(20));
        drop(g);
        t.join().unwrap();
        set_contention_timing(false);

        let snap = contention_snapshot();
        let entry = snap
            .iter()
            .find(|c| c.class == "lockdep-test.contention")
            .expect("contended class recorded");
        assert!(entry.contended >= 1);
        assert!(
            entry.wait_sum_ns >= 10_000_000,
            "blocked ~20ms, recorded {}ns",
            entry.wait_sum_ns
        );
        assert_eq!(entry.buckets.iter().sum::<u64>(), entry.contended);
    }

    #[test]
    fn uncontended_and_disarmed_locks_record_nothing() {
        let _turn = own_the_switch();
        // Disarmed: even a contended acquisition stays untimed.
        set_contention_timing(false);
        let m = crate::Mutex::named("lockdep-test.quiet", ());
        drop(m.lock());

        // Armed but uncontended: the try-lock fast path never times.
        set_contention_timing(true);
        drop(m.lock());
        set_contention_timing(false);

        assert!(
            !contention_snapshot().iter().any(|c| c.class == "lockdep-test.quiet"),
            "uncontended lock must not appear in the snapshot"
        );
    }

    #[test]
    fn same_class_name_shares_one_slot() {
        let _turn = own_the_switch();
        set_contention_timing(true);
        let cache_a = AtomicU32::new(UNRESOLVED);
        let cache_b = AtomicU32::new(UNRESOLVED);
        let t1 = WaitTimer::start("lockdep-test.shared-slot", &cache_a).unwrap();
        t1.finish();
        let t2 = WaitTimer::start("lockdep-test.shared-slot", &cache_b).unwrap();
        t2.finish();
        set_contention_timing(false);
        assert_eq!(cache_a.load(Ordering::Relaxed), cache_b.load(Ordering::Relaxed));
        let snap = contention_snapshot();
        let entry = snap.iter().find(|c| c.class == "lockdep-test.shared-slot").unwrap();
        assert_eq!(entry.contended, 2);
    }
}
