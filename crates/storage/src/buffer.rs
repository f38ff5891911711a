//! A single-writer, multi-reader publication buffer.
//!
//! This is the memory-ordering core of every segment: one writer (the
//! append path, serialized by its group's slot lock) copies bytes into the
//! unpublished tail and then *publishes* them by advancing the head with a
//! release store; any number of readers (consumers, the replication
//! batcher, the disk flusher) acquire-load the head and may read everything
//! below it without further synchronization.
//!
//! Why not `RwLock<Vec<u8>>`? Because readers would then contend with the
//! hot append path; the paper's design keeps consumers pulling "without
//! additional copies" while producers append — a classic single-writer
//! publication protocol (cf. *Rust Atomics and Locks*, ch. 3: release /
//! acquire publication).
//!
//! The memory is resident from creation: a segment costs its page faults
//! once, when it is made, never inside an append. A buffer of at least
//! 2 MB on Linux is an anonymous mapping aligned to 2 MB and advised
//! `MADV_HUGEPAGE`, so an 8 MB segment is four faults instead of 2048;
//! anything else (smaller buffers, other targets, a failed `mmap`) is a
//! zeroed heap allocation with the same pre-touch.
//!
//! The ~0.4 ms is for a host with free 2 MB blocks. With
//! `transparent_hugepage/defrag` at the kernel's default, `madvise`, a
//! fault in an advised range that finds none compacts memory
//! synchronously before it falls back to 4 KB pages, and that runs here,
//! on the produce worker holding the group's slot and segments lock. How
//! long a roll then takes on a long-running host with fragmented memory
//! is unmeasured; it may exceed the ~3 ms of the 4 KB pre-touch.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes per base page: pre-touching writes one byte in each.
const PAGE: usize = 4 << 10;

/// Fixed-capacity append-only byte buffer with atomic publication.
pub struct AppendBuffer {
    /// Start of `capacity` zero-initialised, resident bytes owned by this
    /// buffer; freed by `Drop` according to `mapped`.
    ptr: *mut u8,
    capacity: usize,
    /// Length of the anonymous mapping at `ptr`, or 0 when `ptr` came from
    /// a boxed slice of `capacity` bytes.
    mapped: usize,
    /// Bytes published (readable). Only ever advanced by the single
    /// writer with `Release`; readers load with `Acquire`.
    head: AtomicUsize,
}

// SAFETY: the buffer owns its memory outright (nothing else holds `ptr`),
// and concurrent access is governed by the publication protocol:
// - the (unique) writer only mutates bytes at indices >= head, which no
//   reader may touch until the subsequent release-store of `head`;
// - readers only read indices < head after an acquire-load of `head`,
//   which happens-after the writer's copies by release/acquire ordering;
// - published bytes are never mutated again (append-only).
// The *uniqueness* of the writer is a precondition of `append_with`
// (enforced by callers holding their slot/replication lock), documented
// there.
unsafe impl Send for AppendBuffer {}
unsafe impl Sync for AppendBuffer {}

impl AppendBuffer {
    pub fn new(capacity: usize) -> Self {
        #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
        if capacity >= huge::PAGE {
            if let Some(b) = Self::mapped(capacity) {
                return b;
            }
        }
        Self::heap(capacity)
    }

    /// A zeroed heap allocation, every page written once.
    fn heap(capacity: usize) -> Self {
        let ptr = Box::into_raw(vec![0u8; capacity].into_boxed_slice()).cast::<u8>();
        // SAFETY: `ptr` heads `capacity` initialised bytes that nothing
        // else references yet.
        unsafe { touch(ptr, capacity) };
        Self { ptr, capacity, mapped: 0, head: AtomicUsize::new(0) }
    }

    /// An anonymous mapping on 2 MB pages, populated; `None` if the kernel
    /// refuses the mapping.
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    fn mapped(capacity: usize) -> Option<Self> {
        let len = capacity.next_multiple_of(huge::PAGE);
        let ptr = huge::map(len)?;
        Some(Self { ptr, capacity, mapped: len, head: AtomicUsize::new(0) })
    }

    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently published.
    #[inline]
    pub fn len(&self) -> usize {
        self.head.load(Ordering::Acquire)
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remaining unpublished capacity.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.capacity() - self.len()
    }

    /// Appends `len` bytes produced by `fill`, which receives the
    /// zero-initialized destination slice and may both write and patch it
    /// (chunk header assignment happens here). Returns the offset of the
    /// appended region, or `None` if it does not fit.
    ///
    /// # Single-writer requirement
    ///
    /// Callers must guarantee at most one thread executes `append_with` on
    /// this buffer at a time (every call site holds the owning slot's or
    /// virtual segment's mutex). Readers are unrestricted.
    pub fn append_with(&self, len: usize, fill: impl FnOnce(&mut [u8])) -> Option<usize> {
        let offset = self.head.load(Ordering::Relaxed);
        if offset + len > self.capacity() {
            return None;
        }
        if len == 0 {
            return Some(offset);
        }
        // SAFETY: [offset, offset+len) lies inside the allocation and is
        // unpublished; per the single-writer precondition no other thread
        // writes it, and no reader reads it until the release-store below.
        let dst = unsafe { std::slice::from_raw_parts_mut(self.ptr.add(offset), len) };
        fill(dst);
        self.head.store(offset + len, Ordering::Release);
        Some(offset)
    }

    /// Convenience: append a byte slice.
    pub fn append(&self, bytes: &[u8]) -> Option<usize> {
        self.append_with(bytes.len(), |dst| dst.copy_from_slice(bytes))
    }

    /// Reads the published range `[offset, offset + len)`.
    ///
    /// Panics if the range is not fully published — that is a logic error
    /// (readers must derive ranges from `len()` or a durable head that is
    /// `<= len()`).
    pub fn read(&self, offset: usize, len: usize) -> &[u8] {
        let published = self.len();
        assert!(
            offset + len <= published,
            "read [{offset}, {}) beyond published head {published}",
            offset + len
        );
        if len == 0 {
            return &[];
        }
        // SAFETY: the range is fully below the acquire-loaded head, so all
        // writes to it happen-before this read and it will never be
        // mutated again. The slice borrows `self`, so no view outlives the
        // memory: a fetch or a pack copies out of the owning `Arc<Segment>`.
        unsafe { std::slice::from_raw_parts(self.ptr.add(offset), len) }
    }

    /// The whole published prefix.
    pub fn published(&self) -> &[u8] {
        let len = self.len();
        self.read(0, len)
    }
}

impl Drop for AppendBuffer {
    fn drop(&mut self) {
        #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
        if self.mapped > 0 {
            // SAFETY: `ptr`/`mapped` is the mapping `huge::map` returned,
            // unmapped only here, and `&mut self` proves no view is left.
            unsafe { huge::unmap(self.ptr, self.mapped) };
            return;
        }
        let slice = std::ptr::slice_from_raw_parts_mut(self.ptr, self.capacity);
        // SAFETY: `ptr`/`capacity` came from `Box::into_raw` in `heap`
        // and is reboxed exactly once.
        drop(unsafe { Box::from_raw(slice) });
    }
}

/// Writes one zero byte per base page of `[ptr, ptr + len)`, so every page
/// is faulted in now rather than by the append that first reaches it.
///
/// # Safety
///
/// `[ptr, ptr + len)` must be writable, zero and not yet shared.
unsafe fn touch(ptr: *mut u8, len: usize) {
    for off in (0..len).step_by(PAGE) {
        // SAFETY: `off < len`, inside the range the caller vouches for; a
        // volatile write is not elided although the byte is already 0.
        unsafe { ptr.add(off).write_volatile(0) };
    }
}

/// Anonymous mappings on 2 MB pages. The three calls are declared here
/// rather than through a crate: std links the C library already.
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod huge {
    use std::ffi::{c_int, c_void};

    /// Bytes per huge page: mapping length and alignment.
    pub const PAGE: usize = 2 << 20;

    // Values shared by the x86_64 and aarch64 Linux ABIs.
    const PROT_READ: c_int = 0x1;
    const PROT_WRITE: c_int = 0x2;
    const MAP_PRIVATE: c_int = 0x02;
    const MAP_ANONYMOUS: c_int = 0x20;
    const MADV_HUGEPAGE: c_int = 14;
    const MADV_POPULATE_WRITE: c_int = 23;
    const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

    extern "C" {
        fn mmap(addr: *mut c_void, len: usize, prot: c_int, flags: c_int, fd: c_int, off: i64)
            -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }

    /// Maps `len` (a multiple of [`PAGE`]) zeroed bytes at a 2 MB-aligned
    /// address, advises huge pages and faults every page in.
    pub fn map(len: usize) -> Option<*mut u8> {
        let span = len.checked_add(PAGE)?;
        // SAFETY: a fresh private anonymous mapping aliases nothing; the
        // kernel zero-fills it.
        let raw = unsafe {
            mmap(std::ptr::null_mut(), span, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)
        };
        if raw == MAP_FAILED {
            return None;
        }
        // Map one huge page extra, then cut the ragged ends so that what
        // is left starts on a 2 MB boundary.
        let lead = (raw as usize).next_multiple_of(PAGE) - raw as usize;
        let trail = PAGE - lead;
        let ptr = raw.cast::<u8>().wrapping_add(lead);
        // SAFETY: both ranges lie inside the `span` bytes just mapped and
        // outside `[ptr, ptr + len)`; nothing refers to them. `munmap` of
        // whole base pages cannot fail here, and a failure would only
        // leave the slack mapped.
        unsafe {
            if lead > 0 {
                munmap(raw, lead);
            }
            if trail > 0 {
                munmap(ptr.add(len).cast(), trail);
            }
        }
        // SAFETY: `[ptr, ptr + len)` is the mapping kept above, zero and
        // not yet shared. Advice is only advice: without transparent huge
        // pages the range stays on 4 KB pages and is populated all the same.
        unsafe {
            madvise(ptr.cast(), len, MADV_HUGEPAGE);
            if madvise(ptr.cast(), len, MADV_POPULATE_WRITE) != 0 {
                super::touch(ptr, len);
            }
        }
        Some(ptr)
    }

    /// Unmaps what [`map`] returned.
    ///
    /// # Safety
    ///
    /// `ptr`/`len` is a live result of `map`, with no reference into it.
    pub unsafe fn unmap(ptr: *mut u8, len: usize) {
        // SAFETY: per the contract above.
        unsafe { munmap(ptr.cast(), len) };
    }
}

impl std::fmt::Debug for AppendBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppendBuffer")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn append_and_read() {
        let b = AppendBuffer::new(64);
        assert_eq!(b.append(b"hello"), Some(0));
        assert_eq!(b.append(b"world"), Some(5));
        assert_eq!(b.len(), 10);
        assert_eq!(b.read(0, 5), b"hello");
        assert_eq!(b.read(5, 5), b"world");
        assert_eq!(b.published(), b"helloworld");
    }

    #[test]
    fn rejects_overflow_without_partial_write() {
        let b = AppendBuffer::new(8);
        assert_eq!(b.append(b"12345678"), Some(0));
        assert_eq!(b.append(b"x"), None);
        assert_eq!(b.len(), 8);
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn append_with_allows_patching() {
        let b = AppendBuffer::new(32);
        b.append_with(8, |dst| {
            dst.copy_from_slice(b"AAAABBBB");
            dst[0] = b'Z'; // patch before publication
        })
        .unwrap();
        assert_eq!(b.read(0, 8), b"ZAAABBBB");
    }

    #[test]
    #[should_panic(expected = "beyond published head")]
    fn reading_unpublished_panics() {
        let b = AppendBuffer::new(16);
        b.append(b"abc").unwrap();
        let _ = b.read(0, 4);
    }

    /// One writer appends 1024 records, each of `capacity / 1024` bytes
    /// all equal to its sequence number; readers continually validate
    /// that every published record is internally consistent (no torn
    /// reads).
    fn check_concurrent_readers(b: AppendBuffer) {
        let b = Arc::new(b);
        let rec_len = b.capacity() / 1024;
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let readers: Vec<_> = (0..4)
            .map(|_| {
                let b = Arc::clone(&b);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let len = b.len();
                        let data = b.read(0, len);
                        for (i, rec) in data.chunks_exact(rec_len).enumerate() {
                            let expect = (i % 251) as u8;
                            assert!(
                                rec.iter().all(|&x| x == expect),
                                "torn read at record {i}"
                            );
                        }
                    }
                })
            })
            .collect();

        for i in 0..1024 {
            let v = (i % 251) as u8;
            b.append(&vec![v; rec_len]).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(b.len(), b.capacity());
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn concurrent_readers_see_complete_appends() {
        check_concurrent_readers(AppendBuffer::new(4 * 1024));
        check_concurrent_readers(AppendBuffer::new(SEGMENT));
        check_concurrent_readers(AppendBuffer::heap(SEGMENT));
    }

    /// The size of a broker's segment.
    const SEGMENT: usize = 8 << 20;

    /// Both constructors, for cases every buffer must pass.
    fn segments() -> Vec<(&'static str, AppendBuffer)> {
        let mut v = vec![("heap", AppendBuffer::heap(SEGMENT))];
        #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
        v.push(("mapped", AppendBuffer::mapped(SEGMENT).expect("mmap of 8 MB")));
        v
    }

    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    #[test]
    fn segment_buffers_are_mapped_on_2mb_boundaries() {
        let b = AppendBuffer::new(SEGMENT);
        assert!(b.mapped >= SEGMENT, "an 8 MB buffer is mapped");
        assert_eq!(b.ptr as usize % huge::PAGE, 0, "base {:p} is 2 MB-aligned", b.ptr);
        // A capacity off the page size still gets whole huge pages.
        let odd = AppendBuffer::new(huge::PAGE + 1);
        assert_eq!(odd.mapped, 2 * huge::PAGE);
        assert_eq!(odd.capacity(), huge::PAGE + 1);
        // Below one huge page the heap serves.
        assert_eq!(AppendBuffer::new(huge::PAGE - 1).mapped, 0);
    }

    #[test]
    fn every_byte_reads_zero_before_the_first_append() {
        for (kind, b) in segments() {
            let cap = b.capacity();
            b.append_with(cap, |dst| {
                assert!(dst.iter().all(|&x| x == 0), "{kind}: nonzero byte before any append");
            })
            .unwrap();
        }
    }

    #[test]
    fn appends_straddling_a_2mb_boundary_read_back_intact() {
        const HUGE: usize = 2 << 20;
        for (kind, b) in segments() {
            b.append(&vec![0xAA; HUGE - 3]).unwrap();
            let rec: Vec<u8> = (0..=255).collect();
            let first = b.append(&rec).unwrap();
            // Up to the next boundary, then one record across it.
            b.append(&vec![0xBB; 2 * HUGE - first - 256 - 100]).unwrap();
            let second = b.append(&rec).unwrap();
            assert!(first < HUGE && first + 256 > HUGE, "{kind}: first record straddles");
            assert!(second < 2 * HUGE && second + 256 > 2 * HUGE, "{kind}: second straddles");
            assert_eq!(b.read(first, 256), &rec[..], "{kind}");
            assert_eq!(b.read(second, 256), &rec[..], "{kind}");
            assert!(b.read(0, HUGE - 3).iter().all(|&x| x == 0xAA), "{kind}");
        }
    }

    /// Resident memory of this process, in bytes.
    #[cfg(target_os = "linux")]
    fn vm_rss() -> usize {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
        let kb: usize = line.split_whitespace().nth(1).unwrap().parse().unwrap();
        kb << 10
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn dropping_segment_buffers_returns_their_memory() {
        // 256 x 8 MB is 2 GB resident if `Drop` leaked; other tests of this
        // binary run alongside, so the bound has room for them, and the
        // loop stops at the first breach rather than holding on.
        let start = vm_rss();
        for (i, make) in [AppendBuffer::new, AppendBuffer::heap].into_iter().cycle().take(256).enumerate() {
            let b = make(SEGMENT);
            b.append(&[1; 4096]).unwrap();
            drop(b);
            let grown = vm_rss().saturating_sub(start);
            assert!(grown < 256 << 20, "RSS grew {} MB after {} buffers", grown >> 20, i + 1);
        }
    }

    #[test]
    fn zero_capacity_buffer() {
        let b = AppendBuffer::new(0);
        assert_eq!(b.append(b""), Some(0));
        assert_eq!(b.append(b"x"), None);
        assert!(b.is_empty());
    }
}
