//! CRC32C (Castagnoli polynomial, reflected).
//!
//! Every integrity-bearing structure in the system — record entry headers,
//! chunk headers, virtual segment headers, on-disk segment files — uses this
//! checksum, mirroring RAMCloud's use of CRC32C for log entries.
//!
//! Two kernels compute the same function. [`Crc32c::update`] asks the CPU,
//! on every call, whether it has SSE4.2 (`is_x86_feature_detected!` caches
//! the answer): if it does, the `crc32` instruction takes eight bytes at a
//! time, as three independent chains over three adjacent blocks of 2048,
//! 256 and then 64 bytes, each block's result moved past the next by a
//! `crc·x^(8B) mod P` table (Gopal et al., "Fast CRC Computation for iSCSI
//! Polynomial Using CRC32 Instruction", Intel, 2011); the last bytes (fewer
//! than 192, a whole record entry) run one chain. On any other CPU or
//! architecture a classic *slice-by-8* table walk runs. Every table is
//! generated at compile time by a `const fn`; the slice-by-8 tables are also
//! the reference the tests hold the instruction to. On the 2-core benchmark
//! host `wire.chunk_verify_ns_per_kb` (parse + verify of one workload-sized
//! chunk) reads 150–210 ns/KB with 1 KB chunks and 55–57 with 16 KB ones,
//! against 205–220 and 140–150 on one chain and 670–860 on the tables.

/// Reflected CRC32C polynomial.
const POLY: u32 = 0x82f6_3b78;

const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            j += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = make_tables();

/// The portable kernel: the running (inverted) CRC after `data`, eight
/// bytes per slice-by-8 step.
fn tables_update(mut crc: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        // Standard slice-by-8: fold 4 bytes into the running CRC, then
        // look up all 8 bytes across the 8 tables.
        let low = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]) ^ crc;
        let high = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = TABLES[7][(low & 0xff) as usize]
            ^ TABLES[6][((low >> 8) & 0xff) as usize]
            ^ TABLES[5][((low >> 16) & 0xff) as usize]
            ^ TABLES[4][((low >> 24) & 0xff) as usize]
            ^ TABLES[3][(high & 0xff) as usize]
            ^ TABLES[2][((high >> 8) & 0xff) as usize]
            ^ TABLES[1][((high >> 16) & 0xff) as usize]
            ^ TABLES[0][((high >> 24) & 0xff) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize];
    }
    crc
}

/// The SSE4.2 kernel: the same function of the same state, computed by the
/// `crc32` instruction, whose polynomial is CRC32C's.
#[cfg(target_arch = "x86_64")]
mod sse42 {
    use std::arch::x86_64::{_mm_crc32_u32, _mm_crc32_u64, _mm_crc32_u8};

    /// Per three-chain level, longest block first, `crc·x^(8B) mod P`: a
    /// state moved past `B` zero bytes, one 256-entry table per state byte.
    static SHIFTS: [[[u32; 256]; 4]; 3] = [make_shift(2048), make_shift(256), make_shift(64)];

    const fn make_shift(bytes: usize) -> [[u32; 256]; 4] {
        let t0 = &super::TABLES[0];
        let mut shift = [[0u32; 256]; 4];
        let mut bit = 0;
        while bit < 32 {
            // The state with one bit set, fed `bytes` zero bytes.
            let mut crc = 1u32 << bit;
            let mut n = 0;
            while n < bytes {
                crc = (crc >> 8) ^ t0[(crc & 0xff) as usize];
                n += 1;
            }
            shift[bit / 8][1 << (bit % 8)] = crc;
            bit += 1;
        }
        // The shift is linear: each entry is the XOR of its bits' entries.
        let mut k = 0;
        while k < 4 {
            let mut i = 1usize;
            while i < 256 {
                let low = i & i.wrapping_neg();
                shift[k][i] = shift[k][i ^ low] ^ shift[k][low];
                i += 1;
            }
            k += 1;
        }
        shift
    }

    fn shift(table: &[[u32; 256]; 4], crc: u32) -> u32 {
        table[0][(crc & 0xff) as usize]
            ^ table[1][((crc >> 8) & 0xff) as usize]
            ^ table[2][((crc >> 16) & 0xff) as usize]
            ^ table[3][(crc >> 24) as usize]
    }

    fn words(block: &[u8]) -> impl Iterator<Item = u64> + '_ {
        block
            .as_chunks::<8>()
            .0
            .iter()
            .map(|w| u64::from_le_bytes(*w))
    }

    /// While `3·B` bytes are left, three `crc32` chains over three adjacent
    /// blocks of `B` bytes, folded by `table` (the shift past `B` bytes).
    #[inline]
    #[target_feature(enable = "sse4.2")]
    fn blocks<'a, const B: usize>(
        mut wide: u64,
        mut data: &'a [u8],
        table: &[[u32; 256]; 4],
    ) -> (u64, &'a [u8]) {
        while data.len() >= 3 * B {
            let (a, rest) = data.split_at(B);
            let (b, rest) = rest.split_at(B);
            let (c, rest) = rest.split_at(B);
            let (mut y, mut z) = (0, 0);
            for ((a, b), c) in words(a).zip(words(b)).zip(words(c)) {
                wide = _mm_crc32_u64(wide, a);
                y = _mm_crc32_u64(y, b);
                z = _mm_crc32_u64(z, c);
            }
            // The instruction leaves the upper half of a 64-bit CRC zero.
            let ab = shift(table, wide as u32) ^ y as u32;
            wide = u64::from(shift(table, ab) ^ z as u32);
            data = rest;
        }
        (wide, data)
    }

    /// Three-chain blocks of 2048, then 256, then 64 bytes; then one chain
    /// over the last bytes (fewer than 192): one `crc32` per 8 bytes, then
    /// one per 4-byte word and per byte (so a record's CRC is one chain,
    /// `Crc32c::update_u32` one instruction).
    #[target_feature(enable = "sse4.2")]
    pub(super) fn update(crc: u32, data: &[u8]) -> u32 {
        let (wide, data) = blocks::<2048>(u64::from(crc), data, &SHIFTS[0]);
        let (wide, data) = blocks::<256>(wide, data, &SHIFTS[1]);
        let (mut wide, data) = blocks::<64>(wide, data, &SHIFTS[2]);
        for w in words(data) {
            wide = _mm_crc32_u64(wide, w);
        }
        let mut crc = wide as u32;
        let mut tail = data.as_chunks::<8>().1;
        if let [a, b, c, d, rest @ ..] = tail {
            crc = _mm_crc32_u32(crc, u32::from_le_bytes([*a, *b, *c, *d]));
            tail = rest;
        }
        for &b in tail {
            crc = _mm_crc32_u8(crc, b);
        }
        crc
    }
}

/// Computes the CRC32C of `data` in one call.
#[inline]
pub fn crc32c(data: &[u8]) -> u32 {
    let mut c = Crc32c::new();
    c.update(data);
    c.finish()
}

/// Incremental CRC32C state.
///
/// ```
/// use kera_common::checksum::{crc32c, Crc32c};
/// let mut c = Crc32c::new();
/// c.update(b"hello ");
/// c.update(b"world");
/// assert_eq!(c.finish(), crc32c(b"hello world"));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Crc32c {
    state: u32,
}

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32c {
    /// Fresh state (equivalent to checksumming the empty string so far).
    #[inline]
    pub fn new() -> Self {
        Self { state: !0 }
    }

    /// Resumes from a previously `finish()`ed value.
    #[inline]
    pub fn resume(crc: u32) -> Self {
        Self { state: !crc }
    }

    /// Feeds `data` into the checksum: on the SSE4.2 instruction where this
    /// CPU has it, on the tables everywhere else.
    #[inline]
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: `sse42::update` only needs SSE4.2, and this CPU was
            // just found to have it.
            self.state = unsafe { sse42::update(self.state, data) };
            return;
        }
        self.state = tables_update(self.state, data);
    }

    /// Feeds a little-endian `u32` (used for checksum-of-checksums on
    /// virtual segments): one `crc32` instruction on the SSE4.2 kernel.
    #[inline]
    pub fn update_u32(&mut self, v: u32) {
        self.update(&v.to_le_bytes());
    }

    /// Returns the final checksum value.
    #[inline]
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One-shot CRC32C on the table kernel, whatever this CPU has.
    fn tables(data: &[u8]) -> u32 {
        !tables_update(!0, data)
    }

    /// Whether `Crc32c` runs the SSE4.2 kernel here. Where it does not, a
    /// case that compares the kernels has one kernel to run and says so.
    fn hardware() -> bool {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            return true;
        }
        eprintln!("note: no SSE4.2 on this CPU; Crc32c runs the tables, nothing to compare");
        false
    }

    /// Known-answer vectors from RFC 3720 (iSCSI) appendix B.4, and the
    /// canonical check input, on both kernels.
    #[test]
    fn known_answers_on_both_kernels() {
        let ascending: Vec<u8> = (0u8..32).collect();
        let descending: Vec<u8> = (0u8..32).rev().collect();
        let vectors: [(&[u8], u32); 6] = [
            (&[0u8; 32], 0x8a91_36aa),
            (&[0xffu8; 32], 0x62a8_ab43),
            (&ascending, 0x46dd_794e),
            (&descending, 0x113f_db5c),
            (b"123456789", 0xe306_9283),
            (b"", 0),
        ];
        for (data, expect) in vectors {
            assert_eq!(tables(data), expect, "tables, {data:02x?}");
            assert_eq!(crc32c(data), expect, "dispatch, {data:02x?}");
        }
    }

    #[test]
    fn hardware_equals_tables_at_every_length_and_alignment() {
        if !hardware() {
            return;
        }
        // Every length up to 2 KB; around three blocks of each three-chain
        // level (2048, 256, 64), where a level starts or leaves bytes to the
        // next; a 16 KB chunk's payload; and lengths that run many blocks.
        let mut lens: Vec<usize> = (0..=2048).collect();
        for block in [2048, 256, 64] {
            lens.extend([
                3 * block - 8,
                3 * block - 1,
                3 * block,
                3 * block + 1,
                3 * block + 8,
            ]);
        }
        lens.extend([16336, 20000, 65536]);
        let buf: Vec<u8> = (0..65536 + 8u32)
            .map(|i| (i.wrapping_mul(0x9e37_79b1) >> 13) as u8)
            .collect();
        for start in 0..8 {
            for &len in &lens {
                let data = &buf[start..start + len];
                assert_eq!(crc32c(data), tables(data), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn incremental_equals_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0..257u16).map(|x| (x * 31 % 251) as u8).collect();
        let expect = crc32c(&data);
        for split in 0..=data.len() {
            let mut c = Crc32c::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), expect, "split at {split}");
        }
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let mut data = vec![0xa5u8; 64];
        let base = crc32c(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32c(&data), base, "flip {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }

    proptest! {
        /// Fed in pieces — one state throughout, or `finish` and `resume`
        /// at every cut — either kernel ends where the one-shot tables do;
        /// up to 20 KB, so cuts fall inside the three-chain blocks too.
        #[test]
        fn pieces_and_resumes_equal_the_one_shot(
            data in proptest::collection::vec(any::<u8>(), 0..20_000),
            cuts in proptest::collection::vec(any::<usize>(), 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
            cuts.push(data.len());
            cuts.sort_unstable();
            let (mut whole, mut resumed, mut table_state) = (Crc32c::new(), Crc32c::new(), !0);
            let mut at = 0;
            for cut in cuts {
                let piece = &data[at..cut];
                whole.update(piece);
                resumed = Crc32c::resume(resumed.finish());
                resumed.update(piece);
                table_state = tables_update(table_state, piece);
                at = cut;
            }
            let expect = tables(&data);
            prop_assert_eq!(whole.finish(), expect);
            prop_assert_eq!(resumed.finish(), expect);
            prop_assert_eq!(!table_state, expect);
        }

        /// `update_u32` is its four little-endian bytes: one `crc32` on the
        /// SSE4.2 kernel, four table steps on the other.
        #[test]
        fn update_u32_is_its_little_endian_bytes(crc in any::<u32>(), v in any::<u32>()) {
            let mut c = Crc32c::resume(crc);
            c.update_u32(v);
            prop_assert_eq!(c.finish(), !tables_update(!crc, &v.to_le_bytes()));
        }
    }
}
