//! Address-space newtypes and page contents.
//!
//! Everything is 4 KiB-page based, matching the paper (a single NVMe
//! command reads a 4 KiB block without a PRP list, §V).

use std::fmt;

/// Page size in bytes (4 KiB, the paper's only first-class page size).
pub const PAGE_SIZE: usize = 4096;
/// log2(PAGE_SIZE).
pub const PAGE_SHIFT: u32 = 12;

/// A virtual address within a simulated process address space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(pub u64);

impl VirtAddr {
    /// The virtual page containing this address.
    pub const fn vpn(self) -> Vpn {
        Vpn(self.0 >> PAGE_SHIFT)
    }

    /// Byte offset within the page.
    pub const fn page_offset(self) -> usize {
        (self.0 & (PAGE_SIZE as u64 - 1)) as usize
    }

    /// Raw address value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "va:{:#x}", self.0)
    }
}

/// A virtual page number (address >> 12). 36 significant bits are used
/// (48-bit canonical virtual addresses).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Vpn(pub u64);

impl Vpn {
    /// First byte of the page.
    pub const fn base(self) -> VirtAddr {
        VirtAddr(self.0 << PAGE_SHIFT)
    }

    /// The page `n` pages after this one.
    pub const fn add(self, n: u64) -> Vpn {
        Vpn(self.0 + n)
    }

    /// x86-64 page-table indices for this VPN: `(pgd, pud, pmd, pt)`,
    /// 9 bits each.
    pub const fn indices(self) -> (usize, usize, usize, usize) {
        let v = self.0;
        (
            ((v >> 27) & 0x1FF) as usize,
            ((v >> 18) & 0x1FF) as usize,
            ((v >> 9) & 0x1FF) as usize,
            (v & 0x1FF) as usize,
        )
    }
}

impl fmt::Debug for Vpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vpn:{:#x}", self.0)
    }
}

/// A physical (simulated-DRAM) address. Used chiefly as the PMSHR key: the
/// physical address of a PTE uniquely identifies a virtual page (§III-C).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

impl fmt::Debug for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pa:{:#x}", self.0)
    }
}

/// A physical frame number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pfn(pub u64);

impl Pfn {
    /// First byte of the frame.
    pub const fn base(self) -> PhysAddr {
        PhysAddr(self.0 << PAGE_SHIFT)
    }
}

impl fmt::Debug for Pfn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pfn:{:#x}", self.0)
    }
}

/// Socket ID selecting the home SMU for a page miss (3 bits, up to 8
/// sockets — §III-B).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct SocketId(pub u8);

/// Device ID selecting a block device / NVMe namespace within a socket
/// (3 bits, up to 8 devices per socket — §III-B).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct DeviceId(pub u8);

/// A logical block address on a block device (41 bits, up to 1 PB of 512-B
/// blocks per the paper's layout; we address 4 KiB blocks directly).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Lba(pub u64);

impl Lba {
    /// Maximum encodable LBA (41 bits).
    pub const MAX: Lba = Lba((1 << 41) - 1);

    /// The reserved constant marking a never-written anonymous page
    /// (paper §V: "reserve a pre-defined constant for the LBA field to
    /// mark the first access and make SMU bypass I/O processing").
    /// An SMU meeting this LBA delivers a zeroed page without any device
    /// I/O.
    pub const ANON_ZERO: Lba = Lba::MAX;
}

impl fmt::Debug for Lba {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lba:{:#x}", self.0)
    }
}

/// The unique storage-block triple an LBA-augmented PTE points at:
/// `<SID, device ID, LBA>` identifies one block in the whole system.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct BlockRef {
    /// Home socket (selects the SMU that handles the miss).
    pub socket: SocketId,
    /// Device within the socket.
    pub device: DeviceId,
    /// Block on the device.
    pub lba: Lba,
}

impl BlockRef {
    /// Creates a block reference.
    ///
    /// # Panics
    ///
    /// Panics if the socket or device exceed 3 bits, or the LBA exceeds
    /// 41 bits (they would not fit the PTE payload).
    pub fn new(socket: SocketId, device: DeviceId, lba: Lba) -> Self {
        assert!(socket.0 < 8, "socket id must fit 3 bits");
        assert!(device.0 < 8, "device id must fit 3 bits");
        assert!(lba.0 <= Lba::MAX.0, "lba must fit 41 bits");
        BlockRef { socket, device, lba }
    }
}

/// Contents of a 4 KiB page or storage block.
///
/// Real byte buffers are only materialized when a workload actually writes
/// distinct data; read-only synthetic datasets (e.g. FIO's pre-generated
/// file) use the O(1) [`PageData::Pattern`] representation, whose bytes are
/// a pure function of the seed. This keeps multi-GiB-ratio simulations
/// cheap while still letting integration tests verify every byte.
#[derive(Clone, PartialEq, Eq)]
pub enum PageData {
    /// All zeroes (fresh anonymous page / unwritten block).
    Zero,
    /// Deterministic pseudo-random contents generated from a seed.
    Pattern(u64),
    /// Explicit bytes.
    Bytes(Box<[u8; PAGE_SIZE]>),
}

impl Default for PageData {
    fn default() -> Self {
        PageData::Zero
    }
}

impl fmt::Debug for PageData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageData::Zero => write!(f, "PageData::Zero"),
            PageData::Pattern(s) => write!(f, "PageData::Pattern({s:#x})"),
            PageData::Bytes(_) => write!(f, "PageData::Bytes(..)"),
        }
    }
}

/// Lane `lane` of a pattern page: the page's bytes are the little-endian
/// bytes of SplitMix64 lanes 0, 1, … in order, one lane per 8 bytes.
fn pattern_lane(seed: u64, lane: usize) -> [u8; 8] {
    let mut z = seed ^ (lane as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z.to_le_bytes()
}

/// Fills `buf` with the bytes of pattern page `seed` from `offset` on:
/// an unaligned head from its first lane, whole lanes, then the tail from
/// one more lane.
fn read_pattern(seed: u64, offset: usize, buf: &mut [u8]) {
    let skip = offset % 8;
    let (head, body) = buf.split_at_mut(((8 - skip) % 8).min(buf.len()));
    if !head.is_empty() {
        head.copy_from_slice(&pattern_lane(seed, offset / 8)[skip..skip + head.len()]);
    }
    let first = (offset + head.len()) / 8;
    let whole = body.len() / 8;
    let mut lanes = body.chunks_exact_mut(8);
    for (i, chunk) in (&mut lanes).enumerate() {
        chunk.copy_from_slice(&pattern_lane(seed, first + i));
    }
    let tail = lanes.into_remainder();
    if !tail.is_empty() {
        tail.copy_from_slice(&pattern_lane(seed, first + whole)[..tail.len()]);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Folds `bytes` into the FNV-1a state `h`.
const fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    let mut i = 0;
    while i < bytes.len() {
        h ^= bytes[i] as u64;
        h = h.wrapping_mul(FNV_PRIME);
        i += 1;
    }
    h
}

/// [`PageData::checksum`] of an all-zero page.
const ZERO_CHECKSUM: u64 = fnv1a(FNV_OFFSET, &[0; PAGE_SIZE]);

impl PageData {
    /// Reads `buf.len()` bytes starting at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset + buf.len()` exceeds [`PAGE_SIZE`].
    pub fn read(&self, offset: usize, buf: &mut [u8]) {
        assert!(offset + buf.len() <= PAGE_SIZE, "read beyond page");
        match self {
            PageData::Zero => buf.fill(0),
            PageData::Pattern(seed) => read_pattern(*seed, offset, buf),
            PageData::Bytes(bytes) => buf.copy_from_slice(&bytes[offset..offset + buf.len()]),
        }
    }

    /// Writes `data` at `offset`, materializing a byte buffer if needed.
    ///
    /// # Panics
    ///
    /// Panics if `offset + data.len()` exceeds [`PAGE_SIZE`].
    pub fn write(&mut self, offset: usize, data: &[u8]) {
        assert!(offset + data.len() <= PAGE_SIZE, "write beyond page");
        let bytes = self.materialize();
        bytes[offset..offset + data.len()].copy_from_slice(data);
    }

    /// Converts to an explicit byte buffer and returns it mutably.
    pub fn materialize(&mut self) -> &mut [u8; PAGE_SIZE] {
        if !matches!(self, PageData::Bytes(_)) {
            let mut bytes = Box::new([0u8; PAGE_SIZE]);
            self.read(0, &mut bytes[..]);
            *self = PageData::Bytes(bytes);
        }
        match self {
            PageData::Bytes(b) => b,
            _ => unreachable!("just materialized"),
        }
    }

    /// A cheap 64-bit checksum of the page contents: FNV-1a over its
    /// bytes, so equal contents hash equally whatever the representation.
    /// `Zero` is a compile-time constant and `Pattern` is hashed lane by
    /// lane without materializing the page.
    pub fn checksum(&self) -> u64 {
        match self {
            PageData::Zero => ZERO_CHECKSUM,
            PageData::Pattern(seed) => {
                (0..PAGE_SIZE / 8).fold(FNV_OFFSET, |h, lane| fnv1a(h, &pattern_lane(*seed, lane)))
            }
            PageData::Bytes(bytes) => fnv1a(FNV_OFFSET, &bytes[..]),
        }
    }
}

/// What one read of a page saw: the window `offset..offset + len`,
/// captured when the read ran.
///
/// `Zero` and `Pattern` pages are values that never change in place, so
/// their snapshot records only the representation and the window: O(1),
/// no bytes copied. An explicit-bytes page may be rewritten before the
/// reader looks, so its window is copied into the snapshot's buffer,
/// which the next [`ReadSnapshot::capture`] reuses. The bytes come out
/// only through [`ReadSnapshot::copy_to`], and always equal what
/// [`PageData::read`] returned for the same window at capture time.
#[derive(Clone, Debug, Default)]
pub struct ReadSnapshot {
    seen: Seen,
    offset: usize,
    len: usize,
    /// The copied window when `seen` is [`Seen::Bytes`]; otherwise spare
    /// capacity for the next capture.
    bytes: Vec<u8>,
}

/// The representation a [`ReadSnapshot`] saw.
#[derive(Clone, Copy, Debug, Default)]
enum Seen {
    #[default]
    Zero,
    Pattern(u64),
    Bytes,
}

impl ReadSnapshot {
    /// A snapshot of `len` bytes of `page` at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset + len` exceeds [`PAGE_SIZE`].
    pub fn of(page: &PageData, offset: usize, len: usize) -> Self {
        let mut snap = ReadSnapshot::default();
        snap.capture(page, offset, len);
        snap
    }

    /// Re-captures this snapshot as a read of `len` bytes of `page` at
    /// `offset`, reusing its buffer.
    ///
    /// # Panics
    ///
    /// Panics if `offset + len` exceeds [`PAGE_SIZE`].
    pub fn capture(&mut self, page: &PageData, offset: usize, len: usize) {
        assert!(offset + len <= PAGE_SIZE, "read beyond page");
        self.offset = offset;
        self.len = len;
        self.bytes.clear();
        self.seen = match page {
            PageData::Zero => Seen::Zero,
            PageData::Pattern(seed) => Seen::Pattern(*seed),
            PageData::Bytes(bytes) => {
                self.bytes.extend_from_slice(&bytes[offset..offset + len]);
                Seen::Bytes
            }
        };
    }

    /// Copies the first `min(self.len(), buf.len())` bytes of the window
    /// into `buf` and returns that count; a short read shows as a count
    /// below `buf.len()`.
    pub fn copy_to(&self, buf: &mut [u8]) -> usize {
        let n = self.len.min(buf.len());
        let out = &mut buf[..n];
        match self.seen {
            Seen::Zero => out.fill(0),
            Seen::Pattern(seed) => read_pattern(seed, self.offset, out),
            Seen::Bytes => out.copy_from_slice(&self.bytes[..n]),
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vpn_and_offset_split() {
        let a = VirtAddr(0x1234_5678);
        assert_eq!(a.vpn(), Vpn(0x12345));
        assert_eq!(a.page_offset(), 0x678);
        assert_eq!(a.vpn().base(), VirtAddr(0x1234_5000));
    }

    #[test]
    fn vpn_indices_roundtrip() {
        let vpn = Vpn(0o123_456_701_234); // arbitrary 36-bit value
        let (pgd, pud, pmd, pt) = vpn.indices();
        let rebuilt =
            ((pgd as u64) << 27) | ((pud as u64) << 18) | ((pmd as u64) << 9) | pt as u64;
        assert_eq!(rebuilt, vpn.0);
        assert!(pgd < 512 && pud < 512 && pmd < 512 && pt < 512);
    }

    #[test]
    fn pfn_base() {
        assert_eq!(Pfn(3).base(), PhysAddr(3 * 4096));
    }

    #[test]
    fn block_ref_validates_fields() {
        let b = BlockRef::new(SocketId(7), DeviceId(7), Lba::MAX);
        assert_eq!(b.socket.0, 7);
    }

    #[test]
    #[should_panic(expected = "3 bits")]
    fn block_ref_rejects_wide_socket() {
        let _ = BlockRef::new(SocketId(8), DeviceId(0), Lba(0));
    }

    #[test]
    #[should_panic(expected = "41 bits")]
    fn block_ref_rejects_wide_lba() {
        let _ = BlockRef::new(SocketId(0), DeviceId(0), Lba(1 << 41));
    }

    #[test]
    fn zero_page_reads_zero() {
        let p = PageData::Zero;
        let mut buf = [0xFFu8; 16];
        p.read(100, &mut buf);
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn pattern_is_deterministic_and_nonzero() {
        let p = PageData::Pattern(42);
        let mut a = [0u8; 32];
        let mut b = [0u8; 32];
        p.read(64, &mut a);
        p.read(64, &mut b);
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x != 0));
        // Different seeds give different bytes.
        let q = PageData::Pattern(43);
        q.read(64, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn unaligned_pattern_reads_are_slices_of_the_page() {
        let mut bytes = PageData::Pattern(0x5EED);
        bytes.write(3, b"explicit");
        for page in [PageData::Zero, PageData::Pattern(0x5EED), bytes] {
            let mut whole = [0u8; PAGE_SIZE];
            page.read(0, &mut whole);
            for offset in (0..24).chain(PAGE_SIZE - 24..PAGE_SIZE) {
                for len in 0..=24.min(PAGE_SIZE - offset) {
                    let mut part = [0u8; 24];
                    page.read(offset, &mut part[..len]);
                    assert_eq!(part[..len], whole[offset..offset + len], "offset {offset} len {len}");
                    // The snapshot of the same window yields the same bytes,
                    // and a shorter buffer gets a prefix of them.
                    let snap = ReadSnapshot::of(&page, offset, len);
                    let mut lazy = [0xAAu8; 25];
                    assert_eq!(snap.copy_to(&mut lazy), len);
                    assert_eq!(lazy[..len], part[..len], "{page:?} offset {offset} len {len}");
                    assert_eq!(lazy[len], 0xAA, "copy_to stops at the window");
                    let short = len / 2;
                    assert_eq!(snap.copy_to(&mut lazy[..short]), short);
                    assert_eq!(lazy[..short], part[..short]);
                }
            }
        }
    }

    #[test]
    fn snapshot_outlives_a_rewrite_of_its_page() {
        for mut page in [PageData::Zero, PageData::Pattern(5), PageData::Bytes(Box::new([7; PAGE_SIZE]))] {
            let mut before = [0u8; 16];
            page.read(40, &mut before);
            let mut snap = ReadSnapshot::of(&PageData::Zero, 0, 4);
            snap.capture(&page, 40, 16);
            page.write(40, &[0xEE; 16]);
            let mut seen = [0u8; 16];
            assert_eq!(snap.copy_to(&mut seen), 16);
            assert_eq!(seen, before, "{page:?}");
        }
    }

    #[test]
    fn write_materializes_and_preserves_rest() {
        let mut p = PageData::Pattern(7);
        let mut before = [0u8; 8];
        p.read(0, &mut before);
        p.write(100, b"hello");
        let mut after = [0u8; 8];
        p.read(0, &mut after);
        assert_eq!(before, after, "untouched bytes preserved");
        let mut h = [0u8; 5];
        p.read(100, &mut h);
        assert_eq!(&h, b"hello");
    }

    #[test]
    fn checksum_consistent_across_representations() {
        let pat = PageData::Pattern(99);
        let mut mat = PageData::Pattern(99);
        mat.materialize();
        assert_eq!(pat.checksum(), mat.checksum());
        assert_ne!(pat.checksum(), PageData::Zero.checksum());
    }

    #[test]
    fn checksums_match_pinned_values() {
        // FNV-1a over the bytes as first defined; datasets, chaos digests
        // and baselines all rest on these staying put.
        assert_eq!(PageData::Pattern(42).checksum(), 0x564d_d338_8cb4_8700);
        assert_eq!(PageData::Pattern(0xDEAD_BEEF_F00D).checksum(), 0x886c_24a5_5e64_7062);
        assert_eq!(PageData::Zero.checksum(), 0xb93a_0c83_ce3b_6325);
        assert_eq!(PageData::Bytes(Box::new([0; PAGE_SIZE])).checksum(), ZERO_CHECKSUM);
    }

    #[test]
    fn checksum_detects_single_byte_change() {
        let mut a = PageData::Zero;
        let base = a.checksum();
        a.write(4095, &[1]);
        assert_ne!(a.checksum(), base);
    }

    #[test]
    #[should_panic(expected = "beyond page")]
    fn read_past_end_panics() {
        let p = PageData::Zero;
        let mut buf = [0u8; 8];
        p.read(PAGE_SIZE - 4, &mut buf);
    }
}
