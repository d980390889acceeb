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

/// Contents of a 4 KiB page or storage block, in one of four
/// representations:
///
/// - [`PageData::Zero`]: all zeroes, O(1) (a fresh anonymous page or an
///   unwritten block).
/// - [`PageData::Pattern`]: a read-only synthetic dataset page (e.g.
///   FIO's pre-generated file), O(1), its bytes a pure function of the
///   seed.
/// - [`PageData::Patched`]: a zero page with one written window of at
///   most [`PATCH_MAX`] bytes, stored inline with no heap allocation (a
///   MiniDB record header, a scratch counter).
/// - [`PageData::Bytes`]: an explicit 4 KiB heap buffer.
///
/// [`PageData::write`] keeps a `Zero` or `Patched` page patched while the
/// window that covers every write so far fits [`PATCH_MAX`] bytes; a
/// wider window, or any write to a `Pattern` page, materializes the page
/// into `Bytes`, as does [`PageData::materialize`]. Reads, snapshots,
/// checksums and equality depend on the contents only, never on the
/// representation. This keeps multi-GiB-ratio simulations cheap while
/// still letting integration tests verify every byte.
#[derive(Clone, Default)]
pub enum PageData {
    /// All zeroes (fresh anonymous page / unwritten block).
    #[default]
    Zero,
    /// Deterministic pseudo-random contents generated from a seed.
    Pattern(u64),
    /// Zeroes except for one short written window.
    Patched(Patch),
    /// Explicit bytes.
    Bytes(Box<[u8; PAGE_SIZE]>),
}

impl fmt::Debug for PageData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageData::Zero => write!(f, "PageData::Zero"),
            PageData::Pattern(s) => write!(f, "PageData::Pattern({s:#x})"),
            PageData::Patched(p) => write!(f, "PageData::Patched({:#x}..{:#x})", p.start(), p.end()),
            PageData::Bytes(_) => write!(f, "PageData::Bytes(..)"),
        }
    }
}

impl PartialEq for PageData {
    /// Equal contents, whatever the representation. Two `Pattern`s compare
    /// by seed: the SplitMix64 mix is a bijection, so distinct seeds differ
    /// in lane 0 already.
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (PageData::Zero, PageData::Zero) => true,
            (PageData::Pattern(a), PageData::Pattern(b)) => a == b,
            (PageData::Bytes(a), PageData::Bytes(b)) => a == b,
            _ => {
                let (mut a, mut b) = ([0u8; 256], [0u8; 256]);
                (0..PAGE_SIZE).step_by(a.len()).all(|at| {
                    self.read(at, &mut a);
                    other.read(at, &mut b);
                    a == b
                })
            }
        }
    }
}

impl Eq for PageData {}

/// Widest written window a [`PageData::Patched`] page keeps inline: room
/// for a MiniDB record header (24 bytes) or a scratch counter (8).
pub const PATCH_MAX: usize = 32;

/// The written window of a [`PageData::Patched`] page: `len` bytes at
/// `offset`; every byte outside it is zero.
#[derive(Clone, Copy, Debug)]
pub struct Patch {
    offset: u16,
    len: u8,
    bytes: [u8; PATCH_MAX],
}

impl Patch {
    /// A zero page with nothing written.
    const EMPTY: Patch = Patch { offset: 0, len: 0, bytes: [0; PATCH_MAX] };

    fn start(&self) -> usize {
        usize::from(self.offset)
    }

    fn end(&self) -> usize {
        self.start() + usize::from(self.len)
    }

    fn window(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }

    /// Fills `buf` with the page's bytes from `offset` on.
    fn read(&self, offset: usize, buf: &mut [u8]) {
        buf.fill(0);
        let lo = self.start().max(offset);
        let hi = self.end().min(offset + buf.len());
        if lo < hi {
            buf[lo - offset..hi - offset].copy_from_slice(&self.window()[lo - self.start()..hi - self.start()]);
        }
    }

    /// This page with `data` (non-empty) written at `offset`, if the
    /// window covering both still fits [`PATCH_MAX`] bytes.
    fn with_write(&self, offset: usize, data: &[u8]) -> Option<Patch> {
        let end = offset + data.len();
        let (lo, hi) = if self.len == 0 {
            (offset, end)
        } else {
            (self.start().min(offset), self.end().max(end))
        };
        let len = hi - lo;
        if len > PATCH_MAX {
            return None;
        }
        let mut bytes = [0; PATCH_MAX];
        self.read(lo, &mut bytes[..len]);
        bytes[offset - lo..end - lo].copy_from_slice(data);
        // `lo < PAGE_SIZE` and `len <= PATCH_MAX`, so both fit.
        Some(Patch { offset: lo as u16, len: len as u8, bytes })
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

/// Folds `n` zero bytes into the FNV-1a state `h`: each one only
/// multiplies by the prime.
const fn fnv1a_zeros(h: u64, n: usize) -> u64 {
    h.wrapping_mul(FNV_PRIME.wrapping_pow(n as u32))
}

/// [`PageData::checksum`] of an all-zero page.
const ZERO_CHECKSUM: u64 = fnv1a_zeros(FNV_OFFSET, PAGE_SIZE);

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
            PageData::Patched(patch) => patch.read(offset, buf),
            PageData::Bytes(bytes) => buf.copy_from_slice(&bytes[offset..offset + buf.len()]),
        }
    }

    /// Writes `data` at `offset`. A `Zero` or `Patched` page stays patched
    /// while its written window fits [`PATCH_MAX`] bytes; otherwise the
    /// page is materialized. An empty write changes nothing.
    ///
    /// # Panics
    ///
    /// Panics if `offset + data.len()` exceeds [`PAGE_SIZE`].
    pub fn write(&mut self, offset: usize, data: &[u8]) {
        assert!(offset + data.len() <= PAGE_SIZE, "write beyond page");
        if data.is_empty() {
            return;
        }
        let patched = match self {
            PageData::Zero => Patch::EMPTY.with_write(offset, data),
            PageData::Patched(patch) => patch.with_write(offset, data),
            PageData::Pattern(_) | PageData::Bytes(_) => None,
        };
        match patched {
            Some(patch) => *self = PageData::Patched(patch),
            None => self.materialize()[offset..offset + data.len()].copy_from_slice(data),
        }
    }

    /// A zero page with `data` written at `offset`, kept patched: the
    /// same page [`PageData::write`] makes from [`PageData::Zero`], or
    /// `None` when the write would leave the page or its window would not
    /// fit [`PATCH_MAX`] bytes. Never materializes and never panics, so
    /// it is safe on completion paths.
    #[inline]
    pub fn patched(offset: usize, data: &[u8]) -> Option<PageData> {
        if data.is_empty() {
            return (offset <= PAGE_SIZE).then_some(PageData::Zero);
        }
        if data.len() > PATCH_MAX || offset > PAGE_SIZE - data.len() {
            return None;
        }
        let mut bytes = [0; PATCH_MAX];
        bytes[..data.len()].copy_from_slice(data);
        // `offset < PAGE_SIZE` and `data.len() <= PATCH_MAX`, so both fit.
        Some(PageData::Patched(Patch { offset: offset as u16, len: data.len() as u8, bytes }))
    }

    /// Whether the page holds an explicit heap byte buffer.
    pub fn is_materialized(&self) -> bool {
        matches!(self, PageData::Bytes(_))
    }

    /// Converts to an explicit byte buffer and returns it mutably.
    pub fn materialize(&mut self) -> &mut [u8; PAGE_SIZE] {
        if !self.is_materialized() {
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
    /// lane without materializing the page; `Patched` hashes its window
    /// and folds the zero runs around it in closed form.
    pub fn checksum(&self) -> u64 {
        match self {
            PageData::Zero => ZERO_CHECKSUM,
            PageData::Pattern(seed) => {
                (0..PAGE_SIZE / 8).fold(FNV_OFFSET, |h, lane| fnv1a(h, &pattern_lane(*seed, lane)))
            }
            PageData::Patched(patch) => {
                let h = fnv1a(fnv1a_zeros(FNV_OFFSET, patch.start()), patch.window());
                fnv1a_zeros(h, PAGE_SIZE - patch.end())
            }
            PageData::Bytes(bytes) => fnv1a(FNV_OFFSET, &bytes[..]),
        }
    }
}

/// What one read of a page saw: the window `offset..offset + len`,
/// captured when the read ran.
///
/// `Zero`, `Pattern` and `Patched` pages are values that never change in
/// place, so their snapshot records only the representation (a patch is
/// copied whole, at most [`PATCH_MAX`] bytes) and the window: O(1), no
/// page bytes expanded. An explicit-bytes page may be rewritten before the
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
    Patched(Patch),
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
            PageData::Patched(patch) => Seen::Patched(*patch),
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
            Seen::Patched(patch) => patch.read(self.offset, out),
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
        let mut patched = PageData::Zero;
        patched.write(PAGE_SIZE - 20, b"near the end");
        patched.write(PAGE_SIZE - 30, b"tail");
        for page in [PageData::Zero, PageData::Pattern(0x5EED), bytes, patched] {
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
        let mut patched = PageData::Zero;
        patched.write(44, b"window");
        for mut page in [PageData::Zero, PageData::Pattern(5), patched, PageData::Bytes(Box::new([7; PAGE_SIZE]))] {
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
    fn short_writes_to_a_zero_page_stay_inline() {
        let mut page = PageData::Zero;
        page.write(100, b"header");
        page.write(90, b"0123456789"); // adjacent, before
        page.write(110, &[9; 12]); // disjoint, merged window 90..122
        assert!(!page.is_materialized(), "{page:?}");
        assert!(matches!(page, PageData::Patched(_)), "{page:?}");
        let mut whole = [0u8; PAGE_SIZE];
        page.read(0, &mut whole);
        let mut expect = [0u8; PAGE_SIZE];
        expect[90..100].copy_from_slice(b"0123456789");
        expect[100..106].copy_from_slice(b"header");
        expect[110..122].copy_from_slice(&[9; 12]);
        assert_eq!(whole, expect);
        // A write that widens the window past PATCH_MAX materializes, and
        // keeps every byte.
        page.write(122 - PATCH_MAX - 1, &[1]);
        assert!(page.is_materialized());
        expect[122 - PATCH_MAX - 1] = 1;
        page.read(0, &mut whole);
        assert_eq!(whole, expect);
        // Writes to a pattern page materialize as before.
        let mut pattern = PageData::Pattern(3);
        pattern.write(0, &[1]);
        assert!(pattern.is_materialized());
    }

    #[test]
    fn equal_contents_compare_equal_in_every_representation() {
        let header = *b"MiniDB!!key.....version.";
        let mut patched = PageData::Zero;
        patched.write(8, &header);
        let mut materialized = patched.clone();
        materialized.materialize();
        let mut explicit = Box::new([0u8; PAGE_SIZE]);
        explicit[8..32].copy_from_slice(&header);
        let explicit = PageData::Bytes(explicit);
        // The same window written as two halves and a trailing zero.
        let mut halves = PageData::Zero;
        halves.write(20, &header[12..]);
        halves.write(8, &header[..12]);
        halves.write(32, &[0]);
        let same = [&patched, &materialized, &explicit, &halves];
        for a in same {
            for b in same {
                assert_eq!(a, b);
                assert_eq!(a.checksum(), b.checksum());
            }
        }
        assert!(matches!((&patched, &halves), (PageData::Patched(_), PageData::Patched(_))));
        assert_ne!(patched, PageData::Zero);
        let mut off_by_one = PageData::Zero;
        off_by_one.write(9, &header);
        assert_ne!(patched, off_by_one);
        // Pattern pages equal their materialized bytes; a zero page equals
        // an all-zero buffer.
        let mut pattern = PageData::Pattern(11);
        pattern.materialize();
        assert_eq!(pattern, PageData::Pattern(11));
        assert_ne!(pattern, PageData::Pattern(12));
        assert_eq!(PageData::Bytes(Box::new([0; PAGE_SIZE])), PageData::Zero);
    }

    #[test]
    fn patched_checksum_matches_its_bytes() {
        for (offset, len) in [(0, 24), (0, PATCH_MAX), (PAGE_SIZE - 8, 8), (1000, 1)] {
            let mut page = PageData::Zero;
            page.write(offset, &vec![0xA5; len]);
            let mut bytes = [0u8; PAGE_SIZE];
            page.read(0, &mut bytes);
            assert!(!page.is_materialized());
            assert_eq!(page.checksum(), fnv1a(FNV_OFFSET, &bytes), "offset {offset} len {len}");
        }
    }

    #[test]
    fn patched_constructor_equals_a_write_to_a_zero_page() {
        for (offset, len) in [(0, 24), (0, PATCH_MAX), (PAGE_SIZE - 8, 8), (1000, 1), (7, 0)] {
            let data: Vec<u8> = (1..=len as u8).collect();
            let mut written = PageData::Zero;
            written.write(offset, &data);
            let built = PageData::patched(offset, &data).expect("fits");
            assert_eq!(built, written, "offset {offset} len {len}");
            assert_eq!(built.checksum(), written.checksum());
            assert!(!built.is_materialized());
        }
        assert!(PageData::patched(0, &[1; PATCH_MAX + 1]).is_none());
        assert!(PageData::patched(PAGE_SIZE - 7, &[1; 8]).is_none());
        assert!(PageData::patched(PAGE_SIZE + 1, &[]).is_none());
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
