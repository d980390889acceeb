//! The LBA-augmented page-table entry (paper Fig. 6 and Table I).
//!
//! A PTE is one 64-bit word. Bit layout used by this reproduction:
//!
//! ```text
//!  63  62..59  58..12                          11  10   4..0
//! +---+-------+--------------------------------+--+----+------------------+
//! | NX| PKEY  | payload (47 bits)              |R | LBA| D A U W P        |
//! +---+-------+--------------------------------+--+----+------------------+
//! ```
//!
//! * `P` (bit 0) — present.
//! * `W`/`U`/`A`/`D` (bits 1–4) — writable / user / accessed / dirty.
//! * `LBA` (bit 10) — the paper's new bit. The SW-emulation prototype also
//!   uses bit 10 (§VI-A).
//! * payload (bits 12–58, 47 bits) — a PFN when present; when non-present
//!   with `LBA` set, the triple `SID(3) | DEV(3) | LBA(41)` locating the
//!   missing page's block (§III-B: 3+3+41 bits, up to 8 sockets × 8
//!   devices × 1 PB).
//! * `PKEY` (bits 59–62) and `NX` (bit 63) — the "remaining 17 bits" of the
//!   paper keep 12 protection bits + NX + 4-bit protection key; our low
//!   bits plus these cover the same information.
//!
//! Upper-level entries (PUD/PMD) reuse the same word; their `LBA` bit means
//! "some PTE below has a hardware-handled miss whose OS metadata is not yet
//! synchronized" (§III-B, Table I).

use crate::addr::{BlockRef, DeviceId, Lba, Pfn, SocketId};
use std::fmt;

const BIT_PRESENT: u64 = 1 << 0;
const BIT_WRITE: u64 = 1 << 1;
const BIT_USER: u64 = 1 << 2;
const BIT_ACCESSED: u64 = 1 << 3;
const BIT_DIRTY: u64 = 1 << 4;
const BIT_LBA: u64 = 1 << 10;
const BIT_NX: u64 = 1 << 63;

const PAYLOAD_SHIFT: u32 = 12;
const PAYLOAD_BITS: u32 = 47;
const PAYLOAD_MASK: u64 = ((1u64 << PAYLOAD_BITS) - 1) << PAYLOAD_SHIFT;

const LBA_BITS: u32 = 41;
const DEV_BITS: u32 = 3;

/// Software-visible permission/attribute flags of a PTE.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, Debug)]
pub struct PteFlags {
    /// Page may be written.
    pub write: bool,
    /// Page accessible from user mode.
    pub user: bool,
    /// No-execute.
    pub nx: bool,
    /// x86 protection key (4 bits).
    pub pkey: u8,
}

impl PteFlags {
    /// Read-write user data mapping (the common case for fast-mmap files).
    pub const fn user_data() -> Self {
        PteFlags { write: true, user: true, nx: true, pkey: 0 }
    }

    /// Read-only user mapping.
    pub const fn user_ro() -> Self {
        PteFlags { write: false, user: true, nx: true, pkey: 0 }
    }
}

/// The four meaningful `(present, LBA)` states of a last-level PTE
/// (paper Table I).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PteClass {
    /// Non-resident, not LBA-augmented: a miss raises a normal OS page
    /// fault.
    NotPresentOsHandled,
    /// Non-resident, LBA-augmented: a miss is handled by the SMU in
    /// hardware.
    LbaAugmented,
    /// Resident and LBA bit still set: the miss *was* handled by hardware
    /// and OS metadata has not been synchronized yet (`kpted` pending).
    ResidentNeedsSync,
    /// Resident, conventional PTE.
    Resident,
}

/// A 64-bit LBA-augmented page-table entry.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Pte(pub u64);

impl Pte {
    /// The all-zero (empty, OS-handled-on-miss) entry.
    pub const EMPTY: Pte = Pte(0);

    /// Builds a resident mapping to `pfn`.
    ///
    /// # Panics
    ///
    /// Panics if `pfn` exceeds the 47-bit payload.
    pub fn present(pfn: Pfn, flags: PteFlags) -> Pte {
        assert!(pfn.0 < (1 << PAYLOAD_BITS), "pfn exceeds payload width");
        let mut v = BIT_PRESENT | (pfn.0 << PAYLOAD_SHIFT);
        v |= flag_bits(flags);
        Pte(v)
    }

    /// Builds a non-present, LBA-augmented entry pointing at `block`,
    /// preserving the protection bits that must survive a hardware-handled
    /// miss (§III-B).
    pub fn lba_augmented(block: BlockRef, flags: PteFlags) -> Pte {
        let payload = ((block.socket.0 as u64) << (DEV_BITS + LBA_BITS))
            | ((block.device.0 as u64) << LBA_BITS)
            | block.lba.0;
        let mut v = BIT_LBA | (payload << PAYLOAD_SHIFT);
        v |= flag_bits(flags);
        Pte(v)
    }

    /// Present bit.
    pub const fn is_present(self) -> bool {
        self.0 & BIT_PRESENT != 0
    }

    /// LBA bit.
    pub const fn lba_bit(self) -> bool {
        self.0 & BIT_LBA != 0
    }

    /// Dirty bit.
    pub const fn is_dirty(self) -> bool {
        self.0 & BIT_DIRTY != 0
    }

    /// Accessed bit.
    pub const fn is_accessed(self) -> bool {
        self.0 & BIT_ACCESSED != 0
    }

    /// Writable bit.
    pub const fn is_writable(self) -> bool {
        self.0 & BIT_WRITE != 0
    }

    /// Classifies per Table I.
    pub const fn class(self) -> PteClass {
        match (self.is_present(), self.lba_bit()) {
            (false, false) => PteClass::NotPresentOsHandled,
            (false, true) => PteClass::LbaAugmented,
            (true, true) => PteClass::ResidentNeedsSync,
            (true, false) => PteClass::Resident,
        }
    }

    /// The mapped frame, if present.
    pub fn pfn(self) -> Option<Pfn> {
        self.is_present().then_some(Pfn((self.0 & PAYLOAD_MASK) >> PAYLOAD_SHIFT))
    }

    /// The storage block, if non-present and LBA-augmented.
    pub fn block(self) -> Option<BlockRef> {
        if self.is_present() || !self.lba_bit() {
            return None;
        }
        let payload = (self.0 & PAYLOAD_MASK) >> PAYLOAD_SHIFT;
        let lba = payload & ((1 << LBA_BITS) - 1);
        let dev = (payload >> LBA_BITS) & ((1 << DEV_BITS) - 1);
        let sid = payload >> (LBA_BITS + DEV_BITS);
        Some(BlockRef::new(SocketId(sid as u8), DeviceId(dev as u8), Lba(lba)))
    }

    /// Protection/attribute flags.
    pub fn flags(self) -> PteFlags {
        PteFlags {
            write: self.0 & BIT_WRITE != 0,
            user: self.0 & BIT_USER != 0,
            nx: self.0 & BIT_NX != 0,
            pkey: ((self.0 >> 59) & 0xF) as u8,
        }
    }

    /// The SMU's completion-time transformation (§III-C step 7): replace the
    /// LBA payload with the newly allocated PFN and set the present bit, but
    /// **leave the LBA bit set** so `kpted` later updates OS metadata.
    ///
    /// # Panics
    ///
    /// Panics if the entry is not in the [`PteClass::LbaAugmented`] state or
    /// `pfn` does not fit the payload.
    pub fn complete_hw_miss(self, pfn: Pfn) -> Pte {
        assert!(
            matches!(self.class(), PteClass::LbaAugmented),
            "hardware completion requires an LBA-augmented non-present PTE"
        );
        assert!(pfn.0 < (1 << PAYLOAD_BITS), "pfn exceeds payload width");
        let keep = self.0 & !(PAYLOAD_MASK);
        Pte(keep | BIT_PRESENT | (pfn.0 << PAYLOAD_SHIFT))
    }

    /// `kpted`'s final step (§IV-C): clear the LBA bit once OS metadata for
    /// this hardware-handled PTE has been synchronized.
    pub const fn clear_lba_bit(self) -> Pte {
        Pte(self.0 & !BIT_LBA)
    }

    /// Page-replacement transformation (§IV-B): evict a resident fast-mmap
    /// page — record its (possibly new) block location, clear present, set
    /// the LBA bit, preserving protection bits.
    pub fn evict_to(self, block: BlockRef) -> Pte {
        let flags = self.flags();
        Pte::lba_augmented(block, flags)
    }

    /// Sets the accessed bit.
    pub const fn with_accessed(self) -> Pte {
        Pte(self.0 | BIT_ACCESSED)
    }

    /// Sets the dirty bit (on a write access).
    pub const fn with_dirty(self) -> Pte {
        Pte(self.0 | BIT_DIRTY | BIT_ACCESSED)
    }

    /// Clears the accessed bit (used by the clock replacement sweep).
    pub const fn clear_accessed(self) -> Pte {
        Pte(self.0 & !BIT_ACCESSED)
    }

    /// Re-encodes this entry from its fully decoded fields (Table I class,
    /// payload, protection flags, A/D bits).
    ///
    /// A well-formed PTE is a fixed point of this transformation; any
    /// difference means the word carries bits the Fig. 6 layout cannot
    /// express — stray reserved bits (5–9), or payload on a non-present
    /// entry whose LBA bit is clear. This is the hwdp-audit
    /// `pte-roundtrip` invariant.
    pub fn reencode(self) -> Pte {
        let mut v = flag_bits(self.flags());
        if self.is_accessed() {
            v |= BIT_ACCESSED;
        }
        if self.is_dirty() {
            v |= BIT_DIRTY;
        }
        if self.lba_bit() {
            v |= BIT_LBA;
        }
        if self.is_present() {
            v |= BIT_PRESENT;
            if let Some(pfn) = self.pfn() {
                v |= pfn.0 << PAYLOAD_SHIFT;
            }
        } else if let Some(b) = self.block() {
            let payload = ((b.socket.0 as u64) << (DEV_BITS + LBA_BITS))
                | ((b.device.0 as u64) << LBA_BITS)
                | b.lba.0;
            v |= payload << PAYLOAD_SHIFT;
        }
        Pte(v)
    }
}

fn flag_bits(flags: PteFlags) -> u64 {
    let mut v = 0;
    if flags.write {
        v |= BIT_WRITE;
    }
    if flags.user {
        v |= BIT_USER;
    }
    if flags.nx {
        v |= BIT_NX;
    }
    v |= ((flags.pkey & 0xF) as u64) << 59;
    v
}

impl fmt::Debug for Pte {
    // Each arm reads the field its own class guarantees is present.
    #[allow(clippy::expect_used)]
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.class() {
            PteClass::NotPresentOsHandled => write!(f, "Pte(os-handled, {:#x})", self.0),
            PteClass::LbaAugmented => write!(f, "Pte(lba {:?})", self.block().expect("lba class")),
            PteClass::ResidentNeedsSync => {
                write!(f, "Pte(resident+sync {:?})", self.pfn().expect("present"))
            }
            PteClass::Resident => write!(f, "Pte(resident {:?})", self.pfn().expect("present")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(s: u8, d: u8, l: u64) -> BlockRef {
        BlockRef::new(SocketId(s), DeviceId(d), Lba(l))
    }

    #[test]
    fn table1_all_four_states() {
        // Row 1: non-resident, not augmented → OS-handled.
        assert_eq!(Pte::EMPTY.class(), PteClass::NotPresentOsHandled);
        // Row 2: non-resident, LBA set → hardware-handled.
        let aug = Pte::lba_augmented(blk(1, 2, 3), PteFlags::user_data());
        assert_eq!(aug.class(), PteClass::LbaAugmented);
        // Row 3: resident, LBA still set → OS metadata pending.
        let done = aug.complete_hw_miss(Pfn(77));
        assert_eq!(done.class(), PteClass::ResidentNeedsSync);
        // Row 4: resident, conventional.
        let synced = done.clear_lba_bit();
        assert_eq!(synced.class(), PteClass::Resident);
    }

    #[test]
    fn payload_roundtrip_block() {
        let b = blk(7, 5, (1 << 41) - 1);
        let pte = Pte::lba_augmented(b, PteFlags::user_ro());
        assert_eq!(pte.block(), Some(b));
        assert_eq!(pte.pfn(), None);
    }

    #[test]
    fn payload_roundtrip_pfn() {
        let pte = Pte::present(Pfn(0x1234_5678), PteFlags::user_data());
        assert_eq!(pte.pfn(), Some(Pfn(0x1234_5678)));
        assert_eq!(pte.block(), None);
    }

    #[test]
    fn flags_survive_hw_completion_and_eviction() {
        let f = PteFlags { write: true, user: true, nx: true, pkey: 9 };
        let aug = Pte::lba_augmented(blk(2, 3, 100), f);
        assert_eq!(aug.flags(), f, "protection bits stored alongside LBA (§III-B)");
        let resident = aug.complete_hw_miss(Pfn(5));
        assert_eq!(resident.flags(), f, "completion must preserve protections");
        let evicted = resident.clear_lba_bit().evict_to(blk(2, 3, 200));
        assert_eq!(evicted.flags(), f, "eviction must preserve protections");
        assert_eq!(evicted.block(), Some(blk(2, 3, 200)));
    }

    #[test]
    fn completion_keeps_lba_bit_for_kpted() {
        // §III-C: "SMU does not clear the LBA bit of the PTE to ensure OS
        // later updates the metadata".
        let done = Pte::lba_augmented(blk(0, 0, 9), PteFlags::user_data()).complete_hw_miss(Pfn(1));
        assert!(done.lba_bit());
        assert!(done.is_present());
    }

    #[test]
    #[should_panic(expected = "LBA-augmented")]
    fn completion_rejects_wrong_state() {
        let _ = Pte::present(Pfn(1), PteFlags::user_data()).complete_hw_miss(Pfn(2));
    }

    #[test]
    fn accessed_dirty_bits() {
        let p = Pte::present(Pfn(1), PteFlags::user_data());
        assert!(!p.is_accessed() && !p.is_dirty());
        let p = p.with_accessed();
        assert!(p.is_accessed());
        let p = p.with_dirty();
        assert!(p.is_dirty() && p.is_accessed());
        let p = p.clear_accessed();
        assert!(!p.is_accessed() && p.is_dirty());
        // A/D manipulation never disturbs the mapping.
        assert_eq!(p.pfn(), Some(Pfn(1)));
    }

    #[test]
    fn writable_bit_reflects_flags() {
        assert!(Pte::present(Pfn(1), PteFlags::user_data()).is_writable());
        assert!(!Pte::present(Pfn(1), PteFlags::user_ro()).is_writable());
    }

    #[test]
    fn debug_formats_every_class() {
        let aug = Pte::lba_augmented(blk(1, 1, 1), PteFlags::user_data());
        for pte in [Pte::EMPTY, aug, aug.complete_hw_miss(Pfn(2)), Pte::present(Pfn(3), PteFlags::user_data())] {
            assert!(!format!("{pte:?}").is_empty());
        }
    }

    #[test]
    fn reencode_is_identity_for_well_formed_ptes() {
        let aug = Pte::lba_augmented(blk(3, 2, 77), PteFlags { write: true, user: true, nx: true, pkey: 5 });
        let well_formed = [
            Pte::EMPTY,
            aug,
            aug.complete_hw_miss(Pfn(12)),
            aug.complete_hw_miss(Pfn(12)).with_dirty(),
            aug.complete_hw_miss(Pfn(12)).with_dirty().clear_accessed(),
            Pte::present(Pfn(9), PteFlags::user_ro()).with_accessed(),
        ];
        for pte in well_formed {
            assert_eq!(pte.reencode(), pte, "{pte:?} must round-trip");
        }
    }

    #[test]
    fn reencode_exposes_stray_reserved_bits() {
        let good = Pte::present(Pfn(4), PteFlags::user_data());
        let corrupt = Pte(good.0 | 1 << 7); // reserved bit 7: not in Fig. 6
        assert_ne!(corrupt.reencode(), corrupt, "stray reserved bit detected");
        // Payload on a non-present, non-LBA entry is equally inexpressible.
        let ghost = Pte(0xABC << 12);
        assert_ne!(ghost.reencode(), ghost);
    }

    #[test]
    fn distinct_blocks_distinct_ptes() {
        let a = Pte::lba_augmented(blk(0, 0, 1), PteFlags::user_data());
        let b = Pte::lba_augmented(blk(0, 1, 1), PteFlags::user_data());
        let c = Pte::lba_augmented(blk(1, 0, 1), PteFlags::user_data());
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}

/// Seeded-loop properties: a fixed-seed [`hwdp_sim::Prng`] draws every
/// case's inputs, and each assertion names the case and its inputs.
#[cfg(test)]
mod prop_tests {
    use super::*;
    use hwdp_sim::Prng;

    /// Cases per property.
    const CASES: usize = 256;

    /// Any valid block triple round-trips through an LBA-augmented PTE.
    #[test]
    fn block_roundtrip() {
        let mut g = Prng::seed_from(0x97E_0001);
        for case in 0..CASES {
            let (s, d, l) = (g.below(8) as u8, g.below(8) as u8, g.below(1 << 41));
            let (write, user, nx, pkey) = (g.chance(0.5), g.chance(0.5), g.chance(0.5), g.below(16) as u8);
            let b = BlockRef::new(SocketId(s), DeviceId(d), Lba(l));
            let f = PteFlags { write, user, nx, pkey };
            let pte = Pte::lba_augmented(b, f);
            assert_eq!(pte.block(), Some(b), "case {case}: {b:?} {f:?}");
            assert_eq!(pte.flags(), f, "case {case}: {b:?} {f:?}");
            assert_eq!(pte.class(), PteClass::LbaAugmented, "case {case}: {b:?} {f:?}");
        }
    }

    /// Any PFN round-trips through a present PTE.
    #[test]
    fn pfn_roundtrip() {
        let mut g = Prng::seed_from(0x97E_0002);
        for case in 0..CASES {
            let (pfn, write) = (g.below(1 << 47), g.chance(0.5));
            let f = PteFlags { write, user: true, nx: false, pkey: 0 };
            let pte = Pte::present(Pfn(pfn), f);
            assert_eq!(pte.pfn(), Some(Pfn(pfn)), "case {case}: pfn {pfn}, write {write}");
            assert_eq!(pte.flags().write, write, "case {case}: pfn {pfn}, write {write}");
        }
    }

    /// The full hardware-miss lifecycle preserves flags and lands in the
    /// right Table I states at every step.
    #[test]
    fn hw_miss_lifecycle() {
        let mut g = Prng::seed_from(0x97E_0003);
        for case in 0..CASES {
            let (s, d, l) = (g.below(8) as u8, g.below(8) as u8, g.below(1 << 41));
            let pfn = g.below(1 << 47);
            let b = BlockRef::new(SocketId(s), DeviceId(d), Lba(l));
            let ctx = format!("case {case}: {b:?}, pfn {pfn}");
            let f = PteFlags::user_data();
            let aug = Pte::lba_augmented(b, f);
            let resident = aug.complete_hw_miss(Pfn(pfn));
            assert_eq!(resident.class(), PteClass::ResidentNeedsSync, "{ctx}");
            assert_eq!(resident.pfn(), Some(Pfn(pfn)), "{ctx}");
            let synced = resident.clear_lba_bit();
            assert_eq!(synced.class(), PteClass::Resident, "{ctx}");
            let evicted = synced.evict_to(b);
            assert_eq!(evicted.class(), PteClass::LbaAugmented, "{ctx}");
            assert_eq!(evicted.block(), Some(b), "{ctx}");
            assert_eq!(evicted.flags(), f, "{ctx}");
        }
    }
}
