//! Memory & paging substrate for the HWDP reproduction.
//!
//! This crate models the pieces of the virtual memory system the paper
//! extends:
//!
//! * [`addr`] — virtual/physical address and page/frame number newtypes,
//!   plus the storage-location triple ([`addr::BlockRef`]: socket ID,
//!   device ID, LBA) that an LBA-augmented PTE encodes, and page contents
//!   ([`addr::PageData`]) with the lazy [`addr::ReadSnapshot`] a user
//!   load hands its workload.
//! * [`pte`] — the paper's **LBA-augmented page-table entry** (Fig. 6):
//!   a 64-bit word whose payload is a physical frame number when present
//!   and a `<SID, device ID, LBA>` triple when non-present with the LBA
//!   bit set. [`pte::PteClass`] enumerates Table I's four PTE states.
//! * [`page_table`] — a 4-level x86-64-style page table whose upper-level
//!   entries carry the paper's repurposed LBA bit ("subtree has
//!   hardware-handled PTEs awaiting OS metadata sync"), with the pruned
//!   scan `kpted` relies on (§IV-C); a leaf memo and populated-child
//!   bitmaps make each host-side lookup and scan step O(1).
//! * [`tlb`] — a set-associative TLB with LRU replacement and shootdown.
//! * [`walker`] — the hardware page-table walker's timing model with
//!   paging-structure caches.
//! * [`phys`] — a physical frame pool holding *real page contents*, so DMA
//!   and user reads/writes move actual bytes and integrity can be asserted
//!   end-to-end.
//! * [`audit`] — this layer's hwdp-audit sanitizer ([`audit::MemAudit`]):
//!   frame-pool leak/double-free accounting, PTE bit-layout round-trips,
//!   TLB ↔ live-PTE consistency, and the page table's leaf memo.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod audit;
pub mod page_table;
pub mod phys;
pub mod pte;
pub mod tlb;
pub mod walker;

pub use addr::{
    BlockRef, DeviceId, Lba, PageData, Pfn, PhysAddr, ReadSnapshot, SocketId, VirtAddr, Vpn, PAGE_SIZE,
};
pub use audit::MemAudit;
pub use page_table::{PageTable, WalkResult};
pub use phys::{FramePool, FrameState};
pub use pte::{Pte, PteClass, PteFlags};
pub use tlb::Tlb;
pub use walker::Walker;
