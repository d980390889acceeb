//! Backing block store for an NVMe namespace.
//!
//! A namespace is "a storage volume organized into logical blocks"
//! (paper, footnote 1); ours stores one [`PageData`] per 4 KiB block.
//! Blocks never explicitly written return a closed-form initial value: the
//! block's initializer extent if one covers it (MiniDB's record pages),
//! else a configurable default — zeroes or a deterministic per-block
//! pattern. Datasets therefore exist without materializing gigabytes, and
//! creating one costs the same whatever its size.

use std::borrow::Cow;

use hwdp_mem::addr::{Lba, PageData};
use hwdp_sim::DenseMap;

/// Default contents of never-written blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DefaultContents {
    /// Unwritten blocks read as zeroes (like a fresh namespace).
    Zero,
    /// Unwritten block `l` reads as `PageData::Pattern(seed ^ l)` — a
    /// pre-initialized synthetic dataset.
    Pattern {
        /// Seed mixed with the LBA to derive each block's pattern.
        seed: u64,
    },
}

/// Initial contents of a run of blocks, in closed form: block `start + i`
/// reads as `init(i)` until it is written.
#[derive(Clone, Copy, Debug)]
struct InitExtent {
    start: u64,
    end: u64,
    init: fn(u64) -> PageData,
}

/// The block store behind one namespace.
#[derive(Debug)]
pub struct BlockStore {
    blocks: u64,
    /// Explicitly written blocks, by LBA. Initial dataset contents are not
    /// here: they come from `extents` or `default` when read.
    written: DenseMap<PageData>,
    /// Initializer extents in registration order; the latest covering a
    /// block wins.
    extents: Vec<InitExtent>,
    default: DefaultContents,
}

impl BlockStore {
    /// Creates a store of `blocks` 4 KiB blocks, all reading as zero.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is zero.
    pub fn new(blocks: u64) -> Self {
        BlockStore::with_default(blocks, DefaultContents::Zero)
    }

    /// Creates a store whose unwritten blocks hold a deterministic pattern
    /// derived from `seed` (synthetic pre-populated dataset).
    pub fn with_pattern(blocks: u64, seed: u64) -> Self {
        BlockStore::with_default(blocks, DefaultContents::Pattern { seed })
    }

    fn with_default(blocks: u64, default: DefaultContents) -> Self {
        assert!(blocks > 0, "namespace must have at least one block");
        BlockStore { blocks, written: DenseMap::new(), extents: Vec::new(), default }
    }

    /// Capacity in blocks.
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Capacity in bytes.
    pub fn bytes(&self) -> u64 {
        self.blocks * 4096
    }

    /// Whether `lba` is within the namespace.
    pub fn contains(&self, lba: Lba) -> bool {
        lba.0 < self.blocks
    }

    /// Reads a block.
    ///
    /// # Panics
    ///
    /// Panics if `lba` is out of range (device-level code validates and
    /// reports `LbaOutOfRange` before getting here).
    pub fn read_block(&self, lba: Lba) -> PageData {
        match self.block(lba) {
            Cow::Borrowed(d) => d.clone(),
            Cow::Owned(d) => d,
        }
    }

    /// A block's contents without copying a written one: borrowed when
    /// written, built in closed form (no heap) when not.
    ///
    /// # Panics
    ///
    /// Panics if `lba` is out of range.
    pub fn block(&self, lba: Lba) -> Cow<'_, PageData> {
        assert!(self.contains(lba), "read of {lba:?} beyond namespace end");
        match self.written.get(lba.0) {
            Some(d) => Cow::Borrowed(d),
            None => Cow::Owned(self.unwritten(lba)),
        }
    }

    /// [`PageData::checksum`] of a block, without copying a written one.
    ///
    /// # Panics
    ///
    /// Panics if `lba` is out of range.
    pub fn block_checksum(&self, lba: Lba) -> u64 {
        self.block(lba).checksum()
    }

    /// Contents of `lba` while it has never been written.
    fn unwritten(&self, lba: Lba) -> PageData {
        if let Some(e) = self.extents.iter().rev().find(|e| (e.start..e.end).contains(&lba.0)) {
            return (e.init)(lba.0 - e.start);
        }
        match self.default {
            DefaultContents::Zero => PageData::Zero,
            DefaultContents::Pattern { seed } => PageData::Pattern(seed ^ lba.0),
        }
    }

    /// Writes a block.
    ///
    /// # Panics
    ///
    /// Panics if `lba` is out of range.
    pub fn write_block(&mut self, lba: Lba, data: PageData) {
        assert!(self.contains(lba), "write of {lba:?} beyond namespace end");
        self.written.insert(lba.0, data);
    }

    /// Initializes the `len` blocks from `start` in closed form: block
    /// `start + i` reads as `init(i)` until it is next written. Equivalent
    /// to writing every block now, at a cost independent of `len`.
    ///
    /// # Panics
    ///
    /// Panics if the range leaves the namespace.
    pub fn init_extent(&mut self, start: Lba, len: u64, init: fn(u64) -> PageData) {
        let end = start.0.saturating_add(len);
        assert!(end <= self.blocks, "initializer extent beyond namespace end");
        self.written.remove_range(start.0..end);
        self.extents.push(InitExtent { start: start.0, end, init });
    }

    /// Number of blocks holding explicitly written data. Blocks that hold
    /// an initializer extent's or the default contents do not count.
    pub fn written_blocks(&self) -> usize {
        self.written.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_default() {
        let s = BlockStore::new(10);
        assert_eq!(s.read_block(Lba(3)), PageData::Zero);
        assert_eq!(s.written_blocks(), 0);
        assert_eq!(s.bytes(), 40_960);
    }

    #[test]
    fn pattern_default_distinct_per_block() {
        let s = BlockStore::with_pattern(10, 42);
        let a = s.read_block(Lba(1));
        let b = s.read_block(Lba(2));
        assert_ne!(a.checksum(), b.checksum());
        // Deterministic.
        assert_eq!(a.checksum(), s.read_block(Lba(1)).checksum());
    }

    #[test]
    fn write_overrides_default() {
        let mut s = BlockStore::with_pattern(10, 42);
        let mut d = PageData::Zero;
        d.write(0, b"hello");
        s.write_block(Lba(5), d.clone());
        assert_eq!(s.read_block(Lba(5)), d);
        assert_eq!(s.written_blocks(), 1);
        // Other blocks keep the pattern.
        assert_eq!(s.read_block(Lba(6)), PageData::Pattern(42 ^ 6));
    }

    #[test]
    fn block_checksum_matches_read_block() {
        let mut s = BlockStore::with_pattern(10, 42);
        let mut d = PageData::Zero;
        d.write(7, b"dirty");
        s.write_block(Lba(5), d);
        s.write_block(Lba(6), PageData::Zero);
        for l in 0..10 {
            assert_eq!(s.block_checksum(Lba(l)), s.read_block(Lba(l)).checksum(), "lba {l}");
        }
    }

    #[test]
    fn extent_reads_in_closed_form_until_written() {
        let mut s = BlockStore::with_pattern(10, 42);
        s.write_block(Lba(4), PageData::Zero);
        s.init_extent(Lba(3), 4, |i| PageData::Pattern(100 + i));
        assert_eq!(s.written_blocks(), 0, "the extent supersedes the earlier write");
        assert_eq!(s.read_block(Lba(2)), PageData::Pattern(42 ^ 2));
        assert_eq!(s.read_block(Lba(4)), PageData::Pattern(101));
        assert_eq!(s.read_block(Lba(7)), PageData::Pattern(42 ^ 7));
        s.write_block(Lba(5), PageData::Zero);
        assert_eq!(s.read_block(Lba(5)), PageData::Zero);
        assert_eq!(s.block_checksum(Lba(6)), PageData::Pattern(103).checksum());
    }

    #[test]
    #[should_panic(expected = "beyond namespace end")]
    fn read_out_of_range_panics() {
        let s = BlockStore::new(4);
        let _ = s.read_block(Lba(4));
    }

    #[test]
    fn contains_boundary() {
        let s = BlockStore::new(4);
        assert!(s.contains(Lba(3)));
        assert!(!s.contains(Lba(4)));
    }
}
