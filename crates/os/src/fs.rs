//! A minimal extent-based file system.
//!
//! Just enough file system for the paper's needs: files live on one block
//! device (namespace), every file page maps to exactly one LBA, and the
//! mapping can be queried (`mmap` population needs it to build
//! LBA-augmented PTEs, §IV-B) and *changed* (copy-on-write /
//! log-structured file systems move blocks; §IV-B requires such remaps to
//! be reflected into any LBA-augmented PTE, which [`MiniFs::remap_page`]
//! reports to the caller).

use hwdp_mem::addr::{DeviceId, Lba, SocketId};
use hwdp_sim::DenseMap;

/// Where a page lives: `(socket, device, nsid, lba)`.
pub type Location = (SocketId, DeviceId, u32, Lba);

/// Identifies a file.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FileId(pub u32);

/// Per-file metadata.
#[derive(Clone, Debug)]
struct FileMeta {
    name: String,
    /// Home device (socket + device select the SMU path; nsid selects the
    /// namespace on the controller).
    socket: SocketId,
    device: DeviceId,
    nsid: u32,
    /// Per-page block mapping (page index → LBA).
    blocks: Vec<Lba>,
    /// Marked when the file is fast-mmapped, so block remaps know to
    /// propagate into PTEs (§IV-B).
    lba_mapped: bool,
    /// Anonymous-memory swap file (paper §V): pages start logically zero;
    /// `initialized[p]` flips when page `p` is first written back to its
    /// swap block.
    anon: Option<Vec<bool>>,
    /// Per-page location overrides: a page migrated off its home device
    /// (tiered storage) resolves here first; absent means home placement.
    overrides: DenseMap<Location>,
}

/// The file system over a set of devices.
#[derive(Debug, Default)]
pub struct MiniFs {
    files: Vec<FileMeta>,
    /// Next free LBA per (socket, device) — a bump allocator; the paper's
    /// workloads never delete files.
    next_lba: std::collections::BTreeMap<(u8, u8), u64>,
    /// Device capacities in blocks, for allocation checks.
    capacity: std::collections::BTreeMap<(u8, u8), u64>,
}

impl MiniFs {
    /// Creates an empty file system.
    pub fn new() -> Self {
        MiniFs::default()
    }

    /// Registers a block device with `blocks` capacity.
    pub fn register_device(&mut self, socket: SocketId, device: DeviceId, blocks: u64) {
        self.capacity.insert((socket.0, device.0), blocks);
        self.next_lba.entry((socket.0, device.0)).or_insert(0);
    }

    /// Creates a file of `pages` 4 KiB pages on the given device,
    /// allocating a contiguous extent.
    ///
    /// # Panics
    ///
    /// Panics if the device is unregistered or out of space.
    #[allow(clippy::expect_used)] // documented under `# Panics`
    pub fn create(
        &mut self,
        name: &str,
        socket: SocketId,
        device: DeviceId,
        nsid: u32,
        pages: u64,
    ) -> FileId {
        let key = (socket.0, device.0);
        let cap = *self.capacity.get(&key).expect("device not registered");
        let next = self.next_lba.get_mut(&key).expect("device not registered");
        assert!(*next + pages <= cap, "device full creating {name}");
        let start = *next;
        *next += pages;
        let blocks = (start..start + pages).map(Lba).collect();
        self.files.push(FileMeta {
            name: name.to_string(),
            socket,
            device,
            nsid,
            blocks,
            lba_mapped: false,
            anon: None,
            overrides: DenseMap::new(),
        });
        FileId(self.files.len() as u32 - 1)
    }

    /// Creates the swap backing for an anonymous mapping (§V): an extent
    /// of `pages` swap blocks, all logically zero until first written
    /// back.
    pub fn create_anon(
        &mut self,
        name: &str,
        socket: SocketId,
        device: DeviceId,
        nsid: u32,
        pages: u64,
    ) -> FileId {
        let id = self.create(name, socket, device, nsid, pages);
        self.files[id.0 as usize].anon = Some(vec![false; pages as usize]);
        id
    }

    /// Whether the file is anonymous swap backing.
    pub fn is_anon(&self, file: FileId) -> bool {
        self.files[file.0 as usize].anon.is_some()
    }

    /// For anonymous files: whether `page` has ever been written to its
    /// swap block (false ⇒ a fault zero-fills without I/O).
    pub fn is_swap_initialized(&self, file: FileId, page: u64) -> bool {
        self.files[file.0 as usize]
            .anon
            .as_ref()
            .map(|v| v[page as usize])
            .unwrap_or(true) // regular file pages always have real contents
    }

    /// Marks an anonymous page's swap block as holding real data (first
    /// writeback). A no-op on non-anonymous files (file-backed pages have
    /// real backing data from the start).
    pub fn mark_swap_initialized(&mut self, file: FileId, page: u64) {
        let Some(anon) = self.files[file.0 as usize].anon.as_mut() else { return };
        anon[page as usize] = true;
    }

    /// File length in pages.
    pub fn pages(&self, file: FileId) -> u64 {
        self.files[file.0 as usize].blocks.len() as u64
    }

    /// Every file ID, in creation order (file IDs are sequential indices).
    /// Lets drivers sweep all file contents — e.g. the chaos harness's
    /// differential recovery oracle digesting final storage state.
    pub fn file_ids(&self) -> impl Iterator<Item = FileId> {
        (0..self.files.len() as u32).map(FileId)
    }

    /// File name.
    pub fn name(&self, file: FileId) -> &str {
        &self.files[file.0 as usize].name
    }

    /// The `(socket, device, nsid)` the file lives on.
    pub fn home(&self, file: FileId) -> (SocketId, DeviceId, u32) {
        let f = &self.files[file.0 as usize];
        (f.socket, f.device, f.nsid)
    }

    /// LBA backing `page` of `file`.
    ///
    /// # Panics
    ///
    /// Panics if `page` is beyond the file's end.
    pub fn lba_of(&self, file: FileId, page: u64) -> Lba {
        self.files[file.0 as usize].blocks[page as usize]
    }

    /// Marks the file as LBA-mapped (fast-mmapped); subsequent block remaps
    /// must be propagated to PTEs (§IV-B).
    pub fn mark_lba_mapped(&mut self, file: FileId) {
        self.files[file.0 as usize].lba_mapped = true;
    }

    /// Whether the file is LBA-mapped.
    pub fn is_lba_mapped(&self, file: FileId) -> bool {
        self.files[file.0 as usize].lba_mapped
    }

    /// A copy-on-write / log-structured block update: moves `page` to a
    /// freshly allocated LBA. Returns `(old, new)` and whether the caller
    /// must propagate the change into LBA-augmented PTEs.
    ///
    /// # Panics
    ///
    /// Panics if the device is out of space.
    // A file's device was registered when the file was created.
    #[allow(clippy::expect_used)]
    pub fn remap_page(&mut self, file: FileId, page: u64) -> (Lba, Lba, bool) {
        let (socket, device) = {
            let f = &self.files[file.0 as usize];
            (f.socket, f.device)
        };
        let key = (socket.0, device.0);
        let cap = *self.capacity.get(&key).expect("device not registered");
        let next = self.next_lba.get_mut(&key).expect("device not registered");
        assert!(*next < cap, "device full remapping");
        let new = Lba(*next);
        *next += 1;
        let f = &mut self.files[file.0 as usize];
        let old = std::mem::replace(&mut f.blocks[page as usize], new);
        let mapped = f.lba_mapped;
        // A home-block remap supersedes any migration override; an
        // in-flight migration sees the location change and aborts.
        f.overrides.remove(page);
        (old, new, mapped)
    }

    /// Blocks allocated on a device so far.
    pub fn device_used(&self, socket: SocketId, device: DeviceId) -> u64 {
        *self.next_lba.get(&(socket.0, device.0)).unwrap_or(&0)
    }

    /// The `(socket, device, nsid, lba)` where `page` of `file` currently
    /// lives: its migration override when one is set, otherwise its home
    /// placement.
    pub fn location(&self, file: FileId, page: u64) -> Location {
        let f = &self.files[file.0 as usize];
        if let Some(loc) = f.overrides.get(page) {
            return *loc;
        }
        (f.socket, f.device, f.nsid, f.blocks[page as usize])
    }

    /// Moves a page's current location off its home device (a tier
    /// migration committed). The home block mapping is retained so a later
    /// [`MiniFs::clear_location`] restores it.
    pub fn set_location(
        &mut self,
        file: FileId,
        page: u64,
        socket: SocketId,
        device: DeviceId,
        nsid: u32,
        lba: Lba,
    ) {
        self.files[file.0 as usize].overrides.insert(page, (socket, device, nsid, lba));
    }

    /// Restores a page's location to its home placement (demotion).
    pub fn clear_location(&mut self, file: FileId, page: u64) {
        self.files[file.0 as usize].overrides.remove(page);
    }

    /// The raw migration override for a page, if any (audit cross-checks).
    pub fn location_override(&self, file: FileId, page: u64) -> Option<Location> {
        self.files[file.0 as usize].overrides.get(page).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs_with_device() -> MiniFs {
        let mut fs = MiniFs::new();
        fs.register_device(SocketId(0), DeviceId(0), 1000);
        fs
    }

    #[test]
    fn create_allocates_contiguous_extent() {
        let mut fs = fs_with_device();
        let a = fs.create("a", SocketId(0), DeviceId(0), 1, 10);
        let b = fs.create("b", SocketId(0), DeviceId(0), 1, 5);
        assert_eq!(fs.pages(a), 10);
        assert_eq!(fs.lba_of(a, 0), Lba(0));
        assert_eq!(fs.lba_of(a, 9), Lba(9));
        assert_eq!(fs.lba_of(b, 0), Lba(10), "second file follows the first");
        assert_eq!(fs.device_used(SocketId(0), DeviceId(0)), 15);
        assert_eq!(fs.name(a), "a");
    }

    #[test]
    #[should_panic(expected = "device full")]
    fn create_beyond_capacity_panics() {
        let mut fs = fs_with_device();
        fs.create("big", SocketId(0), DeviceId(0), 1, 1001);
    }

    #[test]
    fn remap_moves_block_and_reports_propagation() {
        let mut fs = fs_with_device();
        let f = fs.create("f", SocketId(0), DeviceId(0), 1, 4);
        // Not LBA-mapped yet: no PTE propagation needed.
        let (old, new, propagate) = fs.remap_page(f, 2);
        assert_eq!(old, Lba(2));
        assert_eq!(new, Lba(4), "fresh block from the allocator");
        assert!(!propagate);
        assert_eq!(fs.lba_of(f, 2), new);
        // After fast-mmap the file is marked and remaps demand propagation.
        fs.mark_lba_mapped(f);
        let (_, _, propagate) = fs.remap_page(f, 0);
        assert!(propagate, "§IV-B: remaps on marked files update PTEs");
    }

    #[test]
    fn homes_are_tracked() {
        let mut fs = MiniFs::new();
        fs.register_device(SocketId(2), DeviceId(3), 100);
        let f = fs.create("x", SocketId(2), DeviceId(3), 7, 1);
        assert_eq!(fs.home(f), (SocketId(2), DeviceId(3), 7));
    }

    #[test]
    fn location_overrides_resolve_and_clear() {
        let mut fs = fs_with_device();
        fs.register_device(SocketId(0), DeviceId(1), 100);
        let f = fs.create("f", SocketId(0), DeviceId(0), 1, 4);
        assert_eq!(fs.location(f, 2), (SocketId(0), DeviceId(0), 1, Lba(2)));
        fs.set_location(f, 2, SocketId(0), DeviceId(1), 1, Lba(7));
        assert_eq!(fs.location(f, 2), (SocketId(0), DeviceId(1), 1, Lba(7)));
        assert_eq!(fs.location_override(f, 2), Some((SocketId(0), DeviceId(1), 1, Lba(7))));
        assert_eq!(fs.lba_of(f, 2), Lba(2), "home mapping retained under the override");
        fs.clear_location(f, 2);
        assert_eq!(fs.location(f, 2), (SocketId(0), DeviceId(0), 1, Lba(2)));
        assert_eq!(fs.location_override(f, 2), None);
    }

    #[test]
    fn remap_supersedes_location_override() {
        let mut fs = fs_with_device();
        fs.register_device(SocketId(0), DeviceId(1), 100);
        let f = fs.create("f", SocketId(0), DeviceId(0), 1, 4);
        fs.set_location(f, 1, SocketId(0), DeviceId(1), 1, Lba(3));
        let (_, new, _) = fs.remap_page(f, 1);
        assert_eq!(fs.location_override(f, 1), None);
        assert_eq!(fs.location(f, 1), (SocketId(0), DeviceId(0), 1, new));
    }

    #[test]
    fn multiple_devices_allocate_independently() {
        let mut fs = MiniFs::new();
        fs.register_device(SocketId(0), DeviceId(0), 100);
        fs.register_device(SocketId(0), DeviceId(1), 100);
        let a = fs.create("a", SocketId(0), DeviceId(0), 1, 10);
        let b = fs.create("b", SocketId(0), DeviceId(1), 1, 10);
        assert_eq!(fs.lba_of(a, 0), Lba(0));
        assert_eq!(fs.lba_of(b, 0), Lba(0), "separate LBA spaces per device");
    }
}
