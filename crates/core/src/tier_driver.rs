//! The tier driver: what the placement engine deliberately does not know.
//!
//! [`TierEngine`] decides which pages move and holds each page's residence.
//! The driver knows which file page each tracked key is, turns the engine's
//! plans into copy reads and writes on real devices (`System` submits them
//! through the same queues as demand misses), and at commit moves the
//! file system's location and any LBA-augmented PTEs in step with the
//! engine. A writeback of a page under migration marks its copy dirty in
//! the engine, which then refuses to commit it; a writeback of a
//! fast-resident page marks it diverged, so its demotion copies it home.
//! A demotion of a page that has not diverged needs no copy at all: its
//! home block still holds its bytes, and `System` commits it at once.

use hwdp_mem::addr::{BlockRef, DeviceId, Lba, SocketId};
use hwdp_nvme::device::NvmeController;
use hwdp_os::fs::{FileId, MiniFs};
use hwdp_os::kernel::Os;
use hwdp_sim::dense::DenseMap;
use hwdp_sim::sanitize::AuditReport;
use hwdp_sim::time::Duration;
use hwdp_tier::{MigrationPlan, TierConfig, TierEngine, TierReport, TierResidence};

/// A block on socket 0.
fn block(device: DeviceId, lba: u64) -> BlockRef {
    BlockRef { socket: SocketId(0), device, lba: Lba(lba) }
}

/// The placement engine plus each tracked page's identity.
pub(crate) struct TierDriver {
    pub(crate) engine: TierEngine,
    /// The fast tier's device (device 0 is always the slow tier).
    pub(crate) fast_dev: DeviceId,
    /// Migration-daemon wake period.
    pub(crate) period: Duration,
    /// Page key (home slow LBA) → owning `(file, page)`.
    pub(crate) pages: DenseMap<(FileId, u64)>,
    /// Planted defect for the negative test of `tier-clean-copy-equal`:
    /// writes to fast-resident pages never mark them diverged.
    #[cfg(test)]
    pub(crate) forget_divergence: bool,
}

impl TierDriver {
    pub(crate) fn new(cfg: TierConfig, fast_dev: DeviceId) -> TierDriver {
        TierDriver {
            engine: TierEngine::new(cfg),
            fast_dev,
            period: cfg.period,
            pages: DenseMap::new(),
            #[cfg(test)]
            forget_divergence: false,
        }
    }

    /// Starts hotness tracking for every block of a file homed on the slow
    /// tier (device 0). Files on other devices, the fast tier's included,
    /// are not migration candidates.
    pub(crate) fn register_file(&mut self, fs: &MiniFs, file: FileId, device: DeviceId, pages: u64) {
        if device != DeviceId(0) {
            return;
        }
        for p in 0..pages {
            let key = fs.lba_of(file, p).0;
            self.engine.register(key);
            self.pages.insert(key, (file, p));
        }
    }

    /// A demand read of `lba` on device `dev`, at its first submission.
    pub(crate) fn record_access(&mut self, dev: usize, lba: u64) {
        self.engine.record_access(dev == usize::from(self.fast_dev.0), lba);
    }

    /// A writeback of `block`: a migration copying the page it holds is
    /// now stale, and a fast-resident page has diverged from its home.
    pub(crate) fn note_writeback(&mut self, block: &BlockRef) {
        let fast = block.device == self.fast_dev;
        #[cfg(test)]
        if self.forget_divergence && fast {
            let owner = self.engine.fast_owner(block.lba.0);
            if matches!(owner.and_then(|key| self.engine.residence_of(key)), Some(TierResidence::Fast(_))) {
                return;
            }
        }
        self.engine.mark_dirty(fast, block.lba.0);
    }

    /// One daemon tick: appends the migrations to start to `plans`. Pages
    /// resident in memory are skipped: in the page cache, or mapped by the
    /// SMU and awaiting `kpted`. Copying such a page wastes device time
    /// (reads hit DRAM, not a tier), and a dirtying store before its
    /// writeback would race the copy.
    pub(crate) fn plan(&mut self, os: &Os, plans: &mut Vec<MigrationPlan>) {
        let TierDriver { engine, pages, .. } = self;
        engine.plan_tick_into(|key| pages.get(key).is_some_and(|(f, p)| !os.page_resident(*f, *p)), plans);
    }

    /// Where a planned migration's copy read comes from.
    pub(crate) fn copy_source(&self, plan: MigrationPlan) -> BlockRef {
        match plan {
            MigrationPlan::Promote { key, .. } => block(DeviceId(0), key),
            MigrationPlan::Demote { fast_lba, .. } => block(self.fast_dev, fast_lba),
        }
    }

    /// The fast slot a demotion in flight for `key` frees at commit.
    pub(crate) fn demoting_slot(&self, key: u64) -> Option<BlockRef> {
        match self.engine.residence_of(key)? {
            TierResidence::DemoteInFlight(f) => Some(block(self.fast_dev, f)),
            _ => None,
        }
    }

    /// Whose bytes a read of `target` returns, if it is a fast-tier
    /// block: `Some(Some(owner))` for a slot a page owns, `Some(None)` for
    /// a free slot, `None` for a block on another device.
    pub(crate) fn fast_slot_owner(&self, target: BlockRef) -> Option<Option<(FileId, u64)>> {
        (target.device == self.fast_dev)
            .then(|| self.engine.fast_owner(target.lba.0).and_then(|key| self.pages.get(key).copied()))
    }

    /// Where a migration whose copy read completed writes, or `None` if
    /// it was aborted while the read was in flight.
    pub(crate) fn copy_destination(&self, key: u64) -> Option<BlockRef> {
        match self.engine.residence_of(key)? {
            TierResidence::PromoteInFlight(f) => Some(block(self.fast_dev, f)),
            TierResidence::DemoteInFlight(_) => Some(block(DeviceId(0), key)),
            _ => None,
        }
    }

    /// The copy write completed: ownership moves at this virtual-time
    /// instant (engine residence, file-system location and LBA-augmented
    /// PTEs at once), unless the page moved under the copy or the engine
    /// refuses a copy marked dirty; the migration then aborts.
    pub(crate) fn commit(&mut self, os: &mut Os, key: u64) {
        let Some(&(file, page)) = self.pages.get(key) else { return };
        let in_place = match self.engine.residence_of(key) {
            // The page must still live on its home LBA.
            Some(TierResidence::PromoteInFlight(_)) => {
                os.fs.location_override(file, page).is_none() && os.fs.lba_of(file, page).0 == key
            }
            Some(TierResidence::DemoteInFlight(f)) => {
                os.fs.location_override(file, page) == Some((SocketId(0), self.fast_dev, 1, Lba(f)))
            }
            _ => return,
        };
        if !in_place {
            self.engine.abort(key);
            return;
        }
        let moved = match self.engine.commit(key) {
            Some(TierResidence::Fast(f)) => {
                os.fs.set_location(file, page, SocketId(0), self.fast_dev, 1, Lba(f));
                block(self.fast_dev, f)
            }
            Some(TierResidence::Slow) => {
                os.fs.clear_location(file, page);
                block(DeviceId(0), key)
            }
            _ => return,
        };
        os.propagate_block_update(file, page, moved);
    }

    /// Aborts every migration in flight (their copy I/O died with a
    /// controller).
    pub(crate) fn abort_all(&mut self) {
        for key in self.pages.keys() {
            self.engine.abort(key);
        }
    }

    /// `tier-residence-consistent`: what the engine believes about each
    /// page's placement must agree with the file system's location
    /// override, or reads would be routed to a block the tier layer does
    /// not own.
    pub(crate) fn check_residence(&self, fs: &MiniFs, report: &mut AuditReport) {
        for (key, &(file, page)) in self.pages.iter() {
            let over = fs.location_override(file, page);
            let res = self.engine.residence_of(key);
            let ok = match res {
                Some(TierResidence::Slow | TierResidence::PromoteInFlight(_)) | None => over.is_none(),
                Some(TierResidence::Fast(f) | TierResidence::DemoteInFlight(f)) => {
                    over == Some((SocketId(0), self.fast_dev, 1, Lba(f)))
                }
            };
            report.check_args(
                "core",
                "tier-residence-consistent",
                ok,
                format_args!(
                    "page key {key} (file {} page {page}): engine residence {res:?} \
                     disagrees with fs location override {over:?}",
                    file.0
                ),
            );
        }
    }

    /// `tier-clean-copy-equal`: a fast-resident page that has not
    /// diverged holds the same bytes on its fast and home blocks, or a
    /// demotion that skips the copy would lose a write. Compares the
    /// blocks' contents in place, without copying or hashing them.
    pub(crate) fn check_clean_copies(&self, devices: &[NvmeController], report: &mut AuditReport) {
        let (fast, slow) = (devices[usize::from(self.fast_dev.0)].namespace(1), devices[0].namespace(1));
        for (key, f) in self.engine.clean_fast_pages() {
            report.check_args(
                "core",
                "tier-clean-copy-equal",
                fast.block(Lba(f)) == slow.block(Lba(key)),
                format_args!("page key {key} is not marked diverged, but fast LBA {f} and its home block differ"),
            );
        }
    }

    /// The engine's counters plus both tiers' device service counts.
    pub(crate) fn report(&self, devices: &[NvmeController]) -> TierReport {
        let (fast, slow) = (devices[usize::from(self.fast_dev.0)].stats(), devices[0].stats());
        TierReport {
            fast_reads: fast.reads,
            fast_writes: fast.writes,
            slow_reads: slow.reads,
            slow_writes: slow.writes,
            ..self.engine.report()
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Corruption for `tier-residence-consistent`: makes the file system
    /// claim a page lives on the fast tier while the engine still holds it
    /// slow-resident.
    pub(crate) fn corrupt_residence(tr: &TierDriver, fs: &mut MiniFs) {
        let (key, &(file, page)) = tr.pages.iter().next().expect("a tracked page");
        fs.set_location(file, page, SocketId(0), tr.fast_dev, 1, Lba(key));
    }

    /// Corruption for `reset-tier-quiesced`: heats a tracked page and plans
    /// on the engine directly, so a migration is in flight with no copy
    /// I/O behind it.
    pub(crate) fn corrupt_inflight(tr: &mut TierDriver) {
        let key = tr.pages.keys().next().expect("a tracked page");
        for _ in 0..64 {
            tr.engine.record_access(false, key);
        }
        assert!(!tr.engine.plan_tick(|_| true).is_empty(), "the hot page is planned");
    }
}
