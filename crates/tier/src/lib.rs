//! hwdp-tier: tiered storage with hot/cold page migration.
//!
//! The paper evaluates HWDP against three device classes one at a time;
//! this crate turns the single-device reproduction into a storage
//! hierarchy: a *fast* and a *slow* NVMe device, a per-page hotness
//! tracker, and a virtual-time migration engine that promotes hot pages
//! into the (capacity-limited) fast tier and demotes cold ones back.
//!
//! The engine is deliberately device-agnostic: it reasons about pages by
//! their *home LBA on the slow tier* (a stable `u64` key), decides *what*
//! to move, and leaves the *how* — issuing real NVMe reads and writes so
//! migration traffic contends with demand misses — to the system driver.
//! Placement decisions are [`PolicyKind`]'s `promote`/`demote` methods, so
//! static, LRU-epoch, and promotion-threshold policies are swappable
//! research knobs (the Virtuoso methodology), not constants.
//!
//! Planning costs what is active, not what is tracked: heats decay
//! lazily (a page's heat is stored with the epoch of its last access and
//! read shifted right once per epoch since), and a tick visits only the
//! warm list of pages with nonzero heat and the fast-tier pages.
//!
//! The fast-resident pages are kept in demotion order: one sorted index
//! of `(last_epoch, key)` entries, the order both demoting policies score
//! victims in. It changes at four points only: a committed promotion
//! inserts the page, an aborted demotion re-inserts it, planning a
//! demotion removes it, and an access that moves a fast page's
//! `last_epoch` moves its entry. A tick takes its policy victims by
//! walking the index from the front, so it neither walks the fast map
//! nor sorts them; under [`PolicyKind::LruEpoch`] the walk stops at the
//! first page the policy keeps. Only forced demotions under promotion
//! pressure, ordered by decayed heat, are still collected and sorted.
//!
//! Ownership discipline: every page is owned by exactly one tier at any
//! virtual-time instant. A migration holds the page in an explicit
//! in-flight state (`PromoteInFlight` / `DemoteInFlight`) while its copy
//! I/O is outstanding and transfers ownership atomically at commit. A
//! fast-resident page also carries a *diverged* mark, set by a write that
//! reaches it: until then its home block still holds its bytes, and its
//! demotion needs no copy. The [`Sanitizer`] impl audits the fast-LBA
//! ownership bijection and the capacity bound, and the core cross-checks
//! engine residence against the file system's per-page location
//! overrides and a clean page's two copies.

use hwdp_nvme::profile::DeviceProfile;
use hwdp_sim::sanitize::{AuditReport, SanitizeLevel, Sanitizer};
use hwdp_sim::DenseMap;
use hwdp_sim::time::Duration;

/// Which placement policy drives migration.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PolicyKind {
    /// Never migrate: pages stay on their home (slow) tier. The control
    /// arm of any policy comparison.
    Static,
    /// Promote pages touched in the current epoch, demote pages idle for
    /// a fixed number of epochs (classic epoch-LRU).
    LruEpoch,
    /// Promote pages whose decayed access count crosses a threshold,
    /// demote pages whose count decayed to zero.
    #[default]
    Threshold,
}

impl PolicyKind {
    /// Stable lower-case name (CLI value and artifact key).
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Static => "static",
            PolicyKind::LruEpoch => "lru",
            PolicyKind::Threshold => "threshold",
        }
    }

    /// Parses a policy name produced by [`PolicyKind::name`].
    pub fn parse(s: &str) -> Option<PolicyKind> {
        match s {
            "static" => Some(PolicyKind::Static),
            "lru" | "lru-epoch" => Some(PolicyKind::LruEpoch),
            "threshold" => Some(PolicyKind::Threshold),
            _ => None,
        }
    }

    /// Every policy, in deterministic grid order.
    pub const ALL: [PolicyKind; 3] =
        [PolicyKind::Static, PolicyKind::LruEpoch, PolicyKind::Threshold];
}

/// Full tiering configuration the system driver builds a hierarchy from.
#[derive(Clone, Copy, Debug)]
pub struct TierConfig {
    /// The fast tier's device (extra controller added at construction).
    pub fast: DeviceProfile,
    /// The slow tier's device (replaces the configured home device so
    /// data starts cold on the slow tier).
    pub slow: DeviceProfile,
    /// Fast-tier capacity as a percentage of the tracked page population.
    pub cap_pct: u32,
    /// The placement policy.
    pub policy: PolicyKind,
    /// Virtual-time period between migration-daemon ticks.
    pub period: Duration,
    /// Maximum promotions (and, separately, demotions) planned per tick.
    pub batch: usize,
}

/// Where a tracked page currently lives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TierResidence {
    /// On its home LBA on the slow tier.
    Slow,
    /// On the given fast-tier LBA.
    Fast(u64),
    /// Copy to the (reserved) fast LBA is in flight; the slow copy still
    /// owns the page until commit.
    PromoteInFlight(u64),
    /// Copy back to the home LBA is in flight; the fast LBA still owns
    /// the page until commit.
    DemoteInFlight(u64),
}

/// A page's trackable state, as seen by [`PolicyKind::promote`] and
/// [`PolicyKind::demote`].
#[derive(Clone, Copy, Debug)]
pub struct PageView {
    /// The page's key (its home LBA on the slow tier).
    pub key: u64,
    /// Decayed access count (halved every epoch).
    pub heat: u32,
    /// Epoch of the most recent device access.
    pub last_epoch: u64,
}

/// Epochs of inactivity before [`PolicyKind::LruEpoch`] demotes a
/// fast-resident page.
const LRU_IDLE_EPOCHS: u64 = 4;

/// Decayed access count at which [`PolicyKind::Threshold`] finds a slow
/// page promotion-worthy.
const PROMOTE_THRESHOLD: u32 = 2;

impl PolicyKind {
    /// Whether a slow-resident page should be promoted this epoch. A
    /// deterministic pure function of the view and epoch, and never true
    /// for a page whose heat is 0: the planner looks for candidates only
    /// among pages with nonzero heat.
    pub fn promote(self, page: &PageView, epoch: u64) -> bool {
        match self {
            PolicyKind::Static => false,
            PolicyKind::LruEpoch => page.last_epoch == epoch && page.heat > 0,
            PolicyKind::Threshold => page.heat >= PROMOTE_THRESHOLD,
        }
    }

    /// Standalone demotion of a fast-resident page: `Some(score)` to
    /// demote it (lower scores are demoted first), `None` to keep it.
    pub fn demote(self, page: &PageView, epoch: u64) -> Option<u64> {
        let demote = match self {
            PolicyKind::Static => false,
            PolicyKind::LruEpoch => epoch.saturating_sub(page.last_epoch) >= LRU_IDLE_EPOCHS,
            PolicyKind::Threshold => page.heat == 0,
        };
        demote.then_some(page.last_epoch)
    }
}

/// One migration the engine wants the system driver to perform.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MigrationPlan {
    /// Copy the page from its home LBA to the reserved `fast_lba`.
    Promote {
        /// Page key (home slow LBA).
        key: u64,
        /// Destination LBA on the fast tier.
        fast_lba: u64,
    },
    /// Copy the page from `fast_lba` back to its home LBA.
    Demote {
        /// Page key (home slow LBA).
        key: u64,
        /// Source LBA on the fast tier.
        fast_lba: u64,
    },
}

impl MigrationPlan {
    /// The page the plan moves.
    pub fn key(self) -> u64 {
        match self {
            MigrationPlan::Promote { key, .. } | MigrationPlan::Demote { key, .. } => key,
        }
    }
}

/// Tiering outcome counters, exported as `tier/...` metrics only when
/// tiering was enabled (single-device artifacts stay byte-identical).
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct TierReport {
    /// Committed promotions (slow → fast).
    pub promotions: u64,
    /// Committed demotions (fast → slow).
    pub demotions: u64,
    /// Migrations aborted (I/O failure, concurrent dirty writeback, or
    /// a location change under the copy).
    pub aborts: u64,
    /// Tracked demand reads served by the fast tier.
    pub fast_hits: u64,
    /// Tracked demand reads served by the slow tier.
    pub slow_hits: u64,
    /// `fast_hits / (fast_hits + slow_hits)` over the whole run.
    pub fast_hit_ratio: f64,
    /// The same ratio over the first half of the run's epochs.
    pub fast_hit_ratio_early: f64,
    /// The same ratio over the second half of the run's epochs.
    pub fast_hit_ratio_late: f64,
    /// Fast-tier device service counters (reads include migration I/O).
    pub fast_reads: u64,
    /// Fast-tier device writes (demand writebacks plus promotions).
    pub fast_writes: u64,
    /// Slow-tier device reads.
    pub slow_reads: u64,
    /// Slow-tier device writes.
    pub slow_writes: u64,
}

/// A tracked page's internal state.
#[derive(Clone, Copy, Debug)]
struct PageState {
    residence: TierResidence,
    /// Access count as of `last_epoch`, the epoch of the page's last
    /// update; [`PageState::heat_at`] applies the decay since.
    heat: u32,
    last_epoch: u64,
    /// The page's position on the engine's warm list, if listed.
    warm_slot: Option<usize>,
    /// The page's source was rewritten while its migration was in flight,
    /// so the copy is stale: [`TierEngine::commit`] refuses it. Set only
    /// in flight; commit and abort clear it.
    dirty: bool,
    /// A write reached the page while it was fast-resident, so its home
    /// block no longer holds its bytes and a demotion must copy them
    /// back. Set only on fast-resident pages; a committed migration
    /// clears it, and an aborted demotion keeps it.
    diverged: bool,
}

impl PageState {
    /// The heat at `epoch`: halved once per tick since `last_epoch`,
    /// exactly as repeated `/= 2` would leave it (32 halvings clear any
    /// `u32`).
    fn heat_at(&self, epoch: u64) -> u32 {
        let halvings = epoch.saturating_sub(self.last_epoch).min(32);
        (u64::from(self.heat) >> halvings) as u32
    }

    fn view(&self, key: u64, epoch: u64) -> PageView {
        PageView { key, heat: self.heat_at(epoch), last_epoch: self.last_epoch }
    }
}

/// A demotion victim's sort key: `score`, then `key`.
fn victim(score: u64, key: u64) -> u128 {
    (u128::from(score) << 64) | u128::from(key)
}

/// Adds `entry` to the sorted `order` (no-op if present).
fn order_insert(order: &mut Vec<u128>, entry: u128) {
    if let Err(i) = order.binary_search(&entry) {
        order.insert(i, entry);
    }
}

/// Removes `entry` from the sorted `order` (no-op if absent).
fn order_remove(order: &mut Vec<u128>, entry: u128) {
    if let Ok(i) = order.binary_search(&entry) {
        order.remove(i);
    }
}

/// The tiering engine: hotness tracking, placement planning, and
/// ownership bookkeeping over one fast / one slow tier.
pub struct TierEngine {
    cfg: TierConfig,
    /// Tracked pages keyed by home slow LBA.
    pages: DenseMap<PageState>,
    /// Every tracked page whose heat may be nonzero, each once at the
    /// position its `warm_slot` names, in no particular order. A tick
    /// looks for promotion candidates only here: no policy promotes a
    /// cold page.
    warm: Vec<u64>,
    /// Fast-LBA ownership: fast LBA → page key. Exactly the pages whose
    /// residence is `Fast`/`PromoteInFlight`/`DemoteInFlight` on that LBA.
    fast_map: DenseMap<u64>,
    /// The pages whose residence is `Fast`, each once as
    /// `victim(last_epoch, key)`, strictly ascending: the order the
    /// planner takes policy demotions in.
    fast_order: Vec<u128>,
    /// Fast-LBA bump allocator plus free list (LIFO, deterministic).
    next_fast: u64,
    free_fast: Vec<u64>,
    epoch: u64,
    promotions: u64,
    demotions: u64,
    aborts: u64,
    fast_hits: u64,
    slow_hits: u64,
    /// Per-epoch `(fast, slow)` hit deltas, for the early/late ratios.
    epoch_hits: Vec<(u64, u64)>,
    /// Totals already folded into `epoch_hits`.
    counted_hits: (u64, u64),
    /// Scratch buffers reused across ticks so steady-state planning does
    /// not allocate (always drained before a tick returns).
    scratch_cands: Vec<(u32, u64)>,
    scratch_forced: Vec<u128>,
}

impl TierEngine {
    /// Creates an engine for `cfg` with no tracked pages.
    pub fn new(cfg: TierConfig) -> TierEngine {
        TierEngine {
            cfg,
            pages: DenseMap::new(),
            warm: Vec::new(),
            fast_map: DenseMap::new(),
            fast_order: Vec::new(),
            next_fast: 0,
            free_fast: Vec::new(),
            epoch: 0,
            promotions: 0,
            demotions: 0,
            aborts: 0,
            fast_hits: 0,
            slow_hits: 0,
            epoch_hits: Vec::new(),
            counted_hits: (0, 0),
            scratch_cands: Vec::new(),
            scratch_forced: Vec::new(),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &TierConfig {
        &self.cfg
    }

    /// Starts tracking a page (idempotent); new pages are slow-resident.
    pub fn register(&mut self, key: u64) {
        self.pages.get_or_insert_with(key, || PageState {
            residence: TierResidence::Slow,
            heat: 0,
            last_epoch: 0,
            warm_slot: None,
            dirty: false,
            diverged: false,
        });
    }

    /// Number of tracked pages.
    pub fn tracked(&self) -> usize {
        self.pages.len()
    }

    /// Fast-tier capacity in pages: `cap_pct` percent of the tracked
    /// population, at least one page.
    pub fn fast_limit(&self) -> usize {
        ((self.pages.len() as u64 * self.cfg.cap_pct as u64 / 100).max(1)) as usize
    }

    /// Current residence of a tracked page.
    pub fn residence_of(&self, key: u64) -> Option<TierResidence> {
        self.pages.get(key).map(|p| p.residence)
    }

    /// Whether `key` has a migration in flight.
    pub fn in_flight(&self, key: u64) -> bool {
        matches!(
            self.residence_of(key),
            Some(TierResidence::PromoteInFlight(_) | TierResidence::DemoteInFlight(_))
        )
    }

    /// Whether a write reached the fast-resident page `key` since its
    /// promotion (see [`TierEngine::mark_dirty`]): its demotion must then
    /// copy the page home. A page that has not diverged is *clean*: its
    /// home block still holds its bytes, so its demotion can commit with
    /// no I/O.
    pub fn diverged(&self, key: u64) -> bool {
        self.pages.get(key).is_some_and(|p| p.diverged)
    }

    /// The page that owns fast-tier LBA `fast_lba` (resident or in
    /// flight), or `None` if the slot is free.
    pub fn fast_owner(&self, fast_lba: u64) -> Option<u64> {
        self.fast_map.get(fast_lba).copied()
    }

    /// Every fast-resident page that has not diverged, as `(key,
    /// fast_lba)`, in demotion order.
    pub fn clean_fast_pages(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.fast_order.iter().filter_map(|&entry| {
            // The low 64 bits of an entry are the page key.
            let key = entry as u64;
            match self.pages.get(key)? {
                PageState { residence: TierResidence::Fast(f), diverged: false, .. } => Some((key, *f)),
                _ => None,
            }
        })
    }

    /// The page key behind a device-local LBA on the fast (`fast`) or
    /// slow tier: a fast LBA names its owner, if any; a slow LBA is a key.
    fn key_of(&self, fast: bool, lba: u64) -> Option<u64> {
        if fast {
            self.fast_owner(lba)
        } else {
            Some(lba)
        }
    }

    /// Records one demand read serviced by a device. `fast` selects the
    /// tier the read hit; `lba` is the device-local LBA. Reads of
    /// untracked blocks are ignored.
    pub fn record_access(&mut self, fast: bool, lba: u64) {
        let Some(key) = self.key_of(fast, lba) else { return };
        let epoch = self.epoch;
        if let Some(p) = self.pages.get_mut(key) {
            if matches!(p.residence, TierResidence::Fast(_)) && p.last_epoch != epoch {
                order_remove(&mut self.fast_order, victim(p.last_epoch, key));
                order_insert(&mut self.fast_order, victim(epoch, key));
            }
            p.heat = p.heat_at(epoch).saturating_add(1);
            p.last_epoch = epoch;
            if p.warm_slot.is_none() {
                p.warm_slot = Some(self.warm.len());
                self.warm.push(key);
            }
            if fast {
                self.fast_hits += 1;
            } else {
                self.slow_hits += 1;
            }
        }
    }

    fn alloc_fast(&mut self) -> u64 {
        if let Some(f) = self.free_fast.pop() {
            return f;
        }
        let f = self.next_fast;
        self.next_fast += 1;
        f
    }

    /// One migration-daemon tick: evaluates the policy over the warm and
    /// fast-resident pages and returns the migrations to start.
    /// `eligible` filters pages the driver cannot safely migrate right now
    /// (e.g. resident in the page cache). Planned pages are marked in
    /// flight; the driver must later [`TierEngine::commit`] or
    /// [`TierEngine::abort`] each one. After planning, heats decay by half
    /// and the epoch advances.
    pub fn plan_tick(&mut self, eligible: impl FnMut(u64) -> bool) -> Vec<MigrationPlan> {
        let mut plans = Vec::new();
        self.plan_tick_into(eligible, &mut plans);
        plans
    }

    /// Allocation-free [`TierEngine::plan_tick`]: planned migrations are
    /// appended to the caller's scratch buffer, and the intermediate
    /// candidate/victim lists reuse engine-owned scratch storage.
    pub fn plan_tick_into(
        &mut self,
        mut eligible: impl FnMut(u64) -> bool,
        plans: &mut Vec<MigrationPlan>,
    ) {
        let epoch = self.epoch;
        let policy = self.cfg.policy;

        // Promotion candidates: slow pages the policy would promote. Only
        // a page with nonzero heat can be one, so the warm list is walked
        // instead of every tracked page; a page whose heat the closing
        // decay clears leaves the list until its next access.
        let mut cands = std::mem::take(&mut self.scratch_cands);
        let mut kept = 0;
        for i in 0..self.warm.len() {
            let key = self.warm[i];
            let Some(p) = self.pages.get_mut(key) else { continue };
            let view = p.view(key, epoch);
            if p.residence == TierResidence::Slow && policy.promote(&view, epoch) {
                cands.push((view.heat, key));
            }
            if view.heat > 1 {
                p.warm_slot = Some(kept);
                self.warm[kept] = key;
                kept += 1;
            } else {
                p.warm_slot = None;
            }
        }
        self.warm.truncate(kept);
        // Hottest first, key order tie-break; keys are unique, so the
        // order is total and an unstable sort gives the stable one's.
        cands.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

        let limit = self.fast_limit();
        let mut promoted = 0usize;
        let mut overflow = 0usize;
        for (_, key) in cands.drain(..) {
            if promoted >= self.cfg.batch || self.fast_map.len() >= limit {
                // Pressure: candidates that could not be placed this tick
                // drive room-making demotions below; the page retries on a
                // later tick once a slot is free.
                overflow += 1;
                continue;
            }
            if !eligible(key) {
                continue;
            }
            let f = self.alloc_fast();
            self.fast_map.insert(f, key);
            if let Some(p) = self.pages.get_mut(key) {
                p.residence = TierResidence::PromoteInFlight(f);
            }
            plans.push(MigrationPlan::Promote { key, fast_lba: f });
            promoted += 1;
        }
        self.scratch_cands = cands;

        // Policy demotions, from the fast-resident pages in demotion order
        // (`fast_order`, which excludes the pages just promoted): the
        // order a sort of the policy's victims by score, then key, would
        // give, since both demoting policies score a page by its
        // `last_epoch`. Under `LruEpoch` the victims are a prefix of that
        // order (idle time falls as `last_epoch` rises), so the walk stops
        // at the first page the policy keeps; `Static` keeps every page.
        let batch = self.cfg.batch;
        let mut demoted = 0usize;
        let mut i = 0;
        while demoted < batch && i < self.fast_order.len() {
            // The low 64 bits of an entry are the page key.
            let key = self.fast_order[i] as u64;
            let Some(p) = self.pages.get_mut(key) else {
                i += 1;
                continue;
            };
            let demote = policy.demote(&p.view(key, epoch), epoch).is_some();
            if !demote && policy != PolicyKind::Threshold {
                break;
            }
            let TierResidence::Fast(f) = p.residence else {
                i += 1;
                continue;
            };
            if demote && eligible(key) {
                p.residence = TierResidence::DemoteInFlight(f);
                plans.push(MigrationPlan::Demote { key, fast_lba: f });
                self.fast_order.remove(i);
                demoted += 1;
            } else {
                i += 1;
            }
        }

        // Forced demotions, only under promotion pressure: the coldest
        // fast-resident pages the policy keeps make room for the next
        // tick. At most `overflow` of them are tried, eligible or not.
        if overflow > 0 && demoted < batch {
            let mut forced = std::mem::take(&mut self.scratch_forced);
            for &entry in &self.fast_order {
                let key = entry as u64;
                let Some(p) = self.pages.get(key) else { continue };
                let v = p.view(key, epoch);
                if policy.demote(&v, epoch).is_none() {
                    // Coldest first: heat, then staleness, then key.
                    let score = ((v.heat as u64) << 32) | (v.last_epoch & 0xFFFF_FFFF);
                    forced.push(victim(score, key));
                }
            }
            forced.sort_unstable();
            for &entry in forced.iter().take(overflow) {
                if demoted >= batch {
                    break;
                }
                let key = entry as u64;
                if !eligible(key) {
                    continue;
                }
                let Some(p) = self.pages.get_mut(key) else { continue };
                let TierResidence::Fast(f) = p.residence else { continue };
                p.residence = TierResidence::DemoteInFlight(f);
                order_remove(&mut self.fast_order, victim(p.last_epoch, key));
                plans.push(MigrationPlan::Demote { key, fast_lba: f });
                demoted += 1;
            }
            forced.clear();
            self.scratch_forced = forced;
        }

        // Close the epoch: fold hit deltas and advance, which halves every
        // heat (see `PageState::heat_at`).
        let delta =
            (self.fast_hits - self.counted_hits.0, self.slow_hits - self.counted_hits.1);
        self.epoch_hits.push(delta);
        self.counted_hits = (self.fast_hits, self.slow_hits);
        self.epoch += 1;
    }

    /// Records a write of a device-local LBA (addressed as in
    /// [`TierEngine::record_access`]). If the page it holds has a
    /// migration in flight, the copy is now stale and is marked so; if
    /// the page is fast-resident, it has diverged from its home block.
    pub fn mark_dirty(&mut self, fast: bool, lba: u64) {
        let Some(key) = self.key_of(fast, lba) else { return };
        if let Some(p) = self.pages.get_mut(key) {
            p.dirty |= !matches!(p.residence, TierResidence::Slow | TierResidence::Fast(_));
            p.diverged |= matches!(p.residence, TierResidence::Fast(_) | TierResidence::DemoteInFlight(_));
        }
    }

    /// Commits an in-flight migration: ownership transfers atomically at
    /// this virtual-time instant. Returns the new residence, or `None`
    /// when no migration was in flight for `key`. A copy marked dirty
    /// ([`TierEngine::mark_dirty`]) is aborted instead, and `None` returned.
    pub fn commit(&mut self, key: u64) -> Option<TierResidence> {
        if self.pages.get(key)?.dirty {
            self.abort(key);
            return None;
        }
        let p = self.pages.get_mut(key)?;
        match p.residence {
            TierResidence::PromoteInFlight(f) => {
                p.residence = TierResidence::Fast(f);
                p.diverged = false;
                order_insert(&mut self.fast_order, victim(p.last_epoch, key));
                self.promotions += 1;
                Some(p.residence)
            }
            TierResidence::DemoteInFlight(f) => {
                p.residence = TierResidence::Slow;
                p.diverged = false;
                self.fast_map.remove(f);
                self.free_fast.push(f);
                self.demotions += 1;
                Some(p.residence)
            }
            _ => None,
        }
    }

    /// Aborts an in-flight migration, restoring the previous residence
    /// (a reserved promotion slot returns to the free pool) and clearing
    /// its dirty mark.
    pub fn abort(&mut self, key: u64) {
        let Some(p) = self.pages.get_mut(key) else { return };
        p.dirty = false;
        match p.residence {
            TierResidence::PromoteInFlight(f) => {
                p.residence = TierResidence::Slow;
                self.fast_map.remove(f);
                self.free_fast.push(f);
                self.aborts += 1;
            }
            TierResidence::DemoteInFlight(f) => {
                p.residence = TierResidence::Fast(f);
                order_insert(&mut self.fast_order, victim(p.last_epoch, key));
                self.aborts += 1;
            }
            _ => {}
        }
    }

    /// Tiering counters plus overall and early/late fast-hit ratios.
    /// Device service counters are filled in by the system driver.
    pub fn report(&self) -> TierReport {
        let ratio = |fast: u64, slow: u64| {
            let total = fast + slow;
            if total == 0 {
                0.0
            } else {
                fast as f64 / total as f64
            }
        };
        // Hits since the last tick form a final partial epoch, summed in
        // place (no copy of the epoch history).
        let tail =
            (self.fast_hits - self.counted_hits.0, self.slow_hits - self.counted_hits.1);
        let len = self.epoch_hits.len() + usize::from(tail != (0, 0));
        let mid = len / 2;
        // The early window always covers at least one epoch when any exist
        // (`mid` is 0 for a single epoch, which then lands in both halves).
        let early_end = mid.max(usize::from(len > 0));
        let (mut early_f, mut early_s) = (0u64, 0u64);
        let (mut late_f, mut late_s) = (0u64, 0u64);
        for i in 0..len {
            let d = self.epoch_hits.get(i).copied().unwrap_or(tail);
            if i < early_end {
                early_f += d.0;
                early_s += d.1;
            }
            if i >= mid {
                late_f += d.0;
                late_s += d.1;
            }
        }
        TierReport {
            promotions: self.promotions,
            demotions: self.demotions,
            aborts: self.aborts,
            fast_hits: self.fast_hits,
            slow_hits: self.slow_hits,
            fast_hit_ratio: ratio(self.fast_hits, self.slow_hits),
            fast_hit_ratio_early: ratio(early_f, early_s),
            fast_hit_ratio_late: ratio(late_f, late_s),
            ..TierReport::default()
        }
    }

    /// Test hook: breaks the fast-LBA ownership bijection by pointing a
    /// fast slot at a slow-resident page, for negative audit tests.
    #[cfg(test)]
    pub(crate) fn corrupt_fast_owner_for_test(&mut self) {
        let f = self.next_fast;
        self.next_fast += 1;
        let key = self.pages.keys().next().unwrap_or(0);
        self.fast_map.insert(f, key);
    }

    /// Test hook: drops the newest warm-list entry but leaves its page's
    /// slot set, as an access that skipped the listing would, for
    /// negative audit tests.
    #[cfg(test)]
    pub(crate) fn corrupt_warm_list_for_test(&mut self) {
        self.warm.pop();
    }

    /// Test hook: drops the newest fast-order entry but leaves its page
    /// fast-resident, as a commit that skipped the insert would, for
    /// negative audit tests.
    #[cfg(test)]
    pub(crate) fn corrupt_fast_order_for_test(&mut self) {
        self.fast_order.pop();
    }
}

impl std::fmt::Debug for TierEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TierEngine")
            .field("policy", &self.cfg.policy.name())
            .field("tracked", &self.pages.len())
            .field("fast_used", &self.fast_map.len())
            .field("epoch", &self.epoch)
            .finish()
    }
}

impl Sanitizer for TierEngine {
    fn layer(&self) -> &'static str {
        "tier"
    }

    fn sanitize(&self, level: SanitizeLevel, report: &mut AuditReport) {
        if !level.cheap_checks() {
            return;
        }
        // tier-fast-capacity: the reserved fast-tier population (resident
        // plus in-flight) never exceeds the configured capacity.
        report.check_args(
            "tier",
            "tier-fast-capacity",
            self.fast_map.len() <= self.fast_limit(),
            format_args!(
                "fast tier holds {} pages, capacity {}",
                self.fast_map.len(),
                self.fast_limit()
            ),
        );
        if !level.full_checks() {
            return;
        }
        // tier-fast-owner-unique: fast_map ↔ residence is a bijection —
        // every fast LBA is owned by exactly one page whose residence
        // names that LBA, and vice versa.
        for (f, &key) in self.fast_map.iter() {
            let ok = matches!(
                self.residence_of(key),
                Some(
                    TierResidence::Fast(r)
                        | TierResidence::PromoteInFlight(r)
                        | TierResidence::DemoteInFlight(r)
                ) if r == f
            );
            report.check_args(
                "tier",
                "tier-fast-owner-unique",
                ok,
                format_args!("fast LBA {f} maps to page {key} whose residence does not own it"),
            );
        }
        // warm-list-complete: the planner finds promotion candidates
        // only on the warm list, so every page with nonzero heat must be
        // listed, and the list and the pages' slots must name each other
        // (which lists each page at most once).
        for (i, &key) in self.warm.iter().enumerate() {
            report.check_args(
                "tier",
                "warm-list-complete",
                self.pages.get(key).is_some_and(|p| p.warm_slot == Some(i)),
                format_args!("warm-list entry {i} names page {key}, whose slot is elsewhere"),
            );
        }
        // fast-order-exact: the planner takes policy demotions from the
        // fast-order index alone, so it must hold exactly one
        // `victim(last_epoch, key)` per fast-resident page and nothing
        // else, strictly ascending (which also lists each page once).
        report.check_args(
            "tier",
            "fast-order-exact",
            self.fast_order.windows(2).all(|w| w[0] < w[1]),
            format_args!("fast-order index is not strictly ascending"),
        );
        for &entry in &self.fast_order {
            let key = entry as u64;
            report.check_args(
                "tier",
                "fast-order-exact",
                self.pages.get(key).is_some_and(|p| {
                    matches!(p.residence, TierResidence::Fast(_))
                        && victim(p.last_epoch, key) == entry
                }),
                format_args!(
                    "fast-order entry (epoch {}, page {key}) names no fast page at that epoch",
                    entry >> 64
                ),
            );
        }
        let mut fast_resident = 0usize;
        for (key, p) in self.pages.iter() {
            fast_resident += usize::from(matches!(p.residence, TierResidence::Fast(_)));
            let heat = p.heat_at(self.epoch);
            let listed = p.warm_slot.map(|i| self.warm.get(i) == Some(&key));
            report.check_args(
                "tier",
                "warm-list-complete",
                listed.unwrap_or(heat == 0),
                format_args!("page {key} (heat {heat}, slot {:?}) is not on the warm list", p.warm_slot),
            );
            let (claimed, lba) = match p.residence {
                TierResidence::Slow => (false, 0),
                TierResidence::Fast(f)
                | TierResidence::PromoteInFlight(f)
                | TierResidence::DemoteInFlight(f) => (true, f),
            };
            if claimed {
                report.check_args(
                    "tier",
                    "tier-fast-owner-unique",
                    self.fast_map.get(lba) == Some(&key),
                    format_args!("page {key} claims fast LBA {lba} without owning it"),
                );
            }
            // tier-inflight-residence: in-flight pages still hold a
            // reserved slot — their LBA must be inside the allocator's
            // issued range and not simultaneously on the free list.
            if matches!(
                p.residence,
                TierResidence::PromoteInFlight(_) | TierResidence::DemoteInFlight(_)
            ) {
                report.check_args(
                    "tier",
                    "tier-inflight-residence",
                    lba < self.next_fast && !self.free_fast.contains(&lba),
                    format_args!("in-flight page {key} holds unissued or freed fast LBA {lba}"),
                );
            }
        }
        report.check_args(
            "tier",
            "fast-order-exact",
            fast_resident == self.fast_order.len(),
            format_args!(
                "{fast_resident} fast-resident pages but {} fast-order entries",
                self.fast_order.len()
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(policy: PolicyKind) -> TierConfig {
        TierConfig {
            fast: DeviceProfile::OPTANE_PMM,
            slow: DeviceProfile::Z_SSD,
            cap_pct: 25,
            policy,
            period: Duration::from_micros(150),
            batch: 8,
        }
    }

    fn engine_with_pages(policy: PolicyKind, n: u64) -> TierEngine {
        let mut e = TierEngine::new(cfg(policy));
        for k in 0..n {
            e.register(k);
        }
        e
    }

    #[test]
    fn policy_names_round_trip() {
        for p in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(p.name()), Some(p));
        }
        assert_eq!(PolicyKind::parse("bogus"), None);
    }

    #[test]
    fn static_policy_never_migrates() {
        let mut e = engine_with_pages(PolicyKind::Static, 16);
        for _ in 0..4 {
            for k in 0..16 {
                e.record_access(false, k);
            }
            assert!(e.plan_tick(|_| true).is_empty());
        }
        assert_eq!(e.report().promotions, 0);
    }

    #[test]
    fn threshold_promotes_hot_and_demotes_cold() {
        let mut e = engine_with_pages(PolicyKind::Threshold, 16);
        e.record_access(false, 3);
        e.record_access(false, 3);
        let plans = e.plan_tick(|_| true);
        assert_eq!(plans, vec![MigrationPlan::Promote { key: 3, fast_lba: 0 }]);
        assert_eq!(e.residence_of(3), Some(TierResidence::PromoteInFlight(0)));
        assert_eq!(e.commit(3), Some(TierResidence::Fast(0)));
        // Fast reads now resolve through the fast map and count as hits.
        e.record_access(true, 0);
        assert!(e.report().fast_hits >= 1);
        // Idle ticks decay heat to zero → standalone demotion.
        e.plan_tick(|_| true);
        e.plan_tick(|_| true);
        let plans = e.plan_tick(|_| true);
        assert_eq!(plans, vec![MigrationPlan::Demote { key: 3, fast_lba: 0 }]);
        assert_eq!(e.commit(3), Some(TierResidence::Slow));
        let r = e.report();
        assert_eq!((r.promotions, r.demotions, r.aborts), (1, 1, 0));
    }

    #[test]
    fn lru_epoch_promotes_recent_and_demotes_idle() {
        let mut e = engine_with_pages(PolicyKind::LruEpoch, 16);
        e.record_access(false, 7);
        let plans = e.plan_tick(|_| true);
        assert_eq!(plans, vec![MigrationPlan::Promote { key: 7, fast_lba: 0 }]);
        e.commit(7);
        // Four idle epochs later the page is demoted.
        let mut demoted = Vec::new();
        for _ in 0..5 {
            demoted.extend(e.plan_tick(|_| true));
        }
        assert_eq!(demoted, vec![MigrationPlan::Demote { key: 7, fast_lba: 0 }]);
    }

    #[test]
    fn capacity_limit_blocks_promotions_and_forces_room_making() {
        // 8 pages at 25 % → fast limit 2.
        let mut e = engine_with_pages(PolicyKind::Threshold, 8);
        assert_eq!(e.fast_limit(), 2);
        for k in 0..3 {
            e.record_access(false, k);
            e.record_access(false, k);
        }
        let plans = e.plan_tick(|_| true);
        // Only two fit; the third creates pressure.
        assert_eq!(plans.len(), 2);
        for p in plans {
            e.commit(p.key());
        }
        // Keep page 2 hot while 0/1 cool: pressure forces demotion of a
        // cold fast resident, freeing a slot for the next tick.
        e.record_access(false, 2);
        e.record_access(false, 2);
        let plans = e.plan_tick(|_| true);
        assert!(
            plans.iter().any(|p| matches!(p, MigrationPlan::Demote { .. })),
            "pressure must force a room-making demotion: {plans:?}"
        );
        for p in plans {
            e.commit(p.key());
        }
        e.record_access(false, 2);
        e.record_access(false, 2);
        let plans = e.plan_tick(|_| true);
        assert!(
            plans.contains(&MigrationPlan::Promote { key: 2, fast_lba: 1 })
                || plans.contains(&MigrationPlan::Promote { key: 2, fast_lba: 0 }),
            "freed slot serves the hot page next tick: {plans:?}"
        );
    }

    #[test]
    fn cap_zero_still_keeps_one_fast_slot() {
        // `cap:0` is a degenerate but legal config: the limit floors at
        // one page, so the engine never divides by zero or plans an
        // unplaceable promotion.
        let mut c = cfg(PolicyKind::Threshold);
        c.cap_pct = 0;
        let mut e = TierEngine::new(c);
        for k in 0..64 {
            e.register(k);
        }
        assert_eq!(e.fast_limit(), 1);
        for k in 0..4 {
            e.record_access(false, k);
            e.record_access(false, k);
        }
        let plans = e.plan_tick(|_| true);
        let promotes =
            plans.iter().filter(|p| matches!(p, MigrationPlan::Promote { .. })).count();
        assert_eq!(promotes, 1, "only the single slot is planned: {plans:?}");
        for p in plans {
            e.commit(p.key());
        }
        let mut report = hwdp_sim::sanitize::AuditReport::new();
        e.sanitize(SanitizeLevel::Full, &mut report);
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn exactly_full_fast_tier_demotes_coldest_under_pressure() {
        // Fill the fast tier to exactly its limit with pages the policy
        // would keep (nonzero heat), then heat a third page past the
        // promotion threshold: the tick must plan no promotion, and must
        // force-demote exactly one (the coldest) resident to make room.
        let mut e = engine_with_pages(PolicyKind::Threshold, 8);
        assert_eq!(e.fast_limit(), 2);
        for k in 0..2 {
            e.record_access(false, k);
            e.record_access(false, k);
        }
        for p in e.plan_tick(|_| true) {
            e.commit(p.key());
        }
        // Both residents warm (policy demote says keep), candidate hotter.
        e.record_access(true, 0);
        e.record_access(true, 1);
        e.record_access(false, 2);
        e.record_access(false, 2);
        let plans = e.plan_tick(|_| true);
        assert!(
            plans.iter().all(|p| matches!(p, MigrationPlan::Demote { .. })),
            "an exactly-full fast tier admits no promotion this tick: {plans:?}"
        );
        assert_eq!(plans.len(), 1, "one room-making demotion per overflow: {plans:?}");
        for p in plans {
            e.commit(p.key());
        }
        // The freed slot serves the hot candidate on the following tick.
        e.record_access(false, 2);
        e.record_access(false, 2);
        let plans = e.plan_tick(|_| true);
        assert!(
            plans.iter().any(|p| matches!(p, MigrationPlan::Promote { key: 2, .. })),
            "freed slot admits the overflowing candidate: {plans:?}"
        );
    }

    #[test]
    fn ineligible_pages_are_skipped() {
        let mut e = engine_with_pages(PolicyKind::Threshold, 8);
        e.record_access(false, 1);
        e.record_access(false, 1);
        assert!(e.plan_tick(|_| false).is_empty());
        assert_eq!(e.residence_of(1), Some(TierResidence::Slow));
    }

    #[test]
    fn abort_restores_residence_and_recycles_the_slot() {
        let mut e = engine_with_pages(PolicyKind::Threshold, 8);
        e.record_access(false, 1);
        e.record_access(false, 1);
        let plans = e.plan_tick(|_| true);
        assert_eq!(plans.len(), 1);
        e.abort(1);
        assert_eq!(e.residence_of(1), Some(TierResidence::Slow));
        assert_eq!(e.fast_map.get(0), None);
        assert_eq!(e.report().aborts, 1);
        // The freed slot is reused.
        e.record_access(false, 2);
        e.record_access(false, 2);
        let plans = e.plan_tick(|_| true);
        assert_eq!(plans, vec![MigrationPlan::Promote { key: 2, fast_lba: 0 }]);
    }

    #[test]
    fn commit_refuses_a_copy_marked_dirty_and_abort_clears_the_mark() {
        let mut e = engine_with_pages(PolicyKind::Threshold, 8);
        let heat = |e: &mut TierEngine| (0..2).for_each(|_| e.record_access(false, 1));
        e.mark_dirty(false, 1);
        heat(&mut e);
        assert_eq!(e.plan_tick(|_| true), [MigrationPlan::Promote { key: 1, fast_lba: 0 }]);
        assert_eq!(e.commit(1), Some(TierResidence::Fast(0)), "no mark outside a migration");
        let demote = |e: &mut TierEngine| {
            (0..40).find(|_| e.plan_tick(|_| true) == [MigrationPlan::Demote { key: 1, fast_lba: 0 }])
        };
        assert!(demote(&mut e).is_some(), "the idle page is demoted");
        e.mark_dirty(true, 0);
        assert_eq!(e.commit(1), None, "a copy marked through its fast LBA is refused");
        assert_eq!(e.residence_of(1), Some(TierResidence::Fast(0)));
        assert_eq!(e.report().aborts, 1);
        assert!(demote(&mut e).is_some());
        e.mark_dirty(false, 1);
        e.abort(1);
        assert!(demote(&mut e).is_some());
        assert_eq!(e.commit(1), Some(TierResidence::Slow), "abort cleared the mark");
        assert_eq!(e.report().aborts, 2);
    }

    #[test]
    fn a_write_to_a_fast_page_diverges_it_until_a_migration_commits() {
        let mut e = engine_with_pages(PolicyKind::Threshold, 8);
        (0..2).for_each(|_| e.record_access(false, 1));
        assert_eq!(e.plan_tick(|_| true), [MigrationPlan::Promote { key: 1, fast_lba: 0 }]);
        assert_eq!(e.commit(1), Some(TierResidence::Fast(0)));
        assert!(!e.diverged(1), "a committed promotion leaves both blocks equal");
        assert_eq!(e.clean_fast_pages().collect::<Vec<_>>(), [(1, 0)]);
        e.mark_dirty(true, 0);
        assert!(e.diverged(1), "a write through the fast LBA diverges the page");
        assert_eq!(e.clean_fast_pages().count(), 0);
        let demote = |e: &mut TierEngine| {
            (0..40).find(|_| e.plan_tick(|_| true) == [MigrationPlan::Demote { key: 1, fast_lba: 0 }])
        };
        assert!(demote(&mut e).is_some());
        e.abort(1);
        assert!(e.diverged(1), "an aborted demotion still has to copy the page home");
        assert!(demote(&mut e).is_some());
        assert_eq!(e.commit(1), Some(TierResidence::Slow));
        assert!(!e.diverged(1), "a slow page has no fast copy to diverge from");
        e.mark_dirty(false, 1);
        assert!(!e.diverged(1), "a write to a slow page diverges nothing");
    }

    #[test]
    fn hit_ratio_splits_early_and_late() {
        let mut e = engine_with_pages(PolicyKind::Threshold, 8);
        // Epoch 0: all slow. Epoch 1: all fast.
        e.record_access(false, 1);
        e.record_access(false, 1);
        for p in e.plan_tick(|_| true) {
            e.commit(p.key());
        }
        e.record_access(true, 0);
        e.record_access(true, 0);
        e.plan_tick(|_| true);
        let r = e.report();
        assert_eq!(r.fast_hit_ratio_early, 0.0);
        assert_eq!(r.fast_hit_ratio_late, 1.0);
        assert!(r.fast_hit_ratio > 0.0 && r.fast_hit_ratio < 1.0);
    }

    #[test]
    fn clean_engine_audits_clean() {
        use hwdp_sim::sanitize::AuditReport;
        let mut e = engine_with_pages(PolicyKind::Threshold, 16);
        e.record_access(false, 5);
        e.record_access(false, 5);
        for p in e.plan_tick(|_| true) {
            e.commit(p.key());
        }
        let mut report = AuditReport::new();
        e.sanitize(SanitizeLevel::Full, &mut report);
        assert!(report.is_clean(), "{:?}", report.violations);
        assert!(report.checks > 0);
    }

    #[test]
    fn negative_torn_migration_detected() {
        // A torn (non-atomic) migration leaves a fast slot owned by a page
        // that never took ownership — the bijection check must fire.
        use hwdp_sim::sanitize::AuditReport;
        let mut e = engine_with_pages(PolicyKind::Threshold, 16);
        e.corrupt_fast_owner_for_test();
        let mut report = AuditReport::new();
        e.sanitize(SanitizeLevel::Full, &mut report);
        assert!(!report.is_clean());
        assert!(
            report.violations.iter().any(|v| v.invariant == "tier-fast-owner-unique"),
            "expected tier-fast-owner-unique, got {:?}",
            report.violations
        );
    }

    #[test]
    fn sanitize_off_is_free() {
        let e = engine_with_pages(PolicyKind::Threshold, 4);
        let mut report = hwdp_sim::sanitize::AuditReport::new();
        e.sanitize(SanitizeLevel::Off, &mut report);
        assert_eq!(report.checks, 0);
    }

    #[test]
    fn no_policy_promotes_a_cold_page() {
        // The warm list holds only pages with nonzero heat, so a policy
        // that promoted a cold page would never see it.
        for policy in PolicyKind::ALL {
            for epoch in [0, 1, 2, 5, 40, u64::MAX] {
                for last_epoch in [0, 1, epoch.saturating_sub(1), epoch] {
                    let view = PageView { key: 3, heat: 0, last_epoch };
                    assert!(!policy.promote(&view, epoch), "{policy:?} at {epoch}/{last_epoch}");
                }
            }
        }
    }

    #[test]
    fn lazy_heat_equals_repeated_halving() {
        for heat in [0, 1, 2, 3, 0x8000_0000, u32::MAX - 1, u32::MAX] {
            let mut eager = heat;
            for epoch in 0..40u64 {
                let p =
                    PageState {
                    residence: TierResidence::Slow,
                    heat,
                    last_epoch: 0,
                    warm_slot: None,
                    dirty: false,
                    diverged: false,
                };
                assert_eq!(p.heat_at(epoch), eager, "heat {heat:#x} after {epoch} epochs");
                eager /= 2;
            }
        }
    }

    #[test]
    fn negative_unlisted_warm_page_detected() {
        use hwdp_sim::sanitize::AuditReport;
        let mut e = engine_with_pages(PolicyKind::Threshold, 16);
        e.record_access(false, 5);
        e.corrupt_warm_list_for_test();
        let mut report = AuditReport::new();
        e.sanitize(SanitizeLevel::Full, &mut report);
        assert!(
            report.violations.iter().any(|v| v.invariant == "warm-list-complete"),
            "expected warm-list-complete, got {:?}",
            report.violations
        );
    }

    #[test]
    fn negative_unordered_fast_page_detected() {
        use hwdp_sim::sanitize::AuditReport;
        let mut e = engine_with_pages(PolicyKind::LruEpoch, 16);
        e.record_access(false, 5);
        for p in e.plan_tick(|_| true) {
            e.commit(p.key());
        }
        e.corrupt_fast_order_for_test();
        let mut report = AuditReport::new();
        e.sanitize(SanitizeLevel::Full, &mut report);
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.invariant == "fast-order-exact"),
            "expected fast-order-exact, got {:?}",
            report.violations
        );
    }

    #[test]
    fn fast_pages_stay_in_demotion_order() {
        // Pages 1..=3 are promoted in one tick; a fast hit on page 1 two
        // epochs later moves it behind the others, and an aborted
        // demotion puts page 2 back where its `last_epoch` says.
        let mut e = engine_with_pages(PolicyKind::LruEpoch, 16);
        for k in 1..=3 {
            e.record_access(false, k);
        }
        for p in e.plan_tick(|_| true) {
            e.commit(p.key());
        }
        let lba = |e: &TierEngine, key| match e.residence_of(key) {
            Some(TierResidence::Fast(f)) => f,
            r => panic!("page {key} is {r:?}"),
        };
        let keys = |e: &TierEngine| e.fast_order.iter().map(|&v| v as u64).collect::<Vec<_>>();
        assert_eq!(keys(&e), [1, 2, 3]);
        e.plan_tick(|_| false);
        e.record_access(true, lba(&e, 1));
        assert_eq!(keys(&e), [2, 3, 1]);
        for _ in 0..2 {
            e.plan_tick(|_| false);
        }
        // Epoch 4: pages 2 and 3 have idled four epochs, page 1 two.
        let plans = e.plan_tick(|k| k == 2);
        let demote_2 = MigrationPlan::Demote { key: 2, fast_lba: 1 };
        assert_eq!(plans, [demote_2]);
        assert_eq!(keys(&e), [3, 1]);
        e.abort(2);
        assert_eq!(keys(&e), [2, 3, 1]);
        let mut report = hwdp_sim::sanitize::AuditReport::new();
        e.sanitize(SanitizeLevel::Full, &mut report);
        assert!(report.is_clean(), "{:?}", report.violations);
    }

    #[test]
    fn cold_pages_leave_the_warm_list() {
        let mut e = engine_with_pages(PolicyKind::LruEpoch, 16);
        for _ in 0..4 {
            e.record_access(false, 9);
        }
        // The ticks reading heat 4 and 2 keep the page listed; the one
        // reading heat 1 leaves 0 behind and drops it.
        for listed in [1, 1, 0, 0] {
            e.plan_tick(|_| false);
            assert_eq!(e.warm.len(), listed);
        }
        e.record_access(false, 9);
        assert_eq!(e.warm, [9]);
    }

    /// A tracked page in the reference model.
    #[derive(Clone, Copy)]
    struct ModelPage {
        residence: TierResidence,
        heat: u32,
        last_epoch: u64,
    }

    /// The reference model: an eager engine with its own page table whose
    /// heats are all halved at the end of every tick, the three policies
    /// as plain functions, and one walk per list over every tracked page.
    struct Model {
        cfg: TierConfig,
        pages: std::collections::BTreeMap<u64, ModelPage>,
        fast_map: std::collections::BTreeMap<u64, u64>,
        next_fast: u64,
        free_fast: Vec<u64>,
        epoch: u64,
        /// Promotions, demotions, aborts, fast hits, slow hits.
        counts: [u64; 5],
        epoch_hits: Vec<(u64, u64)>,
        counted_hits: (u64, u64),
    }

    fn model_promote(policy: PolicyKind, p: &ModelPage, epoch: u64) -> bool {
        match policy {
            PolicyKind::Static => false,
            PolicyKind::LruEpoch => p.last_epoch == epoch && p.heat > 0,
            PolicyKind::Threshold => p.heat >= 2,
        }
    }

    fn model_demote(policy: PolicyKind, p: &ModelPage, epoch: u64) -> Option<u64> {
        match policy {
            PolicyKind::Static => None,
            PolicyKind::LruEpoch => {
                (epoch.saturating_sub(p.last_epoch) >= 4).then_some(p.last_epoch)
            }
            PolicyKind::Threshold => (p.heat == 0).then_some(p.last_epoch),
        }
    }

    impl Model {
        fn new(cfg: TierConfig) -> Model {
            Model {
                cfg,
                pages: Default::default(),
                fast_map: Default::default(),
                next_fast: 0,
                free_fast: Vec::new(),
                epoch: 0,
                counts: [0; 5],
                epoch_hits: Vec::new(),
                counted_hits: (0, 0),
            }
        }

        fn register(&mut self, key: u64) {
            let cold = ModelPage { residence: TierResidence::Slow, heat: 0, last_epoch: 0 };
            self.pages.entry(key).or_insert(cold);
        }

        fn record_access(&mut self, fast: bool, lba: u64) {
            let key = if fast {
                match self.fast_map.get(&lba) {
                    Some(&k) => k,
                    None => return,
                }
            } else {
                lba
            };
            if let Some(p) = self.pages.get_mut(&key) {
                p.heat = p.heat.saturating_add(1);
                p.last_epoch = self.epoch;
                self.counts[if fast { 3 } else { 4 }] += 1;
            }
        }

        fn alloc_fast(&mut self) -> u64 {
            self.free_fast.pop().unwrap_or_else(|| {
                self.next_fast += 1;
                self.next_fast - 1
            })
        }

        fn commit(&mut self, key: u64) -> Option<TierResidence> {
            let p = self.pages.get_mut(&key)?;
            match p.residence {
                TierResidence::PromoteInFlight(f) => {
                    p.residence = TierResidence::Fast(f);
                    self.counts[0] += 1;
                }
                TierResidence::DemoteInFlight(f) => {
                    p.residence = TierResidence::Slow;
                    self.fast_map.remove(&f);
                    self.free_fast.push(f);
                    self.counts[1] += 1;
                }
                _ => return None,
            }
            Some(p.residence)
        }

        fn abort(&mut self, key: u64) {
            let Some(p) = self.pages.get_mut(&key) else { return };
            match p.residence {
                TierResidence::PromoteInFlight(f) => {
                    p.residence = TierResidence::Slow;
                    self.fast_map.remove(&f);
                    self.free_fast.push(f);
                }
                TierResidence::DemoteInFlight(f) => p.residence = TierResidence::Fast(f),
                _ => return,
            }
            self.counts[2] += 1;
        }

        fn plan_tick(&mut self, mut eligible: impl FnMut(u64) -> bool) -> Vec<MigrationPlan> {
            let (epoch, policy) = (self.epoch, self.cfg.policy);
            let mut plans = Vec::new();
            let mut cands: Vec<(u32, u64)> = self
                .pages
                .iter()
                .filter(|(_, p)| {
                    p.residence == TierResidence::Slow && model_promote(policy, p, epoch)
                })
                .map(|(&k, p)| (p.heat, k))
                .collect();
            cands.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            let limit = ((self.pages.len() as u64 * self.cfg.cap_pct as u64 / 100).max(1)) as usize;
            let (mut promoted, mut overflow) = (0usize, 0usize);
            for (_, key) in cands {
                if promoted >= self.cfg.batch || self.fast_map.len() >= limit {
                    overflow += 1;
                    continue;
                }
                if !eligible(key) {
                    continue;
                }
                let f = self.alloc_fast();
                self.fast_map.insert(f, key);
                self.pages.get_mut(&key).unwrap().residence = TierResidence::PromoteInFlight(f);
                plans.push(MigrationPlan::Promote { key, fast_lba: f });
                promoted += 1;
            }
            let mut victims = Vec::new();
            for (&key, p) in &self.pages {
                if !matches!(p.residence, TierResidence::Fast(_)) {
                    continue;
                }
                match model_demote(policy, p, epoch) {
                    Some(score) => victims.push((0u8, score, key)),
                    None if overflow > 0 => {
                        let score = ((p.heat as u64) << 32) | (p.last_epoch & 0xFFFF_FFFF);
                        victims.push((1, score, key));
                    }
                    None => {}
                }
            }
            victims.sort();
            let (mut demoted, mut forced) = (0usize, 0usize);
            for (kind, _, key) in victims {
                if demoted >= self.cfg.batch {
                    break;
                }
                if kind == 1 {
                    if forced >= overflow {
                        continue;
                    }
                    forced += 1;
                }
                if !eligible(key) {
                    continue;
                }
                let p = self.pages.get_mut(&key).unwrap();
                let TierResidence::Fast(f) = p.residence else { continue };
                p.residence = TierResidence::DemoteInFlight(f);
                plans.push(MigrationPlan::Demote { key, fast_lba: f });
                demoted += 1;
            }
            let hits = (self.counts[3], self.counts[4]);
            self.epoch_hits.push((hits.0 - self.counted_hits.0, hits.1 - self.counted_hits.1));
            self.counted_hits = hits;
            for p in self.pages.values_mut() {
                p.heat /= 2;
            }
            self.epoch += 1;
            plans
        }
    }

    /// Everything a plan can touch, with each page's current heat: the
    /// pages, the fast map, the free list, the bump allocator, the epoch
    /// and the five counters.
    type State =
        (Vec<(u64, TierResidence, u32, u64)>, Vec<(u64, u64)>, Vec<u64>, u64, u64, [u64; 5]);

    fn engine_state(e: &TierEngine) -> State {
        let r = e.report();
        (
            e.pages.iter().map(|(k, p)| (k, p.residence, p.heat_at(e.epoch), p.last_epoch)).collect(),
            e.fast_map.iter().map(|(f, k)| (f, *k)).collect(),
            e.free_fast.clone(),
            e.next_fast,
            e.epoch,
            [r.promotions, r.demotions, r.aborts, r.fast_hits, r.slow_hits],
        )
    }

    fn model_state(m: &Model) -> State {
        (
            m.pages.iter().map(|(&k, p)| (k, p.residence, p.heat, p.last_epoch)).collect(),
            m.fast_map.iter().map(|(&f, &k)| (f, k)).collect(),
            m.free_fast.clone(),
            m.next_fast,
            m.epoch,
            m.counts,
        )
    }

    #[test]
    fn one_pass_planner_matches_the_three_walk_model() {
        use hwdp_sim::rng::Prng;
        // Fast hits that move a page in the fast-order index, and aborted
        // demotions that re-insert one: the index's two subtle updates.
        let (mut moves, mut demote_aborts) = (0u64, 0u64);
        for case in 0..300u64 {
            let mut rng = Prng::seed_from(0x71E2 ^ case);
            let mut c = cfg(PolicyKind::ALL[rng.below(3) as usize]);
            c.cap_pct = rng.range(0, 60) as u32;
            c.batch = rng.range(1, 9) as usize;
            let (mut real, mut model) = (TierEngine::new(c), Model::new(c));
            // A sparse key set with holes, registered in random order.
            let span = rng.range(8, 300);
            let mut keys: Vec<u64> = (0..span).filter(|_| rng.chance(0.7)).collect();
            for i in (1..keys.len()).rev() {
                keys.swap(i, rng.below(i as u64 + 1) as usize);
            }
            for &k in &keys {
                real.register(k);
                model.register(k);
            }
            let reject = rng.f64() * 0.5;
            for tick in 0..80u64 {
                // Every third case idles for 36 ticks, longer than the 32
                // halvings that clear any heat.
                let idle = case % 3 == 0 && (20..56).contains(&tick);
                for _ in 0..if idle { 0 } else { rng.below(4 * span) } {
                    let fast = rng.chance(0.3);
                    let lba = rng.below(span + 4);
                    if fast {
                        let page = real.key_of(true, lba).and_then(|k| real.pages.get(k));
                        moves += u64::from(page.is_some_and(|p| {
                            matches!(p.residence, TierResidence::Fast(_))
                                && p.last_epoch != real.epoch
                        }));
                    }
                    real.record_access(fast, lba);
                    model.record_access(fast, lba);
                }
                // Now and then a tracked page's heat is pushed to within a
                // few accesses of saturation.
                if !idle && !keys.is_empty() && rng.chance(0.2) {
                    let key = keys[rng.below(keys.len() as u64) as usize];
                    real.record_access(false, key);
                    model.record_access(false, key);
                    let heat = u32::MAX - rng.below(3) as u32;
                    real.pages.get_mut(key).unwrap().heat = heat;
                    model.pages.get_mut(&key).unwrap().heat = heat;
                }
                // Settle some in-flight migrations: commit, abort or leave.
                let in_flight: Vec<u64> =
                    real.pages.keys().filter(|&k| real.in_flight(k)).collect();
                for k in in_flight {
                    match rng.below(3) {
                        0 => assert_eq!(real.commit(k), model.commit(k)),
                        1 => {
                            demote_aborts += u64::from(matches!(
                                real.residence_of(k),
                                Some(TierResidence::DemoteInFlight(_))
                            ));
                            real.abort(k);
                            model.abort(k);
                        }
                        _ => {}
                    }
                }
                // Eligibility is a pure function of the key and tick, and
                // both planners must consult it for the same keys in order.
                let salt = rng.next_u64();
                let ok = |k: u64| {
                    let h = hwdp_sim::dist::fnv1a_u64(k ^ salt ^ tick);
                    (h % 1000) as f64 >= reject * 1000.0
                };
                let (mut asked_real, mut asked_model) = (Vec::new(), Vec::new());
                let mut plans_real = Vec::new();
                real.plan_tick_into(
                    |k| {
                        asked_real.push(k);
                        ok(k)
                    },
                    &mut plans_real,
                );
                let plans_model = model.plan_tick(|k| {
                    asked_model.push(k);
                    ok(k)
                });
                assert_eq!(plans_real, plans_model, "case {case} tick {tick}: plans");
                assert_eq!(asked_real, asked_model, "case {case} tick {tick}: eligibility calls");
                assert!(
                    engine_state(&real) == model_state(&model),
                    "case {case} tick {tick}: engine state diverged"
                );
                assert_eq!(real.epoch_hits, model.epoch_hits, "case {case} tick {tick}: hits");
                // The full audit includes `fast-order-exact`.
                let mut report = hwdp_sim::sanitize::AuditReport::new();
                real.sanitize(SanitizeLevel::Full, &mut report);
                assert!(report.is_clean(), "case {case} tick {tick}: {:?}", report.violations);
            }
        }
        assert!(
            moves > 1000 && demote_aborts > 100,
            "{moves} moves, {demote_aborts} demote aborts"
        );
    }
}
