//! The host I/O path: the NVMe controllers, the OS driver's queues and
//! command IDs, and the recovery state of every command in flight.
//!
//! [`Io`] is the one owner of "which command is reading which slot, and
//! what happens if it never comes back": the per-command watchdogs, the
//! submissions parked by queue-full backpressure or a dead controller, and
//! the recovery counters. It knows a command only by its [`Purpose`]; each
//! call reports what completed, failed or was lost, and `System` routes a
//! failure through its one recovery route, `System::fail_io`.
//!
//! A command has a watchdog exactly when fault injection is active and it
//! is a demand read ([`Purpose::is_demand_read`]). Tokens are never reused,
//! so the completion of such a command with no watchdog left is late: its
//! watchdog fired and recovery already moved on. It is retired unseen.

use std::collections::VecDeque;

use hwdp_mem::addr::{BlockRef, PageData, Pfn};
use hwdp_nvme::command::NvmeCommand;
use hwdp_nvme::device::{Completed, CompletionToken, ControllerState, NvmeController, QueueId, SubmitError};
use hwdp_nvme::namespace::BlockStore;
use hwdp_nvme::FaultConfig;
use hwdp_smu::pmshr::EntryIdx;
use hwdp_sim::events::{EventId, EventQueue};
use hwdp_sim::sanitize::{AuditReport, SanitizeLevel, Sanitizer};
use hwdp_sim::sorted::SortedMap;
use hwdp_sim::time::{Duration, Time};

use crate::config::RetryPolicy;
use crate::system::Event;

/// What a command is for: where its completion goes, and how its failure
/// recovers.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Purpose {
    HwdpMiss { entry: EntryIdx },
    OsdpRead { key: (u32, u64) },
    Writeback,
    /// Migration copy read (source tier); `key` is the page's home slow
    /// LBA.
    TierRead { key: u64 },
    /// Migration copy write (destination tier).
    TierWrite { key: u64 },
}

impl Purpose {
    /// A read a thread or the OS waits on: the only commands hotness
    /// tracking observes and a watchdog covers.
    pub(crate) fn is_demand_read(self) -> bool {
        matches!(self, Purpose::HwdpMiss { .. } | Purpose::OsdpRead { .. })
    }
}

/// One command for a device, with the recovery attempt it belongs to.
pub(crate) struct Request {
    pub(crate) qid: QueueId,
    pub(crate) cmd: NvmeCommand,
    pub(crate) data: Option<PageData>,
    pub(crate) purpose: Purpose,
    pub(crate) attempt: u32,
}

impl Request {
    /// The SMU's read `cmd` on its queue `qid`, for PMSHR entry `entry`.
    pub(crate) fn hwdp(qid: QueueId, cmd: NvmeCommand, entry: EntryIdx, attempt: u32) -> Request {
        Request { qid, cmd, data: None, purpose: Purpose::HwdpMiss { entry }, attempt }
    }
}

/// The watchdog on one in-flight demand read.
#[derive(Debug)]
struct Watchdog {
    purpose: Purpose,
    attempt: u32,
    timeout: EventId,
}

/// What [`Io::submit_request`] did with a request.
pub(crate) enum Submitted {
    /// The device took it; it completes at the given time.
    Accepted(Time),
    /// Parked until the ring has room (an `SqDrain` retries it).
    Parked,
    /// Parked on a dead controller, which the caller must now reset.
    ControllerDown,
    /// The device can never take it (a queue it does not know).
    Rejected,
}

/// What a completion event delivered.
pub(crate) enum Completion {
    /// The command finished at the given recovery attempt; its status may
    /// be an error.
    Delivered(Completed, u32),
    /// Nothing to deliver: a dropped completion (its watchdog stays armed
    /// and will report it) or a late one whose watchdog already fired.
    Retired,
    /// The device does not know the token: the command was lost with its
    /// controller, or its completion already came.
    Lost,
}

/// Fault-recovery activity, merged into the run's aggregate counters.
#[derive(Clone, Copy, Default, Debug)]
pub(crate) struct RecoveryCounts {
    pub(crate) retries: u64,
    pub(crate) timeouts: u64,
    pub(crate) smu_fallbacks: u64,
    /// Controller resets the recovery ladder drove to completion.
    pub(crate) controller_resets: u64,
    /// In-flight commands lost to injected controller crashes.
    pub(crate) crash_ios_lost: u64,
}

/// The controllers and every command's recovery state.
pub(crate) struct Io {
    /// The controllers, indexed by device ID (every device is on socket 0).
    pub(crate) devices: Vec<NvmeController>,
    /// The OS driver's queue on each device.
    os_queues: Vec<QueueId>,
    /// Command ID of the OS driver's latest command.
    cid: u16,
    /// The fault plan, when one can fire. Every piece of recovery
    /// bookkeeping is gated on it, so fault-free runs stay byte-identical
    /// to the simulator before fault injection.
    faults: Option<FaultConfig>,
    retry: RetryPolicy,
    /// Watchdogs keyed by `(device, token)`. Tokens grow per device, so
    /// arming one mostly appends.
    watchdogs: SortedMap<(usize, CompletionToken), Watchdog>,
    /// Parked submissions per device.
    parked: Vec<VecDeque<Request>>,
    /// Last-seen doorbell-write totals per device, for the
    /// `doorbell-monotonic` audit (doorbell registers are write counters;
    /// one going backwards means queue state was reset mid-run).
    pub(crate) doorbells: Vec<u64>,
    pub(crate) recovery: RecoveryCounts,
}

impl Io {
    /// An I/O path with no device attached. `faults` is installed on every
    /// device [`Io::attach`]es, unless it can never fire.
    pub(crate) fn new(faults: Option<FaultConfig>, retry: RetryPolicy) -> Io {
        Io {
            devices: Vec::new(),
            os_queues: Vec::new(),
            cid: 0,
            faults: faults.filter(|f| !f.is_zero()),
            retry,
            watchdogs: SortedMap::new(),
            parked: Vec::new(),
            doorbells: Vec::new(),
            recovery: RecoveryCounts::default(),
        }
    }

    /// Attaches `dev` as the next device ID with namespace 1 over `store`,
    /// its fault plan seeded by `fault_seed`, and the OS driver's queue
    /// pair. Returns the namespace ID and the depth-64 queue pair it
    /// creates for the SMU.
    pub(crate) fn attach(&mut self, mut dev: NvmeController, fault_seed: u64, store: BlockStore) -> (u32, QueueId) {
        if let Some(faults) = self.faults {
            dev.set_fault_plan(faults, fault_seed);
        }
        let nsid = dev.add_namespace(store);
        self.os_queues.push(dev.create_queue_pair(1024));
        let smu_q = dev.create_queue_pair(64);
        self.devices.push(dev);
        self.parked.push(VecDeque::new());
        self.doorbells.push(0);
        (nsid, smu_q)
    }

    /// The device index a block's device ID names.
    pub(crate) fn device_of(&self, block: BlockRef) -> usize {
        usize::from(block.device.0)
    }

    /// Schedules the fault plan's controller crashes. Crash times are
    /// pure configuration (no RNG draw): every controller dies at each,
    /// the severest multi-device failure mode; times past the run's end
    /// never fire.
    pub(crate) fn schedule_crashes(&self, queue: &mut EventQueue<Event>) {
        let Some(f) = self.faults else { return };
        for dev in 0..self.devices.len() {
            for t_us in f.crash_times() {
                queue.schedule(Time::ZERO + Duration::from_micros(t_us), Event::ControllerCrash { dev });
            }
        }
    }

    /// The OS driver's next 4 KiB command on `dev`: a read of `lba` into
    /// `pfn`, or a write of `data` to it.
    pub(crate) fn os_request(
        &mut self,
        dev: usize,
        lba: u64,
        pfn: Pfn,
        data: Option<PageData>,
        purpose: Purpose,
        attempt: u32,
    ) -> Request {
        self.cid = self.cid.wrapping_add(1);
        let cmd = if data.is_some() {
            NvmeCommand::write4k(self.cid, 1, lba, pfn.base())
        } else {
            NvmeCommand::read4k(self.cid, 1, lba, pfn.base())
        };
        Request { qid: self.os_queues[dev], cmd, data, purpose, attempt }
    }

    /// Submits `req` to device `dev` at `at`, parking it when the ring
    /// pushes back or the controller is down.
    pub(crate) fn submit_request(
        &mut self,
        queue: &mut EventQueue<Event>,
        dev: usize,
        mut req: Request,
        at: Time,
    ) -> Submitted {
        // `submit_ref` hands the write payload back on rejection, so a
        // parked request keeps the original instead of a clone.
        match self.devices[dev].submit_ref(req.qid, req.cmd, &mut req.data, at) {
            Ok((token, done_at)) => {
                self.arm(queue, dev, token, &req, at, done_at);
                Submitted::Accepted(done_at)
            }
            Err(SubmitError::QueueFull) => {
                self.parked[dev].push_back(req);
                queue.schedule(at + self.retry.backoff_base, Event::SqDrain { dev });
                Submitted::Parked
            }
            Err(SubmitError::ControllerDown) => {
                // An ignored doorbell is how the host discovers a crashed
                // controller. No `SqDrain` backstop: the reset completion
                // drains the parked queue, and until then every drain
                // attempt would just spin.
                self.parked[dev].push_back(req);
                Submitted::ControllerDown
            }
            Err(SubmitError::UnknownQueue) => Submitted::Rejected,
        }
    }

    /// Schedules an accepted command's completion and, for a demand read
    /// under fault injection, arms its watchdog. Writebacks and migration
    /// copies go unwatched (write data applies at submission).
    fn arm(
        &mut self,
        queue: &mut EventQueue<Event>,
        dev: usize,
        token: CompletionToken,
        req: &Request,
        at: Time,
        done_at: Time,
    ) {
        let (purpose, attempt) = (req.purpose, req.attempt);
        queue.schedule(done_at, Event::IoDone { dev, token, purpose });
        if self.faults.is_some() && purpose.is_demand_read() {
            let timeout = queue.schedule(at + self.retry.command_timeout, Event::IoTimeout { dev, token });
            self.watchdogs.insert((dev, token), Watchdog { purpose, attempt, timeout });
        }
    }

    /// Retries parked submissions on `dev`; each rejected attempt consumes
    /// queue-full window budget, so progress is guaranteed. Returns `true`
    /// when the controller turned out to be down.
    pub(crate) fn drain_deferred(&mut self, queue: &mut EventQueue<Event>, dev: usize, now: Time) -> bool {
        while let Some(mut req) = self.parked[dev].pop_front() {
            match self.devices[dev].submit_ref(req.qid, req.cmd, &mut req.data, now) {
                Ok((token, done_at)) => self.arm(queue, dev, token, &req, now, done_at),
                Err(e) => {
                    // Re-park. A dead controller's reset re-drains the
                    // queue; any other refusal retries after a backoff.
                    self.parked[dev].push_front(req);
                    if matches!(e, SubmitError::ControllerDown) {
                        return true;
                    }
                    queue.schedule(now + self.retry.backoff_base, Event::SqDrain { dev });
                    break;
                }
            }
        }
        false
    }

    /// Retires the command behind `token` on the device and says what, if
    /// anything, its completion delivers.
    pub(crate) fn take_completion(
        &mut self,
        queue: &mut EventQueue<Event>,
        dev: usize,
        token: CompletionToken,
        purpose: Purpose,
        now: Time,
    ) -> Completion {
        let Some(done) = self.devices[dev].complete(token, now) else { return Completion::Lost };
        if done.dropped {
            // No CQ entry was posted, so there is nothing to poll; the
            // armed watchdog is the only way the host learns of this.
            return Completion::Retired;
        }
        // Drain the CQ like real host software (keeps the queue protocol
        // state honest).
        let _ = self.devices[dev].queue(done.qid).host_poll_completion();
        match self.watchdogs.remove(&(dev, token)) {
            Some(w) => {
                queue.cancel(w.timeout);
                Completion::Delivered(done, w.attempt)
            }
            None if self.faults.is_some() && purpose.is_demand_read() => Completion::Retired,
            None => Completion::Delivered(done, 0),
        }
    }

    /// A watchdog fired: the command behind `token` is late, dropped or
    /// stuck. Returns what to recover, unless the watchdog was already
    /// taken by a controller-failure sweep.
    pub(crate) fn expire_watchdog(&mut self, dev: usize, token: CompletionToken) -> Option<(Purpose, u32)> {
        let w = self.watchdogs.remove(&(dev, token))?;
        self.recovery.timeouts += 1;
        Some((w.purpose, w.attempt))
    }

    /// An injected crash: the controller loses every in-flight command.
    pub(crate) fn crash_controller(&mut self, dev: usize) {
        self.recovery.crash_ios_lost += self.devices[dev].crash() as u64;
    }

    /// Starts resetting a crashed controller and schedules the reset's
    /// completion at the fault plan's latency. Returns `false`, doing
    /// nothing, unless the controller is `Failed`: the many detection
    /// sites need not coordinate.
    pub(crate) fn begin_controller_reset(&mut self, queue: &mut EventQueue<Event>, dev: usize, now: Time) -> bool {
        if self.devices[dev].state() != ControllerState::Failed {
            return false;
        }
        self.devices[dev].begin_reset();
        self.recovery.controller_resets += 1;
        let latency = Duration::from_micros(self.faults.map_or(100, |f| f.reset_latency_us));
        queue.schedule(now + latency, Event::ControllerReset { dev });
        true
    }

    /// Takes the first watchdog left on `dev`, cancelling its timeout:
    /// the caller recovers the command now instead. Commands on a
    /// resetting controller are parked, never watched, so the sweep ends.
    pub(crate) fn take_watchdog(&mut self, queue: &mut EventQueue<Event>, dev: usize) -> Option<(Purpose, u32)> {
        let key = *self.watchdogs.keys().find(|&&(d, _)| d == dev)?;
        let w = self.watchdogs.remove(&key)?;
        queue.cancel(w.timeout);
        Some((w.purpose, w.attempt))
    }

    /// The purposes of the armed watchdogs, in `(device, token)` order.
    pub(crate) fn watched(&self) -> impl Iterator<Item = (&(usize, CompletionToken), Purpose)> + '_ {
        self.watchdogs.iter().map(|(k, w)| (k, w.purpose))
    }

    /// The recovery ladder's exit invariants: after a reset, the device's
    /// rings are empty, its CQ phases agree, no watchdog covers a token the
    /// reset wiped, and every HWDP submission still parked for it names a
    /// PMSHR entry `live` reports in use (a retired one could never be
    /// woken by its completion).
    pub(crate) fn post_reset_audit(&self, dev: usize, live: impl Fn(EntryIdx) -> bool, report: &mut AuditReport) {
        let queues = || self.devices[dev].queue_pairs();
        report.check_args(
            "core",
            "reset-rings-empty",
            queues().all(|q| q.rings_empty()),
            format_args!("device {dev}: ring not empty after controller reset"),
        );
        report.check_args(
            "core",
            "reset-phase-consistent",
            queues().all(|q| q.phases_consistent()),
            format_args!("device {dev}: CQ phase tags inconsistent after controller reset"),
        );
        report.check_args(
            "core",
            "reset-watchdogs-cancelled",
            self.watchdogs.keys().all(|&(d, _)| d != dev),
            format_args!("device {dev}: watchdog tokens survived the controller reset"),
        );
        report.check_args(
            "core",
            "reset-pmshr-drained",
            self.parked[dev].iter().all(|r| match r.purpose {
                Purpose::HwdpMiss { entry } => live(entry),
                _ => true,
            }),
            format_args!("device {dev}: parked submission references a retired PMSHR entry"),
        );
    }

    /// The `doorbell-monotonic` audit, which needs the last-seen totals.
    pub(crate) fn audit_doorbells(&mut self, report: &mut AuditReport) {
        for (i, dev) in self.devices.iter().enumerate() {
            let total = dev.doorbell_writes_total();
            let last = self.doorbells[i];
            report.check_args(
                "core",
                "doorbell-monotonic",
                total >= last,
                format_args!("device {i}: doorbell-write total went backwards ({last} -> {total})"),
            );
            self.doorbells[i] = total;
        }
    }
}

impl Sanitizer for Io {
    fn layer(&self) -> &'static str {
        "core"
    }

    /// Every controller's own invariants.
    fn sanitize(&self, level: SanitizeLevel, report: &mut AuditReport) {
        for dev in &self.devices {
            dev.sanitize(level, report);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use hwdp_nvme::profile::DeviceProfile;
    use hwdp_sim::rng::Prng;

    /// Corruption for `reset-rings-empty`: leaves a submitted-but-unfetched
    /// command in device 0's OS ring, the state a botched reset would fail
    /// to clear.
    pub(crate) fn corrupt_ring(io: &mut Io) {
        let cmd = NvmeCommand::read4k(1, 1, 0, Pfn(0).base());
        assert!(io.devices[0].queue(io.os_queues[0]).host_submit(cmd), "room in the ring");
    }

    /// Corruption for `reset-phase-consistent`: walks the device-side CQ
    /// through a full lap so its posting phase flips while the host's
    /// expectation does not, the desync a reset must erase.
    pub(crate) fn corrupt_phase(io: &mut Io) {
        let q = io.devices[0].queue(io.os_queues[0]);
        for _ in 0..q.depth() {
            q.device_post_completion(0, hwdp_nvme::command::Status::Success);
        }
    }

    /// Corruption for `reset-watchdogs-cancelled`: arms a watchdog for a
    /// live device-0 command as if the failure sweep had missed it.
    pub(crate) fn corrupt_watchdog(io: &mut Io, queue: &mut EventQueue<Event>) {
        let cmd = NvmeCommand::read4k(2, 1, 0, Pfn(0).base());
        let (token, _) = io.devices[0].submit(io.os_queues[0], cmd, None, Time::ZERO).expect("submitted");
        let timeout = queue.schedule(Time::ZERO + io.retry.command_timeout, Event::IoTimeout { dev: 0, token });
        io.watchdogs.insert((0, token), Watchdog { purpose: Purpose::Writeback, attempt: 0, timeout });
    }

    /// Corruption for `reset-pmshr-drained`: parks an HWDP submission
    /// referencing a PMSHR entry that was never allocated (the dangling
    /// token a crash sweep must never leave).
    pub(crate) fn corrupt_parked_pmshr(io: &mut Io) {
        let cmd = NvmeCommand::read4k(3, 1, 0, Pfn(0).base());
        let purpose = Purpose::HwdpMiss { entry: EntryIdx(u16::MAX) };
        io.parked[0].push_back(Request { qid: io.os_queues[0], cmd, data: None, purpose, attempt: 0 });
    }

    /// One pattern-backed Z-SSD behind a fault plan, and an event queue.
    fn io_with(faults: FaultConfig) -> (Io, EventQueue<Event>) {
        let mut io = Io::new(Some(faults), RetryPolicy::default());
        let dev = NvmeController::new(DeviceProfile::Z_SSD, Prng::seed_from(1));
        io.attach(dev, 7, BlockStore::with_pattern(64, 3));
        (io, EventQueue::new())
    }

    /// Submits one demand read at time zero and returns its token and
    /// completion time.
    fn read(io: &mut Io, queue: &mut EventQueue<Event>) -> (CompletionToken, Time) {
        let req = io.os_request(0, 5, Pfn(0), None, Purpose::OsdpRead { key: (0, 5) }, 0);
        let Submitted::Accepted(done_at) = io.submit_request(queue, 0, req, Time::ZERO) else {
            panic!("an idle ring takes the read");
        };
        let token = *io.watchdogs.keys().last().map(|(_, t)| t).expect("the read is watched");
        (token, done_at)
    }

    #[test]
    fn attach_grows_every_per_device_table() {
        let (mut io, _) = io_with(FaultConfig { drop_rate: 1.0, ..FaultConfig::default() });
        io.attach(NvmeController::new(DeviceProfile::OPTANE_PMM, Prng::seed_from(2)), 8, BlockStore::with_pattern(64, 4));
        assert_eq!(io.devices.len(), 2);
        assert_eq!((io.os_queues.len(), io.parked.len(), io.doorbells.len()), (2, 2, 2));
        assert!(io.devices.iter().all(|d| d.fault_stats().is_some()), "both carry the fault plan");
    }

    #[test]
    fn a_late_completion_after_its_watchdog_fired_is_retired() {
        // Every read is delayed 50x, far past the 200 us watchdog.
        let (mut io, mut queue) = io_with(FaultConfig { delay_rate: 1.0, delay_factor: 50.0, ..FaultConfig::default() });
        let (token, done_at) = read(&mut io, &mut queue);
        assert!(done_at > Time::ZERO + RetryPolicy::default().command_timeout, "the read is late");
        let fired = io.expire_watchdog(0, token);
        assert!(matches!(fired, Some((Purpose::OsdpRead { key: (0, 5) }, 0))), "{fired:?}");
        assert_eq!(io.recovery.timeouts, 1);
        let purpose = Purpose::OsdpRead { key: (0, 5) };
        let late = io.take_completion(&mut queue, 0, token, purpose, done_at);
        assert!(matches!(late, Completion::Retired), "a watched read with no watchdog left is stale");
        // The same read on time is delivered at attempt 0 and disarms its
        // watchdog.
        let (token, done_at) = read(&mut io, &mut queue);
        let on_time = io.take_completion(&mut queue, 0, token, purpose, done_at);
        assert!(matches!(on_time, Completion::Delivered(_, 0)));
        assert!(io.watchdogs.is_empty());
    }

    #[test]
    fn a_dropped_completion_leaves_its_watchdog_armed() {
        let (mut io, mut queue) = io_with(FaultConfig { drop_rate: 1.0, ..FaultConfig::default() });
        let (token, done_at) = read(&mut io, &mut queue);
        let purpose = Purpose::OsdpRead { key: (0, 5) };
        let dropped = io.take_completion(&mut queue, 0, token, purpose, done_at);
        assert!(matches!(dropped, Completion::Retired));
        assert!(io.watchdogs.contains_key(&(0, token)), "the watchdog still covers the read");
        assert!(io.expire_watchdog(0, token).is_some(), "and reports it when it fires");
    }
}
