//! Property tests of the NVMe substrate: ring protocol invariants and
//! device-engine conservation laws.
//!
//! Each property is a seeded loop: a [`Prng`] with the test's own fixed
//! seed draws every case's inputs, and each assertion names the case
//! index and those inputs, so a failure reproduces exactly.

use std::collections::BTreeMap;

use hwdp_mem::addr::{PageData, PhysAddr};
use hwdp_nvme::command::{NvmeCommand, Opcode, Status};
use hwdp_nvme::device::NvmeController;
use hwdp_nvme::namespace::BlockStore;
use hwdp_nvme::profile::DeviceProfile;
use hwdp_nvme::queue::QueuePair;
use hwdp_sim::rng::Prng;
use hwdp_sim::time::{Duration, Time};

/// Cases per property.
const CASES: usize = 256;

/// Commands come out of the SQ in submission order regardless of how
/// submits and fetches interleave; nothing is lost or duplicated.
#[test]
fn sq_is_fifo_under_any_interleaving() {
    let mut g = Prng::seed_from(0x4E_0001);
    for case in 0..CASES {
        let depth = g.range(2, 31) as u16;
        let n = g.range(1, 199);
        let ops: Vec<bool> = (0..n).map(|_| g.chance(0.5)).collect();
        let ctx = format!("case {case}: depth {depth}, submits {ops:?}");
        let mut q = QueuePair::new(depth);
        let mut next_cid = 0u16;
        let mut expected_next = 0u16;
        for &submit in &ops {
            if submit {
                let cmd = NvmeCommand::read4k(next_cid, 1, next_cid as u64, PhysAddr(0));
                if q.host_submit(cmd) {
                    next_cid += 1;
                }
            } else if let Some(cmd) = q.device_fetch() {
                assert_eq!(cmd.cid, expected_next, "FIFO violated; {ctx}");
                expected_next += 1;
            }
        }
        while let Some(cmd) = q.device_fetch() {
            assert_eq!(cmd.cid, expected_next, "{ctx}");
            expected_next += 1;
        }
        assert_eq!(expected_next, next_cid, "every accepted command fetched once; {ctx}");
    }
}

/// Completions are delivered exactly once each, in order, across any
/// number of CQ wraps.
#[test]
fn cq_delivers_each_completion_once() {
    let mut g = Prng::seed_from(0x4E_0002);
    for case in 0..CASES {
        let (depth, n) = (g.range(2, 15) as u16, g.range(1, 99) as usize);
        let mut q = QueuePair::new(depth);
        let mut delivered = 0u16;
        for i in 0..n as u16 {
            q.host_submit(NvmeCommand::read4k(i, 1, 0, PhysAddr(0)));
            q.device_fetch();
            q.device_post_completion(i, Status::Success);
            // Host drains promptly (the CQ is not allowed to overflow).
            while let Some(e) = q.host_poll_completion() {
                assert_eq!(e.cid, delivered, "case {case}: depth {depth}, n {n}");
                delivered += 1;
            }
        }
        assert_eq!(delivered as usize, n, "case {case}: depth {depth}, n {n}");
        assert!(q.host_poll_completion().is_none(), "case {case}: depth {depth}, n {n}");
    }
}

/// Device conservation: every submitted command completes exactly once,
/// at a time no earlier than submission plus the base service time...
/// and reads return exactly the block-store contents.
#[test]
fn device_conserves_commands() {
    let mut g = Prng::seed_from(0x4E_0003);
    for case in 0..CASES {
        let seed = g.next_u64();
        let n = g.range(1, 39);
        let lbas: Vec<u64> = (0..n).map(|_| g.below(512)).collect();
        let ctx = format!("case {case}: seed {seed:#x}, lbas {lbas:?}");
        let mut c = NvmeController::new(DeviceProfile::Z_SSD, Prng::seed_from(seed));
        c.add_namespace(BlockStore::with_pattern(512, seed));
        let q = c.create_queue_pair(256);
        let mut pending = Vec::new();
        for (i, &lba) in lbas.iter().enumerate() {
            let cmd = NvmeCommand::read4k(i as u16, 1, lba, PhysAddr(0));
            let (tok, at) = c.submit(q, cmd, None, Time::ZERO).unwrap();
            assert!(
                at >= Time::ZERO + DeviceProfile::Z_SSD.read_4k.scale(0.5),
                "completion cannot beat a half base service even with jitter; {ctx}"
            );
            pending.push((tok, at, lba));
        }
        pending.sort_by_key(|&(_, at, _)| at);
        for (tok, at, lba) in pending {
            let done = c.complete(tok, at).unwrap();
            assert_eq!(done.status, Status::Success, "{ctx}");
            let data = done.read_data.expect("read data");
            assert_eq!(data.checksum(), PageData::Pattern(seed ^ lba).checksum(), "lba {lba}; {ctx}");
        }
        assert_eq!(c.inflight_count(), 0, "{ctx}");
        assert_eq!(c.stats().reads as usize, lbas.len(), "{ctx}");
    }
}

/// Write-then-read on the same block always returns the written data,
/// no matter how completions interleave (submission-order visibility).
#[test]
fn write_read_ordering_per_block() {
    let mut g = Prng::seed_from(0x4E_0004);
    for case in 0..CASES {
        let seed = g.next_u64();
        let n = g.range(1, 29);
        let writes: Vec<(u64, u8)> = (0..n).map(|_| (g.below(64), g.next_u64() as u8)).collect();
        let ctx = format!("case {case}: seed {seed:#x}, writes {writes:?}");
        let mut c = NvmeController::new(DeviceProfile::Z_SSD, Prng::seed_from(seed));
        c.add_namespace(BlockStore::new(64));
        let q = c.create_queue_pair(256);
        let mut last_value = BTreeMap::new();
        let mut now = Time::ZERO;
        let mut cid = 0u16;
        for &(lba, byte) in &writes {
            let mut data = PageData::Zero;
            data.write(0, &[byte]);
            cid += 1;
            // Writes applied at submission; we never complete them before
            // reading — worst case for ordering.
            let _ = c.submit(q, NvmeCommand::write4k(cid, 1, lba, PhysAddr(0)), Some(data), now).unwrap();
            last_value.insert(lba, byte);
            now += Duration::from_nanos(100);
        }
        for (&lba, &byte) in &last_value {
            cid += 1;
            let (tok, at) = c.submit(q, NvmeCommand::read4k(cid, 1, lba, PhysAddr(0)), None, now).unwrap();
            let done = c.complete(tok, at).unwrap();
            let mut b = [0u8; 1];
            done.read_data.expect("data").read(0, &mut b);
            assert_eq!(b[0], byte, "read of lba {lba} must observe the last submitted write; {ctx}");
        }
    }
}

/// Command encode/decode round-trips for arbitrary field values.
#[test]
fn command_wire_roundtrip() {
    let mut g = Prng::seed_from(0x4E_0005);
    for case in 0..CASES {
        let (cid, nsid) = (g.next_u64() as u16, g.range(1, 999) as u32);
        let (slba, prp, nlb) = (g.below(1 << 41), g.below(1 << 45), g.below(8) as u16);
        for opcode in [Opcode::Read, Opcode::Write] {
            let cmd = NvmeCommand { opcode, cid, nsid, prp1: PhysAddr(prp), slba, nlb };
            assert_eq!(NvmeCommand::decode(&cmd.encode()).unwrap(), cmd, "case {case}");
        }
    }
}
