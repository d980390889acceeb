//! Microbenchmarks of the core data structures: PMSHR, page table, TLB,
//! event queue, distributions, and PTE encoding. These time the simulator
//! substrate itself (useful when extending it), not the modeled hardware.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hwdp_mem::addr::{BlockRef, DeviceId, Lba, Pfn, SocketId, Vpn};
use hwdp_mem::page_table::PageTable;
use hwdp_mem::pte::{Pte, PteFlags};
use hwdp_mem::tlb::Tlb;
use hwdp_sim::dist::ScrambledZipfian;
use hwdp_sim::events::EventQueue;
use hwdp_sim::rng::Prng;
use hwdp_sim::time::Duration;
use hwdp_smu::free_queue::{FreePage, FreePageQueue};
use hwdp_smu::pmshr::Pmshr;

/// One step of a Fig. 12-shaped event-queue workload, pre-generated so
/// every run replays the identical program.
enum SchedOp {
    /// Schedule an event this many nanoseconds past the current clock.
    Schedule(u64),
    /// Pop the next due event.
    Pop,
    /// Cancel the k-th most recently scheduled still-known event.
    Cancel(usize),
}

/// Builds the event mix of a demand-paging run: a steady stream of
/// short steps (CPU quanta, ~100 ns–2 µs), device completions in the
/// 8–120 µs band, sparse daemon timers out at 1 ms, and occasional
/// cancellations (timeout watchdogs disarmed by early completion).
/// Roughly one pop per schedule keeps the queue near its steady-state
/// depth instead of growing without bound.
fn fig12_sched_program(ops: usize) -> Vec<SchedOp> {
    let mut rng = Prng::seed_from(12);
    let mut program = Vec::with_capacity(ops);
    let mut outstanding = 0usize;
    for _ in 0..ops {
        let roll = rng.below(100);
        if roll < 46 || outstanding == 0 {
            let delay = match rng.below(10) {
                0..=5 => 100 + rng.below(1_900),  // CPU step / SMU handshake
                6..=8 => 8_000 + rng.below(112_000), // NVMe completion
                _ => 1_000_000,                        // kpoold/kpted timer
            };
            program.push(SchedOp::Schedule(delay));
            outstanding += 1;
        } else if roll < 92 {
            program.push(SchedOp::Pop);
            outstanding -= 1;
        } else {
            program.push(SchedOp::Cancel(rng.below(outstanding as u64) as usize));
            outstanding -= 1;
        }
    }
    program
}

fn bench_event_queue(c: &mut Criterion) {
    let program = fig12_sched_program(4096);
    c.bench_function("event_queue_fig12_mix_4k", |b| {
        b.iter_batched(
            EventQueue::<u32>::new,
            |mut q| {
                let mut live = Vec::with_capacity(256);
                for op in &program {
                    match op {
                        SchedOp::Schedule(delay) => {
                            let at = q.now() + Duration::from_nanos(*delay);
                            live.push(q.schedule(at, 0));
                        }
                        SchedOp::Pop => {
                            std::hint::black_box(q.pop());
                            live.pop();
                        }
                        SchedOp::Cancel(k) => {
                            let idx = live.len() - 1 - (k % live.len());
                            let id = live.swap_remove(idx);
                            q.cancel(id);
                        }
                    }
                }
                while q.pop().is_some() {}
                q
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_pmshr(c: &mut Criterion) {
    let mut pt = PageTable::new();
    let walks: Vec<_> = (0..32u64)
        .map(|v| {
            let block = BlockRef::new(SocketId(0), DeviceId(0), Lba(v));
            pt.set_pte(Vpn(v), Pte::lba_augmented(block, PteFlags::user_data()));
            (pt.walk(Vpn(v)).unwrap(), block)
        })
        .collect();
    c.bench_function("pmshr_present_invalidate_32", |b| {
        b.iter_batched(
            Pmshr::paper_default,
            |mut p| {
                let mut idxs = Vec::with_capacity(32);
                for (i, (w, blk)) in walks.iter().enumerate() {
                    if let Ok(hwdp_smu::pmshr::Presented::Allocated(idx)) =
                        p.present(*w, *blk, i as u64)
                    {
                        idxs.push(idx);
                    }
                }
                for idx in idxs {
                    p.invalidate(idx);
                }
                p
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_page_walk(c: &mut Criterion) {
    let mut pt = PageTable::new();
    for v in 0..4096u64 {
        pt.set_pte(Vpn(v), Pte::present(Pfn(v), PteFlags::user_data()));
    }
    c.bench_function("page_table_walk", |b| {
        let mut v = 0u64;
        b.iter(|| {
            v = (v + 1) % 4096;
            std::hint::black_box(pt.walk(Vpn(v)))
        })
    });
}

fn bench_kpted_scan(c: &mut Criterion) {
    c.bench_function("kpted_scan_4096_pages", |b| {
        b.iter_batched(
            || {
                let mut pt = PageTable::new();
                for v in 0..4096u64 {
                    let block = BlockRef::new(SocketId(0), DeviceId(0), Lba(v));
                    pt.set_pte(Vpn(v), Pte::lba_augmented(block, PteFlags::user_data()));
                    let w = pt.walk(Vpn(v)).unwrap();
                    pt.smu_complete(&w, Pfn(v));
                }
                pt
            },
            |mut pt| {
                pt.scan_needs_sync(|_, pte| pte.clear_lba_bit());
                pt
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_tlb(c: &mut Criterion) {
    let mut tlb = Tlb::new(64, 4);
    for v in 0..64u64 {
        tlb.fill(Vpn(v), Pfn(v));
    }
    c.bench_function("tlb_lookup", |b| {
        let mut v = 0u64;
        b.iter(|| {
            v = (v + 1) % 96; // mix of hits and misses
            std::hint::black_box(tlb.lookup(Vpn(v)))
        })
    });
}

fn bench_zipfian(c: &mut Criterion) {
    let mut z = ScrambledZipfian::new(1_000_000);
    let mut rng = Prng::seed_from(1);
    c.bench_function("scrambled_zipfian_sample", |b| {
        b.iter(|| std::hint::black_box(z.sample(&mut rng)))
    });
}

fn bench_pte_encode(c: &mut Criterion) {
    let block = BlockRef::new(SocketId(3), DeviceId(2), Lba(123_456));
    c.bench_function("pte_lba_roundtrip", |b| {
        b.iter(|| {
            let pte = Pte::lba_augmented(block, PteFlags::user_data());
            std::hint::black_box(pte.block())
        })
    });
}

fn bench_free_queue(c: &mut Criterion) {
    c.bench_function("free_queue_cycle_256", |b| {
        b.iter_batched(
            || {
                let mut q = FreePageQueue::new(256, 16);
                q.push_batch((0..256).map(|p| FreePage::of(Pfn(p))));
                q
            },
            |mut q| {
                q.refill_prefetch();
                while q.fetch().is_some() {}
                q
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = micro;
    config = Criterion::default();
    targets = bench_event_queue, bench_pmshr, bench_page_walk,
              bench_kpted_scan, bench_tlb, bench_zipfian, bench_pte_encode, bench_free_queue
}
criterion_main!(micro);
