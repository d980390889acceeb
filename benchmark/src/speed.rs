//! How fast the host runs at the moment, from a fixed reference kernel.
//!
//! The 2-vCPU VMs this benchmark runs on change speed for tens of seconds
//! at a time, by 10 to 35 %, as other tenants load the machine. A run
//! cannot outlast such a phase, so the host metrics of a run are scaled by
//! how fast this kernel ran in the same run. The kernel is code of the
//! benchmark, not of the simulator: a change to the simulator moves the
//! scaled metrics exactly as it moves the raw ones.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::time::Instant;

use crate::measure::WORKERS;

/// The kernel's fastest time, in ms, with both vCPUs busy, on the 2-vCPU
/// machine (Intel Xeon, 2.1 GHz) the benchmark was tuned on. Scaled host
/// metrics read as if every run had found the host at this speed.
pub const REFERENCE_MS: f64 = 8.5;

/// Steps of the kernel; about [`REFERENCE_MS`] of work.
const STEPS: u64 = 200_000;

/// A fixed mix of what the simulator's event loop does: a priority queue,
/// a hash map and small writes into a 256 KiB buffer, driven by a
/// xorshift sequence.
fn kernel(steps: u64) -> u64 {
    const BUF: usize = 1 << 18;
    let mut heap = BinaryHeap::with_capacity(4096);
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(8192);
    let mut buf = vec![0u8; BUF];
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut acc = 0u64;
    for i in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(Reverse(x % 1_000_000));
        if heap.len() > 2048 {
            acc = acc.wrapping_add(heap.pop().map_or(0, |Reverse(v)| v));
        }
        *map.entry(x % 8192).or_insert(0) += i;
        let off = (x as usize % (BUF - 4096)) & !63;
        buf[off..off + 256].fill(i as u8);
        acc = acc.wrapping_add(u64::from(buf[(x >> 20) as usize % BUF]));
    }
    acc ^ map.len() as u64
}

/// Runs the kernel once on each of [`WORKERS`] threads at once, as the
/// executor loads the host, and returns the fastest thread's time in ms.
pub fn probe() -> f64 {
    std::thread::scope(|s| {
        let threads: Vec<_> = (0..WORKERS)
            .map(|_| {
                s.spawn(|| {
                    let t = Instant::now();
                    std::hint::black_box(kernel(std::hint::black_box(STEPS)));
                    t.elapsed().as_secs_f64() * 1e3
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("the reference kernel does not panic"))
            .fold(f64::INFINITY, f64::min)
    })
}
