//! A fixed reference workload that measures how fast the host runs.
//!
//! The machine the benchmark runs on is shared: neighbours on the same
//! cores and memory slow every instruction stream by tens of percent for
//! minutes at a time, which no amount of repetition inside one run can
//! see. The reference is fixed work written here, independent of the
//! program under test, in the mix the day path runs: sorting, scattered
//! updates, checksums and floating-point sums in cache (the settlement
//! and admission ticks), the same work on two threads at once (the
//! racing refinement solve), and a multi-megabyte buffer written and
//! read back (the journal's checkpoint encodes). Its buffers are
//! allocated once, so the program's heap state cannot change its wall.
//! That wall, taken between neighbourhood runs, tracks the host's speed;
//! a change to the program never changes the work it measures.

use std::hint::black_box;

use enki_telemetry::{Clock, MonotonicClock};

/// The reference's wall on the host that reported times are scaled to.
pub const NOMINAL_S: f64 = 3e-3;

/// Values sorted per in-cache pass (256 KiB).
const SORTED: usize = 32 * 1024;
/// Buckets the scattered updates land in.
const BUCKETS: usize = 997;
/// Bytes checksummed per in-cache pass.
const BYTES: usize = 64 * 1024;
/// Words of the buffer streamed through memory (4 MiB).
const STREAMED: usize = 512 * 1024;

/// Buffers of one in-cache pass.
struct Lane {
    values: Vec<u64>,
    buckets: Vec<u64>,
    bytes: Vec<u8>,
}

impl Lane {
    fn new() -> Self {
        Self {
            values: vec![0; SORTED],
            buckets: vec![0; BUCKETS],
            bytes: (0..BYTES).map(|i| (i * 31 % 251) as u8).collect(),
        }
    }

    /// Sorting, scattered updates, a checksum and a float sum over a
    /// working set that fits in cache.
    fn run(&mut self, seed: u64) -> (u64, u32, f64) {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for v in &mut self.values {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            *v = state >> 11;
        }
        self.values.sort_unstable();
        self.buckets.fill(0);
        for &v in &self.values {
            let b = &mut self.buckets[(v % BUCKETS as u64) as usize];
            *b = b.wrapping_add(v);
        }
        let checksum = self.bytes.iter().fold(0xffff_ffff_u32, |c, &b| {
            (c.rotate_left(5) ^ u32::from(b)).wrapping_mul(0x0100_0193)
        });
        let sum: f64 = self
            .values
            .iter()
            .map(|&v| (v % 4096) as f64)
            .map(|x| x * x.sqrt())
            .sum();
        (self.buckets.iter().fold(0, |a, &b| a ^ b), checksum, sum)
    }
}

/// The reference workload and its preallocated buffers.
pub struct Reference {
    lanes: [Lane; 2],
    streamed: Vec<u64>,
}

impl Reference {
    /// Allocates the buffers.
    #[must_use]
    pub fn new() -> Self {
        Self {
            lanes: [Lane::new(), Lane::new()],
            streamed: vec![0; STREAMED],
        }
    }

    /// Runs the reference work twice and returns the wall of the second
    /// pass in seconds. The first brings the buffers back into cache,
    /// so the wall does not depend on what the program ran just before.
    pub fn wall_s(&mut self) -> f64 {
        self.pass();
        let clock = MonotonicClock::new();
        self.pass();
        clock.now().as_secs_f64()
    }

    fn pass(&mut self) {
        let [first, second] = &mut self.lanes;
        black_box(first.run(1));
        std::thread::scope(|scope| {
            let other = scope.spawn(|| second.run(2));
            black_box(first.run(3));
            black_box(other.join().expect("the reference thread does not panic"));
        });
        for (i, w) in self.streamed.iter_mut().enumerate() {
            *w = i as u64 ^ 0x5bd1_e995;
        }
        black_box(
            self.streamed
                .iter()
                .fold(0, |acc: u64, &w| acc.rotate_left(1) ^ w),
        );
    }
}
