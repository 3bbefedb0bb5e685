//! A fixed reference computation owned by the benchmark, timed between
//! ops to gauge how fast the host is running.
//!
//! End-to-end times are reported in seconds of a nominal host on which the
//! reference takes [`NOMINAL_REF_S`]: measured seconds × `NOMINAL_REF_S` /
//! the reference's median time while they were measured. Other tenants of
//! a shared host slow the program and the reference alike — by up to 70%
//! for minutes on the 2-core host this was written on — and the scaling
//! cancels that.
//!
//! The program must not be able to move the reference, so each sample
//! runs in a child process of its own (fresh heap, nothing of the
//! program's loaded) while the benchmark waits for it, and a sample is
//! dropped if the benchmark's process used CPU meanwhile — threads the
//! program left running would slow the reference and hide their own cost.

use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

use carat_des::splitmix64;

/// Time of [`reference_s`] on the nominal host, s.
pub const NOMINAL_REF_S: f64 = 0.006;

/// The argument that makes the benchmark run one reference and print its
/// time, instead of a workload.
pub const CHILD_ARG: &str = "--host-reference";

/// A sample is dropped if this process used more CPU time than this share
/// of the reference's time while the child ran.
const MAX_PARENT_CPU_SHARE: f64 = 0.5;

/// Scale factor from measured to nominal-host seconds for a stretch of
/// time in which the reference took `samples`; 1 without samples.
pub fn host_factor(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        1.0
    } else {
        NOMINAL_REF_S / crate::stats::median(samples)
    }
}

/// One host-speed sample.
pub struct Sample {
    /// The reference's time, s; `None` if the sample was dropped.
    pub ref_s: Option<f64>,
    /// Wall time the sample took, child start-up included, ns.
    pub wall_ns: u64,
}

/// Runs the reference once in a child process and returns its time.
pub fn sample() -> Sample {
    let t = Instant::now();
    let cpu0 = process_cpu_s();
    let out = std::env::current_exe().and_then(|exe| Command::new(exe).arg(CHILD_ARG).output());
    let parent_cpu_s = process_cpu_s() - cpu0;
    let ref_s = out
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .trim()
                .parse::<f64>()
                .ok()
        })
        .filter(|&r| r > 0.0 && parent_cpu_s <= MAX_PARENT_CPU_SHARE * r);
    Sample {
        ref_s,
        wall_ns: t.elapsed().as_nanos() as u64,
    }
}

/// CPU time used so far by every thread of this process, s.
fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec (64-bit Linux layout).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.sec as f64 + ts.nsec as f64 * 1e-9
    } else {
        0.0
    }
}

/// A mix shaped like the program's own work: a sort, a timed-event heap,
/// an ordered map, block copies, floating-point math, and a sweep over a
/// population lattice like exact MVA's. Returns its time in seconds.
pub fn reference_s() -> f64 {
    let t = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut next = || {
        x = splitmix64(x);
        x
    };
    let mut keys: Vec<u64> = (0..60_000).map(|_| next()).collect();
    keys.sort_unstable();
    let mut heap = BinaryHeap::new();
    for (i, k) in keys.iter().enumerate().take(30_000) {
        heap.push((k >> 20, i));
        if i % 2 == 1 {
            black_box(heap.pop());
        }
    }
    let mut map = BTreeMap::new();
    for k in keys.iter().take(20_000) {
        *map.entry(k % 4_099).or_insert(0u32) += 1;
    }
    let mut blocks = vec![[0u8; 512]; 1_000];
    for i in 0..8_000 {
        let (a, b) = (i % 1_000, (i * 7 + 3) % 1_000);
        blocks[a] = blocks[b];
        blocks[a][i % 512] ^= 1;
    }
    let mut f = 0.0f64;
    for i in 1..40_000u32 {
        f += f64::from(i).ln() / (1.0 + (f64::from(i % 97) * 0.01).exp());
    }
    // Queue lengths over a 3-chain population lattice, each state from
    // its three predecessors (the access pattern of exact MVA).
    const N: usize = 24;
    let mut q = vec![0.0f64; N * N * N];
    for a in 0..N {
        for b in 0..N {
            for c in 0..N {
                let i = (a * N + b) * N + c;
                let prev = |d: usize, stride: usize| if d > 0 { q[i - stride] } else { 0.0 };
                let r = 1.0 + prev(a, N * N) * 0.3 + prev(b, N) * 0.2 + prev(c, 1) * 0.1;
                q[i] = (a + b + c) as f64 / (r + 50.0);
            }
        }
    }
    black_box((heap.len(), map.len(), blocks[17][3], f, q[N * N * N - 1]));
    t.elapsed().as_secs_f64()
}
