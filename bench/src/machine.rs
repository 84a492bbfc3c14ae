//! Probes of the machine, not of the program: a register-only loop, a
//! pointer chase over 8 MiB and a streaming sum over 32 MiB, in this
//! package's own code. Sampled between passes, they let a reader tell a
//! noisy neighbour on the memory system (chase and stream move, spin
//! does not) from a change in the program (none of them moves).

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::Res;

const CHASE_SLOTS: usize = (8 << 20) / std::mem::size_of::<u32>();
const CHASE_HOPS: usize = 4096;
const STREAM_WORDS: usize = (32 << 20) / std::mem::size_of::<u64>();
const SPIN_ITERS: u64 = 400_000;

/// One sample of the three probes.
#[derive(Debug, Clone, Copy, Default)]
pub struct MachineSample {
    pub spin_ms: f64,
    pub chase_ns: f64,
    pub stream_gib_s: f64,
}

/// The probes' buffers, allocated once so sampling allocates nothing.
pub struct MachineProbe {
    chase: Vec<u32>,
    stream: Vec<u64>,
    cursor: u32,
}

impl MachineProbe {
    pub fn new() -> Self {
        // One cycle through every slot (Sattolo's shuffle), so the chase
        // cannot settle into a short cached loop.
        let mut chase: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..CHASE_SLOTS).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % i;
            chase.swap(i, j);
        }
        MachineProbe {
            chase,
            stream: (0..STREAM_WORDS as u64).collect(),
            cursor: 0,
        }
    }

    pub fn sample(&mut self) -> MachineSample {
        let t = Instant::now();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..SPIN_ITERS {
            // xorshift: a dependent chain the compiler cannot shorten.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        black_box(x);
        let spin_ms = t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        let mut at = self.cursor;
        for _ in 0..CHASE_HOPS {
            at = self.chase[at as usize];
        }
        self.cursor = black_box(at);
        let chase_ns = t.elapsed().as_secs_f64() * 1e9 / CHASE_HOPS as f64;

        let t = Instant::now();
        let sum = self.stream.iter().fold(0u64, |a, &b| a.wrapping_add(b));
        black_box(sum);
        let secs = t.elapsed().as_secs_f64();
        let stream_gib_s = (STREAM_WORDS * 8) as f64 / (1u64 << 30) as f64 / secs;

        MachineSample {
            spin_ms,
            chase_ns,
            stream_gib_s,
        }
    }
}

/// `VmRSS` and `VmHWM` of this process in MiB, from `/proc/self/status`.
pub fn rss_and_hwm_mib() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| -> f64 {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kib| kib.parse::<f64>().ok())
            .map_or(0.0, |kib| kib / 1024.0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// Hands freed heap pages back to the kernel, so that `rss_mib` counts
/// what the program holds and not what the harness once held.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn release_freed_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` takes no pointer and touches only the
    // allocator's own free lists, under the allocator's own locks.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn release_freed_memory() {}

/// One spinning thread per core in the scheduler's idle class, for as
/// long as the value lives, so that no core halts while a run is timed.
///
/// This is the user-space form of booting a benchmark machine with
/// `idle=poll`. The threads run only when a core has nothing else to do
/// and anything that wakes preempts them at once, so they take no core
/// from the program's threads and every futex wake, context switch and
/// scheduler decision of a hand-off is still paid and still measured.
/// What is taken out is the halt itself. On the reference box — a
/// 2-vCPU microVM — how long a halted vCPU takes to come back is the
/// host's decision (it polls for a while before descheduling the vCPU,
/// and adapts how long), it flips between two regimes that each last
/// minutes, and a request crosses four such wake-ups: the same commit
/// and seed read `range_p50_ms` 0.18 or 0.32 and `setup_s` 0.17 or 0.11
/// from one run to the next. `service.ping_halted_us` in the traced run
/// pauses the threads and reports what a round trip costs with the
/// halts in.
pub struct IdleSpinners {
    stop: Arc<AtomicBool>,
    paused: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl IdleSpinners {
    /// Fails when the kernel refuses a thread the idle class: the run
    /// would be timed in whichever regime the host is in that minute, and
    /// its numbers would compare with no other run's.
    pub fn start() -> Res<Self> {
        let stop = Arc::new(AtomicBool::new(false));
        let paused = Arc::new(AtomicBool::new(false));
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let (entered_tx, entered_rx) = mpsc::channel();
        let threads = (0..cores)
            .map(|_| {
                let (stop, paused) = (Arc::clone(&stop), Arc::clone(&paused));
                let entered = entered_tx.clone();
                std::thread::spawn(move || {
                    // A spinner at normal priority would take a core from
                    // the program: outside the idle class, do nothing.
                    let idle = enter_idle_class();
                    let _ = entered.send(idle);
                    while idle && !stop.load(Ordering::Relaxed) {
                        if paused.load(Ordering::Relaxed) {
                            std::thread::park();
                        } else {
                            std::hint::spin_loop();
                        }
                    }
                })
            })
            .collect();
        let spinners = IdleSpinners {
            stop,
            paused,
            threads,
        };
        let entered = entered_rx.iter().take(cores).filter(|idle| *idle).count();
        if entered < cores {
            return Err(format!(
                "sched_setscheduler(SCHED_IDLE) refused: {entered} of {cores} cores can be kept \
                 from halting, and an unconditioned run compares with no other (see bench/README.md, Noise)"
            ));
        }
        Ok(spinners)
    }

    /// Lets the cores halt (`true`) or keeps them awake again (`false`).
    pub fn pause(&self, paused: bool) {
        self.paused.store(paused, Ordering::Relaxed);
        for thread in &self.threads {
            thread.thread().unpark();
        }
    }
}

impl Drop for IdleSpinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.pause(false);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// Moves the calling thread to `SCHED_IDLE`; false when the kernel says
/// no (or is not Linux).
#[cfg(target_os = "linux")]
fn enter_idle_class() -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a live `struct sched_param` for the length of the
    // call, which only reads it; pid 0 names the calling thread.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn enter_idle_class() -> bool {
    false
}
