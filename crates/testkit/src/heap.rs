//! A global allocator that counts live bytes across every thread, for the
//! heap tests. A test binary installs it as its own:
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: tsq_testkit::heap::Tracking = tsq_testkit::heap::Tracking;
//! ```
//!
//! The kit never installs it itself, so only the binaries that ask are
//! tracked. Such a binary holds one test, so nothing else of its own
//! allocates while it measures. libtest still does: it runs a test on a
//! thread of its own while its main thread keeps the books, and under load
//! that thread's bookkeeping (900 live bytes) can land inside a
//! measurement. A binary whose bound has less slack than that declares
//! `harness = false` and runs its test on the main thread with
//! [`run_alone`], so no other thread exists while it measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::time::Instant;

/// Bytes allocated and not yet freed, by every thread.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// The system allocator, keeping the sum of the sizes of live blocks.
pub struct Tracking;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counter is
// an atomic, which neither allocates nor re-enters the allocator.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from this allocator, i.e. from `System`.
        let grown = unsafe { System.realloc(ptr, layout, new_size) };
        if !grown.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        grown
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract, and
        // `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }
}

/// Bytes live now (zero growth in a binary that does not install
/// [`Tracking`]).
pub fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

/// The live bytes `f` leaves behind once its result is dropped.
pub fn left_by<R>(f: impl FnOnce() -> R) -> isize {
    let before = live();
    drop(f());
    live() - before
}

/// The `main` of a test binary declared with `harness = false`: runs each
/// selected test in turn on the calling thread, the only one, and prints
/// libtest's lines for the arguments `cargo test` passes on — names to
/// filter by, `--exact`, `--skip <name>`, `--ignored` (none is) and
/// `--list`. Other options (`--test-threads`, `--nocapture`, ...) change
/// nothing here. Exits with status 101 when a test fails.
pub fn run_alone(tests: &[(&str, fn())]) {
    let (mut filters, mut skips) = (Vec::new(), Vec::new());
    let (mut exact, mut list, mut ignored) = (false, false, false);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--exact" => exact = true,
            "--list" => list = true,
            "--ignored" => ignored = true,
            "--skip" => skips.extend(args.next()),
            // Options whose value is the next argument.
            "--test-threads" | "--color" | "--format" | "--logfile" | "--shuffle-seed" | "-Z" => {
                args.next();
            }
            flag if flag.starts_with('-') => {}
            _ => filters.push(arg),
        }
    }
    let matches = |name: &str, pattern: &String| match exact {
        true => name == pattern,
        false => name.contains(pattern.as_str()),
    };
    let selected: Vec<&(&str, fn())> = tests
        .iter()
        .filter(|(name, _)| {
            !ignored
                && (filters.is_empty() || filters.iter().any(|f| matches(name, f)))
                && !skips.iter().any(|s| matches(name, s))
        })
        .collect();
    let plural = |n: usize| if n == 1 { "" } else { "s" };
    if list {
        for (name, _) in &selected {
            println!("{name}: test");
        }
        let n = selected.len();
        println!("\n{n} test{}, 0 benchmarks", plural(n));
        return;
    }
    println!(
        "\nrunning {} test{}",
        selected.len(),
        plural(selected.len())
    );
    let started = Instant::now();
    let mut failed = Vec::new();
    for &&(name, test) in &selected {
        // Nothing is captured: what the test prints comes first, and its
        // line follows whole.
        let ok = panic::catch_unwind(AssertUnwindSafe(test)).is_ok();
        println!("test {name} ... {}", if ok { "ok" } else { "FAILED" });
        if !ok {
            failed.push(name);
        }
    }
    if !failed.is_empty() {
        println!("\nfailures:");
        for name in &failed {
            println!("    {name}");
        }
    }
    println!(
        "\ntest result: {}. {} passed; {} failed; 0 ignored; 0 measured; {} filtered out; \
         finished in {:.2}s\n",
        if failed.is_empty() { "ok" } else { "FAILED" },
        selected.len() - failed.len(),
        failed.len(),
        tests.len() - selected.len(),
        started.elapsed().as_secs_f64()
    );
    if !failed.is_empty() {
        std::process::exit(101);
    }
}
