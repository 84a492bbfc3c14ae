//! The seeded generator, delta debugging, and the property runner over
//! them.

use std::cell::{Cell, RefCell};
use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

/// SplitMix64: a seed is a whole stream, and neighbouring seeds give
/// unrelated ones.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream of `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi.max(lo) - lo + 1) as u64) as usize
    }

    /// Uniform in `range`, at 53 bits of resolution.
    pub fn float(&mut self, range: Range<f64>) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        range.start + unit * (range.end - range.start)
    }

    /// True with `percent` in 100.
    pub(crate) fn chance(&mut self, percent: usize) -> bool {
        self.range(1, 100) <= percent
    }

    /// One of `from`.
    pub(crate) fn pick<T: Clone>(&mut self, from: &[T]) -> T {
        from[self.range(0, from.len() - 1)].clone()
    }

    /// One of the `|`-separated `choices`.
    pub(crate) fn one_of(&mut self, choices: &'static str) -> &'static str {
        self.pick(&choices.split('|').collect::<Vec<_>>())
    }

    /// A list of a length uniform in `lens`, each item drawn by `item`.
    pub fn list<T>(
        &mut self,
        lens: RangeInclusive<usize>,
        mut item: impl FnMut(&mut Rng) -> T,
    ) -> Vec<T> {
        let len = self.range(*lens.start(), *lens.end());
        (0..len).map(|_| item(self)).collect()
    }
}

/// Delta debugging: drop chunks of `list` while `fails` still holds,
/// halving the chunk when no drop does, down to single items — a
/// 1-minimal failing list (no one item can go).
pub fn ddmin<T: Clone>(mut list: Vec<T>, fails: impl Fn(&[T]) -> bool) -> Vec<T> {
    let mut chunk = list.len().div_ceil(2);
    while chunk > 0 {
        let drop = |lo: usize| {
            let mut rest = list.clone();
            rest.drain(lo..(lo + chunk).min(list.len()));
            fails(&rest).then_some(rest)
        };
        match (0..list.len()).step_by(chunk).find_map(drop) {
            Some(rest) => list = rest,
            None => chunk /= 2,
        }
    }
    list
}

/// The seed of case `case` of the property `name`: the FNV-1a hash of the
/// name, plus the case's index.
pub fn seed(name: &str, case: u32) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h.wrapping_add(u64::from(case))
}

/// Runs the property `name` on `cases` inputs, case `i` drawn by `draw`
/// from [`seed`]`(name, i)` as a list and the values beside it. A case
/// fails when `check` panics. The first failing case's list is then
/// minimized by [`ddmin`], keeping a shorter list only when `check` still
/// panics at the same place (so a list cut below what the draw makes,
/// which fails somewhere else, is not kept), with the panic output
/// silenced; and the runner panics with the test's name, the case, its
/// seed, the minimized input and its panic.
pub fn property<T: Clone + Debug, S: Debug>(
    name: &str,
    cases: u32,
    draw: impl Fn(&mut Rng) -> (Vec<T>, S),
    check: impl Fn(&[T], &S),
) {
    for case in 0..cases {
        let seed = seed(name, case);
        let (list, fixed) = draw(&mut Rng::new(seed));
        let Err(failure) = quietly(|| check(&list, &fixed)) else {
            continue;
        };
        let fails = |l: &[T]| quietly(|| check(l, &fixed)).is_err_and(|f| f.at == failure.at);
        let small = ddmin(list.clone(), fails);
        let Failure { at, message } = quietly(|| check(&small, &fixed)).err().unwrap_or(failure);
        let (from, to) = (list.len(), small.len());
        panic!(
            "property `{name}` failed at case {case} of {cases} (seed {seed:#x}) at {at}: {message}\n\
             minimized from {from} to {to} item(s): {small:?}\nbeside {fixed:?}"
        );
    }
}

/// Where a check panicked, and its message.
#[derive(Debug, Default)]
struct Failure {
    at: String,
    message: String,
}

thread_local! {
    /// Set while this thread runs a check: its panics are recorded, not
    /// printed.
    static QUIET: Cell<bool> = const { Cell::new(false) };
    static CAUGHT: RefCell<Option<Failure>> = const { RefCell::new(None) };
}

/// Runs `f`, catching its panic, which this thread does not print.
fn quietly(f: impl FnOnce()) -> Result<(), Failure> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let printing = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET.get() {
                return printing(info);
            }
            let payload = info.payload();
            let message = payload.downcast_ref::<&str>().map(|s| s.to_string());
            let message = message.or_else(|| payload.downcast_ref::<String>().cloned());
            let failure = Failure {
                at: info.location().map_or(String::new(), ToString::to_string),
                message: message.unwrap_or_default(),
            };
            CAUGHT.set(Some(failure));
        }));
    });
    CAUGHT.take();
    QUIET.set(true);
    let run = catch_unwind(AssertUnwindSafe(f));
    QUIET.set(false);
    run.map_err(|_| CAUGHT.take().unwrap_or_default())
}
