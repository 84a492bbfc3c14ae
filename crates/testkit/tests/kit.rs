//! The kit's own contract: ddmin ends at a 1-minimal list, a failing
//! property's report names the test, the case, the seed and the minimized
//! input, a minimized list keeps failing where the drawn one failed, and
//! a property draws the same inputs on every run.

use std::panic::catch_unwind;
use std::sync::Mutex;

use tsq_testkit::{ddmin, property, seed, Rng};

#[test]
fn ddmin_returns_a_one_minimal_list() {
    let both = |list: &[usize]| list.contains(&3) && list.contains(&7);
    assert_eq!(ddmin((0..64).collect(), both), vec![3, 7]);
}

/// The report of a property that fails, as the runner panics with it.
fn report<T: Clone + std::fmt::Debug, S: std::fmt::Debug>(
    name: &str,
    draw: impl Fn(&mut Rng) -> (Vec<T>, S),
    check: impl Fn(&[T], &S),
) -> String {
    let failed = catch_unwind(std::panic::AssertUnwindSafe(|| {
        property(name, 8, draw, check)
    }));
    *failed
        .expect_err("the property fails")
        .downcast::<String>()
        .unwrap()
}

#[test]
fn a_failing_property_reports_its_name_case_seed_and_minimized_list() {
    let name = "no_3_beside_a_7";
    let draw = |rng: &mut Rng| ((0..rng.range(10, 20)).collect::<Vec<usize>>(), "the rest");
    let text = report(name, draw, |list, _| {
        assert!(!(list.contains(&3) && list.contains(&7)), "3 beside 7");
    });
    for part in [
        format!("property `{name}`"),
        "case 0 of 8".to_string(),
        format!("seed {:#x}", seed(name, 0)),
        "3 beside 7".to_string(),
        "item(s): [3, 7]\nbeside \"the rest\"".to_string(),
    ] {
        assert!(text.contains(&part), "{part:?} is not in {text:?}");
    }
}

#[test]
fn a_minimized_list_still_fails_where_the_drawn_one_did() {
    // Below two items the check fails elsewhere (its index), which is not
    // the failure being minimized.
    let text = report(
        "two_nines",
        |_| (vec![9, 9, 9], ()),
        |list: &[u32], _| {
            let second = list[1];
            assert!(list[0] + second < 10, "too large");
        },
    );
    assert!(text.contains("item(s): [9, 9]\n"), "{text}");
}

#[test]
fn two_runs_of_a_property_draw_identical_inputs() {
    let drawn = |name: &str| {
        let seen = Mutex::new(Vec::new());
        let draw = |rng: &mut Rng| (rng.list(0..=8, Rng::next_u64), rng.float(-1.0..1.0));
        property(name, 16, draw, |list, x| {
            seen.lock().unwrap().push((list.to_vec(), x.to_bits()));
        });
        seen.into_inner().unwrap()
    };
    let first = drawn("draws");
    assert_eq!(first.len(), 16, "one check per case");
    assert_eq!(first, drawn("draws"));
    assert_ne!(first, drawn("another_name"));
}
