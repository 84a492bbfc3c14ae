//! Table 1 judged the way the paper's Section 5 judges it — by shape, on
//! the deterministic columns (answer sizes and simulated I/O) of the very
//! runner `reproduce table1` prints. Wall time is printed there and
//! asserted nowhere.

use tsq_bench::{build_index, calibrate_join_eps, stock_relation, table1, Table1Row};
use tsq_core::LinearTransform;

#[test]
fn table1_counts_have_the_papers_shape() {
    let idx = build_index(stock_relation());
    let n = idx.len() as u64;
    let t = LinearTransform::moving_average(128, 20);
    let eps = calibrate_join_eps(&idx, &t, 12);
    let rows = table1(eps);
    let [a, b, c, d]: [Table1Row; 4] = rows.try_into().expect("four methods");
    assert_eq!(
        [a.method, b.method, c.method, d.method],
        ["a", "b", "c", "d"]
    );

    // Both scans find the calibrated 12 pairs and read every pair of records.
    assert_eq!((a.answers, b.answers), (12, 12));
    assert_eq!(a.simulated_io, n * (n - 1) / 2);
    assert_eq!(b.simulated_io, a.simulated_io);

    // The index methods report each pair from both sides; without the
    // transformation (c) fewer sequences are close than with it (d).
    assert_eq!(d.answers, 2 * a.answers);
    assert!(c.answers <= d.answers, "c {} > d {}", c.answers, d.answers);

    // The paper's bar: the index join beats the scan by an order of
    // magnitude in records read.
    assert!(
        10 * d.simulated_io <= a.simulated_io,
        "d reads {} vs scan {}",
        d.simulated_io,
        a.simulated_io
    );
}
