//! Allocation discipline of subscribing to a view.
//!
//! Installs the counting global allocator from the testkit and asserts that
//! the first `resume` at the tip of a view — the call that creates the hub's
//! per-view state — allocates a fixed amount, independent of how many rows
//! the view holds: the hub keeps no copy of the view, because every commit's
//! ops carry the pre-images netting needs.

use ojv_core::fixtures;
use ojv_core::prelude::Database;
use ojv_feed::{FeedHub, Resumed, SubscriptionSpec};
use ojv_testkit::{alloc_snapshot, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations one first-per-view resume at the tip may perform, whatever
/// the view's size: the pin, the trie entries and the subscription handle.
const BOUND: u64 = 64;

fn db(n_orders: i64) -> Database {
    let mut catalog = fixtures::example1_catalog();
    fixtures::populate_example1(&mut catalog, 100, n_orders);
    let mut db = Database::new(catalog);
    db.create_view(fixtures::oj_view_def()).unwrap();
    db
}

/// Allocation count of the first resume on a freshly attached hub. The
/// counters are process-global, so a background thread can leak stray
/// allocations into one window; the minimum of a few fresh hubs is the
/// honest cost.
fn first_resume_allocs(db: &mut Database) -> u64 {
    let spec = SubscriptionSpec::on("oj_view");
    (0..3)
        .map(|_| {
            let hub = FeedHub::new();
            hub.attach(db);
            let tip = db.commit_lsn();
            let before = alloc_snapshot();
            let (sub, resumed) = hub.resume(&spec, tip).unwrap();
            let count = alloc_snapshot().since(&before).count;
            assert!(matches!(resumed, Resumed::Stream), "tip resume streams");
            drop(sub);
            count
        })
        .min()
        .expect("at least one attempt")
}

/// Everything in one test function: the counters are process-global, so
/// concurrently running tests would pollute each other's deltas.
#[test]
fn first_resume_at_the_tip_does_not_copy_the_view() {
    let mut big = db(12_000);
    let rows = big.view("oj_view").unwrap().len();
    assert!(rows >= 10_000, "the view must be large: {rows} rows");
    // One commit so the tip is past the initial image.
    big.insert("part", vec![fixtures::part_row(100_001, "tip", 1.0)])
        .unwrap();
    let allocs = first_resume_allocs(&mut big);
    assert!(
        alloc_snapshot().count > 0,
        "counting allocator must be installed for this test to mean anything"
    );
    assert!(
        allocs < BOUND,
        "first resume on a {rows}-row view allocated {allocs} times (bound {BOUND})"
    );
}
