//! The exact rung's price solve on the committed `bench_parallel`
//! instances: the pairwise Frank–Wolfe solve must exit on its duality-gap
//! test within a few dozen sweeps, and the proof it feeds must stay as
//! small as the committed `BENCH_parallel.json` row.

use enki_bench::bench_instance;
use enki_solver::prelude::BranchAndBound;

/// The `bench_parallel` exact rung: seed 42, node-only budget.
fn bench_solver() -> BranchAndBound {
    BranchAndBound::new().with_seed(42).with_node_limit(50_000)
}

#[test]
fn n256_price_solve_exits_on_the_gap_and_the_proof_stays_small() {
    let problem = bench_instance(256, 2017).expect("bench instance");
    let report = bench_solver().solve(&problem).expect("solve");
    assert!(report.proven_optimal, "n=256 must be proven exact");
    assert!(
        report.price_sweeps <= 32,
        "price solve ran {} sweeps; it should exit on the gap within 32",
        report.price_sweeps
    );
    assert!(
        report.nodes <= 118,
        "proof took {} nodes (committed: 118)",
        report.nodes
    );
}
