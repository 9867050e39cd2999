//! End-to-end checks of the paper's headline claims, run on the paper's
//! own experimental setup (16×16 virtual grid, `R = 10 m`, uniform
//! deployment with `N + m·n` enabled nodes).

use wsn::prelude::*;

fn deployment(n_target: usize, seed: u64) -> GridNetwork {
    let system = GridSystem::for_comm_range(16, 16, 10.0).expect("paper dims");
    let mut rng = SimRng::seed_from_u64(seed);
    let positions = deploy::uniform(&system, n_target + system.cell_count(), &mut rng);
    GridNetwork::new(system, &positions)
}

/// Runs `scheme` classic on `net` with the run seed `seed`.
fn run(scheme: &dyn ReplacementScheme, net: &mut GridNetwork, seed: u64) -> SchemeReport {
    scheme
        .run(net, seed, DriveMode::Classic)
        .expect("the paper's grids suit every scheme")
}

#[test]
fn claim_sr_success_rate_is_always_100_percent() {
    // §5: "the success rate is always 100% in SR method".
    for n in [10usize, 55, 300] {
        for seed in 0..3u64 {
            let report = run(&Sr::new(), &mut deployment(n, seed), seed);
            assert!(report.fully_covered, "N={n} seed={seed}");
            assert_eq!(
                report.metrics.success_rate_percent(),
                100.0,
                "N={n} seed={seed}"
            );
            assert_eq!(report.metrics.processes_failed, 0);
        }
    }
}

#[test]
fn claim_sr_needs_less_than_half_the_processes_of_ar() {
    // §5: "fewer than 50% replacement processes are needed in SR".
    let mut sr_total = 0u64;
    let mut ar_total = 0u64;
    for seed in 0..4u64 {
        let net = deployment(150, seed);
        let sr = run(&Sr::new(), &mut net.clone(), seed);
        let ar = run(&Ar::new(), &mut net.clone(), seed);
        sr_total += sr.metrics.processes_initiated;
        ar_total += ar.metrics.processes_initiated;
    }
    assert!(
        2 * sr_total < ar_total,
        "SR processes {sr_total} must be < half of AR's {ar_total}"
    );
}

#[test]
fn claim_crossover_sr_wins_above_n55_loses_below() {
    // §5: below N ≈ 55 SR walks long paths (more movement than AR, which
    // gives up on hard holes instead); above it SR needs fewer moves and
    // less distance while staying at 100% success.
    let avg = |n: usize, scheme: &dyn Fn(GridNetwork, u64) -> (f64, f64)| {
        let mut moves = 0.0;
        let mut dist = 0.0;
        let trials = 3u64;
        for seed in 0..trials {
            let (m, d) = scheme(deployment(n, 100 + seed), seed);
            moves += m;
            dist += d;
        }
        (moves / trials as f64, dist / trials as f64)
    };
    let sr = |mut net: GridNetwork, seed: u64| {
        let r = run(&Sr::new(), &mut net, seed);
        (r.metrics.moves as f64, r.metrics.distance)
    };
    let ar = |mut net: GridNetwork, seed: u64| {
        let r = run(&Ar::new(), &mut net, seed);
        (r.metrics.moves as f64, r.metrics.distance)
    };

    // Below the crossover: SR moves more (it never gives up).
    let (sr_lo, _) = avg(10, &sr);
    let (ar_lo, _) = avg(10, &ar);
    assert!(
        sr_lo > ar_lo,
        "below crossover SR should move more: SR {sr_lo} vs AR {ar_lo}"
    );
    // Above the crossover: SR moves less and travels less.
    let (sr_hi, sr_hi_d) = avg(300, &sr);
    let (ar_hi, ar_hi_d) = avg(300, &ar);
    assert!(
        sr_hi < ar_hi,
        "above crossover SR should move less: SR {sr_hi} vs AR {ar_hi}"
    );
    assert!(sr_hi_d < ar_hi_d);
}

#[test]
fn claim_ar_fails_processes_at_low_density_sr_does_not() {
    // §5: "the AR method has 10%~20% failures in replacement processes
    // while the success rate is always 100% in SR" (N < 55). Our AR
    // re-implementation fails somewhat more often at the very low end;
    // the claim checked here is the ordering and
    // the existence of AR failures below the crossover.
    let mut ar_failures = 0u64;
    for seed in 0..3u64 {
        let net = deployment(25, seed);
        let sr = run(&Sr::new(), &mut net.clone(), seed);
        let ar = run(&Ar::new(), &mut net.clone(), seed);
        assert_eq!(sr.metrics.success_rate_percent(), 100.0);
        assert!(ar.metrics.success_rate_percent() < 100.0);
        ar_failures += ar.metrics.processes_failed;
    }
    assert!(ar_failures > 0);
}

#[test]
fn claim_sr_works_with_sparse_deployment_ar_class_needs_4x() {
    // §3: SR "will favor the networks with sparse deployment",
    // distinguishing it from schemes requiring >= 4 * m * n deployed
    // nodes. Build a 6x6 network with exactly ONE spare (density barely
    // above 1 per cell) and a hole: SR must still recover it.
    let system = GridSystem::for_comm_range(6, 6, 10.0).unwrap();
    let mut rng = SimRng::seed_from_u64(99);
    let hole = GridCoord::new(3, 3);
    let mut positions = deploy::with_holes(&system, &[hole], 1, &mut rng);
    let spare_cell = system.cell_rect(GridCoord::new(0, 0)).unwrap();
    positions.push(spare_cell.center());
    let mut net = GridNetwork::new(system, &positions);
    assert_eq!(net.stats().spares, 1);

    let report = run(&Sr::new(), &mut net, 99);
    assert!(report.fully_covered, "one spare suffices (Theorem 1)");
    assert_eq!(report.final_stats.spares, 0);
}

#[test]
fn claim_analysis_matches_experiment_through_the_sweep() {
    // The §5 overlay: experimental SR movement totals track the Theorem-2
    // estimate holes * M(L, N) within a factor band across the sweep.
    for (n, lo, hi) in [(150usize, 0.4, 1.4), (500, 0.5, 1.6)] {
        let mut exp = 0.0;
        let mut ana = 0.0;
        for seed in 0..4u64 {
            let mut net = deployment(n, 7 + seed);
            let holes = net.stats().vacant;
            let r = run(&Sr::new(), &mut net, seed);
            exp += r.metrics.moves as f64;
            ana += holes as f64 * analysis::expected_moves(255, n);
        }
        let ratio = exp / ana;
        assert!(
            (lo..=hi).contains(&ratio),
            "N={n}: experimental/analytical ratio {ratio}"
        );
    }
}

#[test]
fn claim_coverage_and_connectivity_are_restored() {
    // Theorem 1's purpose: "network connectivity and coverage can be
    // guaranteed". Verify via the geometric/graph verdicts, not just the
    // combinatorial hole count.
    let mut net = deployment(200, 11);
    let report = run(&Sr::new(), &mut net, 11);
    assert!(report.fully_covered);
    let verdict = coverage_verdict(&net, 100);
    assert!(verdict.is_complete());
    assert!(verdict.geometric_coverage > 0.999);
    assert!(verdict.heads_connected);
}
