//! Theorem 1 and single initiation, checked exhaustively on small grids.
//!
//! Every grid state with 0, 1 or 2 nodes per cell and `spares ≥ holes >
//! 0` runs under the classic drive and the Ideal event drive. Every run
//! must end quiescent (not at the round cap) and fully covered, start
//! exactly one process per initial hole, and give an Ideal report equal
//! to the classic one. Each run recovers every hole through the
//! detection sweep of the network's vacancy index, so this suite also
//! guards that index.
//!
//! 3×3 is SR only (a dual path; SR-SC refuses odd×odd grids) and runs in
//! tier-1. 4×3 (298,519 states, SR and SR-SC) is ignored there and run
//! by CI's release step with `--include-ignored`.

use wsn_coverage::{DriveMode, ReplacementScheme, Sr, SrSc};
use wsn_geometry::sample;
use wsn_grid::{GridNetwork, GridSystem};
use wsn_simcore::NetModelSpec;

/// Where a cell's first and second node sit, in unit cell coordinates.
const SLOTS: [(f64, f64); 2] = [(0.25, 0.25), (0.75, 0.75)];

/// The nodes per cell of state `code`: cell `i` holds base-3 digit `i`.
fn decode(code: u64, cells: usize) -> Vec<u8> {
    let mut rest = code;
    (0..cells)
        .map(|_| {
            let digit = (rest % 3) as u8;
            rest /= 3;
            digit
        })
        .collect()
}

/// Runs every scheme of `schemes` on every state of a `cols × rows` grid
/// with `spares ≥ holes > 0`, under both drives, and returns how many
/// states it checked.
///
/// # Panics
///
/// On the first run that breaks a claim, naming the scheme, the drive
/// and the state (nodes per cell, row by row).
fn check_every_state(cols: u16, rows: u16, schemes: &[&dyn ReplacementScheme]) -> u64 {
    let sys = GridSystem::new(cols, rows, 1.0).unwrap();
    let cells = sys.cell_count();
    let ideal = DriveMode::EventDriven {
        net: NetModelSpec::Ideal,
    };
    let mut net = GridNetwork::new(sys, &[]);
    let mut positions = Vec::new();
    let mut checked = 0;
    for code in 0..3u64.pow(cells as u32) {
        let counts = decode(code, cells);
        let holes = counts.iter().filter(|&&k| k == 0).count() as u64;
        let spares = counts.iter().filter(|&&k| k == 2).count() as u64;
        if holes == 0 || spares < holes {
            continue;
        }
        positions.clear();
        for (i, &k) in counts.iter().enumerate() {
            let rect = sys.cell_rect(sys.coord_of(i)).unwrap();
            for &(u, v) in &SLOTS[..usize::from(k)] {
                positions.push(sample::point_in_rect(&rect, u, v));
            }
        }
        net.reset_into(&positions).unwrap();
        assert_eq!(net.vacant_count() as u64, holes);
        assert_eq!(net.total_spares() as u64, spares);
        let state = || {
            counts
                .chunks(usize::from(cols))
                .map(|row| row.iter().map(u8::to_string).collect::<String>())
                .collect::<Vec<_>>()
                .join("/")
        };
        for scheme in schemes {
            let mut classic_net = net.clone();
            let classic = scheme
                .run(&mut classic_net, code, DriveMode::Classic)
                .unwrap();
            let label = scheme.label();
            assert!(
                classic.run.is_quiescent(),
                "{label} classic hit the round cap on {}: {classic}",
                state()
            );
            assert!(
                classic.fully_covered,
                "{label} classic left {} uncovered: {classic}",
                state()
            );
            assert_eq!(
                classic.metrics.processes_initiated,
                holes,
                "{label} classic on {} started a process count unequal to its holes",
                state()
            );
            let mut ideal_net = net.clone();
            let event = scheme.run(&mut ideal_net, code, ideal).unwrap();
            assert!(
                event == classic,
                "{label} Ideal differs from classic on {}: {event} vs {classic}",
                state()
            );
        }
        checked += 1;
    }
    checked
}

#[test]
fn every_3x3_state_recovers_under_sr() {
    let sr = Sr::new();
    assert_eq!(check_every_state(3, 3, &[&sr]), 10_899);
}

#[test]
#[ignore = "298,519 states under two schemes and two drives; CI runs it in release"]
fn every_4x3_state_recovers_under_sr_and_sr_sc() {
    let (sr, sr_sc) = (Sr::new(), SrSc::new());
    assert_eq!(check_every_state(4, 3, &[&sr, &sr_sc]), 298_519);
}
