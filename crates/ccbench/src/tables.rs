//! Tables 2 and 3: the `ccbench` latency matrix.
//!
//! `ccbench` stages a cache line in a precise coherence state (owner /
//! sharers at a chosen distance), then measures one operation from the
//! requesting core. Here the staging uses the simulator's memory
//! directly and the measurement runs a one-shot program through the
//! engine, so the numbers also regression-test that the engine charges
//! exactly what the latency model specifies.
//!
//! These tables match the paper *by construction* (they are the model's
//! inputs); they are reproduced to validate the plumbing and to document
//! the calibration, as EXPERIMENTS.md explains.

use ssync_core::topology::{DistClass, Platform};
use ssync_sim::memory::{CohState, SharerSet};
use ssync_sim::program::Action;
use ssync_sim::Sim;

/// Constructor for the single measured action of a Table 2 cell.
type OpCtor = fn(u64) -> Action;

/// One measured cell of Table 2.
#[derive(Debug, Clone)]
pub struct Table2Cell {
    /// Row: the line's staged state.
    pub state: CohState,
    /// Column: distance class between requester and holder.
    pub distance: DistClass,
    /// The measured operation ("load", "store", "CAS", ...).
    pub op: &'static str,
    /// Measured latency in cycles.
    pub cycles: u64,
}

/// Measures one operation on a staged line: the requester runs exactly
/// one action; the elapsed simulated time is the latency.
fn measure(
    platform: Platform,
    stage: impl FnOnce(&mut Sim) -> (u64, usize),
    action: impl Fn(u64) -> Action + 'static,
) -> u64 {
    let mut sim = Sim::new(platform, 1);
    let (line, requester) = stage(&mut sim);
    sim.spawn_on_core(requester, move |cpu| async move {
        cpu.act(action(line)).await;
    });
    sim.run_to_completion();
    sim.now()
}

/// Stages a line homed at core 0's node with the given state, a holder
/// at `holder_core`, and (for Shared/Owned) one extra sharer next to the
/// holder. Returns (line, requester).
fn stage(sim: &mut Sim, state: CohState, holder_core: usize, requester: usize) -> (u64, usize) {
    let line = sim.alloc_line_for_core(0);
    {
        let l = sim.memory_mut().line_mut(line);
        l.state = state;
        match state {
            CohState::Invalid => {}
            CohState::Shared => {
                let mut s = SharerSet::EMPTY;
                s.add(holder_core);
                l.sharers = s;
            }
            CohState::Owned => {
                l.owner = Some(holder_core);
                let mut s = SharerSet::EMPTY;
                // A second sharer, as in the paper's store-on-shared test.
                s.add(if holder_core > 0 { holder_core - 1 } else { 1 });
                l.sharers = s;
            }
            CohState::Exclusive | CohState::Modified => {
                l.owner = Some(holder_core);
            }
        }
    }
    (line, requester)
}

/// The distance ladder columns for a platform: `(label, holder_core,
/// requester_core)`. The holder sits on core 0's node (the line's home);
/// the requester moves away, matching Table 2's column layout.
pub fn distance_columns(platform: Platform) -> Vec<(String, usize, usize)> {
    let topo = platform.topology();
    let mut cols = Vec::new();
    for (class, partner) in topo.distance_ladder() {
        cols.push((class.label(), 0, partner));
    }
    cols
}

/// Generates the full Table 2 for a platform: loads, stores and the four
/// atomics, for every applicable state and distance column.
pub fn table2(platform: Platform) -> Vec<Table2Cell> {
    let mut cells = Vec::new();
    let states: &[CohState] = match platform {
        Platform::Opteron | Platform::Opteron2 => &[
            CohState::Modified,
            CohState::Owned,
            CohState::Exclusive,
            CohState::Shared,
            CohState::Invalid,
        ],
        _ => &[
            CohState::Modified,
            CohState::Exclusive,
            CohState::Shared,
            CohState::Invalid,
        ],
    };
    for &(ref label, holder, requester) in &distance_columns(platform) {
        let _ = label;
        for &state in states {
            let ops: [(&'static str, OpCtor); 6] = [
                ("load", Action::Load),
                ("store", |l| Action::Store(l, 7)),
                ("CAS", |l| Action::Cas(l, 0, 1)),
                ("FAI", Action::Fai),
                ("TAS", Action::Tas),
                ("SWAP", |l| Action::Swap(l, 7)),
            ];
            for (name, make) in ops {
                // Stores/atomics on Invalid are not Table 2 rows, but we
                // generate them anyway for completeness.
                let cycles = measure(platform, |sim| stage(sim, state, holder, requester), make);
                cells.push(Table2Cell {
                    state,
                    distance: platform.topology().distance(0, requester),
                    op: name,
                    cycles,
                });
            }
        }
    }
    cells
}

/// Table 3: local load latencies (L1/L2/LLC/RAM) per platform, straight
/// from the calibrated model.
pub fn table3(platform: Platform) -> [(&'static str, u64); 4] {
    ssync_sim::LatencyModel::new(platform).local_levels()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opteron_load_modified_column_matches_paper() {
        let cells = table2(Platform::Opteron);
        let find = |dist: DistClass| {
            cells
                .iter()
                .find(|c| c.state == CohState::Modified && c.op == "load" && c.distance == dist)
                .map(|c| c.cycles)
                .unwrap()
        };
        assert_eq!(find(DistClass::SameDie), 81);
        assert_eq!(find(DistClass::SameMcm), 161);
        assert_eq!(find(DistClass::OneHop), 172);
        assert_eq!(find(DistClass::TwoHops), 252);
    }

    #[test]
    fn xeon_shared_load_columns_match_paper() {
        let cells = table2(Platform::Xeon);
        let find = |dist: DistClass| {
            cells
                .iter()
                .find(|c| c.state == CohState::Shared && c.op == "load" && c.distance == dist)
                .map(|c| c.cycles)
                .unwrap()
        };
        assert_eq!(find(DistClass::SameDie), 44);
        assert_eq!(find(DistClass::OneHop), 223);
        assert_eq!(find(DistClass::TwoHops), 334);
    }

    #[test]
    fn niagara_columns_match_paper() {
        let cells = table2(Platform::Niagara);
        let load_same_core = cells
            .iter()
            .find(|c| {
                c.state == CohState::Modified && c.op == "load" && c.distance == DistClass::SameCore
            })
            .unwrap();
        assert_eq!(load_same_core.cycles, 3);
        let tas_other = cells
            .iter()
            .find(|c| {
                c.state == CohState::Modified && c.op == "TAS" && c.distance == DistClass::SameDie
            })
            .unwrap();
        assert_eq!(tas_other.cycles, 55);
    }

    #[test]
    fn tilera_load_tracks_hops() {
        let cells = table2(Platform::Tilera);
        let one_hop = cells
            .iter()
            .find(|c| {
                c.state == CohState::Exclusive
                    && c.op == "load"
                    && c.distance == DistClass::MeshHops(1)
            })
            .unwrap();
        assert_eq!(one_hop.cycles, 45);
        let max_hops = cells
            .iter()
            .find(|c| {
                c.state == CohState::Exclusive
                    && c.op == "load"
                    && c.distance == DistClass::MeshHops(10)
            })
            .unwrap();
        assert_eq!(max_hops.cycles, 63);
    }

    #[test]
    fn table3_has_four_levels_everywhere() {
        for p in Platform::ALL {
            let t = table3(p);
            assert_eq!(t.len(), 4);
            assert!(t[3].1 > t[0].1, "{p:?}: RAM slower than L1");
        }
    }
}
