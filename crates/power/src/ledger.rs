//! Per-instance leakage ledger.
//!
//! [`LeakageLedger`] caches, per instance slot, everything the leakage
//! accounting of [`crate::leakage`] needs — the cell and the captured
//! standby input state — so per-corner signoff re-prices the same rows
//! at each corner library without re-walking the netlist and simulator
//! snapshot per corner. [`LeakageLedger::refresh`] rebuilds every row
//! from the current netlist and snapshot, and counts the rows whose
//! contribution changed.
//!
//! Pricing replays the *same* per-class accumulation sequence as
//! [`crate::leakage::standby_leakage`] / [`crate::leakage::active_leakage`]
//! (instance-id order, identical float reads), so ledger totals are
//! bit-identical to the from-scratch walks at every library.

use crate::leakage::LeakageBreakdown;
use smt_cells::cell::{CellId, CellRole, VthClass};
use smt_cells::library::Library;
use smt_netlist::netlist::{InstId, Netlist};
use smt_sim::{Simulator, Value};

/// Cached leakage inputs of one instance slot.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LedgerRow {
    alive: bool,
    cell: CellId,
    /// Captured standby input state; `None` when any input was unknown
    /// or unconnected (prices as the cell's mean, exactly like
    /// `cell_state_leak`).
    state: Option<u32>,
}

const DEAD_ROW: LedgerRow = LedgerRow {
    alive: false,
    cell: CellId(0),
    state: None,
};

/// Which operating mode a [`LeakageLedger::price`] call accounts for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PricingMode {
    /// Standby (footer switches off), states from the captured snapshot —
    /// matches `standby_leakage(…, StateSource::Snapshot)`.
    Standby,
    /// Active with mean states — matches
    /// `active_leakage(…, StateSource::Mean)`.
    ActiveMean,
}

/// Per-instance leakage rows, one per instance slot.
#[derive(Debug, Clone, Default)]
pub struct LeakageLedger {
    rows: Vec<LedgerRow>,
    /// Rows whose contribution changed in the last refresh.
    pub last_changed: usize,
    /// Rows carried over unchanged by the last refresh.
    pub last_reused: usize,
}

impl LeakageLedger {
    /// Captures rows for every instance from the standby simulator
    /// snapshot (run it in `Mode::Standby` first).
    pub fn capture(netlist: &Netlist, lib: &Library, sim: &Simulator) -> Self {
        let mut ledger = LeakageLedger::default();
        ledger.refresh(netlist, lib, sim);
        ledger
    }

    /// Rebuilds every row from `netlist` and its standby snapshot `sim`,
    /// returning how many instances' leakage inputs changed since the
    /// previous rows. Always a full re-read: input states can move
    /// without any structural edit (a new snapshot of the same netlist),
    /// and the cheap integer work here is what keeps the re-priced
    /// totals bit-identical to the from-scratch walks.
    pub fn refresh(&mut self, netlist: &Netlist, lib: &Library, sim: &Simulator) -> usize {
        let rows = build_rows(netlist, lib, sim);
        let changed = rows
            .iter()
            .enumerate()
            .filter(|&(i, row)| self.rows.get(i) != Some(row))
            .count();
        self.last_changed = changed;
        self.last_reused = rows.len() - changed;
        self.rows = rows;
        changed
    }

    /// Prices the cached rows at `lib` — bit-identical to the matching
    /// from-scratch leakage walk over the netlist the rows were captured
    /// from, at any library sharing the cell set (corner libraries do).
    pub fn price(&self, lib: &Library, mode: PricingMode) -> LeakageBreakdown {
        let mut b = LeakageBreakdown::default();
        for row in &self.rows {
            if !row.alive {
                continue;
            }
            let cell = lib.cell(row.cell);
            let state_leak = match row.state {
                Some(s) => cell.leakage.state(s),
                None => cell.leakage.mean(),
            };
            match mode {
                PricingMode::Standby => match cell.role {
                    CellRole::Sequential => b.flip_flops += cell.standby_leak,
                    CellRole::Switch => b.shared_switches += cell.standby_leak,
                    CellRole::Holder => b.holders += cell.standby_leak,
                    CellRole::ClockBuf => b.clock_buffers += cell.standby_leak,
                    CellRole::Logic => match cell.vth {
                        VthClass::Low => b.low_vth += state_leak,
                        VthClass::High => b.high_vth += state_leak,
                        VthClass::MtEmbedded => b.mt_embedded += cell.standby_leak,
                        VthClass::MtVgnd => b.mt_vgnd_residual += cell.standby_leak,
                    },
                },
                PricingMode::ActiveMean => match cell.role {
                    CellRole::Sequential => b.flip_flops += cell.standby_leak,
                    CellRole::Switch => {} // conducting: subthreshold path shorted
                    CellRole::Holder => b.holders += cell.standby_leak,
                    CellRole::ClockBuf => b.clock_buffers += cell.standby_leak,
                    CellRole::Logic => {
                        let leak = cell.leakage.mean();
                        match cell.vth {
                            VthClass::Low => b.low_vth += leak,
                            VthClass::High => b.high_vth += leak,
                            VthClass::MtEmbedded => b.mt_embedded += leak,
                            VthClass::MtVgnd => b.mt_vgnd_residual += leak,
                        }
                    }
                },
            }
        }
        b
    }
}

/// One row per instance slot (dead slots get [`DEAD_ROW`] so indices
/// stay aligned), states read exactly like `cell_state_leak` with a
/// snapshot source: any unknown or unconnected logic input collapses the
/// row to the mean.
fn build_rows(netlist: &Netlist, lib: &Library, sim: &Simulator) -> Vec<LedgerRow> {
    let mut rows = Vec::with_capacity(netlist.inst_capacity());
    for i in 0..netlist.inst_capacity() {
        let inst = netlist.inst(InstId(i as u32));
        if inst.dead {
            rows.push(DEAD_ROW);
            continue;
        }
        let cell = lib.cell(inst.cell);
        let pins = cell.logic_input_pins();
        let mut state = Some(0u32);
        for (k, &pin) in pins.iter().enumerate() {
            match inst.net_on(pin).map(|n| sim.value(n)) {
                Some(Value::One) => {
                    if let Some(s) = state.as_mut() {
                        *s |= 1 << k;
                    }
                }
                Some(Value::Zero) => {}
                _ => {
                    state = None;
                    break;
                }
            }
        }
        rows.push(LedgerRow {
            alive: true,
            cell: inst.cell,
            state,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leakage::{active_leakage, standby_leakage, StateSource};
    use smt_sim::Mode;

    fn mixed(lib: &Library) -> Netlist {
        let mut n = Netlist::new("mixed");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let w = n.add_net("w");
        let z = n.add_output("z");
        let g1 = n.add_instance("g1", lib.find_id("ND2_X1_L").unwrap(), lib);
        let g2 = n.add_instance("g2", lib.find_id("INV_X1_H").unwrap(), lib);
        n.connect_by_name(g1, "A", a, lib).unwrap();
        n.connect_by_name(g1, "B", b, lib).unwrap();
        n.connect_by_name(g1, "Z", w, lib).unwrap();
        n.connect_by_name(g2, "A", w, lib).unwrap();
        n.connect_by_name(g2, "Z", z, lib).unwrap();
        n
    }

    fn standby_snapshot(n: &Netlist, lib: &Library) -> Simulator {
        snapshot_with_b(n, lib, Value::Zero)
    }

    /// Standby snapshot with input `a` high and `b` at the given value.
    fn snapshot_with_b(n: &Netlist, lib: &Library, b: Value) -> Simulator {
        let mut sim = Simulator::new(n, lib).unwrap();
        sim.set_input(n.find_net("a").unwrap(), Value::One);
        sim.set_input(n.find_net("b").unwrap(), b);
        sim.set_mode(Mode::Standby);
        sim.propagate(n, lib);
        sim
    }

    #[test]
    fn ledger_prices_bit_identical_to_full_walks() {
        let lib = Library::industrial_130nm();
        let n = mixed(&lib);
        let sim = standby_snapshot(&n, &lib);
        let ledger = LeakageLedger::capture(&n, &lib, &sim);
        let full_s = standby_leakage(&n, &lib, StateSource::Snapshot(&sim));
        let full_a = active_leakage(&n, &lib, StateSource::Mean);
        assert_eq!(ledger.price(&lib, PricingMode::Standby), full_s);
        assert_eq!(ledger.price(&lib, PricingMode::ActiveMean), full_a);
    }

    #[test]
    fn refresh_scopes_changes_to_the_swap() {
        let lib = Library::industrial_130nm();
        let mut n = mixed(&lib);
        let sim = standby_snapshot(&n, &lib);
        let mut ledger = LeakageLedger::capture(&n, &lib, &sim);

        let g1 = n.find_inst("g1").unwrap();
        n.replace_cell(g1, lib.find_id("ND2_X1_H").unwrap(), &lib)
            .unwrap();
        let sim2 = standby_snapshot(&n, &lib);
        let changed = ledger.refresh(&n, &lib, &sim2);
        assert_eq!(changed, 1, "only the swapped gate's row moves");
        assert_eq!(ledger.last_reused, n.inst_capacity() - 1);

        let full = standby_leakage(&n, &lib, StateSource::Snapshot(&sim2));
        assert_eq!(ledger.price(&lib, PricingMode::Standby), full);
    }

    #[test]
    fn refresh_reads_a_new_snapshot_of_an_unchanged_netlist() {
        let lib = Library::industrial_130nm();
        let n = mixed(&lib);
        let mut ledger = LeakageLedger::capture(&n, &lib, &snapshot_with_b(&n, &lib, Value::Zero));

        // Same netlist, new input state: (a, b) = (1, 0) -> (1, 1) moves
        // the low-Vth NAND into its leakiest state and flips the
        // inverter's input.
        let sim2 = snapshot_with_b(&n, &lib, Value::One);
        assert_eq!(
            ledger.refresh(&n, &lib, &sim2),
            2,
            "both gates' states moved"
        );
        let full = standby_leakage(&n, &lib, StateSource::Snapshot(&sim2));
        assert_eq!(ledger.price(&lib, PricingMode::Standby), full);
    }
}
