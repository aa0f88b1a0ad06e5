//! The standard-cell model: pins, logic function, timing arcs,
//! state-dependent leakage, and the MTCMOS metadata that distinguishes the
//! four Vth variants of every gate.

use crate::leakage::LeakageTable;
use smt_base::units::{Area, Cap, Current, Res, Time};
use std::fmt;

/// Index of a cell *type* within a [`crate::library::Library`].
///
/// (Instances in a netlist reference cell types through this id; the netlist
/// crate has its own id types for instances, nets and pins.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellId(pub u32);

impl CellId {
    /// Index as usize.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell#{}", self.0)
    }
}

/// Direction of a cell pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PinDir {
    /// Signal input.
    Input,
    /// Signal output.
    Output,
}

/// A pin of a cell type.
#[derive(Debug, Clone, PartialEq)]
pub struct PinSpec {
    /// Pin name (`A`, `B`, `Z`, `D`, `CK`, `Q`, `MTE`, `VGND`, ...).
    pub name: String,
    /// Direction.
    pub dir: PinDir,
    /// Input capacitance presented to the driving net (zero for outputs).
    pub cap: Cap,
    /// True for clock pins of sequential cells.
    pub is_clock: bool,
    /// True for the VGND (virtual ground) port of improved MT-cells and for
    /// the drain pin of switch cells. VGND pins carry current, not logic.
    pub is_vgnd: bool,
}

impl PinSpec {
    /// A plain signal input with the given cap.
    pub fn input(name: &str, cap: Cap) -> Self {
        PinSpec {
            name: name.to_owned(),
            dir: PinDir::Input,
            cap,
            is_clock: false,
            is_vgnd: false,
        }
    }

    /// A signal output.
    pub fn output(name: &str) -> Self {
        PinSpec {
            name: name.to_owned(),
            dir: PinDir::Output,
            cap: Cap::ZERO,
            is_clock: false,
            is_vgnd: false,
        }
    }
}

/// Threshold-voltage flavour of a cell, the central taxonomy of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VthClass {
    /// Fast, leaky logic (critical paths of the initial design).
    Low,
    /// Slow, low-leakage logic (non-critical paths).
    High,
    /// Conventional MT-cell, Fig. 1(a): low-Vth logic with an *embedded*
    /// per-cell high-Vth footer switch and output holder (ref \[2\]).
    MtEmbedded,
    /// Improved MT-cell, Fig. 1(b): low-Vth logic with a VGND port; the
    /// footer switch is a separate, shared cell (this paper).
    MtVgnd,
}

impl VthClass {
    /// Library-name suffix for the class.
    pub fn suffix(self) -> &'static str {
        match self {
            VthClass::Low => "L",
            VthClass::High => "H",
            VthClass::MtEmbedded => "MC",
            VthClass::MtVgnd => "MV",
        }
    }

    /// True for either MT-cell flavour.
    pub fn is_mt(self) -> bool {
        matches!(self, VthClass::MtEmbedded | VthClass::MtVgnd)
    }
}

impl fmt::Display for VthClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            VthClass::Low => "low-Vth",
            VthClass::High => "high-Vth",
            VthClass::MtEmbedded => "MT(embedded switch)",
            VthClass::MtVgnd => "MT(VGND port)",
        };
        f.write_str(s)
    }
}

/// Functional role of a cell type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellRole {
    /// Combinational logic gate.
    Logic,
    /// Flip-flop.
    Sequential,
    /// Clock-tree buffer.
    ClockBuf,
    /// High-Vth footer switch transistor cell (drain = VGND pin).
    Switch,
    /// Output holder: weak keeper that pulls a floating net to 1 in standby.
    Holder,
}

/// Logic family of a cell type (what Boolean function it computes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// Inverter.
    Inv,
    /// Buffer.
    Buf,
    /// 2-input NAND (the paper's Fig. 1 example gate).
    Nand2,
    /// 3-input NAND.
    Nand3,
    /// 4-input NAND.
    Nand4,
    /// 2-input NOR.
    Nor2,
    /// 3-input NOR.
    Nor3,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// AND-OR-invert 2-1.
    Aoi21,
    /// OR-AND-invert 2-1.
    Oai21,
    /// AND-OR-invert 2-2.
    Aoi22,
    /// OR-AND-invert 2-2.
    Oai22,
    /// 2:1 multiplexer (`Z = S ? B : A`).
    Mux2,
    /// Rising-edge D flip-flop.
    Dff,
    /// Clock buffer.
    ClkBuf,
    /// Footer switch transistor.
    Switch,
    /// Output holder.
    Holder,
}

impl CellKind {
    /// Library base name.
    pub fn base_name(self) -> &'static str {
        match self {
            CellKind::Inv => "INV",
            CellKind::Buf => "BUF",
            CellKind::Nand2 => "ND2",
            CellKind::Nand3 => "ND3",
            CellKind::Nand4 => "ND4",
            CellKind::Nor2 => "NR2",
            CellKind::Nor3 => "NR3",
            CellKind::And2 => "AN2",
            CellKind::Or2 => "OR2",
            CellKind::Xor2 => "XOR2",
            CellKind::Xnor2 => "XNR2",
            CellKind::Aoi21 => "AOI21",
            CellKind::Oai21 => "OAI21",
            CellKind::Aoi22 => "AOI22",
            CellKind::Oai22 => "OAI22",
            CellKind::Mux2 => "MUX2",
            CellKind::Dff => "DFF",
            CellKind::ClkBuf => "CKBUF",
            CellKind::Switch => "SW",
            CellKind::Holder => "HOLD",
        }
    }

    /// Number of logic inputs (0 for switch/holder specials).
    pub fn n_inputs(self) -> usize {
        match self {
            CellKind::Inv | CellKind::Buf | CellKind::ClkBuf => 1,
            CellKind::Nand2
            | CellKind::Nor2
            | CellKind::And2
            | CellKind::Or2
            | CellKind::Xor2
            | CellKind::Xnor2 => 2,
            CellKind::Nand3 | CellKind::Nor3 | CellKind::Aoi21 | CellKind::Oai21 => 3,
            CellKind::Nand4 | CellKind::Aoi22 | CellKind::Oai22 => 4,
            CellKind::Mux2 => 3,
            CellKind::Dff => 1, // D (CK handled separately)
            CellKind::Switch | CellKind::Holder => 0,
        }
    }

    /// All combinational kinds that get the four Vth variants.
    pub fn logic_kinds() -> &'static [CellKind] {
        &[
            CellKind::Inv,
            CellKind::Buf,
            CellKind::Nand2,
            CellKind::Nand3,
            CellKind::Nand4,
            CellKind::Nor2,
            CellKind::Nor3,
            CellKind::And2,
            CellKind::Or2,
            CellKind::Xor2,
            CellKind::Xnor2,
            CellKind::Aoi21,
            CellKind::Oai21,
            CellKind::Aoi22,
            CellKind::Oai22,
            CellKind::Mux2,
        ]
    }
}

/// Truth table of a combinational cell, up to 4 inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TruthTable {
    /// Number of inputs.
    pub n_inputs: u8,
    /// Bit `s` holds the output for input state `s`.
    pub bits: u16,
}

impl TruthTable {
    /// Builds a table from a predicate over input states.
    ///
    /// # Panics
    ///
    /// Panics if `n_inputs > 4`.
    pub fn from_fn(n_inputs: usize, f: impl Fn(u32) -> bool) -> Self {
        assert!(n_inputs <= 4, "truth tables support at most 4 inputs");
        let mut bits = 0u16;
        for s in 0..(1u32 << n_inputs) {
            if f(s) {
                bits |= 1 << s;
            }
        }
        TruthTable {
            n_inputs: n_inputs as u8,
            bits,
        }
    }

    /// Output for input state `s`.
    #[inline]
    pub fn eval(self, s: u32) -> bool {
        (self.bits >> (s & ((1 << self.n_inputs) - 1))) & 1 == 1
    }

    /// The canonical function of a library kind, if combinational.
    pub fn of_kind(kind: CellKind) -> Option<TruthTable> {
        let f: fn(u32) -> bool = match kind {
            CellKind::Inv => |s| s & 1 == 0,
            CellKind::Buf | CellKind::ClkBuf => |s| s & 1 == 1,
            CellKind::Nand2 => |s| s & 0b11 != 0b11,
            CellKind::Nand3 => |s| s & 0b111 != 0b111,
            CellKind::Nand4 => |s| s & 0b1111 != 0b1111,
            CellKind::Nor2 => |s| s & 0b11 == 0,
            CellKind::Nor3 => |s| s & 0b111 == 0,
            CellKind::And2 => |s| s & 0b11 == 0b11,
            CellKind::Or2 => |s| s & 0b11 != 0,
            CellKind::Xor2 => |s| (s ^ (s >> 1)) & 1 == 1,
            CellKind::Xnor2 => |s| (s ^ (s >> 1)) & 1 == 0,
            // inputs: 0=A, 1=B, 2=C ; Z = !((A&B) | C)
            CellKind::Aoi21 => |s| !(((s & 1 == 1) && (s >> 1 & 1 == 1)) || (s >> 2 & 1 == 1)),
            // Z = !((A|B) & C)
            CellKind::Oai21 => |s| !(((s & 1 == 1) || (s >> 1 & 1 == 1)) && (s >> 2 & 1 == 1)),
            // Z = !((A&B) | (C&D))
            CellKind::Aoi22 => |s| !((s & 0b11 == 0b11) || (s >> 2 & 0b11 == 0b11)),
            // Z = !((A|B) & (C|D))
            CellKind::Oai22 => |s| !((s & 0b11 != 0) && (s >> 2 & 0b11 != 0)),
            // inputs: 0=A, 1=B, 2=S ; Z = S ? B : A
            CellKind::Mux2 => |s| {
                if s >> 2 & 1 == 1 {
                    s >> 1 & 1 == 1
                } else {
                    s & 1 == 1
                }
            },
            CellKind::Dff | CellKind::Switch | CellKind::Holder => return None,
        };
        Some(TruthTable::from_fn(kind.n_inputs(), f))
    }
}

/// A timing arc from an input pin to an output pin with a linear
/// (slew- and load-dependent) delay model:
///
/// `delay = intrinsic + slew_coeff · input_slew + drive_res · C_load`
/// `output_slew = slew_intrinsic + slew_res · C_load`
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingArc {
    /// Index of the input pin in the cell's pin list.
    pub from_pin: usize,
    /// Index of the output pin.
    pub to_pin: usize,
    /// Fixed parasitic delay.
    pub intrinsic: Time,
    /// Sensitivity to input slew (dimensionless).
    pub slew_coeff: f64,
    /// Effective drive resistance into the load.
    pub drive_res: Res,
    /// Output slew at zero load.
    pub slew_intrinsic: Time,
    /// Output-slew sensitivity to load.
    pub slew_res: Res,
}

impl TimingArc {
    /// Arc delay for a given input slew and capacitive load.
    #[inline]
    pub fn delay(&self, input_slew: Time, load: Cap) -> Time {
        self.intrinsic + input_slew * self.slew_coeff + self.drive_res * load
    }

    /// Output slew for a given load.
    #[inline]
    pub fn output_slew(&self, load: Cap) -> Time {
        self.slew_intrinsic + self.slew_res * load
    }
}

/// MTCMOS metadata attached to MT-cell variants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MtInfo {
    /// Width of the embedded footer switch (µm); zero for the VGND-port
    /// variant where the switch is a separate shared cell.
    pub embedded_switch_width_um: f64,
    /// Peak current the cell draws from VGND when it switches — the input
    /// to switch sizing, both embedded (conventional) and shared (improved).
    pub peak_current: Current,
}

/// Electrical description of a footer-switch cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchSpec {
    /// Device width, µm.
    pub width_um: f64,
    /// On-resistance from VGND to real ground.
    pub on_res: Res,
    /// Standby (off) leakage through the switch.
    pub off_leak: Current,
    /// Electromigration current limit for this switch.
    pub max_current: Current,
}

/// One library cell type.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Unique library name, e.g. `ND2_X2_MV`.
    pub name: String,
    /// Logic family.
    pub kind: CellKind,
    /// Drive strength multiplier (1, 2, 4, ...).
    pub drive: u8,
    /// Threshold class.
    pub vth: VthClass,
    /// Role.
    pub role: CellRole,
    /// Layout area.
    pub area: Area,
    /// Pins, in declaration order.
    pub pins: Vec<PinSpec>,
    /// Boolean function (combinational cells only).
    pub function: Option<TruthTable>,
    /// Timing arcs.
    pub arcs: Vec<TimingArc>,
    /// State-dependent leakage of the logic part.
    pub leakage: LeakageTable,
    /// Leakage in standby mode *after* power gating: for MT variants this
    /// is what remains when the footer is off (embedded variant: the off
    /// switch; VGND variant: ~0, the shared switch is accounted per
    /// cluster). For plain cells standby equals the mean active leakage.
    pub standby_leak: Current,
    /// Setup constraint (sequential cells).
    pub setup: Time,
    /// Hold constraint (sequential cells).
    pub hold: Time,
    /// MTCMOS metadata (MT variants only).
    pub mt: Option<MtInfo>,
    /// Switch electrical spec (switch cells only).
    pub switch: Option<SwitchSpec>,
    /// Total NMOS width, µm (drives peak-current and leakage-width math).
    pub nmos_width_um: f64,
}

impl Cell {
    /// Index of a pin by name.
    pub fn pin_index(&self, name: &str) -> Option<usize> {
        self.pins.iter().position(|p| p.name == name)
    }

    /// The single output pin index, if any.
    pub fn output_pin(&self) -> Option<usize> {
        self.pins.iter().position(|p| p.dir == PinDir::Output)
    }

    /// Indices of logic input pins (excludes clock, MTE and VGND pins).
    pub fn logic_input_pins(&self) -> Vec<usize> {
        self.pins
            .iter()
            .enumerate()
            .filter(|(_, p)| p.dir == PinDir::Input && !p.is_clock && !p.is_vgnd && p.name != "MTE")
            .map(|(i, _)| i)
            .collect()
    }

    /// True for either MT-cell flavour.
    pub fn is_mt(&self) -> bool {
        self.vth.is_mt()
    }

    /// True for flip-flops.
    pub fn is_sequential(&self) -> bool {
        self.role == CellRole::Sequential
    }

    /// True for combinational logic (excludes FFs, switches, holders).
    pub fn is_logic(&self) -> bool {
        matches!(self.role, CellRole::Logic | CellRole::ClockBuf)
    }

    /// The arc driving the output from a given input pin.
    pub fn arc_from(&self, from_pin: usize) -> Option<&TimingArc> {
        self.arcs.iter().find(|a| a.from_pin == from_pin)
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}, X{}, {:.2} um^2)",
            self.name,
            self.vth,
            self.drive,
            self.area.um2()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_tables_match_functions() {
        let nand2 = TruthTable::of_kind(CellKind::Nand2).unwrap();
        assert!(nand2.eval(0b00));
        assert!(nand2.eval(0b01));
        assert!(nand2.eval(0b10));
        assert!(!nand2.eval(0b11));

        let xor2 = TruthTable::of_kind(CellKind::Xor2).unwrap();
        assert!(!xor2.eval(0b00));
        assert!(xor2.eval(0b01));
        assert!(xor2.eval(0b10));
        assert!(!xor2.eval(0b11));

        let mux = TruthTable::of_kind(CellKind::Mux2).unwrap();
        // S=0 selects A (bit 0)
        assert!(!mux.eval(0b010)); // A=0,B=1,S=0 -> 0
        assert!(mux.eval(0b001)); // A=1,B=0,S=0 -> 1
                                  // S=1 selects B (bit 1)
        assert!(mux.eval(0b110)); // A=0,B=1,S=1 -> 1
        assert!(!mux.eval(0b101)); // A=1,B=0,S=1 -> 0
    }

    #[test]
    fn aoi_oai_functions() {
        let aoi = TruthTable::of_kind(CellKind::Aoi21).unwrap();
        // Z = !((A&B)|C), A=bit0, B=bit1, C=bit2
        assert!(aoi.eval(0b000));
        assert!(!aoi.eval(0b011));
        assert!(!aoi.eval(0b100));
        assert!(aoi.eval(0b001));
        let oai = TruthTable::of_kind(CellKind::Oai21).unwrap();
        // Z = !((A|B)&C)
        assert!(oai.eval(0b000));
        assert!(oai.eval(0b011)); // C=0
        assert!(!oai.eval(0b101));
        assert!(oai.eval(0b100)); // A=B=0
    }

    #[test]
    fn aoi22_oai22_functions() {
        let aoi = TruthTable::of_kind(CellKind::Aoi22).unwrap();
        // Z = !((A&B)|(C&D)), bits A=0,B=1,C=2,D=3.
        assert!(aoi.eval(0b0000));
        assert!(!aoi.eval(0b0011)); // A&B
        assert!(!aoi.eval(0b1100)); // C&D
        assert!(aoi.eval(0b0101)); // A&C only
        let oai = TruthTable::of_kind(CellKind::Oai22).unwrap();
        // Z = !((A|B)&(C|D)).
        assert!(oai.eval(0b0000));
        assert!(oai.eval(0b0011)); // C|D = 0
        assert!(!oai.eval(0b0101));
        assert!(!oai.eval(0b1111));
    }

    #[test]
    fn sequential_kinds_have_no_table() {
        assert!(TruthTable::of_kind(CellKind::Dff).is_none());
        assert!(TruthTable::of_kind(CellKind::Switch).is_none());
        assert!(TruthTable::of_kind(CellKind::Holder).is_none());
    }

    #[test]
    fn arc_delay_is_linear_in_load_and_slew() {
        let arc = TimingArc {
            from_pin: 0,
            to_pin: 1,
            intrinsic: Time::new(10.0),
            slew_coeff: 0.1,
            drive_res: Res::new(2.0),
            slew_intrinsic: Time::new(15.0),
            slew_res: Res::new(1.0),
        };
        let d = arc.delay(Time::new(20.0), Cap::new(5.0));
        assert!((d.ps() - (10.0 + 2.0 + 10.0)).abs() < 1e-12);
        let s = arc.output_slew(Cap::new(5.0));
        assert!((s.ps() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn vth_class_predicates() {
        assert!(VthClass::MtEmbedded.is_mt());
        assert!(VthClass::MtVgnd.is_mt());
        assert!(!VthClass::Low.is_mt());
        assert_eq!(VthClass::MtVgnd.suffix(), "MV");
    }

    #[test]
    #[should_panic(expected = "at most 4 inputs")]
    fn truth_table_rejects_wide_gates() {
        let _ = TruthTable::from_fn(5, |_| true);
    }
}
