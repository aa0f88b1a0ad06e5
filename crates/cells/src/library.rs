//! Library generation: every logic function in four Vth flavours, plus
//! flip-flops, clock buffers, footer switches and output holders.
//!
//! The paper's three techniques are library-variant swaps:
//!
//! * Dual-Vth uses the `_L` / `_H` variants;
//! * conventional SMT swaps critical `_L` cells to `_MC` (embedded switch);
//! * improved SMT swaps them to `_MV` (VGND port) and instantiates shared
//!   `SW_W*` switch cells and `HOLD_X1` output holders.
//!
//! All electrical numbers are derived from one [`Technology`] so the area
//! and leakage relationships the paper exploits (an embedded worst-case
//! switch per cell vs one diversity-sized shared switch per cluster) emerge
//! from the model instead of being hard-coded.

use crate::cell::{
    Cell, CellId, CellKind, CellRole, MtInfo, PinDir, PinSpec, SwitchSpec, TimingArc, TruthTable,
    VthClass,
};
use crate::leakage::{LeakageTable, PullNetwork};
use crate::tech::Technology;
use smt_base::fingerprint::Fnv64;
use smt_base::units::{Area, Cap, Current, Res, Time};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Knobs for library generation. The defaults reproduce the paper-era
/// relationships; the ablation benches sweep some of them.
#[derive(Debug, Clone, PartialEq)]
pub struct LibraryConfig {
    /// Drive strengths to generate (multipliers on unit width).
    pub drives: Vec<u8>,
    /// Area overhead factor of the VGND port on an improved MT-cell
    /// (Fig. 1(b)): the extra virtual-ground rail/pin, ~25%.
    pub mv_area_factor: f64,
    /// Extra area per µm of *embedded* switch width in a conventional
    /// MT-cell (folded with the cell, slightly denser than a standalone
    /// switch cell).
    pub embedded_switch_area_um2_per_um: f64,
    /// Area of the output holder embedded in a conventional MT-cell.
    pub embedded_holder_area_um2: f64,
    /// VGND bounce budget used to size the *embedded* switch of the
    /// conventional MT-cell. Each cell must tolerate its own full peak
    /// current — no diversity — which is exactly why the conventional
    /// technique pays so much area (Table 1).
    pub embedded_bounce_limit_mv: f64,
    /// Delay penalty of the conventional MT-cell vs pure low-Vth.
    pub mt_delay_penalty_embedded: f64,
    /// Delay penalty of the improved MT-cell at zero VGND bounce (the
    /// bounce-dependent part is applied by the STA).
    pub mt_delay_penalty_vgnd: f64,
    /// Standalone switch-cell widths to generate, µm.
    pub switch_widths_um: Vec<f64>,
    /// Electromigration limit per µm of switch width, µA/µm.
    pub em_ua_per_um: f64,
    /// Maximum data-sink fanout a net may carry before the static
    /// analyzer flags it (`smt_netlist::check`, rule `max-fanout`).
    /// Clock, MTE and VGND sinks are exempt — those nets have their own
    /// buffering/clustering budgets in the flow.
    pub max_fanout: usize,
    /// Maximum total pin capacitance (fF) a net may present to its
    /// driver before the static analyzer flags it (rule `max-load`).
    pub max_load_ff: f64,
}

impl Default for LibraryConfig {
    fn default() -> Self {
        LibraryConfig {
            drives: vec![1, 2, 4],
            mv_area_factor: 1.25,
            embedded_switch_area_um2_per_um: 0.8,
            embedded_holder_area_um2: 3.2,
            embedded_bounce_limit_mv: 50.0,
            mt_delay_penalty_embedded: 1.06,
            mt_delay_penalty_vgnd: 1.03,
            switch_widths_um: vec![
                2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0, 96.0, 128.0, 192.0,
                256.0, 384.0,
            ],
            em_ua_per_um: 60.0,
            max_fanout: 64,
            max_load_ff: 256.0,
        }
    }
}

/// Per-kind electrical shape: transistor networks and fitted factors.
struct KindSpec {
    pd: PullNetwork,
    pu: PullNetwork,
    /// Effective output-resistance multiplier vs a lone inverter.
    res_factor: f64,
    /// Intrinsic-delay multiplier vs a lone inverter.
    intr_factor: f64,
    /// Layout width in sites at X1.
    sites: f64,
}

/// Static transistor stacks: each inner slice is one series stack of
/// gate-input indices.
type Stacks = &'static [&'static [usize]];

fn kind_spec(kind: CellKind) -> KindSpec {
    use CellKind::*;
    let (pd, pu, res_factor, intr_factor, sites): (Stacks, Stacks, f64, f64, f64) = match kind {
        Inv => (&[&[0]], &[&[0]], 1.0, 1.0, 2.0),
        Buf => (&[&[0]], &[&[0]], 1.0, 2.0, 3.0),
        Nand2 => (&[&[0, 1]], &[&[0], &[1]], 1.6, 1.3, 3.0),
        Nand3 => (&[&[0, 1, 2]], &[&[0], &[1], &[2]], 2.2, 1.6, 4.0),
        Nand4 => (&[&[0, 1, 2, 3]], &[&[0], &[1], &[2], &[3]], 2.8, 1.9, 5.0),
        Nor2 => (&[&[0], &[1]], &[&[0, 1]], 1.8, 1.4, 3.0),
        Nor3 => (&[&[0], &[1], &[2]], &[&[0, 1, 2]], 2.6, 1.8, 4.0),
        And2 => (&[&[0, 1]], &[&[0], &[1]], 1.7, 1.9, 4.0),
        Or2 => (&[&[0], &[1]], &[&[0, 1]], 1.7, 2.0, 4.0),
        Xor2 => (&[&[0, 1], &[0, 1]], &[&[0, 1], &[0, 1]], 2.2, 2.6, 6.0),
        Xnor2 => (&[&[0, 1], &[0, 1]], &[&[0, 1], &[0, 1]], 2.2, 2.6, 6.0),
        Aoi21 => (&[&[0, 1], &[2]], &[&[0, 2], &[1, 2]], 2.0, 1.7, 4.0),
        Oai21 => (&[&[0, 2], &[1, 2]], &[&[0, 1], &[2]], 2.0, 1.7, 4.0),
        Aoi22 => (
            &[&[0, 1], &[2, 3]],
            &[&[0, 2], &[0, 3], &[1, 2], &[1, 3]],
            2.2,
            1.9,
            5.0,
        ),
        Oai22 => (
            &[&[0, 2], &[0, 3], &[1, 2], &[1, 3]],
            &[&[0, 1], &[2, 3]],
            2.2,
            1.9,
            5.0,
        ),
        Mux2 => (&[&[0, 2], &[1, 2]], &[&[0, 2], &[1, 2]], 2.0, 2.4, 6.0),
        ClkBuf => (&[&[0]], &[&[0]], 0.9, 1.8, 4.0),
        Dff => (&[&[0]], &[&[0]], 1.8, 3.5, 9.0),
        Switch | Holder => (&[], &[], 1.0, 1.0, 2.0),
    };
    KindSpec {
        pd: PullNetwork::from_paths(pd),
        pu: PullNetwork::from_paths(pu),
        res_factor,
        intr_factor,
        sites,
    }
}

/// Drive-strength layout growth (wider devices fold, so sub-linear).
fn drive_area_factor(drive: u8) -> f64 {
    match drive {
        1 => 1.0,
        2 => 1.4,
        4 => 2.2,
        d => 1.0 + 0.3 * d as f64,
    }
}

/// A generated standard-cell library.
#[derive(Debug, Clone)]
pub struct Library {
    /// The process the library was characterised for.
    pub tech: Technology,
    /// Generation knobs (kept for provenance and the Liberty writer).
    pub config: LibraryConfig,
    cells: Vec<Cell>,
    by_name: HashMap<String, CellId>,
    /// Per cell, its variant in each [`VthClass`] (indexed `vth as
    /// usize`): the cell named `{base}_X{drive}_{suffix}` after the
    /// cell's kind and drive, looked up once when the library is built.
    variants: Vec<[Option<CellId>; 4]>,
    /// Per cell, the id of the first cell with the same pin names and
    /// directions in the same order (`NO_LAYOUT` when two of its pins
    /// share a name).
    pin_layout: Vec<u32>,
}

/// Every [`VthClass`], in declaration order (`vth as usize` indexes it).
const VTH_CLASSES: [VthClass; 4] = [
    VthClass::Low,
    VthClass::High,
    VthClass::MtEmbedded,
    VthClass::MtVgnd,
];

/// `pin_layout` sentinel for a cell whose pin names repeat.
const NO_LAYOUT: u32 = u32::MAX;

impl Library {
    /// The default library on the default 130 nm technology.
    pub fn industrial_130nm() -> Self {
        Self::generate(Technology::industrial_130nm(), LibraryConfig::default())
    }

    /// Builds a library directly from a list of cells (used by the
    /// Liberty-lite parser). Cell names must be unique.
    pub fn from_cells(tech: Technology, config: LibraryConfig, cells: Vec<Cell>) -> Self {
        let mut lib = Library {
            tech,
            config,
            cells: Vec::new(),
            by_name: HashMap::new(),
            variants: Vec::new(),
            pin_layout: Vec::new(),
        };
        for cell in cells {
            lib.push(cell);
        }
        lib.index_cells();
        lib
    }

    /// Generates a library for a technology with explicit knobs.
    pub fn generate(tech: Technology, config: LibraryConfig) -> Self {
        let mut lib = Library {
            tech,
            config,
            cells: Vec::new(),
            by_name: HashMap::new(),
            variants: Vec::new(),
            pin_layout: Vec::new(),
        };
        let drives = lib.config.drives.clone();
        for &kind in CellKind::logic_kinds() {
            for &drive in &drives {
                for vth in [
                    VthClass::Low,
                    VthClass::High,
                    VthClass::MtEmbedded,
                    VthClass::MtVgnd,
                ] {
                    let cell = lib.build_logic_cell(kind, drive, vth);
                    lib.push(cell);
                }
            }
        }
        for &drive in &drives {
            for vth in [VthClass::Low, VthClass::High] {
                let cell = lib.build_dff(drive, vth);
                lib.push(cell);
            }
            let ck = lib.build_clkbuf(drive);
            lib.push(ck);
        }
        let widths = lib.config.switch_widths_um.clone();
        for w in widths {
            let sw = lib.build_switch(w);
            lib.push(sw);
        }
        let holder = lib.build_holder();
        lib.push(holder);
        lib.index_cells();
        lib
    }

    fn push(&mut self, cell: Cell) {
        let id = CellId(self.cells.len() as u32);
        let prev = self.by_name.insert(cell.name.clone(), id);
        debug_assert!(prev.is_none(), "duplicate cell name {}", cell.name);
        self.cells.push(cell);
    }

    /// Fills the per-cell tables once every cell is in: each cell's Vth
    /// variants (by name, as [`Library::variant_id`] defines them) and
    /// its pin-layout class (for [`Library::same_pins`]).
    fn index_cells(&mut self) {
        // A variant's name depends only on the cell's kind and drive, so
        // each (kind, drive) pair is looked up once.
        let mut by_kind_drive: HashMap<(CellKind, u8), [Option<CellId>; 4]> = HashMap::new();
        let mut name = String::new();
        let variants = self
            .cells
            .iter()
            .map(|cell| {
                *by_kind_drive
                    .entry((cell.kind, cell.drive))
                    .or_insert_with(|| {
                        VTH_CLASSES.map(|vth| {
                            name.clear();
                            let _ = write!(
                                name,
                                "{}_X{}_{}",
                                cell.kind.base_name(),
                                cell.drive,
                                vth.suffix()
                            );
                            self.find_id(&name)
                        })
                    })
            })
            .collect();
        let mut layouts: HashMap<Vec<(&str, PinDir)>, u32> = HashMap::new();
        let pin_layout = self
            .cells
            .iter()
            .enumerate()
            .map(|(id, cell)| {
                let pins: Vec<(&str, PinDir)> =
                    cell.pins.iter().map(|p| (p.name.as_str(), p.dir)).collect();
                let repeats = pins
                    .iter()
                    .enumerate()
                    .any(|(k, (name, _))| pins[..k].iter().any(|(n, _)| n == name));
                if repeats {
                    NO_LAYOUT
                } else {
                    *layouts.entry(pins).or_insert(id as u32)
                }
            })
            .collect();
        self.variants = variants;
        self.pin_layout = pin_layout;
    }

    /// Unit NMOS width at a drive strength, µm.
    fn wn(&self, drive: u8) -> f64 {
        0.8 * drive as f64
    }

    /// Unit PMOS width at a drive strength, µm.
    fn wp(&self, drive: u8) -> f64 {
        1.6 * drive as f64
    }

    fn build_logic_cell(&self, kind: CellKind, drive: u8, vth: VthClass) -> Cell {
        let t = &self.tech;
        let cfg = &self.config;
        let spec = kind_spec(kind);
        let wn = self.wn(drive);
        let wp = self.wp(drive);
        let n_inputs = kind.n_inputs();
        let function = TruthTable::of_kind(kind);

        let base_area = spec.sites * drive_area_factor(drive) * t.site_width_um * t.row_height_um;

        // Pins: inputs A.. then output Z, plus MTE/VGND for MT variants.
        let input_cap = t.gate_cap(wn + wp);
        let input_names = ["A", "B", "C", "D"];
        let mut pins: Vec<PinSpec> = (0..n_inputs)
            .map(|i| {
                let name = if kind == CellKind::Mux2 && i == 2 {
                    "S"
                } else {
                    input_names[i]
                };
                PinSpec::input(name, input_cap)
            })
            .collect();
        let out_pin = pins.len();
        pins.push(PinSpec::output("Z"));

        // Delay model.
        let high = vth == VthClass::High;
        let penalty = match vth {
            VthClass::Low => 1.0,
            VthClass::High => 1.25,
            VthClass::MtEmbedded => cfg.mt_delay_penalty_embedded,
            VthClass::MtVgnd => cfg.mt_delay_penalty_vgnd,
        };
        let drive_res = Res::new(t.on_resistance(wn, high).kohm() * spec.res_factor * penalty);
        let intrinsic = Time::new(8.0 * spec.intr_factor * penalty * if high { 1.25 } else { 1.0 });
        let arcs: Vec<TimingArc> = (0..n_inputs)
            .map(|i| TimingArc {
                from_pin: i,
                to_pin: out_pin,
                intrinsic,
                slew_coeff: 0.15,
                drive_res,
                slew_intrinsic: intrinsic * 0.8,
                slew_res: drive_res * 0.9,
            })
            .collect();

        // Leakage of the logic part.
        let logic_vth = if high {
            t.vth_low.max(t.vth_high)
        } else {
            t.vth_low
        };
        let table = TruthTable::of_kind(kind).expect("logic cell has a function");
        let leakage = LeakageTable::evaluate(
            t,
            logic_vth,
            n_inputs,
            |s| table.eval(s),
            &spec.pd,
            &spec.pu,
            wn,
            wp,
        );

        let nmos_width_um = spec.pd.total_width() * wn;
        let peak_current = t.peak_current(nmos_width_um);

        // MT metadata, area, standby leakage per variant.
        let (area_um2, standby_leak, mt, extra_pin) = match vth {
            VthClass::Low | VthClass::High => (base_area, leakage.mean(), None, None),
            VthClass::MtEmbedded => {
                // Embedded switch sized for this cell's own peak current at
                // the bounce budget — no current sharing, no diversity.
                let v_limit = cfg.embedded_bounce_limit_mv * 1e-3;
                let r_um = t.ron_low_kohm_um * t.ron_high_ratio; // kΩ·µm
                let w_emb = (peak_current.ua() * r_um * 1e-3 / v_limit).max(1.0);
                let area = base_area * cfg.mv_area_factor
                    + w_emb * cfg.embedded_switch_area_um2_per_um
                    + cfg.embedded_holder_area_um2;
                // In standby the embedded footer is off: what leaks is the
                // (wide!) high-Vth switch plus the embedded holder.
                let holder_leak = t.subthreshold_leak(1.0, t.vth_high, 1);
                let standby = t.subthreshold_leak(w_emb, t.vth_high, 1) + holder_leak;
                let mte_cap = t.gate_cap(w_emb);
                let mut p = PinSpec::input("MTE", mte_cap);
                p.is_clock = false;
                (
                    area,
                    standby,
                    Some(MtInfo {
                        embedded_switch_width_um: w_emb,
                        peak_current,
                    }),
                    Some(p),
                )
            }
            VthClass::MtVgnd => {
                // Only the VGND port is added; the shared switch is a
                // separate cell, accounted per cluster.
                let area = base_area * cfg.mv_area_factor;
                // Residual standby leakage of the gated logic (junction /
                // gate leakage floor) — two orders below high-Vth.
                let standby = t.subthreshold_leak(nmos_width_um, t.vth_high, 2) * 0.1;
                let mut p = PinSpec::input("VGND", Cap::ZERO);
                p.is_vgnd = true;
                (
                    area,
                    standby,
                    Some(MtInfo {
                        embedded_switch_width_um: 0.0,
                        peak_current,
                    }),
                    Some(p),
                )
            }
        };
        if let Some(p) = extra_pin {
            pins.push(p);
        }

        Cell {
            name: format!("{}_X{}_{}", kind.base_name(), drive, vth.suffix()),
            kind,
            drive,
            vth,
            role: CellRole::Logic,
            area: Area::new(area_um2),
            pins,
            function,
            arcs,
            leakage,
            standby_leak,
            setup: Time::ZERO,
            hold: Time::ZERO,
            mt,
            switch: None,
            nmos_width_um,
        }
    }

    fn build_dff(&self, drive: u8, vth: VthClass) -> Cell {
        let t = &self.tech;
        let spec = kind_spec(CellKind::Dff);
        let wn = self.wn(drive);
        let wp = self.wp(drive);
        let high = vth == VthClass::High;
        let penalty = if high { 1.25 } else { 1.0 };
        let input_cap = t.gate_cap(wn + wp);
        let mut ck = PinSpec::input("CK", input_cap);
        ck.is_clock = true;
        let pins = vec![PinSpec::input("D", input_cap), ck, PinSpec::output("Q")];
        let drive_res = Res::new(t.on_resistance(wn, high).kohm() * spec.res_factor * penalty);
        let intrinsic = Time::new(8.0 * spec.intr_factor * penalty * penalty);
        let arcs = vec![TimingArc {
            from_pin: 1, // CK -> Q
            to_pin: 2,
            intrinsic,
            slew_coeff: 0.05,
            drive_res,
            slew_intrinsic: intrinsic * 0.6,
            slew_res: drive_res * 0.9,
        }];
        // FFs stay powered in standby (they hold state), so a DFF's standby
        // leakage is its full subthreshold leakage — ~10 devices worth.
        let eq_width = (wn + wp) * 5.0;
        let logic_vth = if high { t.vth_high } else { t.vth_low };
        let leak = t.subthreshold_leak(eq_width, logic_vth, 1) * 0.5;
        Cell {
            name: format!("DFF_X{}_{}", drive, vth.suffix()),
            kind: CellKind::Dff,
            drive,
            vth,
            role: CellRole::Sequential,
            area: Area::new(
                spec.sites * drive_area_factor(drive) * t.site_width_um * t.row_height_um,
            ),
            pins,
            function: None,
            arcs,
            leakage: LeakageTable::constant(1, leak),
            standby_leak: leak,
            setup: Time::new(40.0 * penalty),
            hold: Time::new(12.0),
            mt: None,
            switch: None,
            nmos_width_um: wn * 5.0,
        }
    }

    fn build_clkbuf(&self, drive: u8) -> Cell {
        let t = &self.tech;
        let spec = kind_spec(CellKind::ClkBuf);
        // Clock buffers are high-Vth: the clock is stopped in standby and
        // the buffers keep leaking, so a low-power flow builds the tree on
        // high-Vth devices (widened 2× to keep edges sharp).
        let wn = self.wn(drive) * 2.0;
        let wp = self.wp(drive) * 2.0;
        let input_cap = t.gate_cap(wn + wp);
        let pins = vec![PinSpec::input("A", input_cap), PinSpec::output("Z")];
        let drive_res = Res::new(t.on_resistance(wn, true).kohm() * spec.res_factor);
        let intrinsic = Time::new(8.0 * spec.intr_factor * 1.2);
        let arcs = vec![TimingArc {
            from_pin: 0,
            to_pin: 1,
            intrinsic,
            slew_coeff: 0.1,
            drive_res,
            slew_intrinsic: intrinsic * 0.7,
            slew_res: drive_res * 0.8,
        }];
        let pd = PullNetwork::from_paths(&[&[0]]);
        let pu = PullNetwork::from_paths(&[&[0]]);
        let leakage = LeakageTable::evaluate(t, t.vth_high, 1, |s| s & 1 == 1, &pd, &pu, wn, wp);
        let standby = leakage.mean();
        Cell {
            name: format!("CKBUF_X{}", drive),
            kind: CellKind::ClkBuf,
            drive,
            vth: VthClass::High,
            role: CellRole::ClockBuf,
            area: Area::new(
                spec.sites * drive_area_factor(drive) * t.site_width_um * t.row_height_um,
            ),
            pins,
            function: TruthTable::of_kind(CellKind::ClkBuf),
            arcs,
            leakage,
            standby_leak: standby,
            setup: Time::ZERO,
            hold: Time::ZERO,
            mt: None,
            switch: None,
            nmos_width_um: wn,
        }
    }

    fn build_switch(&self, width_um: f64) -> Cell {
        let t = &self.tech;
        let cfg = &self.config;
        let on_res = t.on_resistance(width_um, true);
        let off_leak = t.subthreshold_leak(width_um, t.vth_high, 1);
        let max_current =
            Current::new(cfg.em_ua_per_um * width_um).min(Current::new(t.em_limit_ua));
        let mut vgnd = PinSpec::input("VGND", Cap::ZERO);
        vgnd.is_vgnd = true;
        let pins = vec![vgnd, PinSpec::input("MTE", t.gate_cap(width_um))];
        Cell {
            name: format!("SW_W{}", width_um as u64),
            kind: CellKind::Switch,
            drive: 1,
            vth: VthClass::High,
            role: CellRole::Switch,
            area: Area::new(width_um * t.switch_area_um2_per_um),
            pins,
            function: None,
            arcs: Vec::new(),
            leakage: LeakageTable::constant(0, off_leak),
            standby_leak: off_leak,
            setup: Time::ZERO,
            hold: Time::ZERO,
            mt: None,
            switch: Some(SwitchSpec {
                width_um,
                on_res,
                off_leak,
                max_current,
            }),
            nmos_width_um: width_um,
        }
    }

    fn build_holder(&self) -> Cell {
        let t = &self.tech;
        // A weak high-Vth half-latch: input pin A attaches to the held net,
        // MTE enables the keeper. It presents a small load and leaks like a
        // minimum high-Vth gate.
        let leak = t.subthreshold_leak(1.2, t.vth_high, 1);
        let pins = vec![
            PinSpec::input("A", t.gate_cap(0.8)),
            PinSpec::input("MTE", t.gate_cap(0.8)),
        ];
        Cell {
            name: "HOLD_X1".to_owned(),
            kind: CellKind::Holder,
            drive: 1,
            vth: VthClass::High,
            role: CellRole::Holder,
            area: Area::new(1.5 * t.site_width_um * t.row_height_um),
            pins,
            function: None,
            arcs: Vec::new(),
            leakage: LeakageTable::constant(0, leak),
            standby_leak: leak,
            setup: Time::ZERO,
            hold: Time::ZERO,
            mt: None,
            switch: None,
            nmos_width_um: 0.8,
        }
    }

    /// A stable content fingerprint of the whole characterised library:
    /// the technology (where PVT-corner derates land — see
    /// [`Corner::derive`](crate::corner::Corner::derive)), the generation
    /// knobs, and every cell's electrical description (pins, timing
    /// arcs, leakage tables, MT/switch metadata).
    ///
    /// Two libraries fingerprint identically exactly when every number a
    /// flow run can observe is identical, so the fingerprint is a sound
    /// cache key for anything derived from a netlist *and* this library
    /// (`smt_core`'s design cache keys entries on it). It is stable
    /// across process runs and platforms ([`Fnv64`]), independent of
    /// when or in what order corner libraries are characterised from
    /// this one, and changes whenever any cell or any corner derate
    /// changes.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        hash_technology(&mut h, &self.tech);
        hash_config(&mut h, &self.config);
        h.write_usize(self.cells.len());
        for cell in &self.cells {
            hash_cell(&mut h, cell);
        }
        h.finish()
    }

    /// All cell types.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Number of cell types.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the library holds no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Cell type by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range (ids are only created by this
    /// library, so this indicates a cross-library mixup).
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Looks a cell type up by name.
    pub fn find(&self, name: &str) -> Option<&Cell> {
        self.by_name.get(name).map(|id| &self.cells[id.index()])
    }

    /// Looks a cell type id up by name.
    pub fn find_id(&self, name: &str) -> Option<CellId> {
        self.by_name.get(name).copied()
    }

    /// The same function and drive in a different Vth flavour: the
    /// [`Library::variant_id`] of the library cell named like `cell`
    /// (`None` when this library has no cell of that name).
    pub fn variant_of(&self, cell: &Cell, vth: VthClass) -> Option<&Cell> {
        let id = self.find_id(&cell.name)?;
        self.variant_id(id, vth).map(|v| self.cell(v))
    }

    /// Id-level flavour swap, used by the netlist rewriters: the cell
    /// named `{base}_X{drive}_{suffix}` after `id`'s kind and drive and
    /// `vth`'s suffix. A table lookup, filled when the library is built.
    pub fn variant_id(&self, id: CellId, vth: VthClass) -> Option<CellId> {
        self.variants[id.index()][vth as usize]
    }

    /// True when cells `a` and `b` have the same pins — the same names
    /// and directions, in the same order — and no pin name repeats, so
    /// rebinding an instance by pin name maps every pin to the pin of
    /// the same index. Every `L`/`H` pair of
    /// [`Library::industrial_130nm`] qualifies.
    pub fn same_pins(&self, a: CellId, b: CellId) -> bool {
        let layout = self.pin_layout[a.index()];
        layout != NO_LAYOUT && layout == self.pin_layout[b.index()]
    }

    /// Ids of all footer-switch cells, narrowest first.
    pub fn switch_cells(&self) -> Vec<CellId> {
        let mut ids: Vec<CellId> = self
            .cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.role == CellRole::Switch)
            .map(|(i, _)| CellId(i as u32))
            .collect();
        ids.sort_by(|a, b| {
            let wa = self.cell(*a).switch.expect("switch").width_um;
            let wb = self.cell(*b).switch.expect("switch").width_um;
            wa.total_cmp(&wb)
        });
        ids
    }

    /// Smallest switch whose on-resistance keeps `current` under
    /// `max_bounce` volts of VGND bounce and whose EM rating covers the
    /// current. Returns `None` when even the widest switch cannot.
    pub fn pick_switch(
        &self,
        current: Current,
        max_bounce: smt_base::units::Volt,
    ) -> Option<CellId> {
        for id in self.switch_cells() {
            let spec = self.cell(id).switch.expect("switch cell");
            let bounce = current * spec.on_res;
            if bounce.volts() <= max_bounce.volts() && current.ua() <= spec.max_current.ua() {
                return Some(id);
            }
        }
        None
    }

    /// The output-holder cell.
    pub fn holder(&self) -> CellId {
        self.find_id("HOLD_X1")
            .expect("library always has a holder")
    }

    /// A buffer cell of the given drive and Vth class.
    pub fn buffer(&self, drive: u8, vth: VthClass) -> Option<CellId> {
        self.find_id(&format!("BUF_X{}_{}", drive, vth.suffix()))
    }

    /// A clock buffer of the given drive.
    pub fn clock_buffer(&self, drive: u8) -> Option<CellId> {
        self.find_id(&format!("CKBUF_X{}", drive))
    }
}

// ---------------------------------------------------------------------------
// Fingerprinting (see Library::fingerprint)
// ---------------------------------------------------------------------------

fn hash_technology(h: &mut Fnv64, t: &Technology) {
    h.write_str(&t.name);
    for v in [
        t.vdd.volts(),
        t.vth_low.volts(),
        t.vth_high.volts(),
        t.subthreshold_swing,
        t.leak_i0_ua_per_um,
        t.stack_factor,
        t.ron_low_kohm_um,
        t.ron_high_ratio,
        t.cgate_ff_per_um,
        t.wire_res_kohm_per_um,
        t.wire_cap_ff_per_um,
        t.row_height_um,
        t.site_width_um,
        t.ipeak_ua_per_um,
        t.simultaneity,
        t.vgnd_wire_res_factor,
        t.switch_area_um2_per_um,
        t.em_limit_ua,
        t.bounce_delay_sens,
    ] {
        h.write_f64(v);
    }
}

fn hash_config(h: &mut Fnv64, c: &LibraryConfig) {
    h.write_usize(c.drives.len());
    for &d in &c.drives {
        h.write_u8(d);
    }
    for v in [
        c.mv_area_factor,
        c.embedded_switch_area_um2_per_um,
        c.embedded_holder_area_um2,
        c.embedded_bounce_limit_mv,
        c.mt_delay_penalty_embedded,
        c.mt_delay_penalty_vgnd,
        c.em_ua_per_um,
        c.max_load_ff,
    ] {
        h.write_f64(v);
    }
    h.write_usize(c.max_fanout);
    h.write_usize(c.switch_widths_um.len());
    for &w in &c.switch_widths_um {
        h.write_f64(w);
    }
}

fn hash_cell(h: &mut Fnv64, cell: &Cell) {
    h.write_str(&cell.name);
    h.write_u8(cell.kind as u8);
    h.write_u8(cell.drive);
    h.write_u8(cell.vth as u8);
    h.write_u8(cell.role as u8);
    h.write_f64(cell.area.um2());
    h.write_usize(cell.pins.len());
    for pin in &cell.pins {
        h.write_str(&pin.name);
        h.write_u8(pin.dir as u8);
        h.write_f64(pin.cap.ff());
        h.write_bool(pin.is_clock);
        h.write_bool(pin.is_vgnd);
    }
    match &cell.function {
        Some(tt) => {
            h.write_bool(true);
            h.write_u8(tt.n_inputs);
            h.write_u64(u64::from(tt.bits));
        }
        None => h.write_bool(false),
    }
    h.write_usize(cell.arcs.len());
    for arc in &cell.arcs {
        h.write_usize(arc.from_pin);
        h.write_usize(arc.to_pin);
        h.write_f64(arc.intrinsic.ps());
        h.write_f64(arc.slew_coeff);
        h.write_f64(arc.drive_res.kohm());
        h.write_f64(arc.slew_intrinsic.ps());
        h.write_f64(arc.slew_res.kohm());
    }
    h.write_usize(cell.leakage.per_state.len());
    for leak in &cell.leakage.per_state {
        h.write_f64(leak.ua());
    }
    h.write_f64(cell.standby_leak.ua());
    h.write_f64(cell.setup.ps());
    h.write_f64(cell.hold.ps());
    match &cell.mt {
        Some(mt) => {
            h.write_bool(true);
            h.write_f64(mt.embedded_switch_width_um);
            h.write_f64(mt.peak_current.ua());
        }
        None => h.write_bool(false),
    }
    match &cell.switch {
        Some(sw) => {
            h.write_bool(true);
            h.write_f64(sw.width_um);
            h.write_f64(sw.on_res.kohm());
            h.write_f64(sw.off_leak.ua());
            h.write_f64(sw.max_current.ua());
        }
        None => h.write_bool(false),
    }
    h.write_f64(cell.nmos_width_um);
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_base::units::Volt;

    fn lib() -> Library {
        Library::industrial_130nm()
    }

    #[test]
    fn generates_all_variants() {
        let l = lib();
        for kind in CellKind::logic_kinds() {
            for drive in [1u8, 2, 4] {
                for suffix in ["L", "H", "MC", "MV"] {
                    let name = format!("{}_X{}_{}", kind.base_name(), drive, suffix);
                    assert!(l.find(&name).is_some(), "missing {name}");
                }
            }
        }
        assert!(l.find("DFF_X1_L").is_some());
        assert!(l.find("DFF_X1_H").is_some());
        assert!(l.find("CKBUF_X2").is_some());
        assert!(l.find("SW_W8").is_some());
        assert!(l.find("HOLD_X1").is_some());
    }

    #[test]
    fn area_ordering_matches_fig1() {
        // Fig. 1: improved MT-cell (VGND port) is much smaller than the
        // conventional one (embedded switch), which is larger than both
        // plain variants.
        let l = lib();
        let low = l.find("ND2_X1_L").unwrap();
        let high = l.find("ND2_X1_H").unwrap();
        let mc = l.find("ND2_X1_MC").unwrap();
        let mv = l.find("ND2_X1_MV").unwrap();
        assert_eq!(low.area, high.area);
        assert!(mv.area > low.area);
        assert!(mc.area > mv.area * 1.5);
    }

    #[test]
    fn delay_ordering_low_mt_high() {
        let l = lib();
        let low = l.find("ND2_X1_L").unwrap();
        let high = l.find("ND2_X1_H").unwrap();
        let mv = l.find("ND2_X1_MV").unwrap();
        let load = Cap::new(10.0);
        let slew = Time::new(30.0);
        let d_low = low.arcs[0].delay(slew, load);
        let d_high = high.arcs[0].delay(slew, load);
        let d_mv = mv.arcs[0].delay(slew, load);
        assert!(d_low < d_mv, "MT-cell is slightly slower than low-Vth");
        assert!(d_mv < d_high, "MT-cell is much faster than high-Vth");
    }

    #[test]
    fn standby_leak_ordering() {
        // Standby: low-Vth >> embedded-MT > VGND-MT residual; high-Vth in
        // between low and MT.
        let l = lib();
        let low = l.find("ND2_X1_L").unwrap();
        let high = l.find("ND2_X1_H").unwrap();
        let mc = l.find("ND2_X1_MC").unwrap();
        let mv = l.find("ND2_X1_MV").unwrap();
        assert!(low.standby_leak > high.standby_leak * 50.0);
        assert!(mc.standby_leak < low.standby_leak);
        assert!(mv.standby_leak < mc.standby_leak);
    }

    #[test]
    fn mt_pins() {
        let l = lib();
        let mc = l.find("ND2_X1_MC").unwrap();
        assert!(mc.pin_index("MTE").is_some(), "embedded MT-cell has MTE");
        assert!(mc.pin_index("VGND").is_none());
        let mv = l.find("ND2_X1_MV").unwrap();
        let vg = mv.pin_index("VGND").expect("VGND port");
        assert!(mv.pins[vg].is_vgnd);
        assert!(mv.pin_index("MTE").is_none());
    }

    #[test]
    fn switch_picking_prefers_smallest_feasible() {
        let l = lib();
        // Small current: smallest switch should do.
        let id = l
            .pick_switch(Current::new(100.0), Volt::from_millivolts(50.0))
            .expect("feasible");
        let first = l.switch_cells()[0];
        // on_res of SW_W2 = 2.7/2 = 1.35 kΩ -> 100 µA * 1.35 kΩ = 135 mV > 50 mV,
        // so it must pick something wider than the minimum, but still modest.
        assert_ne!(id, first);
        let spec = l.cell(id).switch.unwrap();
        assert!((Current::new(100.0) * spec.on_res).millivolts() <= 50.0);

        // Absurd current: nothing fits.
        assert!(l
            .pick_switch(Current::new(1e9), Volt::from_millivolts(1.0))
            .is_none());
    }

    #[test]
    fn em_limit_caps_switch_current() {
        let l = lib();
        for id in l.switch_cells() {
            let spec = l.cell(id).switch.unwrap();
            assert!(spec.max_current.ua() <= l.tech.em_limit_ua + 1e-9);
        }
    }

    #[test]
    fn variant_roundtrip() {
        let l = lib();
        let low_id = l.find_id("XOR2_X2_L").unwrap();
        let mv_id = l.variant_id(low_id, VthClass::MtVgnd).unwrap();
        assert_eq!(l.cell(mv_id).name, "XOR2_X2_MV");
        let back = l.variant_id(mv_id, VthClass::Low).unwrap();
        assert_eq!(back, low_id);
    }

    #[test]
    fn embedded_switch_width_scales_with_cell_current() {
        let l = lib();
        let small = l.find("INV_X1_MC").unwrap().mt.unwrap();
        let big = l.find("ND4_X4_MC").unwrap().mt.unwrap();
        assert!(big.embedded_switch_width_um > small.embedded_switch_width_um);
        assert!(big.peak_current > small.peak_current);
    }

    #[test]
    fn fingerprint_is_stable_across_rebuilds() {
        // Two independent generations of the same library (fresh
        // HashMaps, fresh Vecs) must fingerprint identically — the
        // process-run stability the on-disk design cache keys rely on.
        assert_eq!(
            Library::industrial_130nm().fingerprint(),
            Library::industrial_130nm().fingerprint()
        );
    }

    #[test]
    fn fingerprint_ignores_corner_characterisation_order() {
        use crate::corner::{Corner, CornerLibrary};
        let base = lib();
        let before = base.fingerprint();
        // Characterise corners in one order...
        let a: Vec<u64> = [Corner::slow(), Corner::typical(), Corner::fast()]
            .into_iter()
            .map(|c| CornerLibrary::build(&base, c).lib.fingerprint())
            .collect();
        // ...and the reverse; per-corner fingerprints must not depend on
        // when (or in what order) the corners were derived, and deriving
        // corners must not perturb the base library's own fingerprint.
        let b: Vec<u64> = [Corner::fast(), Corner::typical(), Corner::slow()]
            .into_iter()
            .map(|c| CornerLibrary::build(&base, c).lib.fingerprint())
            .collect();
        assert_eq!(a[0], b[2], "slow corner fingerprint depends on order");
        assert_eq!(a[1], b[1], "typical corner fingerprint depends on order");
        assert_eq!(a[2], b[0], "fast corner fingerprint depends on order");
        assert_eq!(base.fingerprint(), before);
        // The identity corner is a clone of the base.
        assert_eq!(a[1], before);
    }

    #[test]
    fn fingerprint_distinguishes_cell_and_derate_changes() {
        use crate::corner::Corner;
        let base = lib();
        let fp = base.fingerprint();

        // A cell-level change: different MT-cell delay penalty.
        let tweaked_cells = Library::generate(
            Technology::industrial_130nm(),
            LibraryConfig {
                mt_delay_penalty_vgnd: 1.04,
                ..LibraryConfig::default()
            },
        );
        assert_ne!(tweaked_cells.fingerprint(), fp);

        // A derate change: every non-identity corner moves the
        // technology, so its re-characterised library fingerprints
        // differently from the base and from every other corner.
        let slow = Library::generate(Corner::slow().derive(&base.tech), base.config.clone());
        let fast = Library::generate(Corner::fast().derive(&base.tech), base.config.clone());
        assert_ne!(slow.fingerprint(), fp);
        assert_ne!(fast.fingerprint(), fp);
        assert_ne!(slow.fingerprint(), fast.fingerprint());

        // Even a minimal derate (a 1 mV Vth shift) must change it.
        let nudged = Corner {
            vth_shift: Volt::from_millivolts(1.0),
            ..Corner::typical()
        };
        let nudged_lib = Library::generate(nudged.derive(&base.tech), base.config.clone());
        assert_ne!(nudged_lib.fingerprint(), fp);
    }
}
