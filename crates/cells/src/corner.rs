//! Process/voltage/temperature (PVT) corners.
//!
//! The base [`Technology`] is *calibrated at the hot corner* (125 °C,
//! nominal VDD, typical process) — that is where subthreshold leakage
//! peaks and where the paper's Table 1 standby numbers are meaningful.
//! Signoff, however, needs more than one operating point:
//!
//! * **setup** is worst where devices are slowest — low VDD, slow process
//!   (`slow` corner);
//! * **hold** is worst where devices are fastest — high VDD, fast process,
//!   cold (`fast` corner);
//! * **leakage** swings by orders of magnitude with temperature because
//!   the subthreshold swing `S ∝ kT/q`: the ~100× low-/high-Vth ratio
//!   quoted "at hot corner" in [`Technology::subthreshold_swing`] grows
//!   even steeper when cold.
//!
//! A [`Corner`] is a small set of derates that [`Corner::derive`] applies
//! to a base [`Technology`]; [`CornerLibrary::build_set`] then
//! re-characterises the standard-cell library at each derived technology.
//! Because library generation is deterministic, **cell ids are stable
//! across the per-corner libraries**, so one netlist can be timed against
//! every corner without translation — the invariant the multi-corner
//! flow stages rely on when they time one netlist at every corner over
//! one shared `smt-sta` timing graph.
//!
//! The [`Corner::typical`] corner is the *identity*: every derate is 1.0
//! and the temperature is the calibration temperature, so the derived
//! technology — and therefore every timing and leakage figure — is
//! bit-identical to the base. Single-corner flows are unchanged by
//! construction.

use crate::library::Library;
use crate::tech::Technology;
use smt_base::units::Volt;

/// Junction temperature the base [`Technology`] is calibrated at, °C
/// (the "hot corner" of the [`Technology::subthreshold_swing`] docs).
pub const REFERENCE_TEMP_C: f64 = 125.0;

/// 0 °C in kelvin.
const KELVIN_OFFSET: f64 = 273.15;

/// One PVT operating point, expressed as derates on the base technology.
#[derive(Debug, Clone, PartialEq)]
pub struct Corner {
    /// Corner name (`slow`, `typ`, `fast`, or user-defined).
    pub name: String,
    /// Threshold-voltage shift applied to *both* Vth classes, volts.
    /// Positive = slow process (higher thresholds, less leakage),
    /// negative = fast process.
    pub vth_shift: Volt,
    /// Multiplier on device on-resistance: the lumped drive-strength
    /// derate of process spread and supply droop (> 1 = slower cells).
    pub ron_scale: f64,
    /// Multiplier on the supply voltage.
    pub vdd_scale: f64,
    /// Junction temperature, °C. Scales the subthreshold swing
    /// (`S ∝ kT/q`), the leakage prefactor, and the wire resistance.
    pub temp_c: f64,
    /// Whether setup (max-delay) timing is signed off at this corner.
    pub check_setup: bool,
    /// Whether hold (min-delay) timing is signed off at this corner.
    pub check_hold: bool,
}

impl Corner {
    /// The identity corner: the base technology's own operating point
    /// (typical process, nominal VDD, hot). Checks both setup and hold,
    /// matching the single-corner behaviour of the original flow.
    pub fn typical() -> Self {
        Corner {
            name: "typ".to_owned(),
            vth_shift: Volt::ZERO,
            ron_scale: 1.0,
            vdd_scale: 1.0,
            temp_c: REFERENCE_TEMP_C,
            check_setup: true,
            check_hold: true,
        }
    }

    /// Worst-setup corner: slow process (+30 mV Vth), 10 % supply droop,
    /// hot. Devices are ~12 % more resistive.
    pub fn slow() -> Self {
        Corner {
            name: "slow".to_owned(),
            vth_shift: Volt::from_millivolts(30.0),
            ron_scale: 1.12,
            vdd_scale: 0.90,
            temp_c: REFERENCE_TEMP_C,
            check_setup: true,
            check_hold: false,
        }
    }

    /// Worst-hold corner: fast process (−30 mV Vth), 10 % supply boost,
    /// cold (−40 °C). Devices are ~10 % less resistive and min-path
    /// delays shrink accordingly.
    pub fn fast() -> Self {
        Corner {
            name: "fast".to_owned(),
            vth_shift: Volt::from_millivolts(-30.0),
            ron_scale: 0.90,
            vdd_scale: 1.10,
            temp_c: -40.0,
            check_setup: false,
            check_hold: true,
        }
    }

    /// True when this corner applies no derates at all: deriving with it
    /// reproduces the base technology bit-for-bit.
    pub fn is_identity(&self) -> bool {
        self.vth_shift == Volt::ZERO
            && self.ron_scale == 1.0
            && self.vdd_scale == 1.0
            && self.temp_c == REFERENCE_TEMP_C
    }

    /// Temperature ratio vs the calibration point, on the absolute scale.
    fn temp_ratio(&self) -> f64 {
        (self.temp_c + KELVIN_OFFSET) / (REFERENCE_TEMP_C + KELVIN_OFFSET)
    }

    /// Derives the corner's [`Technology`] from a base technology.
    ///
    /// The derates applied, in physical terms:
    ///
    /// * `vdd` is scaled by [`Corner::vdd_scale`];
    /// * both thresholds shift by [`Corner::vth_shift`] (process skew);
    /// * `subthreshold_swing` scales linearly with absolute temperature
    ///   (`S = n·kT/q·ln 10`) — the knob that makes the low/high leakage
    ///   ratio corner-dependent;
    /// * `leak_i0` scales with the square of absolute temperature (the
    ///   `T²` prefactor of the subthreshold current);
    /// * `ron_low_kohm_um` is multiplied by [`Corner::ron_scale`].
    ///
    /// Wire RC is deliberately **not** derated: parasitics are estimated
    /// or extracted once against the base technology and shared by every
    /// corner's timing run, so a corner-dependent `wire_res_kohm_per_um`
    /// would be silently ignored by setup/hold analysis (and worse,
    /// inconsistently honoured by the VGND bounce model). In this model
    /// the corners move the *devices*; per-corner wire temperature
    /// derates would need per-corner parasitics and are future work.
    ///
    /// For the identity corner every factor is exactly 1.0 (and every
    /// shift exactly zero), so the result compares equal to `base` up to
    /// the name suffix — and [`CornerLibrary::build_set`] skips
    /// regeneration entirely in that case.
    pub fn derive(&self, base: &Technology) -> Technology {
        let tr = self.temp_ratio();
        let mut t = base.clone();
        if !self.is_identity() {
            t.name = format!("{}@{}", base.name, self.name);
        }
        t.vdd = Volt::new(base.vdd.volts() * self.vdd_scale);
        t.vth_low = base.vth_low + self.vth_shift;
        t.vth_high = base.vth_high + self.vth_shift;
        t.subthreshold_swing = base.subthreshold_swing * tr;
        t.leak_i0_ua_per_um = base.leak_i0_ua_per_um * (tr * tr);
        t.ron_low_kohm_um = base.ron_low_kohm_um * self.ron_scale;
        t
    }
}

impl Default for Corner {
    /// The identity ([`Corner::typical`]) corner.
    fn default() -> Self {
        Self::typical()
    }
}

/// An ordered set of corners a flow signs off against.
///
/// Invariants enforced by the constructors (and re-checked by
/// [`CornerSet::validate`]): at least one corner, at least one corner
/// with `check_setup`, at least one with `check_hold`.
#[derive(Debug, Clone, PartialEq)]
pub struct CornerSet {
    /// The corners, in report order.
    pub corners: Vec<Corner>,
}

impl CornerSet {
    /// Single-corner set: the identity corner only. This is the default
    /// and reproduces the original single-corner flow bit-for-bit.
    pub fn typical_only() -> Self {
        CornerSet {
            corners: vec![Corner::typical()],
        }
    }

    /// The classic three-corner signoff: slow (setup), typical (both),
    /// fast (hold).
    pub fn slow_typ_fast() -> Self {
        CornerSet {
            corners: vec![Corner::slow(), Corner::typical(), Corner::fast()],
        }
    }

    /// Number of corners.
    pub fn len(&self) -> usize {
        self.corners.len()
    }

    /// True when the set is empty (an invalid state — see
    /// [`CornerSet::validate`]).
    pub fn is_empty(&self) -> bool {
        self.corners.is_empty()
    }

    /// Checks the set invariants; returns a description of the first
    /// violation.
    ///
    /// # Errors
    ///
    /// A human-readable message when the set is empty, no corner checks
    /// setup, or no corner checks hold.
    pub fn validate(&self) -> Result<(), String> {
        if self.corners.is_empty() {
            return Err("corner set is empty".to_owned());
        }
        if !self.corners.iter().any(|c| c.check_setup) {
            return Err("no corner checks setup timing".to_owned());
        }
        if !self.corners.iter().any(|c| c.check_hold) {
            return Err("no corner checks hold timing".to_owned());
        }
        let mut names: Vec<&str> = self.corners.iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != self.corners.len() {
            return Err("corner names are not unique".to_owned());
        }
        Ok(())
    }
}

impl Default for CornerSet {
    fn default() -> Self {
        Self::typical_only()
    }
}

/// A standard-cell library characterised at one corner.
#[derive(Debug, Clone)]
pub struct CornerLibrary {
    /// The corner the library was characterised at.
    pub corner: Corner,
    /// The re-characterised library. Cell ids are identical to the base
    /// library's (generation is deterministic), so netlists built against
    /// the base library index directly into this one.
    pub lib: Library,
}

impl CornerLibrary {
    /// Characterises `base` at one corner. The identity corner clones the
    /// base library instead of regenerating, guaranteeing bit-identical
    /// results even for libraries that were not produced by
    /// [`Library::generate`] (e.g. parsed from Liberty).
    pub fn build(base: &Library, corner: Corner) -> Self {
        let lib = if corner.is_identity() {
            base.clone()
        } else {
            let lib = Library::generate(corner.derive(&base.tech), base.config.clone());
            debug_assert_eq!(
                lib.len(),
                base.len(),
                "corner regeneration must preserve cell ids"
            );
            lib
        };
        CornerLibrary { corner, lib }
    }

    /// Characterises `base` at every corner of a set, in set order.
    pub fn build_set(base: &Library, set: &CornerSet) -> Vec<CornerLibrary> {
        set.corners
            .iter()
            .map(|c| CornerLibrary::build(base, c.clone()))
            .collect()
    }
}

/// Borrowed views of the libraries whose corners check setup timing.
pub fn setup_libs(corners: &[CornerLibrary]) -> Vec<&Library> {
    corners
        .iter()
        .filter(|c| c.corner.check_setup)
        .map(|c| &c.lib)
        .collect()
}

/// Borrowed views of the libraries whose corners check hold timing.
pub fn hold_libs(corners: &[CornerLibrary]) -> Vec<&Library> {
    corners
        .iter()
        .filter(|c| c.corner.check_hold)
        .map(|c| &c.lib)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typical_derive_is_bit_identical() {
        let base = Technology::industrial_130nm();
        let t = Corner::typical().derive(&base);
        assert_eq!(t, base);
    }

    #[test]
    fn typical_library_is_bit_identical() {
        let base = Library::industrial_130nm();
        // Through the full regeneration path, not the clone shortcut.
        let derived = Library::generate(Corner::typical().derive(&base.tech), base.config.clone());
        assert_eq!(derived.len(), base.len());
        for (a, b) in base.cells().iter().zip(derived.cells()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.area, b.area, "{}", a.name);
            assert_eq!(a.standby_leak, b.standby_leak, "{}", a.name);
            for (aa, ba) in a.arcs.iter().zip(&b.arcs) {
                assert_eq!(aa.intrinsic, ba.intrinsic, "{}", a.name);
                assert_eq!(aa.drive_res, ba.drive_res, "{}", a.name);
            }
        }
    }

    #[test]
    fn slow_corner_is_slower_and_leaks_less() {
        let base = Technology::industrial_130nm();
        let slow = Corner::slow().derive(&base);
        assert!(slow.on_resistance(1.0, false) > base.on_resistance(1.0, false));
        // Higher thresholds: less subthreshold leakage at equal temp.
        let leak_slow = slow.subthreshold_leak(1.0, slow.vth_low, 1);
        let leak_base = base.subthreshold_leak(1.0, base.vth_low, 1);
        assert!(leak_slow < leak_base);
    }

    #[test]
    fn fast_cold_corner_has_steeper_leakage_ratio() {
        let base = Technology::industrial_130nm();
        let fast = Corner::fast().derive(&base);
        // S shrinks with temperature, so the low/high ratio explodes.
        assert!(fast.subthreshold_swing < base.subthreshold_swing);
        assert!(fast.leak_ratio_low_over_high() > base.leak_ratio_low_over_high() * 10.0);
        // And the devices are faster.
        assert!(fast.on_resistance(1.0, false) < base.on_resistance(1.0, false));
    }

    #[test]
    fn corner_libraries_keep_cell_ids_stable() {
        let base = Library::industrial_130nm();
        let set = CornerSet::slow_typ_fast();
        let libs = CornerLibrary::build_set(&base, &set);
        assert_eq!(libs.len(), 3);
        for cl in &libs {
            assert_eq!(cl.lib.len(), base.len());
            for (a, b) in base.cells().iter().zip(cl.lib.cells()) {
                assert_eq!(
                    a.name, b.name,
                    "cell order differs at corner {}",
                    cl.corner.name
                );
            }
        }
        // Slow-corner cells are slower than typical, fast-corner faster.
        let id = base.find_id("INV_X1_L").unwrap();
        let r = |l: &Library| l.cell(id).arcs[0].drive_res;
        assert!(r(&libs[0].lib) > r(&libs[1].lib));
        assert!(r(&libs[2].lib) < r(&libs[1].lib));
    }

    #[test]
    fn set_invariants_validated() {
        assert!(CornerSet::typical_only().validate().is_ok());
        assert!(CornerSet::slow_typ_fast().validate().is_ok());
        let empty = CornerSet { corners: vec![] };
        assert!(empty.validate().is_err());
        let no_hold = CornerSet {
            corners: vec![Corner::slow()],
        };
        assert!(no_hold.validate().unwrap_err().contains("hold"));
        let dup = CornerSet {
            corners: vec![Corner::typical(), Corner::typical()],
        };
        assert!(dup.validate().unwrap_err().contains("unique"));
    }

    #[test]
    fn setup_and_hold_lib_selection() {
        let base = Library::industrial_130nm();
        let libs = CornerLibrary::build_set(&base, &CornerSet::slow_typ_fast());
        assert_eq!(setup_libs(&libs).len(), 2); // slow + typ
        assert_eq!(hold_libs(&libs).len(), 2); // typ + fast
    }
}
