//! Property-style tests on the core invariants the reproduction rests on.
//!
//! The cases are driven by the workspace's own deterministic
//! [`SplitMix64`] generator rather than an external property-testing
//! framework, so the sampled inputs are identical on every run and every
//! platform.

use selective_mt::base::units::Time;
use selective_mt::base::SplitMix64;
use selective_mt::cells::cell::{CellId, VthClass};
use selective_mt::cells::library::Library;
use selective_mt::circuits::gen::{random_logic, RandomLogicConfig};
use selective_mt::core::smtgen::{
    insert_initial_switch, insert_output_holders, to_improved_mt_cells,
};
use selective_mt::netlist::check::{analyze, LintPolicy};
use selective_mt::sim::check_equivalence;
use selective_mt::synth::aig::{elaborate, NodeKind};
use selective_mt::synth::ast::parse_rtl;
use selective_mt::synth::Aig;

fn lib() -> Library {
    Library::industrial_130nm()
}

// ---- AIG soundness against a reference interpreter ----------------------

fn eval_lit(aig: &Aig, lit: selective_mt::synth::Lit, inputs: &[bool]) -> bool {
    fn node_val(aig: &Aig, idx: u32, inputs: &[bool]) -> bool {
        match aig.node(idx) {
            NodeKind::ConstFalse => false,
            NodeKind::Input(i) => inputs[i as usize],
            NodeKind::And(a, b) => {
                (node_val(aig, a.node(), inputs) ^ a.is_complemented())
                    && (node_val(aig, b.node(), inputs) ^ b.is_complemented())
            }
        }
    }
    node_val(aig, lit.node(), inputs) ^ lit.is_complemented()
}

/// Random arithmetic RTL: the elaborated AIG computes the same value
/// as u64 arithmetic for any operand assignment.
#[test]
fn aig_matches_integer_arithmetic() {
    let mut rng = SplitMix64::new(0xA16);
    for _ in 0..64 {
        let a = rng.next_below(256) as u64;
        let b = rng.next_below(256) as u64;
        let op = rng.next_below(5);
        let expr = match op {
            0 => "x + y",
            1 => "x - y",
            2 => "x ^ y",
            3 => "(x & y) | (x ^ y)",
            _ => "x < y ? x + y : x - y",
        };
        let width = 9usize;
        let rtl = format!(
            "module t;\ninput [{w}:0] x, y;\noutput [{w}:0] z;\nassign z = {expr};\nendmodule\n",
            w = width - 1
        );
        let m = parse_rtl(&rtl).unwrap();
        let d = elaborate(&m).unwrap();
        let mut inputs = vec![false; 2 * width];
        for i in 0..width {
            inputs[i] = a >> i & 1 == 1;
            inputs[width + i] = b >> i & 1 == 1;
        }
        let mut got = 0u64;
        for (i, (_, l)) in d.outputs.iter().enumerate() {
            if eval_lit(&d.aig, *l, &inputs) {
                got |= 1 << i;
            }
        }
        let mask = (1u64 << width) - 1;
        let expect = match op {
            0 => (a + b) & mask,
            1 => a.wrapping_sub(b) & mask,
            2 => (a ^ b) & mask,
            3 => ((a & b) | (a ^ b)) & mask,
            _ => {
                if a < b {
                    (a + b) & mask
                } else {
                    a.wrapping_sub(b) & mask
                }
            }
        };
        assert_eq!(got, expect, "op `{expr}` on a={a} b={b}");
    }
}

/// Structural hashing never grows the graph for repeated sub-terms.
#[test]
fn aig_strash_is_idempotent() {
    for seed in 0u32..16 {
        let mut g = Aig::new();
        let a = g.input();
        let b = g.input();
        let c = g.input();
        // Build the same expression twice with operand orders shuffled by
        // the seed; the node count must not change the second time.
        let build = |g: &mut Aig| {
            let t0 = if seed % 2 == 0 {
                g.and(a, b)
            } else {
                g.and(b, a)
            };
            let t1 = g.or(t0, c);
            g.xor(t1, a)
        };
        let l1 = build(&mut g);
        let n1 = g.len();
        let l2 = build(&mut g);
        assert_eq!(l1, l2);
        assert_eq!(g.len(), n1);
    }
}

/// Any random (seeded) netlist survives the improved-SMT transform
/// pipeline with structure intact and function preserved.
#[test]
fn improved_transform_preserves_function() {
    let lib = lib();
    for seed in 0u64..30 {
        let cfg = RandomLogicConfig {
            gates: 120,
            ffs: 8,
            seed,
            ..RandomLogicConfig::default()
        };
        let golden = random_logic(&lib, &cfg).expect("valid random_logic config");
        let mut dut = golden.clone();
        to_improved_mt_cells(&mut dut, &lib);
        insert_output_holders(&mut dut, &lib);
        insert_initial_switch(
            &mut dut,
            &lib,
            selective_mt::base::units::Volt::from_millivolts(50.0),
        );
        let report = analyze(&dut, &lib, &LintPolicy::signoff());
        assert!(report.is_clean(), "seed {seed}: {report:?}");
        let mut golden2 = golden.clone();
        if dut.find_net("mte").is_some() {
            golden2.add_input("mte");
        }
        let eq = check_equivalence(&golden2, &dut, &lib, 24, seed).unwrap();
        assert!(
            eq.is_equivalent(),
            "seed {seed}: {:?}",
            eq.mismatches.first()
        );
    }
}

/// Vth variant swaps never change cell pin-out compatibility, logic
/// function, or the netlist's structural health.
#[test]
fn variant_swaps_preserve_structure() {
    let lib = lib();
    for seed in 0u64..10 {
        for (flavour, target) in [VthClass::High, VthClass::MtEmbedded, VthClass::MtVgnd]
            .into_iter()
            .enumerate()
        {
            let cfg = RandomLogicConfig {
                gates: 80,
                ffs: 4,
                seed,
                ..RandomLogicConfig::default()
            };
            let golden = random_logic(&lib, &cfg).expect("valid random_logic config");
            let mut dut = golden.clone();
            let ids: Vec<_> = dut.instances().map(|(id, _)| id).collect();
            for id in ids {
                let cell = lib.cell(dut.inst(id).cell);
                if cell.vth == VthClass::Low
                    && cell.role == selective_mt::cells::cell::CellRole::Logic
                {
                    let v = lib.variant_id(dut.inst(id).cell, target).unwrap();
                    dut.replace_cell(id, v, &lib).unwrap();
                }
            }
            let report = analyze(&dut, &lib, &LintPolicy::structural());
            assert!(
                report.is_clean(),
                "seed {seed} flavour {flavour}: {report:?}"
            );
            let eq = check_equivalence(&golden, &dut, &lib, 16, seed).unwrap();
            assert!(eq.is_equivalent(), "seed {seed} flavour {flavour}");
        }
    }
}

/// The variant table answers exactly what a name lookup of
/// `{base}_X{drive}_{suffix}` answered, for every cell and every Vth
/// class, in the generated library and in its Liberty round trip; and
/// `variant_of` agrees with it.
#[test]
fn variant_table_matches_the_name_lookup() {
    use selective_mt::cells::liberty;
    let generated = lib();
    let parsed = liberty::parse(&liberty::write(&generated), generated.tech.clone()).unwrap();
    for l in [&generated, &parsed] {
        for (i, cell) in l.cells().iter().enumerate() {
            let id = CellId(i as u32);
            for vth in [
                VthClass::Low,
                VthClass::High,
                VthClass::MtEmbedded,
                VthClass::MtVgnd,
            ] {
                let name = format!("{}_X{}_{}", cell.kind.base_name(), cell.drive, vth.suffix());
                assert_eq!(
                    l.variant_id(id, vth),
                    l.find_id(&name),
                    "{} {vth}",
                    cell.name
                );
                assert_eq!(
                    l.variant_of(cell, vth).map(|c| &c.name),
                    l.find(&name).map(|c| &c.name),
                    "{} {vth}",
                    cell.name
                );
            }
        }
    }
}

/// Steiner wirelength is sandwiched between the HPWL lower bound and
/// the star-topology upper bound.
#[test]
fn steiner_wirelength_bounds() {
    use selective_mt::base::geom::{Point, Rect};
    use selective_mt::route::steiner_tree;
    let mut rng = SplitMix64::new(0x57E);
    for case in 0..64 {
        let n = 2 + rng.next_below(10);
        let pins: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.next_f64() * 500.0, rng.next_f64() * 500.0))
            .collect();
        let tree = steiner_tree(&pins);
        let hpwl = Rect::bounding(pins.iter().copied())
            .unwrap()
            .half_perimeter();
        let star: f64 = pins[1..].iter().map(|p| p.manhattan(pins[0])).sum();
        assert!(
            tree.wirelength() >= hpwl - 1e-6,
            "case {case}: below HPWL bound"
        );
        assert!(
            tree.wirelength() <= star + 1e-6,
            "case {case}: worse than star"
        );
        // Every sink is actually connected.
        for s in 1..pins.len() {
            assert!(tree.path_length(s) >= pins[s].manhattan(pins[0]) - 1e-6);
        }
    }
}

/// Placement is always legal: every cell inside the die and no two
/// same-row cells overlapping, for any random design.
#[test]
fn placement_is_always_legal() {
    use selective_mt::place::{place, PlacerConfig};
    let lib = lib();
    let mut rng = SplitMix64::new(0x91A);
    for seed in 0u64..16 {
        let gates = 50 + rng.next_below(200);
        let n = random_logic(
            &lib,
            &RandomLogicConfig {
                gates,
                seed,
                ..RandomLogicConfig::default()
            },
        )
        .expect("valid random_logic config");
        let p = place(&n, &lib, &PlacerConfig::default());
        let mut by_row: std::collections::HashMap<i64, Vec<(f64, f64)>> = Default::default();
        for (id, inst) in n.instances() {
            let loc = p.loc(id);
            assert!(p.die.contains(loc), "{} at {}", inst.name, loc);
            let w = lib.cell(inst.cell).area.um2() / lib.tech.row_height_um;
            by_row
                .entry((loc.y * 1000.0) as i64)
                .or_default()
                .push((loc.x, w));
        }
        for (_, mut cells) in by_row {
            cells.sort_by(|a, b| a.0.total_cmp(&b.0));
            for pair in cells.windows(2) {
                let (x0, w0) = pair[0];
                let (x1, w1) = pair[1];
                assert!(
                    x1 - x0 >= (w0 + w1) / 2.0 - 1e-6,
                    "overlap at x {x0}/{x1} (widths {w0}/{w1})"
                );
            }
        }
    }
}

/// Verilog write→parse is the identity on connectivity for any random
/// design.
#[test]
fn verilog_roundtrip_any_design() {
    use selective_mt::netlist::verilog;
    let lib = lib();
    for seed in 0u64..20 {
        let n = random_logic(
            &lib,
            &RandomLogicConfig {
                gates: 80,
                seed,
                ..RandomLogicConfig::default()
            },
        )
        .expect("valid random_logic config");
        let text = verilog::write_with_lib(&n, &lib);
        let back = verilog::parse(&text, &lib).unwrap();
        assert_eq!(n.num_instances(), back.num_instances());
        let eq = check_equivalence(&n, &back, &lib, 16, seed).unwrap();
        assert!(
            eq.is_equivalent(),
            "seed {seed}: {:?}",
            eq.mismatches.first()
        );
    }
}

/// Subthreshold leakage is monotone in width and anti-monotone in Vth
/// and stack depth.
#[test]
fn leakage_model_monotonicity() {
    use selective_mt::base::units::Volt;
    let t = selective_mt::cells::Technology::industrial_130nm();
    let mut rng = SplitMix64::new(0x1EA);
    for _ in 0..64 {
        let w = 0.5 + rng.next_f64() * 49.5;
        let vth = 0.15 + rng.next_f64() * 0.35;
        let depth = 1 + rng.next_below(3) as u32;
        let base = t.subthreshold_leak(w, Volt::new(vth), depth);
        assert!(base.ua() > 0.0);
        assert!(t.subthreshold_leak(w * 2.0, Volt::new(vth), depth) > base);
        assert!(t.subthreshold_leak(w, Volt::new(vth + 0.05), depth) < base);
        assert!(t.subthreshold_leak(w, Volt::new(vth), depth + 1) < base);
    }
}

/// The resident `TimingState` the Dual-Vth probes keep across swaps is
/// bit-identical to a fresh analysis after every probe. One assertion
/// helper runs a table of cases over random swap schedules: single L↔H
/// swaps of logic cells and of flip-flops (whose `Q` nets must be
/// re-seeded), a cell swapped and swapped back between two probes,
/// drive swaps (which change pin caps, so the swapped cell's input nets
/// change load), and batches of up to hundreds of swaps per probe as the
/// bisection makes them. The cases cover derates of 1.0 and 1.3 on
/// low-Vth logic; one and three corner libraries; estimated parasitics
/// and extracted ones, whose per-sink Elmore delays move when a swap
/// shifts a sink's ordinal; netlists whose output-port nets also feed
/// logic, so their required times come from the backward pass; and a
/// library whose high-Vth cells time like their low-Vth twins, with
/// flip-flop derates of `-0.0` (low) and `+0.0` (high), so a swap only
/// flips the sign of a `Q` arrival, which `==` would miss. After every
/// probe, the state's WNS must equal a fresh analysis (a one-library
/// `TimingState` over a fresh cache, as `analyze` runs) and
/// `analyze_baseline` bit for bit at every corner, and the state's
/// report must equal the fresh analysis field for field.
#[test]
fn resident_timing_state_is_bit_identical_to_fresh_analysis() {
    use selective_mt::cells::cell::CellRole;
    use selective_mt::cells::corner::{CornerLibrary, CornerSet};
    use selective_mt::circuits::families::{generate, standard_suite, SuiteScale};
    use selective_mt::netlist::netlist::{InstId, Netlist, PortDir};
    use selective_mt::place::{place, PlacerConfig};
    use selective_mt::route::{route_global, Parasitics, RouteConfig};
    use selective_mt::sta::{
        analyze_baseline, Derating, StaConfig, TimingGraph, TimingReport, TimingState,
    };

    /// How the derating table follows each instance's cell.
    #[derive(Debug, Clone, Copy)]
    enum Derate {
        /// No table: every factor is 1.0.
        None,
        /// The Dual-Vth rule: this factor on low-Vth logic, 1.0 elsewhere.
        LowVthLogic(f64),
        /// Flip-flops at `-0.0` when low-Vth and `+0.0` when high-Vth,
        /// 1.0 elsewhere: their `Q` arrivals are signed zeros.
        SignedZeroFfs,
    }

    impl Derate {
        fn factor(self, lib: &Library, n: &Netlist, id: InstId) -> f64 {
            let cell = lib.cell(n.inst(id).cell);
            match self {
                Derate::None => 1.0,
                Derate::LowVthLogic(f) if cell.vth == VthClass::Low && cell.is_logic() => f,
                Derate::SignedZeroFfs if cell.is_sequential() => {
                    if cell.vth == VthClass::Low {
                        -0.0
                    } else {
                        0.0
                    }
                }
                _ => 1.0,
            }
        }

        fn table(self, lib: &Library, n: &Netlist) -> Derating {
            if let Derate::None = self {
                return Derating::none();
            }
            let mut d = Derating::uniform(n);
            for (id, _) in n.instances() {
                d.set(id, self.factor(lib, n, id));
            }
            d
        }
    }

    struct Case {
        name: &'static str,
        lib: Library,
        netlist: Netlist,
        extracted: bool,
        corners: bool,
        derate: Derate,
        seed: u64,
    }

    /// The other Vth flavour of a cell (L↔H).
    fn vth_twin(lib: &Library, cell: CellId) -> Option<CellId> {
        let want = match lib.cell(cell).vth {
            VthClass::Low => VthClass::High,
            _ => VthClass::Low,
        };
        lib.variant_id(cell, want)
    }

    /// The other drive of a logic cell (X1↔X2), same function and Vth.
    fn drive_twin(lib: &Library, cell: CellId) -> Option<CellId> {
        let c = lib.cell(cell);
        let drive = match c.drive {
            1 => 2,
            2 => 1,
            _ => return None,
        };
        let name = format!("{}_X{}_{}", c.kind.base_name(), drive, c.vth.suffix());
        lib.find_id(&name)
    }

    /// Per-net timing equal bit for bit; names the first net that is not.
    fn assert_bits(tag: &str, what: &str, a: &[Time], b: &[Time]) {
        assert_eq!(a.len(), b.len(), "{tag}: {what} length");
        let bits = |t: Time| t.ps().to_bits();
        if let Some(i) = (0..a.len()).find(|&i| bits(a[i]) != bits(b[i])) {
            panic!("{tag}: {what} of net {i}: {:?} vs {:?}", a[i], b[i]);
        }
    }

    fn assert_same_report(tag: &str, a: &TimingReport, b: &TimingReport) {
        assert_bits(tag, "arrival", &a.arrival, &b.arrival);
        assert_bits(tag, "min arrival", &a.arrival_min, &b.arrival_min);
        assert_bits(tag, "slew", &a.slew, &b.slew);
        assert_bits(tag, "required", &a.required, &b.required);
        assert_bits(tag, "wns", &[a.wns], &[b.wns]);
        assert_bits(tag, "tns", &[a.tns], &[b.tns]);
        assert_eq!(a.hold_violations, b.hold_violations, "{tag}: hold");
    }

    /// Runs 40 probes of the case's swap schedule on one resident state
    /// and checks each against fresh analyses.
    fn assert_probes_match(case: Case) {
        let Case {
            name,
            lib,
            netlist: mut n,
            extracted,
            corners,
            derate,
            seed,
        } = case;
        let lib = &lib;
        // Every case has an output-port net that also feeds logic.
        assert!(
            n.ports()
                .any(|(_, p)| p.dir == PortDir::Output && !n.net(p.net).loads.is_empty()),
            "{name}: an output-port net feeds logic"
        );
        let p = place(&n, lib, &PlacerConfig::default());
        let par = if extracted {
            let route = route_global(&n, lib, &p, &RouteConfig::default());
            Parasitics::extract(&n, lib, &p, &route)
        } else {
            Parasitics::estimate(&n, lib, &p)
        };
        let cfg = StaConfig::default();
        let corner_libs = CornerLibrary::build_set(lib, &CornerSet::slow_typ_fast());
        let libs: Vec<&Library> = if corners {
            corner_libs.iter().map(|c| &c.lib).collect()
        } else {
            vec![lib]
        };
        let logic: Vec<InstId> = n
            .instances()
            .filter(|(_, i)| lib.cell(i.cell).role == CellRole::Logic)
            .map(|(id, _)| id)
            .collect();
        let ffs: Vec<InstId> = n
            .instances()
            .filter(|(_, i)| lib.cell(i.cell).is_sequential())
            .map(|(id, _)| id)
            .collect();
        let swappable: Vec<InstId> = logic.iter().chain(&ffs).copied().collect();
        assert!(!ffs.is_empty(), "{name}: the swaps include flip-flops");

        let graph = TimingGraph::build(&n, lib).unwrap();
        let mut cache = graph.build_cache(&n);
        let mut der = derate.table(lib, &n);
        let mut state = TimingState::new(&graph, &cache, &n, &libs, &par, &cfg, &der);
        let mut rng = SplitMix64::new(seed);
        let mut last = swappable[0];
        for step in 0..40usize {
            // The swaps since the last probe, as (instance, drive swap).
            let kind = rng.next_below(5);
            let mut batch = Vec::new();
            match kind {
                0 => batch.push((swappable[rng.next_below(swappable.len())], false)),
                1 => batch.push((ffs[rng.next_below(ffs.len())], false)),
                2 => {
                    // Swapped and swapped back: the same cell again, but
                    // its pins now sit at the ends of their load lists.
                    let id = if rng.next_below(2) == 0 {
                        last
                    } else {
                        swappable[rng.next_below(swappable.len())]
                    };
                    batch.extend([(id, false), (id, false)]);
                }
                3 => batch.push((logic[rng.next_below(logic.len())], true)),
                _ => {
                    for _ in 0..1 + rng.next_below(swappable.len().min(300)) {
                        batch.push((swappable[rng.next_below(swappable.len())], false));
                    }
                }
            }
            last = batch[0].0;
            for &(id, drive) in &batch {
                let cell = n.inst(id).cell;
                let twin = if drive {
                    drive_twin(lib, cell)
                } else {
                    vth_twin(lib, cell)
                };
                let Some(target) = twin else {
                    continue;
                };
                n.replace_cell(id, target, lib).unwrap();
                if !matches!(derate, Derate::None) {
                    der.set(id, derate.factor(lib, &n, id));
                }
                state.mark_swap(&mut cache, &n, id);
            }

            state.update(&mut cache, &n, &der);
            let fresh_cache = graph.build_cache(&n);
            assert_eq!(cache, fresh_cache, "{name} step {step}: refreshed cache");
            for (k, corner_lib) in libs.iter().enumerate() {
                let tag = format!("{name} step {step} (kind {kind}) corner {k}");
                let one = [*corner_lib];
                let fresh = TimingState::new(&graph, &fresh_cache, &n, &one, &par, &cfg, &der)
                    .report(0, &fresh_cache, &n, &der);
                let baseline = analyze_baseline(&n, corner_lib, &par, &cfg, &der).unwrap();
                let wns = state.wns(k, &cache, &n, &der);
                assert_bits(&tag, "probe wns", &[wns], &[fresh.wns]);
                assert_bits(&tag, "probe wns (baseline)", &[wns], &[baseline.wns]);
                assert_same_report(&tag, &state.report(k, &cache, &n, &der), &fresh);
            }
        }
    }

    /// A random design whose outputs include internal nets that also
    /// feed logic: every `every`-th loaded net.
    fn tapped_random(lib: &Library, seed: u64, every: usize) -> Netlist {
        let mut n = random_logic(
            lib,
            &RandomLogicConfig {
                gates: 300,
                seed,
                ..RandomLogicConfig::default()
            },
        )
        .expect("valid random_logic config");
        let loaded: Vec<_> = n
            .nets()
            .filter(|(_, net)| net.driver.is_some() && !net.loads.is_empty())
            .map(|(id, _)| id)
            .collect();
        for (i, &net) in loaded.iter().step_by(every.max(1)).enumerate() {
            n.expose_output(&format!("tap{i}"), net);
        }
        n
    }

    /// The standard library with every high-Vth cell timed like its
    /// low-Vth twin: a Vth swap then changes no delay, slew or pin cap.
    fn twin_timed_lib() -> Library {
        let base = lib();
        let cells = base
            .cells()
            .iter()
            .map(|c| {
                let mut c = c.clone();
                if let Some(low) = base.variant_of(&c, VthClass::Low) {
                    c.arcs = low.arcs.clone();
                }
                c
            })
            .collect();
        Library::from_cells(base.tech.clone(), base.config.clone(), cells)
    }

    let base = lib();
    let fanout = standard_suite(SuiteScale::Smoke)
        .into_iter()
        .find(|w| w.name.starts_with("fanout"))
        .expect("the smoke suite has a fanout design");
    let fanout = generate(&base, &fanout.config).expect("suite configs are valid");
    // Four taps, so most endpoints stay flip-flops.
    let random = |case: u64| tapped_random(&base, 0x5747 + case, 80);
    let cases = [
        (
            "random, estimated, 1 corner",
            random(0),
            false,
            false,
            Derate::None,
        ),
        (
            "random, estimated, 3 corners, 1.3",
            random(1),
            false,
            true,
            Derate::LowVthLogic(1.3),
        ),
        (
            "random, extracted, 1 corner, 1.3",
            random(2),
            true,
            false,
            Derate::LowVthLogic(1.3),
        ),
        (
            "random, extracted, 3 corners",
            random(3),
            true,
            true,
            Derate::None,
        ),
        (
            // Every loaded net an output: the port slacks read the
            // required time of every net, so a stale one on the
            // critical path moves the WNS.
            "random, every net tapped, extracted, 3 corners, 1.3",
            tapped_random(&base, 0x5747, 1),
            true,
            true,
            Derate::LowVthLogic(1.3),
        ),
        (
            "fanout, extracted, 3 corners, 1.3",
            fanout.clone(),
            true,
            true,
            Derate::LowVthLogic(1.3),
        ),
        (
            "fanout, estimated, 1 corner",
            fanout,
            false,
            false,
            Derate::None,
        ),
    ];
    for (i, (name, netlist, extracted, corners, derate)) in cases.into_iter().enumerate() {
        assert_probes_match(Case {
            name,
            lib: lib(),
            netlist,
            extracted,
            corners,
            derate,
            seed: 0xC0DE + i as u64,
        });
    }
    let twin = twin_timed_lib();
    let netlist = tapped_random(&twin, 0x5A, 80);
    assert_probes_match(Case {
        name: "random, twin-timed Vth, signed-zero flip-flop derates",
        lib: twin,
        netlist,
        extracted: false,
        corners: false,
        derate: Derate::SignedZeroFfs,
        seed: 0x5A,
    });
}

/// The levelized `TimingGraph` kernel is bit-identical to the legacy
/// sequential propagation on randomized netlists — including after Vth
/// swaps (which reorder net load lists), with tombstoned instances, and
/// across `Netlist::compact`, on both estimated and default parasitics.
///
/// A resident graph and sink cache follow a random sequence of L↔H
/// swaps (flip-flops and repeated swaps of one cell included), as the
/// Dual-Vth probes keep them: after each swap the marked cache rows are
/// refreshed, and the cache must equal a fresh `build_cache` bit for
/// bit, a one-library `TimingState` over the resident graph and cache
/// must equal `analyze_baseline` with and without a low-Vth derate, and
/// the same-pin `replace_cell` must leave the netlist exactly as the
/// general by-name rebind does.
#[test]
fn timing_graph_analysis_is_bit_identical_to_legacy() {
    use selective_mt::cells::cell::{CellRole, PinDir};
    use selective_mt::netlist::netlist::{InstId, Netlist};
    use selective_mt::place::{place, PlacerConfig};
    use selective_mt::route::Parasitics;
    use selective_mt::sta::{
        analyze, analyze_baseline, Derating, StaConfig, TimingGraph, TimingReport, TimingState,
    };

    /// The general rebind of `replace_cell`, spelled out with public
    /// primitives: every connected pin disconnected in pin order, the
    /// cell swapped, then every pin reconnected by name in pin order.
    fn rebind_by_name(n: &mut Netlist, lib: &Library, id: InstId, new_cell: CellId) {
        let old = lib.cell(n.inst(id).cell);
        let bindings: Vec<(String, _)> = n
            .inst(id)
            .conns
            .iter()
            .enumerate()
            .filter_map(|(pin, conn)| conn.map(|net| (old.pins[pin].name.clone(), net)))
            .collect();
        for pin in 0..n.inst(id).conns.len() {
            n.disconnect(id, pin);
        }
        n.replace_cell(id, new_cell, lib).unwrap();
        for (name, net) in bindings {
            n.connect_by_name(id, &name, net, lib).unwrap();
        }
    }

    /// The Dual-Vth derating rule: `derate` on low-Vth logic.
    fn low_vth_derating(n: &Netlist, lib: &Library, derate: f64) -> Derating {
        let mut d = Derating::uniform(n);
        for (id, inst) in n.instances() {
            let cell = lib.cell(inst.cell);
            if cell.vth == VthClass::Low && cell.role == CellRole::Logic {
                d.set(id, derate);
            }
        }
        d
    }

    fn assert_same(seed: u64, tag: &str, a: &TimingReport, b: &TimingReport) {
        assert_eq!(a.arrival, b.arrival, "seed {seed} [{tag}]: arrival");
        assert_eq!(a.arrival_min, b.arrival_min, "seed {seed} [{tag}]: min");
        assert_eq!(a.slew, b.slew, "seed {seed} [{tag}]: slew");
        assert_eq!(a.required, b.required, "seed {seed} [{tag}]: required");
        assert_eq!(a.wns, b.wns, "seed {seed} [{tag}]: wns");
        assert_eq!(a.tns, b.tns, "seed {seed} [{tag}]: tns");
        assert_eq!(
            a.hold_violations, b.hold_violations,
            "seed {seed} [{tag}]: hold"
        );
    }

    let lib = lib();
    let mut rng = SplitMix64::new(0x71A1);
    for seed in 0u64..8 {
        let gates = 120 + rng.next_below(240);
        let mut n = random_logic(
            &lib,
            &RandomLogicConfig {
                gates,
                seed,
                ..RandomLogicConfig::default()
            },
        )
        .expect("valid random_logic config");
        let p = place(&n, &lib, &PlacerConfig::default());
        let par = Parasitics::estimate(&n, &lib, &p);
        let cfg = StaConfig::default();
        let der = Derating::none();

        let fresh = |n: &selective_mt::netlist::netlist::Netlist, tag: &str| {
            let new = analyze(n, &lib, &par, &cfg, &der).unwrap();
            let old = analyze_baseline(n, &lib, &par, &cfg, &der).unwrap();
            assert_same(seed, tag, &new, &old);
            new
        };
        fresh(&n, "fresh");

        // A resident graph and cache across random L<->H swaps, on a copy
        // so the sections below see the netlist as generated.
        let mut m = n.clone();
        let graph = TimingGraph::build(&m, &lib).unwrap();
        let mut cache = graph.build_cache(&m);
        let swappable: Vec<InstId> = m
            .instances()
            .filter(|(_, i)| {
                let cell = lib.cell(i.cell);
                cell.role == CellRole::Logic || cell.is_sequential()
            })
            .map(|(id, _)| id)
            .collect();
        assert!(
            swappable
                .iter()
                .any(|&id| lib.cell(m.inst(id).cell).is_sequential()),
            "seed {seed}: the swaps include flip-flops"
        );
        // Its own generator, so the netlists sampled above stay as they were.
        let mut swaps = SplitMix64::new(0x5AA9 ^ seed);
        let mut last = swappable[0];
        for step in 0..32usize {
            // One pick in four repeats the previous cell.
            let id = if swaps.next_below(4) == 0 {
                last
            } else {
                swappable[swaps.next_below(swappable.len())]
            };
            last = id;
            let cell = m.inst(id).cell;
            let want = if lib.cell(cell).vth == VthClass::Low {
                VthClass::High
            } else {
                VthClass::Low
            };
            let target = lib.variant_id(cell, want).unwrap();
            let mut general = m.clone();
            rebind_by_name(&mut general, &lib, id, target);
            m.replace_cell(id, target, &lib).unwrap();
            assert_eq!(
                m.fingerprint(),
                general.fingerprint(),
                "seed {seed} step {step}: same-pin swap vs general rebind"
            );
            let inst = m.inst(id);
            for (conn, dir) in inst.conns.iter().zip(&inst.pin_dirs) {
                if let (Some(net), PinDir::Input) = (conn, dir) {
                    cache.mark(*net);
                }
            }
            cache.refresh(&graph, &m);
            let rebuilt = graph.build_cache(&m);
            assert_eq!(cache, rebuilt, "seed {seed} step {step}: refreshed cache");
            for (net, _) in m.nets() {
                assert_eq!(
                    cache.static_load(net).ff().to_bits(),
                    rebuilt.static_load(net).ff().to_bits(),
                    "seed {seed} step {step}: static load of {net}"
                );
            }
            for derate in [1.0, 1.3] {
                let der = if derate > 1.0 {
                    low_vth_derating(&m, &lib, derate)
                } else {
                    Derating::none()
                };
                let libs = [&lib];
                let resident = TimingState::new(&graph, &cache, &m, &libs, &par, &cfg, &der)
                    .report(0, &cache, &m, &der);
                let old = analyze_baseline(&m, &lib, &par, &cfg, &der).unwrap();
                let tag = format!("swap {step}, derate {derate}");
                assert_same(seed, &tag, &resident, &old);
            }
        }

        // Vth swaps rebind pins, permuting load lists (and hence per-net
        // cap-sum order and sink ordinals).
        let logic: Vec<_> = n
            .instances()
            .filter(|(_, i)| lib.cell(i.cell).is_logic())
            .map(|(id, _)| id)
            .collect();
        for k in 0..24usize {
            let id = logic[(k * 31) % logic.len()];
            if let Some(v) = lib.variant_id(n.inst(id).cell, VthClass::High) {
                n.replace_cell(id, v, &lib).unwrap();
            }
        }
        fresh(&n, "after swaps");

        // Tombstones: drop a scattering of gates (their fanout loses its
        // driver; both implementations must skip dead slots identically).
        for k in 0..6usize {
            n.remove_instance(logic[(7 + k * 53) % logic.len()]);
        }
        let before_compact = fresh(&n, "with tombstones");

        // Compaction renumbers instances but leaves nets (and therefore
        // every net-indexed timing quantity) untouched.
        let map = n.compact();
        assert_eq!(n.inst_capacity(), n.num_instances());
        let after = fresh(&n, "compacted");
        assert_eq!(
            before_compact.arrival, after.arrival,
            "seed {seed}: compact"
        );
        assert_eq!(before_compact.wns, after.wns, "seed {seed}: compact wns");
        assert_eq!(
            before_compact.hold_violations.len(),
            after.hold_violations.len(),
            "seed {seed}: compact hold count"
        );
        // The map accounts for every slot: tombstones vanish, survivors
        // resolve to in-bounds dense ids.
        let live = (0..map.old_capacity())
            .filter_map(|i| map.new_id(selective_mt::netlist::netlist::InstId(i as u32)))
            .count();
        assert_eq!(live, n.num_instances(), "seed {seed}: compact map");
    }
}
