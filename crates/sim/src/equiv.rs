//! Word-parallel, cone-partitioned equivalence checking between two
//! netlists.
//!
//! The flow's verification step (last box of Fig. 4) compares the
//! original netlist and the transformed one on all primary outputs by
//! name, in *active* mode. Three layers make it fast without changing
//! what it observes:
//!
//! 1. **Fraiging fast path** ([`crate::fraig`]): both netlists are
//!    lowered into one shared AIG; outputs whose cones hash to the same
//!    node (or are swept equal and sequentially closed) are *proven*
//!    equivalent and never simulated. On the flow's own transforms
//!    (Vth swaps, buffer ECOs, holder insertion) this certifies almost
//!    everything structurally.
//! 2. **Cone partitioning**: the residue outputs are grouped by
//!    overlapping fan-in cones (walking combinational gates and FF `D`
//!    pins — never clocks), and the groups are checked concurrently on
//!    [`smt_base::par::parallel_map`] with scoped simulators that never
//!    touch out-of-cone or dead logic.
//! 3. **64-wide simulation** ([`crate::wordsim`]): each simulated cycle
//!    carries 64 independent stimulus lanes, so `cycles` clocked cycles
//!    compare `64 × cycles` vectors per output.
//!
//! Stimulus is a pure function of `(seed, input name, cycle)`
//! ([`stimulus_word`]), so the report is bit-identical regardless of
//! how the outputs were partitioned or how many workers ran — the
//! determinism contract the nightly ThreadSanitizer job pins via
//! [`EquivReport::digest`]. Simulation remains probabilistic rather
//! than a proof, but fraig-certified outputs are exact.

use crate::fraig;
use crate::sim::{Mode, Simulator, Value};
use crate::wordsim::{Word, WordSimulator};
use smt_base::par::parallel_map;
use smt_base::{Fnv64, SplitMix64};
use smt_cells::library::Library;
use smt_netlist::graph::{topo_order, CombinationalCycle};
use smt_netlist::netlist::{InstId, NetDriver, NetId, Netlist, PortDir};
use std::collections::{BTreeMap, BTreeSet};

/// How many divergences the checker keeps before giving up: enough
/// evidence for a bug report, applied consistently per cone and after
/// the merge.
pub const MISMATCH_CAP: usize = 16;

/// One observed divergence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Output port name.
    pub output: String,
    /// Cycle index at which the divergence appeared.
    pub cycle: usize,
    /// Stimulus lane (0..64) that diverged; lowest such lane when
    /// several did at once. Always 0 for the scalar checker.
    pub lane: usize,
    /// Value in the reference netlist.
    pub expected: Value,
    /// Value in the netlist under test.
    pub actual: Value,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "output `{}` diverged at cycle {} (lane {}): expected {}, got {}",
            self.output, self.cycle, self.lane, self.expected, self.actual
        )
    }
}

/// Result of an equivalence run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivReport {
    /// Clocked cycles actually simulated (the minimum across cones).
    /// Equals the requested cycle count unless the run was truncated,
    /// and is 0 when fraiging proved every output without simulating.
    pub cycles: usize,
    /// Outputs compared, proven or simulated.
    pub outputs_compared: usize,
    /// Outputs certified by the fraig fast path (skipped in simulation).
    pub outputs_proven: usize,
    /// Fan-in cone partitions the residue outputs were checked in.
    pub cones: usize,
    /// Stimulus vectors carried per simulated cycle (64 word-parallel,
    /// 1 scalar).
    pub lanes: usize,
    /// True when the mismatch cap cut the run or the merged list short:
    /// the mismatches shown are a prefix of the evidence, not all of it.
    pub truncated: bool,
    /// Divergences, sorted by (cycle, output, lane); empty = equivalent
    /// under this stimulus. At most one entry per output per cycle.
    pub mismatches: Vec<Mismatch>,
}

impl EquivReport {
    /// True when no mismatches were observed.
    pub fn is_equivalent(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Order-independent fingerprint of everything the checker decided.
    /// Two runs of the same check must produce the same digest at any
    /// worker count and over any cone partitioning.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_usize(self.cycles);
        h.write_usize(self.outputs_compared);
        h.write_usize(self.outputs_proven);
        h.write_usize(self.cones);
        h.write_usize(self.lanes);
        h.write_bool(self.truncated);
        h.write_usize(self.mismatches.len());
        for m in &self.mismatches {
            h.write_str(&m.output);
            h.write_usize(m.cycle);
            h.write_usize(m.lane);
            h.write_u8(value_code(m.expected));
            h.write_u8(value_code(m.actual));
        }
        h.finish()
    }
}

fn value_code(v: Value) -> u8 {
    match v {
        Value::Zero => 0,
        Value::One => 1,
        Value::X => 2,
    }
}

/// Errors from equivalence checking.
#[derive(Debug, Clone, PartialEq)]
pub enum EquivError {
    /// The two netlists have different input/output port name sets.
    PortMismatch(String),
    /// One of the netlists has a combinational cycle.
    Cycle(CombinationalCycle),
}

impl std::fmt::Display for EquivError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EquivError::PortMismatch(m) => write!(f, "port mismatch: {m}"),
            EquivError::Cycle(c) => write!(f, "{c}"),
        }
    }
}

impl std::error::Error for EquivError {}

/// Tuning knobs for [`check_equivalence_with`].
#[derive(Debug, Clone)]
pub struct EquivOptions {
    /// Clocked cycles to simulate (each carries 64 stimulus lanes).
    pub cycles: usize,
    /// Stimulus seed.
    pub seed: u64,
    /// Worker threads for cone-parallel checking; 0 = one per core.
    pub workers: usize,
    /// Run the AIG fraiging fast path before simulating.
    pub fraig: bool,
}

impl Default for EquivOptions {
    fn default() -> Self {
        EquivOptions {
            cycles: 64,
            seed: 1,
            workers: 0,
            fraig: true,
        }
    }
}

/// The deterministic stimulus contract: the 64 lane values driven onto
/// input `name` at clocked cycle `cycle`. A pure function of its
/// arguments — never of cone partitioning, worker count, or visit
/// order — which is what makes the parallel checker's report
/// bit-reproducible.
pub fn stimulus_word(seed: u64, name: &str, cycle: usize) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(seed);
    h.write_str(name);
    h.write_usize(cycle);
    SplitMix64::new(h.finish()).next_u64()
}

/// Name-paired port nets: `(name, reference net, dut net)`.
type PairedPorts = Vec<(String, NetId, NetId)>;

/// Pairs input and output ports by name, **bidirectionally**: a port
/// missing from the DUT and a port the DUT has but the reference does
/// not are both errors (an extra DUT output is unverified logic; an
/// extra DUT input is uncontrolled stimulus).
fn paired_ports(
    reference: &Netlist,
    dut: &Netlist,
) -> Result<(PairedPorts, PairedPorts), EquivError> {
    let collect = |n: &Netlist, dir: PortDir| -> Vec<(String, NetId)> {
        let mut v: Vec<(String, NetId)> = n
            .ports()
            .filter(|(_, p)| p.dir == dir && !p.is_clock)
            .map(|(_, p)| (p.name.clone(), p.net))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    };
    let mut paired = Vec::new();
    for (dir, word) in [(PortDir::Input, "input"), (PortDir::Output, "output")] {
        let refs = collect(reference, dir);
        let duts = collect(dut, dir);
        let ref_names: BTreeSet<&String> = refs.iter().map(|(n, _)| n).collect();
        let dut_names: BTreeSet<&String> = duts.iter().map(|(n, _)| n).collect();
        if let Some(missing) = ref_names.difference(&dut_names).next() {
            return Err(EquivError::PortMismatch(format!(
                "dut missing {word} `{missing}`"
            )));
        }
        if let Some(extra) = dut_names.difference(&ref_names).next() {
            return Err(EquivError::PortMismatch(format!(
                "dut has extra {word} `{extra}`"
            )));
        }
        let dut_net = |name: &str| duts.iter().find(|(n, _)| n == name).map(|(_, net)| *net);
        paired.push(
            refs.into_iter()
                .map(|(name, rn)| {
                    let dn = dut_net(&name).expect("name sets verified equal");
                    (name, rn, dn)
                })
                .collect::<Vec<_>>(),
        );
    }
    let outputs = paired.pop().expect("two directions");
    let inputs = paired.pop().expect("two directions");
    Ok((inputs, outputs))
}

/// One fan-in cone partition: output indices (into the paired outputs)
/// plus the instance scope each side's simulator is restricted to.
struct Cone {
    outputs: Vec<usize>,
    ref_scope: Vec<InstId>,
    dut_scope: Vec<InstId>,
}

/// Groups outputs whose fan-in cones overlap **in either netlist** into
/// shared partitions. Derived purely from netlist structure (the
/// closures are passed in precomputed), so the partitioning (and
/// therefore the stimulus each cone sees) is independent of worker
/// count and of the order of instances within each closure.
fn partition_cones(
    reference: &Netlist,
    dut: &Netlist,
    residue: &[usize],
    ref_cones: &[Vec<InstId>],
    dut_cones: &[Vec<InstId>],
) -> Vec<Cone> {
    // Union-find over residue slots.
    let mut parent: Vec<usize> = (0..residue.len()).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    for (cones, capacity) in [
        (ref_cones, reference.inst_capacity()),
        (dut_cones, dut.inst_capacity()),
    ] {
        let mut owner: Vec<Option<usize>> = vec![None; capacity];
        for (slot, cone) in cones.iter().enumerate() {
            for id in cone {
                match owner[id.index()] {
                    Some(first) => {
                        let (a, b) = (find(&mut parent, first), find(&mut parent, slot));
                        if a != b {
                            parent[b.max(a)] = b.min(a);
                        }
                    }
                    None => owner[id.index()] = Some(slot),
                }
            }
        }
    }

    let mut cones: Vec<Cone> = Vec::new();
    let mut root_cone: Vec<Option<usize>> = vec![None; residue.len()];
    for slot in 0..residue.len() {
        let root = find(&mut parent, slot);
        let cone_idx = *root_cone[root].get_or_insert_with(|| {
            cones.push(Cone {
                outputs: Vec::new(),
                ref_scope: Vec::new(),
                dut_scope: Vec::new(),
            });
            cones.len() - 1
        });
        let cone = &mut cones[cone_idx];
        cone.outputs.push(residue[slot]);
        cone.ref_scope.extend_from_slice(&ref_cones[slot]);
        cone.dut_scope.extend_from_slice(&dut_cones[slot]);
    }
    for cone in &mut cones {
        for scope in [&mut cone.ref_scope, &mut cone.dut_scope] {
            scope.sort_unstable();
            scope.dedup();
        }
    }
    cones
}

/// Per-cone simulation result.
#[derive(Debug, Clone)]
struct ConeRun {
    mismatches: Vec<Mismatch>,
    cycles_run: usize,
    truncated: bool,
}

/// Compares one cone's outputs at the current simulator state. Records
/// at most one divergence per output per cycle (`seen`), at most
/// [`MISMATCH_CAP`] total; returns false when the cap says stop.
#[allow(clippy::too_many_arguments)]
fn compare_cone(
    sim_ref: &WordSimulator,
    sim_dut: &WordSimulator,
    outputs: &[(String, NetId, NetId)],
    cone_outputs: &[usize],
    cycle: usize,
    seen: &mut [bool],
    mismatches: &mut Vec<Mismatch>,
    truncated: &mut bool,
) -> bool {
    for (k, &i) in cone_outputs.iter().enumerate() {
        if seen[k] {
            continue;
        }
        let (name, rn, dn) = &outputs[i];
        let expected = sim_ref.value(*rn);
        let actual = sim_dut.value(*dn);
        // Lanes where the reference is known (cold-start X is skipped)
        // but the DUT is X or disagrees.
        let bad = expected.known() & (actual.xs | ((expected.ones ^ actual.ones) & actual.known()));
        if bad == 0 {
            continue;
        }
        seen[k] = true;
        if mismatches.len() >= MISMATCH_CAP {
            *truncated = true;
            return false;
        }
        let lane = bad.trailing_zeros() as usize;
        mismatches.push(Mismatch {
            output: name.clone(),
            cycle,
            lane,
            expected: expected.get(lane),
            actual: actual.get(lane),
        });
    }
    true
}

/// Simulates one cone for up to `cycles` clocked cycles.
fn run_cone(
    reference: &Netlist,
    dut: &Netlist,
    lib: &Library,
    inputs: &[(String, NetId, NetId)],
    outputs: &[(String, NetId, NetId)],
    cone: &Cone,
    opts: &EquivOptions,
) -> ConeRun {
    let mut sim_ref = WordSimulator::with_scope(reference, lib, &cone.ref_scope)
        .expect("combinational cycles rejected before partitioning");
    let mut sim_dut = WordSimulator::with_scope(dut, lib, &cone.dut_scope)
        .expect("combinational cycles rejected before partitioning");
    sim_ref.set_mode(Mode::Active);
    sim_dut.set_mode(Mode::Active);

    let mut mismatches = Vec::new();
    let mut truncated = false;
    let mut cycles_run = 0;
    let mut seen = vec![false; cone.outputs.len()];
    for cycle in 0..opts.cycles {
        seen.iter_mut().for_each(|s| *s = false);
        for (name, rn, dn) in inputs {
            let w = Word::from_bits(stimulus_word(opts.seed, name, cycle));
            sim_ref.set_input(*rn, w);
            sim_dut.set_input(*dn, w);
        }
        sim_ref.propagate(reference, lib);
        sim_dut.propagate(dut, lib);
        let more = compare_cone(
            &sim_ref,
            &sim_dut,
            outputs,
            &cone.outputs,
            cycle,
            &mut seen,
            &mut mismatches,
            &mut truncated,
        );
        sim_ref.clock_edge(reference, lib);
        sim_dut.clock_edge(dut, lib);
        let more = more
            && compare_cone(
                &sim_ref,
                &sim_dut,
                outputs,
                &cone.outputs,
                cycle,
                &mut seen,
                &mut mismatches,
                &mut truncated,
            );
        cycles_run = cycle + 1;
        if !more {
            break;
        }
    }
    ConeRun {
        mismatches,
        cycles_run,
        truncated,
    }
}

/// Checks `dut` against `reference` with explicit [`EquivOptions`].
///
/// Output samples where the *reference* produces `X` (cold-start state)
/// are skipped; once the reference is known, any disagreement —
/// including `X` in the DUT — counts as a mismatch. The report's
/// `cycles` field is the number of cycles actually simulated, and
/// `truncated` says whether the mismatch cap cut anything short.
///
/// # Errors
///
/// [`EquivError::PortMismatch`] when the input/output name sets differ
/// in either direction; [`EquivError::Cycle`] when either netlist has
/// a combinational loop.
pub fn check_equivalence_with(
    reference: &Netlist,
    dut: &Netlist,
    lib: &Library,
    opts: &EquivOptions,
) -> Result<EquivReport, EquivError> {
    check(reference, dut, lib, opts, None)
}

/// Runs `cycles` random-stimulus clock cycles on both netlists and
/// compares primary outputs by name each cycle. Convenience wrapper
/// over [`check_equivalence_with`] with default options.
///
/// # Errors
///
/// See [`check_equivalence_with`].
pub fn check_equivalence(
    reference: &Netlist,
    dut: &Netlist,
    lib: &Library,
    cycles: usize,
    seed: u64,
) -> Result<EquivReport, EquivError> {
    check_equivalence_with(
        reference,
        dut,
        lib,
        &EquivOptions {
            cycles,
            seed,
            ..EquivOptions::default()
        },
    )
}

/// Verdict memo for [`check_equivalence_cached`]: the simulation results
/// of residue cones (the outputs fraig does not prove), keyed by each
/// cone's DUT content fingerprint.
///
/// A later check that partitions a cone with the same fingerprint
/// replays its stored result instead of simulating it. The memo holds
/// the cones of the last check only, and empties when the reference
/// netlist's [`Netlist::fingerprint`] or the options change. Reports
/// stay bit-identical to [`check_equivalence_with`]: cone stimulus is a
/// pure function of `(seed, input name, cycle)`, never of what else ran.
#[derive(Debug, Clone, Default)]
pub struct EquivCache {
    base_fp: Option<u64>,
    verdicts: BTreeMap<u64, ConeRun>,
    /// Outputs whose verdicts were replayed from the memo on the last
    /// call.
    pub last_outputs_inherited: usize,
    /// Residue cones actually simulated on the last call.
    pub last_cones_simulated: usize,
    /// Residue cones replayed from the memo on the last call.
    pub last_cones_inherited: usize,
}

impl EquivCache {
    /// An empty memo; the first call through it simulates every residue
    /// cone.
    pub fn new() -> Self {
        Self::default()
    }

    /// Each cone's run: replayed when the memo holds its fingerprint,
    /// simulated otherwise. Afterwards the memo holds exactly these
    /// cones.
    fn runs(
        &mut self,
        base_fp: u64,
        keys: &[u64],
        cones: &[Cone],
        workers: usize,
        run: impl Fn(&Cone) -> ConeRun + Sync,
    ) -> Vec<ConeRun> {
        if self.base_fp != Some(base_fp) {
            self.verdicts.clear();
            self.base_fp = Some(base_fp);
        }
        let misses: Vec<usize> = (0..cones.len())
            .filter(|&c| !self.verdicts.contains_key(&keys[c]))
            .collect();
        let mut fresh = parallel_map(&misses, workers, |&c| run(&cones[c])).into_iter();
        let mut inherited = 0;
        let runs: Vec<ConeRun> = keys
            .iter()
            .zip(cones)
            .map(|(key, cone)| match self.verdicts.get(key) {
                Some(memo) => {
                    inherited += cone.outputs.len();
                    memo.clone()
                }
                None => fresh.next().expect("one fresh run per miss"),
            })
            .collect();
        self.last_outputs_inherited = inherited;
        self.last_cones_simulated = misses.len();
        self.last_cones_inherited = cones.len() - misses.len();
        self.verdicts = keys.iter().copied().zip(runs.iter().cloned()).collect();
        runs
    }
}

/// Pins everything a memoized verdict depends on besides the DUT cone:
/// the reference netlist and the stimulus options.
fn memo_base_fp(reference: &Netlist, opts: &EquivOptions) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(reference.fingerprint());
    h.write_usize(opts.cycles);
    h.write_u64(opts.seed);
    h.write_bool(opts.fraig);
    h.finish()
}

/// Fingerprint of one cone's DUT side: its outputs (names and paired
/// nets), every scope instance's structure, and the driver of every net
/// the scope touches (port drivers by *name*, because stimulus binds by
/// name). Two cones with equal fingerprints under the same
/// [`memo_base_fp`] compute the same functions on the same stimulus.
fn cone_fp(dut: &Netlist, outputs: &PairedPorts, cone: &Cone) -> u64 {
    let mut h = Fnv64::new();
    h.write_usize(cone.outputs.len());
    for &i in &cone.outputs {
        let (name, rn, dn) = &outputs[i];
        h.write_str(name);
        h.write_u64(u64::from(rn.0));
        h.write_u64(u64::from(dn.0));
    }
    h.write_usize(cone.dut_scope.len());
    let mut nets: Vec<NetId> = cone.outputs.iter().map(|&i| outputs[i].2).collect();
    for &id in &cone.dut_scope {
        let inst = dut.inst(id);
        h.write_u64(u64::from(id.0));
        h.write_str(&inst.name);
        h.write_usize(inst.cell.0 as usize);
        h.write_usize(inst.conns.len());
        for conn in &inst.conns {
            h.write_u64(conn.map_or(u64::MAX, |n| u64::from(n.0)));
        }
        nets.extend(inst.conns.iter().flatten());
    }
    nets.sort_unstable();
    nets.dedup();
    h.write_usize(nets.len());
    for nid in nets {
        h.write_u64(u64::from(nid.0));
        match dut.net(nid).driver {
            None => h.write_u8(0),
            Some(NetDriver::Inst(pr)) => {
                h.write_u8(1);
                h.write_u64(u64::from(pr.inst.0));
                h.write_usize(pr.pin);
            }
            Some(NetDriver::Port(p)) => {
                h.write_u8(2);
                h.write_str(&dut.port(p).name);
            }
        }
    }
    h.finish()
}

/// [`check_equivalence_with`] through a verdict memo: fraig proves what
/// it can, and each residue cone whose DUT fingerprint the memo holds
/// replays its stored result instead of simulating. On an empty memo
/// this *is* the uncached checker; on a warm one the report — including
/// its [`EquivReport::digest`] — is bit-identical to running
/// [`check_equivalence_with`] from scratch on the same pair.
///
/// # Errors
///
/// See [`check_equivalence_with`].
pub fn check_equivalence_cached(
    reference: &Netlist,
    dut: &Netlist,
    lib: &Library,
    opts: &EquivOptions,
    cache: &mut EquivCache,
) -> Result<EquivReport, EquivError> {
    check(reference, dut, lib, opts, Some(cache))
}

/// The one checker body behind [`check_equivalence_with`] and
/// [`check_equivalence_cached`].
fn check(
    reference: &Netlist,
    dut: &Netlist,
    lib: &Library,
    opts: &EquivOptions,
    cache: Option<&mut EquivCache>,
) -> Result<EquivReport, EquivError> {
    let (inputs, outputs) = paired_ports(reference, dut)?;
    topo_order(reference, lib).map_err(EquivError::Cycle)?;
    topo_order(dut, lib).map_err(EquivError::Cycle)?;

    // Structural fast path: certified outputs skip simulation entirely.
    let proven = if opts.fraig {
        let names: Vec<String> = outputs.iter().map(|(n, _, _)| n.clone()).collect();
        fraig::prove_equivalent_outputs(reference, dut, lib, &names, opts.seed).proven
    } else {
        BTreeSet::new()
    };
    let residue: Vec<usize> = (0..outputs.len())
        .filter(|&i| !proven.contains(&outputs[i].0))
        .collect();

    let ref_cones: Vec<Vec<InstId>> = residue
        .iter()
        .map(|&i| fraig::dependency_closure(reference, lib, &[outputs[i].1]))
        .collect();
    let dut_cones: Vec<Vec<InstId>> = residue
        .iter()
        .map(|&i| fraig::dependency_closure(dut, lib, &[outputs[i].2]))
        .collect();
    let cones = partition_cones(reference, dut, &residue, &ref_cones, &dut_cones);
    let run = |cone: &Cone| run_cone(reference, dut, lib, &inputs, &outputs, cone, opts);
    let runs: Vec<ConeRun> = match cache {
        None => parallel_map(&cones, opts.workers, run),
        Some(cache) => {
            let keys: Vec<u64> = cones.iter().map(|c| cone_fp(dut, &outputs, c)).collect();
            let base_fp = memo_base_fp(reference, opts);
            cache.runs(base_fp, &keys, &cones, opts.workers, run)
        }
    };

    let mut mismatches: Vec<Mismatch> = runs.iter().flat_map(|r| r.mismatches.clone()).collect();
    mismatches.sort_by(|a, b| (a.cycle, &a.output, a.lane).cmp(&(b.cycle, &b.output, b.lane)));
    let mut truncated = runs.iter().any(|r| r.truncated);
    if mismatches.len() > MISMATCH_CAP {
        mismatches.truncate(MISMATCH_CAP);
        truncated = true;
    }
    let cycles = runs.iter().map(|r| r.cycles_run).min().unwrap_or(0);
    Ok(EquivReport {
        cycles,
        outputs_compared: outputs.len(),
        outputs_proven: proven.len(),
        cones: cones.len(),
        lanes: 64,
        truncated,
        mismatches,
    })
}

/// The one-vector-per-cycle scalar checker: the pre-word-parallel
/// engine, kept as the benchmark baseline and differential oracle. Its
/// single vector at each cycle is lane 0 of [`stimulus_word`], so any
/// divergence it can see, the word-parallel checker sees in lane 0.
///
/// # Errors
///
/// See [`check_equivalence_with`].
pub fn check_equivalence_scalar(
    reference: &Netlist,
    dut: &Netlist,
    lib: &Library,
    cycles: usize,
    seed: u64,
) -> Result<EquivReport, EquivError> {
    let (inputs, outputs) = paired_ports(reference, dut)?;
    let mut sim_ref = Simulator::new(reference, lib).map_err(EquivError::Cycle)?;
    let mut sim_dut = Simulator::new(dut, lib).map_err(EquivError::Cycle)?;
    sim_ref.set_mode(Mode::Active);
    sim_dut.set_mode(Mode::Active);

    let mut mismatches: Vec<Mismatch> = Vec::new();
    let mut truncated = false;
    let mut cycles_run = 0;
    let mut seen = vec![false; outputs.len()];
    'cycles: for cycle in 0..cycles {
        seen.iter_mut().for_each(|s| *s = false);
        for (name, rn, dn) in &inputs {
            let v = Value::from_bool(stimulus_word(seed, name, cycle) & 1 == 1);
            sim_ref.set_input(*rn, v);
            sim_dut.set_input(*dn, v);
        }
        cycles_run = cycle + 1;
        for phase in 0..2 {
            if phase == 0 {
                sim_ref.propagate(reference, lib);
                sim_dut.propagate(dut, lib);
            } else {
                sim_ref.clock_edge(reference, lib);
                sim_dut.clock_edge(dut, lib);
            }
            for (i, (name, rn, dn)) in outputs.iter().enumerate() {
                if seen[i] {
                    continue;
                }
                let expected = sim_ref.value(*rn);
                if expected == Value::X {
                    continue;
                }
                let actual = sim_dut.value(*dn);
                if actual == expected {
                    continue;
                }
                seen[i] = true;
                if mismatches.len() >= MISMATCH_CAP {
                    truncated = true;
                    break 'cycles;
                }
                mismatches.push(Mismatch {
                    output: name.clone(),
                    cycle,
                    lane: 0,
                    expected,
                    actual,
                });
            }
        }
    }
    mismatches.sort_by(|a, b| (a.cycle, &a.output, a.lane).cmp(&(b.cycle, &b.output, b.lane)));
    Ok(EquivReport {
        cycles: cycles_run,
        outputs_compared: outputs.len(),
        outputs_proven: 0,
        cones: 1,
        lanes: 1,
        truncated,
        mismatches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_cells::cell::VthClass;

    fn lib() -> Library {
        Library::industrial_130nm()
    }

    fn xor_pair(lib: &Library, cell: &str) -> Netlist {
        let mut n = Netlist::new("x");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let z = n.add_output("z");
        let u = n.add_instance("u", lib.find_id(cell).unwrap(), lib);
        n.connect_by_name(u, "A", a, lib).unwrap();
        n.connect_by_name(u, "B", b, lib).unwrap();
        n.connect_by_name(u, "Z", z, lib).unwrap();
        n
    }

    #[test]
    fn vth_swap_is_equivalent() {
        let lib = lib();
        let a = xor_pair(&lib, "XOR2_X1_L");
        let b = xor_pair(&lib, "XOR2_X1_MV");
        let r = check_equivalence(&a, &b, &lib, 64, 7).unwrap();
        assert!(r.is_equivalent(), "{:?}", r.mismatches.first());
        assert_eq!(r.outputs_compared, 1);
        // The Vth swap is caught by the structural fast path.
        assert_eq!(r.outputs_proven, 1);
        assert_eq!(r.cycles, 0, "nothing left to simulate");
    }

    #[test]
    fn wrong_function_detected() {
        let lib = lib();
        let a = xor_pair(&lib, "XOR2_X1_L");
        let b = xor_pair(&lib, "XNR2_X1_L");
        let r = check_equivalence(&a, &b, &lib, 64, 7).unwrap();
        assert!(!r.is_equivalent());
        assert_eq!(r.outputs_proven, 0);
        let m = &r.mismatches[0];
        assert_eq!(m.output, "z");
        assert_eq!(m.cycle, 0, "an always-wrong gate diverges immediately");
        assert!(m.to_string().contains("diverged"));
    }

    #[test]
    fn port_mismatch_is_error() {
        let lib = lib();
        let a = xor_pair(&lib, "XOR2_X1_L");
        let mut b = Netlist::new("other");
        b.add_input("a");
        let e = check_equivalence(&a, &b, &lib, 4, 1).unwrap_err();
        assert!(matches!(e, EquivError::PortMismatch(_)));
    }

    #[test]
    fn extra_dut_ports_are_errors_too() {
        let lib = lib();
        let a = xor_pair(&lib, "XOR2_X1_L");
        // Same gate, but the DUT grew an extra input port.
        let mut b = xor_pair(&lib, "XOR2_X1_L");
        b.add_input("stowaway");
        let e = check_equivalence(&a, &b, &lib, 4, 1).unwrap_err();
        let EquivError::PortMismatch(msg) = e else {
            panic!("expected port mismatch");
        };
        assert!(msg.contains("extra input `stowaway`"), "{msg}");
        // And an extra output: unverified logic must not pass silently.
        let mut c = xor_pair(&lib, "XOR2_X1_L");
        c.add_output("debug_tap");
        let e = check_equivalence(&a, &c, &lib, 4, 1).unwrap_err();
        let EquivError::PortMismatch(msg) = e else {
            panic!("expected port mismatch");
        };
        assert!(msg.contains("extra output `debug_tap`"), "{msg}");
    }

    #[test]
    fn sequential_equivalence_after_replacement() {
        // FF + logic; replace logic Vth and re-check through clock cycles.
        let lib = lib();
        let build = |vth: VthClass| {
            let mut n = Netlist::new("seq");
            let a = n.add_input("a");
            let clk = n.add_clock("clk");
            let z = n.add_output("z");
            let w = n.add_net("w");
            let q = n.add_net("q");
            let g = n.add_instance(
                "g",
                lib.find_id(&format!("ND2_X1_{}", vth.suffix())).unwrap(),
                &lib,
            );
            let ff = n.add_instance("ff", lib.find_id("DFF_X1_L").unwrap(), &lib);
            let inv = n.add_instance("inv", lib.find_id("INV_X1_L").unwrap(), &lib);
            n.connect_by_name(g, "A", a, &lib).unwrap();
            n.connect_by_name(g, "B", q, &lib).unwrap();
            n.connect_by_name(g, "Z", w, &lib).unwrap();
            n.connect_by_name(ff, "D", w, &lib).unwrap();
            n.connect_by_name(ff, "CK", clk, &lib).unwrap();
            n.connect_by_name(ff, "Q", q, &lib).unwrap();
            n.connect_by_name(inv, "A", q, &lib).unwrap();
            n.connect_by_name(inv, "Z", z, &lib).unwrap();
            n
        };
        let a = build(VthClass::Low);
        let b = build(VthClass::MtVgnd);
        let r = check_equivalence(&a, &b, &lib, 128, 99).unwrap();
        assert!(r.is_equivalent(), "{:?}", r.mismatches.first());
    }

    /// A bank of independent single-gate outputs, `wrong` of which use
    /// the complemented function.
    fn gate_bank(lib: &Library, total: usize, wrong: usize) -> (Netlist, Netlist) {
        let build = |flipped: usize| {
            let mut n = Netlist::new("bank");
            for i in 0..total {
                let a = n.add_input(&format!("a{i}"));
                let z = n.add_output(&format!("z{i}"));
                let cell = if i < flipped { "BUF_X1_L" } else { "INV_X1_L" };
                let u = n.add_instance(&format!("u{i}"), lib.find_id(cell).unwrap(), lib);
                n.connect_by_name(u, "A", a, lib).unwrap();
                n.connect_by_name(u, "Z", z, lib).unwrap();
            }
            n
        };
        (build(0), build(wrong))
    }

    #[test]
    fn truncation_reports_cycles_actually_run() {
        let lib = lib();
        // 20 always-diverging outputs overflow the 16-mismatch cap in
        // the very first cycle: the report must say so instead of
        // claiming all 48 requested cycles were checked.
        let (a, b) = gate_bank(&lib, 20, 20);
        let r = check_equivalence(&a, &b, &lib, 48, 3).unwrap();
        assert!(r.truncated);
        assert!(r.mismatches.len() <= MISMATCH_CAP);
        assert!(r.cycles < 48, "cap stopped the run at cycle {}", r.cycles);
        // No truncation: full cycle count, flag clear.
        let (a, b) = gate_bank(&lib, 4, 0);
        let r = check_equivalence(&a, &b, &lib, 48, 3).unwrap();
        assert!(!r.truncated);
        assert_eq!(r.cycles, 0, "equal banks are fully fraig-proven");
        let r = check_equivalence_with(
            &a,
            &b,
            &lib,
            &EquivOptions {
                cycles: 48,
                seed: 3,
                fraig: false,
                ..EquivOptions::default()
            },
        )
        .unwrap();
        assert!(!r.truncated);
        assert_eq!(r.cycles, 48);
    }

    #[test]
    fn one_mismatch_per_output_per_cycle() {
        let lib = lib();
        // One wrong output diverging every cycle, compared twice per
        // cycle (after propagate and after the edge): exactly one entry
        // per cycle may be recorded.
        let (a, b) = gate_bank(&lib, 2, 1);
        let r = check_equivalence(&a, &b, &lib, 8, 11).unwrap();
        assert!(!r.is_equivalent());
        for c in 0..r.cycles {
            let per_cycle = r
                .mismatches
                .iter()
                .filter(|m| m.cycle == c && m.output == "z0")
                .count();
            assert!(per_cycle <= 1, "cycle {c} recorded {per_cycle} entries");
        }
    }

    #[test]
    fn report_is_worker_count_invariant() {
        let lib = lib();
        let (a, b) = gate_bank(&lib, 12, 5);
        let mut digests = BTreeSet::new();
        for workers in [1, 2, 4, 8] {
            let r = check_equivalence_with(
                &a,
                &b,
                &lib,
                &EquivOptions {
                    cycles: 24,
                    seed: 17,
                    workers,
                    ..EquivOptions::default()
                },
            )
            .unwrap();
            digests.insert(r.digest());
        }
        assert_eq!(digests.len(), 1, "digest must not depend on workers");
    }

    #[test]
    fn scalar_and_word_checkers_agree_on_the_verdict() {
        let lib = lib();
        for (total, wrong) in [(3, 0), (3, 1), (6, 2)] {
            let (a, b) = gate_bank(&lib, total, wrong);
            let opts = EquivOptions {
                cycles: 32,
                seed: 23,
                fraig: false,
                ..EquivOptions::default()
            };
            let word = check_equivalence_with(&a, &b, &lib, &opts).unwrap();
            let scalar = check_equivalence_scalar(&a, &b, &lib, 32, 23).unwrap();
            assert_eq!(word.is_equivalent(), scalar.is_equivalent());
            // Whatever the scalar engine saw is the word engine's lane 0.
            for m in &scalar.mismatches {
                assert!(
                    word.mismatches
                        .iter()
                        .any(|w| w.output == m.output && w.cycle == m.cycle),
                    "scalar mismatch {m} missing from word report"
                );
            }
        }
    }

    #[test]
    fn cached_checker_is_bit_identical_and_scopes_the_recheck() {
        let lib = lib();
        // 8 independent gates, 2 functionally wrong: with fraig off,
        // every output is a residue cone of its own.
        let (a, mut b) = gate_bank(&lib, 8, 2);
        let opts = EquivOptions {
            cycles: 24,
            seed: 17,
            fraig: false,
            ..EquivOptions::default()
        };
        let mut cache = EquivCache::new();
        let cold = check_equivalence_with(&a, &b, &lib, &opts).unwrap();
        let cached = check_equivalence_cached(&a, &b, &lib, &opts, &mut cache).unwrap();
        assert_eq!(cold.digest(), cached.digest(), "cold cache = uncached");
        assert_eq!(cache.last_cones_simulated, 8);

        // Equivalent drive swap on one untouched-function gate: only
        // its cone is re-simulated, everything else inherits.
        let u5 = b.find_inst("u5").unwrap();
        b.replace_cell(u5, lib.find_id("INV_X2_L").unwrap(), &lib)
            .unwrap();
        let scratch = check_equivalence_with(&a, &b, &lib, &opts).unwrap();
        let warm = check_equivalence_cached(&a, &b, &lib, &opts, &mut cache).unwrap();
        assert_eq!(scratch.digest(), warm.digest(), "warm cache = uncached");
        assert_eq!(cache.last_outputs_inherited, 7);
        assert_eq!(cache.last_cones_simulated, 1);
        assert_eq!(cache.last_cones_inherited, 7);

        // A *wrong* swap through the warm cache is still caught, with
        // the same report a from-scratch run produces.
        let u6 = b.find_inst("u6").unwrap();
        b.replace_cell(u6, lib.find_id("BUF_X1_L").unwrap(), &lib)
            .unwrap();
        let scratch = check_equivalence_with(&a, &b, &lib, &opts).unwrap();
        let warm = check_equivalence_cached(&a, &b, &lib, &opts, &mut cache).unwrap();
        assert!(!warm.is_equivalent());
        assert_eq!(scratch.digest(), warm.digest());
        assert!(warm.mismatches.iter().any(|m| m.output == "z6"));
    }

    #[test]
    fn cached_checker_memoizes_only_residue_cones() {
        let lib = lib();
        // 6 gates, 1 functionally wrong: fraig proves five outputs, and
        // only the wrong one's cone is simulated and memoized.
        let (a, mut b) = gate_bank(&lib, 6, 1);
        let opts = EquivOptions {
            cycles: 24,
            seed: 5,
            ..EquivOptions::default() // fraig on
        };
        let mut cache = EquivCache::new();
        let cold = check_equivalence_cached(&a, &b, &lib, &opts, &mut cache).unwrap();
        assert_eq!(cold.outputs_proven, 5);
        assert_eq!(cache.last_cones_simulated, 1);

        // Vth-style swap on a proven output: fraig re-proves it, and the
        // wrong output's unchanged cone replays from the memo.
        let u2 = b.find_inst("u2").unwrap();
        b.replace_cell(u2, lib.find_id("INV_X1_H").unwrap(), &lib)
            .unwrap();
        let scratch = check_equivalence_with(&a, &b, &lib, &opts).unwrap();
        let warm = check_equivalence_cached(&a, &b, &lib, &opts, &mut cache).unwrap();
        assert_eq!(scratch.digest(), warm.digest());
        assert_eq!(warm.outputs_proven, 5);
        assert_eq!(cache.last_outputs_inherited, 1);
        assert_eq!(cache.last_cones_simulated, 0);
        assert_eq!(cache.last_cones_inherited, 1);

        // A new reference empties the memo: the same DUT cones now face
        // different logic and must be simulated again.
        let no_fraig = EquivOptions {
            fraig: false,
            ..opts
        };
        check_equivalence_cached(&a, &b, &lib, &no_fraig, &mut cache).unwrap();
        let scratch = check_equivalence_with(&b, &b, &lib, &no_fraig).unwrap();
        let rerun = check_equivalence_cached(&b, &b, &lib, &no_fraig, &mut cache).unwrap();
        assert!(rerun.is_equivalent());
        assert_eq!(scratch.digest(), rerun.digest());
        assert_eq!(cache.last_cones_inherited, 0);
    }

    #[test]
    fn dut_x_where_reference_known_is_a_mismatch() {
        let lib = lib();
        let build = |drive: bool| {
            let mut n = Netlist::new("t");
            let a = n.add_input("a");
            let z = n.add_output("z");
            let u = n.add_instance("u", lib.find_id("BUF_X1_L").unwrap(), &lib);
            if drive {
                n.connect_by_name(u, "A", a, &lib).unwrap();
            }
            n.connect_by_name(u, "Z", z, &lib).unwrap();
            n
        };
        let driven = build(true);
        let floating = build(false); // unconnected input pin -> X output
                                     // Reference known, DUT X: caught.
        let r = check_equivalence(&driven, &floating, &lib, 8, 5).unwrap();
        assert!(!r.is_equivalent());
        assert_eq!(r.mismatches[0].actual, Value::X);
        // Reference X: those samples are skipped, not mismatches.
        let r = check_equivalence(&floating, &driven, &lib, 8, 5).unwrap();
        assert!(r.is_equivalent(), "{:?}", r.mismatches.first());
    }
}
