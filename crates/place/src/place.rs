//! Global placement (parallel recursive min-cut), row legalization, and
//! region-windowed simulated-annealing refinement, behind the
//! incremental [`Placer`] session type.
//!
//! The placer is organised like the timing kernel: one expensive full
//! construction ([`Placer::new`]), then cheap incremental maintenance
//! ([`Placer::replace_cell`] re-legalizes only the touched row window,
//! [`Placer::apply`] re-indexes after a netlist compaction). The free
//! function [`place`] remains as a thin one-shot wrapper.
//!
//! Parallelism runs on the shared `smt_base::par::parallel_map` pool in
//! two places — the independent sub-regions of each recursive-bisection
//! level, and the disjoint annealing windows — and is deterministic for
//! a fixed seed at *any* thread count: every region and window carries
//! its own seed, workers never share mutable state, and results are
//! committed in item order.
//!
//! Annealing prices each swap on cached net bounding boxes. Every window
//! builds one flat table of the nets its members touch (each net's
//! instance slots in CSR order, plus the fixed box of its port pins) and
//! keeps each net's box and HPWL across swaps, so a swap costs the nets
//! of its two cells rather than their pins; only a net whose box edge the
//! moved cell sat on is rescanned. Placements are bit-identical to a loop
//! that recomputes every touched net's HPWL from the placement on every
//! swap, which the tests keep as the oracle `reference_anneal_one`.

use crate::fm::{bipartition, FmConfig, Hypergraph};
use smt_base::geom::{Point, Rect};
use smt_base::par::parallel_map;
use smt_base::rng::SplitMix64;
use smt_cells::library::Library;
use smt_netlist::netlist::{CompactMap, InstId, NetDriver, NetId, Netlist, PortDir};
use std::sync::atomic::{AtomicU64, Ordering};

/// Placer options.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacerConfig {
    /// Target row utilization (fraction of row sites occupied).
    pub utilization: f64,
    /// Stop recursive bisection at regions of this many cells.
    pub min_partition: usize,
    /// Simulated-annealing moves per cell (0 disables refinement).
    pub anneal_moves_per_cell: usize,
    /// RNG seed (placement is deterministic for a fixed seed).
    pub seed: u64,
    /// Target cells per annealing window. Designs larger than one
    /// window anneal as a grid of independent windows in parallel;
    /// smaller designs keep the single global annealing chain.
    pub anneal_window: usize,
}

impl Default for PlacerConfig {
    fn default() -> Self {
        PlacerConfig {
            utilization: 0.70,
            min_partition: 12,
            anneal_moves_per_cell: 40,
            seed: 42,
            anneal_window: 512,
        }
    }
}

/// Why a [`PlacerConfig`] cannot produce a placement.
#[derive(Debug, Clone, PartialEq)]
pub enum PlaceError {
    /// Utilization must be a finite fraction in `(0, 1]`; zero (or
    /// negative, or NaN) utilization asks for an infinite die.
    BadUtilization {
        /// The rejected value.
        value: f64,
    },
    /// `min_partition` of zero never terminates the bisection.
    ZeroPartition,
    /// `anneal_window` of zero cannot hold any cell.
    ZeroWindow,
}

impl std::fmt::Display for PlaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlaceError::BadUtilization { value } => {
                write!(f, "placer utilization must be in (0, 1], got {value}")
            }
            PlaceError::ZeroPartition => {
                f.write_str("placer min_partition must be at least 1 cell")
            }
            PlaceError::ZeroWindow => f.write_str("placer anneal_window must be at least 1 cell"),
        }
    }
}

impl std::error::Error for PlaceError {}

impl PlacerConfig {
    /// Checks the config invariants (mirrors `FamilyConfig::validate` in
    /// `smt-circuits`): degenerate values error here instead of hanging
    /// the bisection or exploding the floorplan.
    ///
    /// # Errors
    ///
    /// [`PlaceError`] naming the offending knob.
    pub fn validate(&self) -> Result<(), PlaceError> {
        if !(self.utilization.is_finite() && self.utilization > 0.0 && self.utilization <= 1.0) {
            return Err(PlaceError::BadUtilization {
                value: self.utilization,
            });
        }
        if self.min_partition == 0 {
            return Err(PlaceError::ZeroPartition);
        }
        if self.anneal_window == 0 {
            return Err(PlaceError::ZeroWindow);
        }
        Ok(())
    }
}

/// Lifetime count of *full* placements performed by this process
/// ([`Placer::new`] / [`place`]; incremental updates do not count).
/// Lets tests assert that warm paths — what-if forks of a placed
/// checkpoint — really stopped re-placing.
pub fn full_place_runs() -> u64 {
    FULL_PLACE_RUNS.load(Ordering::Relaxed)
}

static FULL_PLACE_RUNS: AtomicU64 = AtomicU64::new(0);

/// A legalized placement: instance locations on rows plus port locations
/// on the die boundary.
#[derive(Debug)]
pub struct Placement {
    /// Location of each instance slot (tombstoned slots keep their last
    /// position; nobody queries them).
    pub locs: Vec<Point>,
    /// Location of each port, on the die edge.
    pub port_locs: Vec<Point>,
    /// Die outline.
    pub die: Rect,
    /// Row y-coordinates.
    pub row_ys: Vec<f64>,
    /// Whether each slot was ever deliberately placed (initial placement
    /// or [`Placement::set_loc`]). Parallel to `locs`.
    placed: Vec<bool>,
    /// Times [`Placement::loc`] fell back to the die centre for a
    /// never-placed instance — a flow stage created a cell and forgot to
    /// place it.
    fallback_hits: AtomicU64,
}

impl Clone for Placement {
    fn clone(&self) -> Self {
        Placement {
            locs: self.locs.clone(),
            port_locs: self.port_locs.clone(),
            die: self.die,
            row_ys: self.row_ys.clone(),
            placed: self.placed.clone(),
            fallback_hits: AtomicU64::new(self.fallback_hits.load(Ordering::Relaxed)),
        }
    }
}

impl Placement {
    /// Assembles a placement from already-legal parts (the DEF reader,
    /// hand-built test fixtures). Every slot in `locs` counts as
    /// deliberately placed.
    pub fn from_parts(
        locs: Vec<Point>,
        port_locs: Vec<Point>,
        die: Rect,
        row_ys: Vec<f64>,
    ) -> Self {
        let placed = vec![true; locs.len()];
        Placement {
            locs,
            port_locs,
            die,
            row_ys,
            placed,
            fallback_hits: AtomicU64::new(0),
        }
    }

    /// Location of an instance. Instances created after placement that
    /// were never given a location via [`Placement::set_loc`] read as the
    /// die centre (flow stages place the cells they create; the fallback
    /// keeps estimation robust while they do) — every such read is
    /// counted in [`Placement::fallback_hits`]. Use
    /// [`Placement::try_loc`] where an unplaced cell should be an error
    /// instead of a silent default.
    pub fn loc(&self, inst: InstId) -> Point {
        match self.try_loc(inst) {
            Some(p) => p,
            None => {
                self.fallback_hits.fetch_add(1, Ordering::Relaxed);
                self.die.center()
            }
        }
    }

    /// Location of an instance, or `None` when it was never placed.
    pub fn try_loc(&self, inst: InstId) -> Option<Point> {
        let i = inst.index();
        if *self.placed.get(i)? {
            self.locs.get(i).copied()
        } else {
            None
        }
    }

    /// Times [`Placement::loc`] silently defaulted to the die centre.
    /// A non-zero count after a flow means some stage created cells
    /// without placing them.
    pub fn fallback_hits(&self) -> u64 {
        self.fallback_hits.load(Ordering::Relaxed)
    }

    /// Records (or overrides) the location of an instance — used by the
    /// later flow stages (CTS buffers, switches, holders, ECO cells) that
    /// create instances after initial placement. Grows the table as needed.
    pub fn set_loc(&mut self, inst: InstId, loc: Point) {
        if inst.index() >= self.locs.len() {
            self.locs.resize(inst.index() + 1, Point::ORIGIN);
            self.placed.resize(inst.index() + 1, false);
        }
        self.locs[inst.index()] = loc;
        self.placed[inst.index()] = true;
    }

    /// Location of a port. Ports created after placement (e.g. the `mte`
    /// enable added by the SMT transforms) default to the left die edge.
    pub fn port_loc(&self, port: smt_netlist::netlist::PortId) -> Point {
        self.port_locs
            .get(port.index())
            .copied()
            .unwrap_or(Point::new(
                self.die.lo.x,
                (self.die.lo.y + self.die.hi.y) / 2.0,
            ))
    }

    /// Bounding box of a net's pins (instance centers + port locations).
    pub fn net_bbox(&self, netlist: &Netlist, net: NetId) -> Option<Rect> {
        let n = netlist.net(net);
        let driver = n.driver.map(|d| match d {
            NetDriver::Inst(pr) => self.loc(pr.inst),
            NetDriver::Port(p) => self.port_loc(p),
        });
        let loads = n.loads.iter().map(|pr| self.loc(pr.inst));
        let port_loads = n.port_loads.iter().map(|&p| self.port_loc(p));
        Rect::bounding(driver.into_iter().chain(loads).chain(port_loads))
    }

    /// Half-perimeter wirelength of one net, µm.
    pub fn net_hpwl(&self, netlist: &Netlist, net: NetId) -> f64 {
        self.net_bbox(netlist, net)
            .map(|r| r.half_perimeter())
            .unwrap_or(0.0)
    }

    /// Total HPWL, µm.
    pub fn hpwl(&self, netlist: &Netlist) -> f64 {
        netlist
            .nets()
            .map(|(id, _)| self.net_hpwl(netlist, id))
            .sum()
    }
}

/// Width of a cell in placement sites.
fn cell_sites(lib: &Library, netlist: &Netlist, inst: InstId) -> usize {
    let cell = lib.cell(netlist.inst(inst).cell);
    let w = cell.area.um2() / lib.tech.row_height_um;
    (w / lib.tech.site_width_um).ceil().max(1.0) as usize
}

/// Places a netlist: recursive FM bisection for global positions, Tetris
/// row legalization, then annealing refinement. Deterministic for a fixed
/// seed. Thin wrapper over [`Placer::new`] for one-shot callers.
///
/// # Panics
///
/// Panics when `config` is invalid ([`PlacerConfig::validate`]); use
/// [`Placer::new`] where the error should surface as a value.
pub fn place(netlist: &Netlist, lib: &Library, config: &PlacerConfig) -> Placement {
    Placer::new(netlist, lib, config)
        .expect("invalid placer config")
        .into_placement()
}

// ---------------------------------------------------------------------------
// The Placer session
// ---------------------------------------------------------------------------

/// An incremental placement session: one expensive full placement at
/// construction, then window-local maintenance as the netlist evolves. Clones freely (flow checkpoints
/// fork it with the rest of the design state).
#[derive(Debug, Clone)]
pub struct Placer {
    config: PlacerConfig,
    placement: Placement,
}

impl Placer {
    /// Runs a full placement on the shared worker pool (one worker per
    /// core).
    ///
    /// # Errors
    ///
    /// [`PlaceError`] when the config is invalid; nothing is placed.
    pub fn new(
        netlist: &Netlist,
        lib: &Library,
        config: &PlacerConfig,
    ) -> Result<Self, PlaceError> {
        Self::with_threads(netlist, lib, config, 0)
    }

    /// Like [`Placer::new`] with an explicit worker cap (`0` = one per
    /// core). The placement is bit-identical at any thread count.
    ///
    /// # Errors
    ///
    /// [`PlaceError`] when the config is invalid.
    pub fn with_threads(
        netlist: &Netlist,
        lib: &Library,
        config: &PlacerConfig,
        threads: usize,
    ) -> Result<Self, PlaceError> {
        config.validate()?;
        FULL_PLACE_RUNS.fetch_add(1, Ordering::Relaxed);
        let placement = full_place(netlist, lib, config, threads);
        Ok(Placer {
            config: config.clone(),
            placement,
        })
    }

    /// The session's configuration.
    pub fn config(&self) -> &PlacerConfig {
        &self.config
    }

    /// The current placement.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Mutable access for stages that place the cells they create
    /// ([`Placement::set_loc`]).
    pub fn placement_mut(&mut self) -> &mut Placement {
        &mut self.placement
    }

    /// Unwraps the placement, ending the session.
    pub fn into_placement(self) -> Placement {
        self.placement
    }

    /// Window-local incremental re-place after `inst`'s cell type (and
    /// so possibly its footprint) changed via `Netlist::replace_cell`:
    /// re-packs only the row holding `inst`, leaving every other row
    /// untouched. An unplaced instance is first dropped at the die
    /// centre. Never a full re-place, but the repack finds the row's
    /// cells by filtering every netlist instance, so a call costs
    /// O(instances), not O(row).
    pub fn replace_cell(&mut self, netlist: &Netlist, lib: &Library, inst: InstId) {
        if self.placement.try_loc(inst).is_none() {
            let c = self.placement.die.center();
            let y = self.nearest_row_y(c.y);
            self.placement.set_loc(inst, Point::new(c.x, y));
        }
        let y = self.nearest_row_y(self.placement.loc(inst).y);
        self.repack_row(netlist, lib, y);
    }

    /// [`Placer::replace_cell`] for a batch: each touched row is
    /// re-packed once, in ascending row order, at O(instances) per row.
    pub fn replace_cells(&mut self, netlist: &Netlist, lib: &Library, insts: &[InstId]) {
        let mut rows: Vec<u64> = Vec::new();
        for &inst in insts {
            if self.placement.try_loc(inst).is_none() {
                let c = self.placement.die.center();
                let y = self.nearest_row_y(c.y);
                self.placement.set_loc(inst, Point::new(c.x, y));
            }
            rows.push(self.nearest_row_y(self.placement.loc(inst).y).to_bits());
        }
        rows.sort_unstable();
        rows.dedup();
        for y in rows {
            self.repack_row(netlist, lib, f64::from_bits(y));
        }
    }

    /// Re-indexes the placement after `Netlist::compact()` squeezed out
    /// tombstones: slot `old` moves to `map.new_id(old)`, dead slots are
    /// dropped. The fallback-hit counter carries over.
    pub fn apply(&mut self, map: &CompactMap) {
        let live = (0..map.old_capacity())
            .filter(|&i| map.new_id(InstId(i as u32)).is_some())
            .count();
        let mut locs = vec![Point::ORIGIN; live];
        let mut placed = vec![false; live];
        for old in 0..map.old_capacity() {
            let Some(new) = map.new_id(InstId(old as u32)) else {
                continue;
            };
            if old < self.placement.locs.len() && self.placement.placed[old] {
                locs[new.index()] = self.placement.locs[old];
                placed[new.index()] = true;
            }
        }
        self.placement.locs = locs;
        self.placement.placed = placed;
    }

    fn nearest_row_y(&self, y: f64) -> f64 {
        let mut best = y;
        let mut best_d = f64::INFINITY;
        for &ry in &self.placement.row_ys {
            let d = (ry - y).abs();
            if d < best_d {
                best_d = d;
                best = ry;
            }
        }
        best
    }

    /// Deterministically re-packs every cell sitting within half a row
    /// height of `row_y` onto that row, left to right in current-x
    /// order (instance index breaks ties).
    fn repack_row(&mut self, netlist: &Netlist, lib: &Library, row_y: f64) {
        let half = lib.tech.row_height_um / 2.0;
        let mut members: Vec<(InstId, f64)> = netlist
            .instances()
            .filter_map(|(id, _)| {
                self.placement
                    .try_loc(id)
                    .filter(|p| (p.y - row_y).abs() < half)
                    .map(|p| (id, p.x))
            })
            .collect();
        members.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        let site_w = lib.tech.site_width_um;
        let mut x = 0.0;
        for (id, _) in members {
            let w = cell_sites(lib, netlist, id) as f64 * site_w;
            self.placement.set_loc(id, Point::new(x + w / 2.0, row_y));
            x += w;
        }
    }
}

// ---------------------------------------------------------------------------
// Full placement
// ---------------------------------------------------------------------------

/// One bisection work item: a region of the die, the cells assigned to
/// it, and the sub-hypergraph restricted to those cells (net pin lists
/// in *member-local* indices, inherited filtered from the parent so the
/// per-level cost is proportional to the level's pins, not to
/// `regions × all nets`).
struct RegionTask {
    /// Dense cell indices (into the placement-order instance list).
    members: Vec<usize>,
    /// Nets with ≥2 member pins, as indices into `members`.
    nets: Vec<Vec<usize>>,
    rect: Rect,
    seed: u64,
}

/// Splits one region: FM bipartition, halve the rect along its long
/// axis, and filter the net lists down to each child. Pure — safe to
/// fan out across regions.
fn split_region(task: &RegionTask, weights: &[f64]) -> Vec<RegionTask> {
    let w: Vec<f64> = task.members.iter().map(|&m| weights[m]).collect();
    let h = Hypergraph::new(task.members.len(), task.nets.clone(), w);
    let side = bipartition(
        &h,
        FmConfig {
            seed: task.seed,
            ..FmConfig::default()
        },
    );
    let region = task.rect;
    let (r0, r1) = if region.width() >= region.height() {
        let mid = (region.lo.x + region.hi.x) / 2.0;
        (
            Rect::new(region.lo, Point::new(mid, region.hi.y)),
            Rect::new(Point::new(mid, region.lo.y), region.hi),
        )
    } else {
        let mid = (region.lo.y + region.hi.y) / 2.0;
        (
            Rect::new(region.lo, Point::new(region.hi.x, mid)),
            Rect::new(Point::new(region.lo.x, mid), region.hi),
        )
    };
    let mut left = Vec::new();
    let mut right = Vec::new();
    // Old-local → child-local translation for the net filter below.
    let mut child_local = vec![usize::MAX; task.members.len()];
    for (li, &m) in task.members.iter().enumerate() {
        if side[li] {
            child_local[li] = right.len();
            right.push(m);
        } else {
            child_local[li] = left.len();
            left.push(m);
        }
    }
    let mut left_nets = Vec::new();
    let mut right_nets = Vec::new();
    for net in &task.nets {
        let mut l = Vec::new();
        let mut r = Vec::new();
        for &p in net {
            if side[p] {
                r.push(child_local[p]);
            } else {
                l.push(child_local[p]);
            }
        }
        if l.len() >= 2 {
            left_nets.push(l);
        }
        if r.len() >= 2 {
            right_nets.push(r);
        }
    }
    vec![
        RegionTask {
            members: left,
            nets: left_nets,
            rect: r0,
            seed: task.seed.wrapping_mul(6364136223846793005).wrapping_add(1),
        },
        RegionTask {
            members: right,
            nets: right_nets,
            rect: r1,
            seed: task.seed.wrapping_mul(6364136223846793005).wrapping_add(2),
        },
    ]
}

/// Level-synchronous parallel recursive bisection: each level's regions
/// are independent `(members, nets, rect, seed)` items fanned out on
/// the shared pool. Deterministic at any thread count — every region's
/// output depends only on its own seeded content, and children are
/// collected in item order.
fn bisect_targets(
    n: usize,
    all_nets: Vec<Vec<usize>>,
    weights: &[f64],
    die: Rect,
    config: &PlacerConfig,
    threads: usize,
) -> Vec<Point> {
    let mut targets = vec![Point::ORIGIN; n];
    let mut frontier = vec![RegionTask {
        members: (0..n).collect(),
        nets: all_nets,
        rect: die,
        seed: config.seed,
    }];
    while !frontier.is_empty() {
        let mut work = Vec::new();
        for task in frontier.drain(..) {
            if task.members.len() <= config.min_partition {
                let c = task.rect.center();
                for &m in &task.members {
                    targets[m] = c;
                }
            } else {
                work.push(task);
            }
        }
        if work.is_empty() {
            break;
        }
        frontier = parallel_map(&work, threads, |task: &RegionTask| {
            split_region(task, weights)
        })
        .into_iter()
        .flatten()
        .collect();
    }
    targets
}

fn full_place(
    netlist: &Netlist,
    lib: &Library,
    config: &PlacerConfig,
    threads: usize,
) -> Placement {
    let insts: Vec<InstId> = netlist.instances().map(|(id, _)| id).collect();
    let site_w = lib.tech.site_width_um;
    let row_h = lib.tech.row_height_um;

    // ---- floorplan ---------------------------------------------------
    let total_sites: usize = insts.iter().map(|&i| cell_sites(lib, netlist, i)).sum();
    let needed = (total_sites as f64 / config.utilization).ceil().max(4.0);
    // Square-ish die: rows * sites_per_row = needed, rows*row_h ≈ spr*site_w.
    let rows = ((needed * site_w / row_h).sqrt().ceil() as usize).max(1);
    let sites_per_row = (needed / rows as f64).ceil() as usize + 2;
    let die = Rect::new(
        Point::ORIGIN,
        Point::new(sites_per_row as f64 * site_w, rows as f64 * row_h),
    );
    let row_ys: Vec<f64> = (0..rows).map(|r| (r as f64 + 0.5) * row_h).collect();

    // ---- global placement: parallel recursive bisection ---------------
    // Map instance -> dense index.
    let dense: Vec<usize> = insts.iter().map(|i| i.index()).collect();
    let mut dense_of = vec![usize::MAX; netlist.inst_capacity()];
    for (d, &slot) in dense.iter().enumerate() {
        dense_of[slot] = d;
    }
    let weights: Vec<f64> = insts
        .iter()
        .map(|&i| cell_sites(lib, netlist, i) as f64)
        .collect();

    // Hypergraph over all cells (ports ignored: they pull via annealing).
    let mut all_nets: Vec<Vec<usize>> = Vec::new();
    for (_, net) in netlist.nets() {
        let mut cells: Vec<usize> = Vec::new();
        if let Some(NetDriver::Inst(pr)) = net.driver {
            cells.push(dense_of[pr.inst.index()]);
        }
        for pr in &net.loads {
            cells.push(dense_of[pr.inst.index()]);
        }
        cells.sort_unstable();
        cells.dedup();
        if cells.len() >= 2 {
            all_nets.push(cells);
        }
    }

    let targets = bisect_targets(insts.len(), all_nets, &weights, die, config, threads);

    // ---- legalization: Tetris packing per row -------------------------
    // Assign cells to the nearest row by target y, then pack by target x.
    let mut row_members: Vec<Vec<usize>> = vec![Vec::new(); rows];
    let mut order: Vec<usize> = (0..insts.len()).collect();
    order.sort_by(|&a, &b| targets[a].x.total_cmp(&targets[b].x));
    let mut row_fill = vec![0usize; rows];
    for &d in &order {
        let want_row = ((targets[d].y / row_h) as usize).min(rows - 1);
        // Find the least-filled row near the wanted one.
        let mut best_row = want_row;
        let mut best_score = f64::INFINITY;
        for (r, &fill) in row_fill.iter().enumerate() {
            let dist = (r as f64 - want_row as f64).abs();
            let fill_pen = fill as f64 / sites_per_row as f64;
            let score = dist
                + 8.0 * fill_pen.powi(2) * rows as f64 * 0.25
                + if fill + sites(&weights, d) > sites_per_row {
                    1e9
                } else {
                    0.0
                };
            if score < best_score {
                best_score = score;
                best_row = r;
            }
        }
        row_fill[best_row] += sites(&weights, d);
        row_members[best_row].push(d);
    }

    let mut locs = vec![Point::ORIGIN; netlist.inst_capacity()];
    let mut placed = vec![false; netlist.inst_capacity()];
    for (r, members) in row_members.iter().enumerate() {
        let mut x = 0.0;
        for &d in members {
            let w = sites(&weights, d) as f64 * site_w;
            let center = Point::new(x + w / 2.0, row_ys[r]);
            locs[insts[d].index()] = center;
            placed[insts[d].index()] = true;
            x += w;
        }
    }

    // ---- ports on the boundary ----------------------------------------
    let n_ports = netlist.ports().count().max(1);
    let mut port_locs = Vec::with_capacity(n_ports);
    let mut in_i = 0usize;
    let mut out_i = 0usize;
    let n_in = netlist
        .ports()
        .filter(|(_, p)| p.dir == PortDir::Input)
        .count()
        .max(1);
    let n_out = (n_ports - n_in.min(n_ports)).max(1);
    for (_, p) in netlist.ports() {
        let loc = match p.dir {
            PortDir::Input => {
                in_i += 1;
                Point::new(
                    die.lo.x,
                    die.lo.y + die.height() * in_i as f64 / (n_in + 1) as f64,
                )
            }
            PortDir::Output => {
                out_i += 1;
                Point::new(
                    die.hi.x,
                    die.lo.y + die.height() * out_i as f64 / (n_out + 1) as f64,
                )
            }
        };
        port_locs.push(loc);
    }

    let mut placement = Placement {
        locs,
        port_locs,
        die,
        row_ys,
        placed,
        fallback_hits: AtomicU64::new(0),
    };

    // ---- annealing refinement: same-width swaps ------------------------
    if config.anneal_moves_per_cell > 0 && insts.len() >= 2 {
        anneal_windows(netlist, &insts, &weights, &mut placement, config, threads);
    }
    placement
}

fn sites(weights: &[f64], d: usize) -> usize {
    weights[d] as usize
}

// ---------------------------------------------------------------------------
// Annealing
// ---------------------------------------------------------------------------

/// Region-windowed annealing refinement. Designs up to one
/// `anneal_window` keep the original single global annealing chain
/// (bit-identical to the pre-window placer); larger designs are cut
/// into a grid of disjoint windows annealed independently — each window
/// worker owns a snapshot, swaps only its own members, and derives its
/// RNG from the window index, so the result is deterministic at any
/// thread count.
fn anneal_windows(
    netlist: &Netlist,
    insts: &[InstId],
    weights: &[f64],
    placement: &mut Placement,
    config: &PlacerConfig,
    threads: usize,
) {
    let n = insts.len();
    let wanted = n.div_ceil(config.anneal_window.max(1));
    let base_seed = config.seed ^ 0x5157_1057;
    if wanted <= 1 {
        let members: Vec<usize> = (0..n).collect();
        let temp0 = placement.die.half_perimeter() * 0.05;
        let moves = config.anneal_moves_per_cell * n;
        anneal_one(
            netlist, insts, weights, placement, &members, base_seed, temp0, moves,
        );
        return;
    }

    // A square-ish wx × wy grid of windows over the die.
    let wx = (wanted as f64).sqrt().ceil().max(1.0) as usize;
    let wy = wanted.div_ceil(wx);
    let die = placement.die;
    let step_x = die.width() / wx as f64;
    let step_y = die.height() / wy as f64;
    let mut members_of: Vec<Vec<usize>> = vec![Vec::new(); wx * wy];
    for (d, &id) in insts.iter().enumerate() {
        let p = placement.locs[id.index()];
        let cx = (((p.x - die.lo.x) / step_x) as usize).min(wx - 1);
        let cy = (((p.y - die.lo.y) / step_y) as usize).min(wy - 1);
        members_of[cy * wx + cx].push(d);
    }
    let window_hp = (step_x + step_y) * 0.05;
    let windows: Vec<(usize, Vec<usize>)> = members_of
        .into_iter()
        .enumerate()
        .filter(|(_, m)| m.len() >= 2)
        .collect();
    // Each worker anneals a clone restricted to its window and reports
    // the member slots it settled; windows are disjoint by construction
    // so the commits never conflict.
    let refined: Vec<Vec<(usize, Point)>> =
        parallel_map(&windows, threads, |(w, members): &(usize, Vec<usize>)| {
            let mut scratch = placement.clone();
            let seed = base_seed.wrapping_add((*w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let moves = config.anneal_moves_per_cell * members.len();
            anneal_one(
                netlist,
                insts,
                weights,
                &mut scratch,
                members,
                seed,
                window_hp,
                moves,
            );
            members
                .iter()
                .map(|&d| (insts[d].index(), scratch.locs[insts[d].index()]))
                .collect()
        });
    for updates in refined {
        for (slot, p) in updates {
            placement.locs[slot] = p;
        }
    }
}

/// One simulated-annealing chain over equal-footprint position swaps
/// among `members` (dense indices). Keeps the placement legal by
/// construction. Seeded and scoped per window.
///
/// A swap is priced on the window's [`WindowNets`] table instead of by
/// walking every pin of every net on both cells: `before` sums the
/// cached HPWLs, and each touched net's new bounding box is derived in
/// O(1) unless the moved cell sat on that box's edge. The swap visits
/// the same nets in the same order (the sorted union of both cells'
/// nets), and every cached box is the min/max over the points
/// [`Placement::net_bbox`] visits, so each move sees the same `delta`,
/// draws the same random numbers and makes the same choice as a loop
/// that recomputes every net's HPWL from the placement.
#[allow(clippy::too_many_arguments)]
fn anneal_one(
    netlist: &Netlist,
    insts: &[InstId],
    weights: &[f64],
    placement: &mut Placement,
    members: &[usize],
    seed: u64,
    temp0: f64,
    moves: usize,
) {
    let mut rng = SplitMix64::new(seed);
    // Group member positions by footprint so swaps stay legal. Ordered
    // map: the group iteration order feeds the seeded RNG's swap choices,
    // so a hash map's per-instance ordering would break the placement
    // determinism that checkpoints and sweeps rely on.
    let mut by_width: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for (k, &d) in members.iter().enumerate() {
        by_width.entry(weights[d] as usize).or_default().push(k);
    }
    let groups: Vec<&Vec<usize>> = by_width.values().filter(|g| g.len() >= 2).collect();
    if groups.is_empty() {
        return;
    }

    let mut table = WindowNets::new(netlist, insts, members, placement);
    // The new boxes of the nets a swap changes, committed on accept.
    let mut next: Vec<(u32, Rect, f64)> = Vec::new();

    let mut temp = temp0;
    let cooling = (0.02f64).powf(1.0 / moves.max(1) as f64);

    for _ in 0..moves {
        let group = groups[rng.next_below(groups.len())];
        let a = group[rng.next_below(group.len())];
        let b = group[rng.next_below(group.len())];
        if a == b {
            temp *= cooling;
            continue;
        }
        let (sa, sb) = (insts[members[a]].index(), insts[members[b]].index());
        let (pa, pb) = (placement.locs[sa], placement.locs[sb]);
        placement.locs.swap(sa, sb);
        // Walk the sorted union of both members' nets: a net on both
        // keeps its box (the swap only permutes its points); a net on
        // one sees that member move to the other's old location.
        let (na, nb) = (table.nets_of(a), table.nets_of(b));
        let (mut i, mut j) = (0, 0);
        let (mut before, mut after) = (0.0, 0.0);
        next.clear();
        loop {
            let (net, moved) = match (na.get(i), nb.get(j)) {
                (Some(&x), Some(&y)) if x == y => {
                    i += 1;
                    j += 1;
                    (x, None)
                }
                (Some(&x), Some(&y)) if x < y => {
                    i += 1;
                    (x, Some((pa, pb)))
                }
                (Some(&x), None) => {
                    i += 1;
                    (x, Some((pa, pb)))
                }
                (_, Some(&y)) => {
                    j += 1;
                    (y, Some((pb, pa)))
                }
                (None, None) => break,
            };
            let old = table.hpwl[net as usize];
            before += old;
            match moved {
                None => {
                    #[cfg(test)]
                    box_updates::bump(box_updates::SHARED);
                    after += old;
                }
                Some((from, to)) => {
                    let bbox = table.moved_box(net as usize, from, to, &placement.locs);
                    let hpwl = bbox.half_perimeter();
                    after += hpwl;
                    next.push((net, bbox, hpwl));
                }
            }
        }
        let delta = after - before;
        let accept = delta <= 0.0 || rng.next_f64() < (-delta / temp.max(1e-9)).exp();
        if accept {
            for &(net, bbox, hpwl) in &next {
                table.bbox[net as usize] = bbox;
                table.hpwl[net as usize] = hpwl;
            }
        } else {
            placement.locs.swap(sa, sb);
        }
        temp *= cooling;
    }
}

/// The nets one annealing window's members touch, in one flat table,
/// with each net's bounding box and HPWL cached across swaps. Nets are
/// numbered locally in `NetId` order, so a member's ascending local net
/// list is its sorted `NetId` list.
struct WindowNets {
    /// Per member: its nets, `member_net[member_start[k]..member_start[k + 1]]`.
    member_start: Vec<u32>,
    member_net: Vec<u32>,
    /// Per net: the placement slots of its instance pins (driver, then
    /// loads), `pin_slot[pin_start[n]..pin_start[n + 1]]`.
    pin_start: Vec<u32>,
    pin_slot: Vec<u32>,
    /// Per net: the bounding box of its port pins, which never move
    /// while annealing; inverted (`lo` = +∞, `hi` = −∞) without ports.
    port_box: Vec<Rect>,
    /// Per net: the cached bounding box of every pin, and its
    /// half-perimeter.
    bbox: Vec<Rect>,
    hpwl: Vec<f64>,
}

impl WindowNets {
    fn new(netlist: &Netlist, insts: &[InstId], members: &[usize], placement: &Placement) -> Self {
        let mut member_start = Vec::with_capacity(members.len() + 1);
        member_start.push(0);
        let mut member_ids: Vec<NetId> = Vec::new();
        let mut nets: Vec<NetId> = Vec::new();
        for &d in members {
            nets.clear();
            nets.extend(netlist.inst(insts[d]).conns.iter().flatten());
            nets.sort_unstable();
            nets.dedup();
            member_ids.extend_from_slice(&nets);
            member_start.push(member_ids.len() as u32);
        }
        let mut ids = member_ids.clone();
        ids.sort_unstable();
        ids.dedup();
        let member_net = member_ids
            .iter()
            .map(|id| ids.partition_point(|x| x < id) as u32)
            .collect();

        let empty = Rect {
            lo: Point::new(f64::INFINITY, f64::INFINITY),
            hi: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        };
        let mut pin_start = Vec::with_capacity(ids.len() + 1);
        pin_start.push(0);
        let mut pin_slot = Vec::new();
        let mut port_box = Vec::with_capacity(ids.len());
        for &id in &ids {
            let net = netlist.net(id);
            let mut ports = empty;
            match net.driver {
                Some(NetDriver::Inst(pr)) => pin_slot.push(pr.inst.index() as u32),
                Some(NetDriver::Port(p)) => ports.expand(placement.port_loc(p)),
                None => {}
            }
            pin_slot.extend(net.loads.iter().map(|pr| pr.inst.index() as u32));
            for &p in &net.port_loads {
                ports.expand(placement.port_loc(p));
            }
            pin_start.push(pin_slot.len() as u32);
            port_box.push(ports);
        }
        let mut table = WindowNets {
            member_start,
            member_net,
            pin_start,
            pin_slot,
            port_box,
            bbox: Vec::new(),
            hpwl: Vec::new(),
        };
        table.bbox = (0..ids.len())
            .map(|n| table.scan(n, &placement.locs))
            .collect();
        table.hpwl = table.bbox.iter().map(Rect::half_perimeter).collect();
        table
    }

    /// Member `k`'s nets, ascending.
    fn nets_of(&self, k: usize) -> &[u32] {
        &self.member_net[self.member_start[k] as usize..self.member_start[k + 1] as usize]
    }

    /// The bounding box of net `n`'s pins at `locs`. Every window net
    /// holds at least its member's pin, so the box is never inverted.
    fn scan(&self, n: usize, locs: &[Point]) -> Rect {
        let slots = &self.pin_slot[self.pin_start[n] as usize..self.pin_start[n + 1] as usize];
        let mut r = self.port_box[n];
        for &s in slots {
            r.expand(locs[s as usize]);
        }
        r
    }

    /// Net `n`'s box after one of its cells moved `from` → `to`, with
    /// `locs` already holding the move. When `from` lay strictly inside
    /// the cached box, every edge is set by some other pin and the box
    /// only grows to take in `to`; otherwise the net is rescanned.
    fn moved_box(&self, n: usize, from: Point, to: Point, locs: &[Point]) -> Rect {
        let b = self.bbox[n];
        if from.x > b.lo.x && from.x < b.hi.x && from.y > b.lo.y && from.y < b.hi.y {
            #[cfg(test)]
            box_updates::bump(box_updates::INTERIOR);
            let mut r = b;
            r.expand(to);
            r
        } else {
            #[cfg(test)]
            box_updates::bump(box_updates::RESCAN);
            self.scan(n, locs)
        }
    }
}

/// Per-thread tally of how [`anneal_one`] derived each touched net's
/// box, so the oracle test can show it reached every case.
#[cfg(test)]
mod box_updates {
    use std::cell::Cell;

    /// Both swapped cells are on the net: the box is unchanged.
    pub const SHARED: usize = 0;
    /// The moved cell sat strictly inside the box: expanded.
    pub const INTERIOR: usize = 1;
    /// The moved cell sat on the box's edge: rescanned.
    pub const RESCAN: usize = 2;

    thread_local! {
        static COUNTS: Cell<[u64; 3]> = const { Cell::new([0; 3]) };
    }

    pub fn bump(kind: usize) {
        COUNTS.with(|c| {
            let mut v = c.get();
            v[kind] += 1;
            c.set(v);
        });
    }

    /// The tally so far on this thread.
    pub fn counts() -> [u64; 3] {
        COUNTS.with(Cell::get)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_cells::library::Library;

    fn lib() -> Library {
        Library::industrial_130nm()
    }

    /// A chain of inverters: placement should not scatter it randomly.
    fn chain(lib: &Library, len: usize) -> Netlist {
        let mut n = Netlist::new("chain");
        let mut prev = n.add_input("a");
        let inv = lib.find_id("INV_X1_L").unwrap();
        for i in 0..len {
            let next = n.add_net(&format!("w{i}"));
            let u = n.add_instance(&format!("u{i}"), inv, lib);
            n.connect_by_name(u, "A", prev, lib).unwrap();
            n.connect_by_name(u, "Z", next, lib).unwrap();
            prev = next;
        }
        n.expose_output("z", prev);
        n
    }

    #[test]
    fn placement_is_legal() {
        let lib = lib();
        let n = chain(&lib, 60);
        let p = place(&n, &lib, &PlacerConfig::default());
        // All cells inside the die.
        for (id, _) in n.instances() {
            assert!(p.die.contains(p.loc(id)), "cell {} at {}", id, p.loc(id));
        }
        // No overlaps: per row, sort by x and check center distances.
        let mut by_row: std::collections::HashMap<i64, Vec<(f64, f64)>> = Default::default();
        for (id, inst) in n.instances() {
            let cell = lib.cell(inst.cell);
            let w = cell.area.um2() / lib.tech.row_height_um;
            let loc = p.loc(id);
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
                    "overlap: {x0},{w0} vs {x1},{w1}"
                );
            }
        }
    }

    #[test]
    fn annealing_does_not_worsen_hpwl_much_and_usually_helps() {
        let lib = lib();
        let n = chain(&lib, 80);
        let base = place(
            &n,
            &lib,
            &PlacerConfig {
                anneal_moves_per_cell: 0,
                ..PlacerConfig::default()
            },
        );
        let refined = place(&n, &lib, &PlacerConfig::default());
        // Same die, same legality; refined should not be dramatically worse.
        assert!(refined.hpwl(&n) <= base.hpwl(&n) * 1.10);
    }

    #[test]
    fn hpwl_positive_and_bbox_sane() {
        let lib = lib();
        let n = chain(&lib, 10);
        let p = place(&n, &lib, &PlacerConfig::default());
        assert!(p.hpwl(&n) > 0.0);
        let w0 = n.find_net("w0").unwrap();
        let bbox = p.net_bbox(&n, w0).unwrap();
        assert!(p.die.intersects(&bbox));
    }

    #[test]
    fn net_bbox_matches_the_bounding_box_of_collected_pins() {
        let lib = lib();
        let mut n = chain(&lib, 12);
        // The input net also gets a port load, so one net has a port
        // driver, an instance load and a port load.
        let a = n.find_net("a").unwrap();
        n.expose_output("a_echo", a);
        n.add_net("floating");
        let p = place(&n, &lib, &PlacerConfig::default());
        let (mut port_driven, mut port_loaded) = (0, 0);
        for (id, net) in n.nets() {
            // Every pin in order: driver, instance loads, port loads.
            let mut pts: Vec<Point> = Vec::new();
            match net.driver {
                Some(NetDriver::Inst(pr)) => pts.push(p.loc(pr.inst)),
                Some(NetDriver::Port(port)) => {
                    port_driven += 1;
                    pts.push(p.port_loc(port));
                }
                None => {}
            }
            pts.extend(net.loads.iter().map(|pr| p.loc(pr.inst)));
            port_loaded += usize::from(!net.port_loads.is_empty());
            pts.extend(net.port_loads.iter().map(|&port| p.port_loc(port)));
            assert_eq!(p.net_bbox(&n, id), Rect::bounding(pts), "net {}", net.name);
        }
        assert!(port_driven >= 1 && port_loaded >= 2);
        assert_eq!(p.net_bbox(&n, n.find_net("floating").unwrap()), None);
    }

    /// Reference annealing chain for the exactness oracle: each move
    /// collects both instances' nets afresh and recomputes each net's
    /// HPWL from the placement, before and after the swap.
    #[allow(clippy::too_many_arguments)]
    fn reference_anneal_one(
        netlist: &Netlist,
        insts: &[InstId],
        weights: &[f64],
        placement: &mut Placement,
        members: &[usize],
        seed: u64,
        temp0: f64,
        moves: usize,
    ) {
        let mut rng = SplitMix64::new(seed);
        let mut by_width: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for &d in members {
            by_width.entry(weights[d] as usize).or_default().push(d);
        }
        let groups: Vec<&Vec<usize>> = by_width.values().filter(|g| g.len() >= 2).collect();
        if groups.is_empty() {
            return;
        }
        let inst_nets = |inst: InstId| -> Vec<NetId> {
            let i = netlist.inst(inst);
            let mut v: Vec<NetId> = i.conns.iter().flatten().copied().collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let mut temp = temp0;
        let cooling = (0.02f64).powf(1.0 / moves.max(1) as f64);
        for _ in 0..moves {
            let group = groups[rng.next_below(groups.len())];
            let a = group[rng.next_below(group.len())];
            let b = group[rng.next_below(group.len())];
            if a == b {
                temp *= cooling;
                continue;
            }
            let (ia, ib) = (insts[a], insts[b]);
            let mut nets: Vec<NetId> = inst_nets(ia);
            nets.extend(inst_nets(ib));
            nets.sort_unstable();
            nets.dedup();
            let before: f64 = nets.iter().map(|&n| placement.net_hpwl(netlist, n)).sum();
            placement.locs.swap(ia.index(), ib.index());
            let after: f64 = nets.iter().map(|&n| placement.net_hpwl(netlist, n)).sum();
            let delta = after - before;
            let accept = delta <= 0.0 || rng.next_f64() < (-delta / temp.max(1e-9)).exp();
            if !accept {
                placement.locs.swap(ia.index(), ib.index());
            }
            temp *= cooling;
        }
    }

    /// Widens every third cell of a chain, so swaps draw from several
    /// width groups.
    fn widen_every_third(n: &mut Netlist, lib: &Library, len: usize, wide: &str) {
        let wide = lib.find_id(wide).unwrap();
        for i in (0..len).step_by(3) {
            n.replace_cell(n.find_inst(&format!("u{i}")).unwrap(), wide, lib)
                .unwrap();
        }
    }

    /// A chain of MT-embedded inverters whose `MTE` pins all load one
    /// port-driven net: every swap's two cells share that net.
    fn mte_chain(lib: &Library, len: usize) -> Netlist {
        let mut n = Netlist::new("mte_chain");
        let mte = n.add_input("mte");
        let mut prev = n.add_input("a");
        let inv = lib.find_id("INV_X1_MC").unwrap();
        for i in 0..len {
            let next = n.add_net(&format!("w{i}"));
            let u = n.add_instance(&format!("u{i}"), inv, lib);
            n.connect_by_name(u, "A", prev, lib).unwrap();
            n.connect_by_name(u, "MTE", mte, lib).unwrap();
            n.connect_by_name(u, "Z", next, lib).unwrap();
            prev = next;
        }
        n.expose_output("z", prev);
        widen_every_third(&mut n, lib, len, "INV_X4_MC");
        n
    }

    /// Anneals `members` of `n`'s bisection-only placement with both
    /// `anneal_one` and `reference_anneal_one` and asserts that every
    /// location comes out equal bit for bit, and that annealing moved
    /// something.
    fn assert_anneal_matches_reference(
        case: &str,
        n: &Netlist,
        lib: &Library,
        seed: u64,
        members: &[usize],
    ) {
        let start = place(
            n,
            lib,
            &PlacerConfig {
                anneal_moves_per_cell: 0,
                ..PlacerConfig::default()
            },
        );
        let insts: Vec<InstId> = n.instances().map(|(id, _)| id).collect();
        let weights: Vec<f64> = insts
            .iter()
            .map(|&i| cell_sites(lib, n, i) as f64)
            .collect();
        let mut fast = start.clone();
        let mut reference = start.clone();
        let moves = 40 * members.len();
        anneal_one(n, &insts, &weights, &mut fast, members, seed, 20.0, moves);
        reference_anneal_one(
            n,
            &insts,
            &weights,
            &mut reference,
            members,
            seed,
            20.0,
            moves,
        );
        let bits = |p: &Placement| -> Vec<(u64, u64)> {
            p.locs
                .iter()
                .map(|q| (q.x.to_bits(), q.y.to_bits()))
                .collect()
        };
        assert_eq!(bits(&fast), bits(&reference), "{case}");
        assert_ne!(bits(&fast), bits(&start), "{case}: annealing moved nothing");
    }

    #[test]
    fn anneal_one_matches_the_reference_loop() {
        use smt_circuits::families::{generate, standard_suite, SuiteScale};
        let lib = lib();
        let mut designs = Vec::new();
        let mut wide_chain = chain(&lib, 120);
        widen_every_third(&mut wide_chain, &lib, 120, "INV_X4_L");
        designs.push(("chain".to_owned(), wide_chain));
        for w in standard_suite(SuiteScale::Smoke) {
            if w.name == "fanout_b4_r12" || w.name == "random_300" {
                designs.push((w.name, generate(&lib, &w.config).unwrap()));
            }
        }
        designs.push(("mte_chain".to_owned(), mte_chain(&lib, 120)));
        assert_eq!(designs.len(), 4);

        let before = box_updates::counts();
        for (name, n) in &designs {
            let cells = n.num_instances();
            let all: Vec<usize> = (0..cells).collect();
            let strided: Vec<usize> = (10..cells).step_by(2).collect();
            let half: Vec<usize> = (cells / 4..cells * 3 / 4).collect();
            for (seed, window, members) in [
                (1, "all", &all),
                (7, "all", &all),
                (3, "strided", &strided),
                (5, "half", &half),
            ] {
                let case = format!("{name}, seed {seed}, {window} window");
                assert_anneal_matches_reference(&case, n, &lib, seed, members);
            }
        }
        let after = box_updates::counts();
        let ran: Vec<u64> = (0..3).map(|k| after[k] - before[k]).collect();
        // Shared net, strictly interior point, edge-point rescan.
        assert!(ran.iter().all(|&c| c >= 50), "box updates run: {ran:?}");
    }

    #[test]
    fn deterministic() {
        let lib = lib();
        let n = chain(&lib, 30);
        let p1 = place(&n, &lib, &PlacerConfig::default());
        let p2 = place(&n, &lib, &PlacerConfig::default());
        assert_eq!(p1.hpwl(&n), p2.hpwl(&n));
    }

    #[test]
    fn ports_on_boundary() {
        let lib = lib();
        let n = chain(&lib, 10);
        let p = place(&n, &lib, &PlacerConfig::default());
        for (pid, port) in n.ports() {
            let loc = p.port_locs[pid.index()];
            let on_edge = (loc.x - p.die.lo.x).abs() < 1e-9 || (loc.x - p.die.hi.x).abs() < 1e-9;
            assert!(on_edge, "port {} at {}", port.name, loc);
        }
    }

    #[test]
    fn connected_cells_end_up_close() {
        // In a chain, average wirelength per net should be far below the
        // die diagonal (i.e. the min-cut actually clusters neighbours).
        let lib = lib();
        let n = chain(&lib, 100);
        let p = place(&n, &lib, &PlacerConfig::default());
        let nets: Vec<_> = n.nets().map(|(id, _)| id).collect();
        let avg = p.hpwl(&n) / nets.len() as f64;
        assert!(
            avg < p.die.half_perimeter() / 3.0,
            "avg = {avg}, die = {}",
            p.die.half_perimeter()
        );
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        let ok = PlacerConfig::default();
        assert_eq!(ok.validate(), Ok(()));
        let zero_util = PlacerConfig {
            utilization: 0.0,
            ..ok.clone()
        };
        assert!(matches!(
            zero_util.validate(),
            Err(PlaceError::BadUtilization { .. })
        ));
        let nan_util = PlacerConfig {
            utilization: f64::NAN,
            ..ok.clone()
        };
        assert!(matches!(
            nan_util.validate(),
            Err(PlaceError::BadUtilization { .. })
        ));
        let over_util = PlacerConfig {
            utilization: 1.5,
            ..ok.clone()
        };
        assert!(over_util.validate().is_err());
        let zero_part = PlacerConfig {
            min_partition: 0,
            ..ok.clone()
        };
        assert_eq!(zero_part.validate(), Err(PlaceError::ZeroPartition));
        let zero_window = PlacerConfig {
            anneal_window: 0,
            ..ok
        };
        assert_eq!(zero_window.validate(), Err(PlaceError::ZeroWindow));
        // And the session constructor refuses instead of degenerating.
        let lib = lib();
        let n = chain(&lib, 4);
        assert!(Placer::new(&n, &lib, &zero_part).is_err());
    }

    #[test]
    fn try_loc_exposes_unplaced_cells_and_loc_counts_fallbacks() {
        let lib = lib();
        let mut n = chain(&lib, 8);
        let p = place(&n, &lib, &PlacerConfig::default());
        assert_eq!(p.fallback_hits(), 0);
        // A cell created after placement is unplaced until set_loc.
        let inv = lib.find_id("INV_X1_L").unwrap();
        let late = n.add_instance("late", inv, &lib);
        assert_eq!(p.try_loc(late), None);
        assert_eq!(p.loc(late), p.die.center());
        assert_eq!(p.fallback_hits(), 1, "fallback reads are counted");
        let mut p = p;
        p.set_loc(late, Point::new(1.0, 2.0));
        assert_eq!(p.try_loc(late), Some(Point::new(1.0, 2.0)));
        assert_eq!(p.fallback_hits(), 1, "placed reads are free");
        // The counter survives cloning (checkpoint forks).
        assert_eq!(p.clone().fallback_hits(), 1);
    }

    #[test]
    fn placer_replace_cell_relegalizes_only_the_touched_row() {
        let lib = lib();
        let mut n = chain(&lib, 40);
        let mut placer = Placer::new(&n, &lib, &PlacerConfig::default()).unwrap();
        let victim = n
            .instances()
            .map(|(id, _)| id)
            .nth(7)
            .expect("chain has cells");
        let row_y = placer.placement().loc(victim).y;
        let before: Vec<(InstId, Point)> = n
            .instances()
            .map(|(id, _)| (id, placer.placement().loc(id)))
            .collect();
        // Swap to a 4x drive: a wider footprint that no longer fits its slot.
        let wide = lib.find_id("INV_X4_L").expect("library has INV_X4_L");
        n.replace_cell(victim, wide, &lib).expect("variant swap");
        placer.replace_cell(&n, &lib, victim);
        // Off-row cells kept their exact locations.
        for (id, old) in &before {
            let now = placer.placement().loc(*id);
            if (old.y - row_y).abs() > 1e-9 {
                assert_eq!((now.x, now.y), (old.x, old.y), "off-row cell {id} moved");
            } else {
                assert_eq!(now.y, row_y, "row member {id} left its row");
            }
        }
        // The touched row is overlap-free under the new widths.
        let mut row: Vec<(f64, f64)> = n
            .instances()
            .filter(|(id, _)| (placer.placement().loc(*id).y - row_y).abs() < 1e-9)
            .map(|(id, inst)| {
                let w = lib.cell(inst.cell).area.um2() / lib.tech.row_height_um;
                (placer.placement().loc(id).x, w)
            })
            .collect();
        row.sort_by(|a, b| a.0.total_cmp(&b.0));
        for pair in row.windows(2) {
            let (x0, w0) = pair[0];
            let (x1, w1) = pair[1];
            assert!(x1 - x0 >= (w0 + w1) / 2.0 - 1e-6, "overlap after re-place");
        }
    }

    #[test]
    fn placer_apply_follows_a_compaction() {
        let lib = lib();
        let mut n = chain(&lib, 10);
        let mut placer = Placer::new(&n, &lib, &PlacerConfig::default()).unwrap();
        let dead = n
            .instances()
            .map(|(id, _)| id)
            .nth(3)
            .expect("chain has cells");
        let survivor = n
            .instances()
            .map(|(id, _)| id)
            .nth(8)
            .expect("chain has cells");
        let survivor_loc = placer.placement().loc(survivor);
        n.remove_instance(dead);
        let map = n.compact();
        placer.apply(&map);
        let new_id = map.new_id(survivor).expect("survivor kept");
        assert_eq!(placer.placement().try_loc(new_id), Some(survivor_loc));
        // Every live instance is still placed after re-indexing.
        for (id, _) in n.instances() {
            assert!(placer.placement().try_loc(id).is_some(), "{id} unplaced");
        }
    }

    #[test]
    fn parallel_placement_is_bit_identical_across_thread_counts() {
        let lib = lib();
        // Big enough to exercise multiple bisection levels and >1 anneal
        // window.
        let n = chain(&lib, 700);
        let cfg = PlacerConfig {
            anneal_window: 128,
            ..PlacerConfig::default()
        };
        let serial = Placer::with_threads(&n, &lib, &cfg, 1).unwrap();
        let wide = Placer::with_threads(&n, &lib, &cfg, 8).unwrap();
        for (id, _) in n.instances() {
            let a = serial.placement().loc(id);
            let b = wide.placement().loc(id);
            assert_eq!(
                (a.x.to_bits(), a.y.to_bits()),
                (b.x.to_bits(), b.y.to_bits()),
                "cell {id} differs between 1 and 8 workers"
            );
        }
    }

    #[test]
    fn windowed_annealing_still_improves_or_holds_hpwl() {
        let lib = lib();
        let n = chain(&lib, 700);
        let cfg = PlacerConfig {
            anneal_window: 128,
            ..PlacerConfig::default()
        };
        let base = place(
            &n,
            &lib,
            &PlacerConfig {
                anneal_moves_per_cell: 0,
                ..cfg.clone()
            },
        );
        let refined = place(&n, &lib, &cfg);
        assert!(refined.hpwl(&n) <= base.hpwl(&n) * 1.10);
    }
}
