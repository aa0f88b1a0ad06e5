//! Grid-based global routing: each net is routed once, in closed form,
//! over a tile grid.
//!
//! The die is tiled; every tile boundary has a track capacity. Each net's
//! Steiner edges are routed as two-pin connections, each along the L
//! whose horizontal leg runs on the lower of its two rows
//! (`l_path`), so every net takes an L1-shortest tile path and no net
//! detours around another. The outcome per net is a *routed length*,
//! which extraction converts to post-route RC — the "precise RC
//! information which is generated after routing" of the paper. Demand
//! above capacity is not resolved but reported: [`GlobalRoute::overflow`]
//! and [`GlobalRoute::peak_utilization`] reach the flow result and the
//! suite table.

use smt_base::geom::Point;
use smt_cells::library::Library;
use smt_netlist::netlist::{NetDriver, NetId, Netlist};
use smt_place::Placement;

/// Router options.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteConfig {
    /// Tile edge length, µm.
    pub tile_um: f64,
    /// Routing tracks per tile boundary.
    pub capacity: u32,
    /// Rip-up & reroute iterations. Must be 0: the router routes every
    /// net once and reports the overflow it leaves, and
    /// [`RouteConfig::validate`] rejects any other value. The field and
    /// its JSON key stay until the benchmark (`perfbench/`) stops naming
    /// them.
    pub rrr_iterations: usize,
}

impl Default for RouteConfig {
    fn default() -> Self {
        RouteConfig {
            tile_um: 8.0,
            capacity: 14,
            rrr_iterations: 0,
        }
    }
}

/// Why a [`RouteConfig`] cannot route a design.
#[derive(Debug, Clone, PartialEq)]
pub enum RouteError {
    /// `tile_um` must be finite and at least one placement row high.
    /// The row height bounds the grid by the design: a smaller tile
    /// sizes it by the knob instead, and a sub-nanometre tile asks for
    /// terabytes of grid state.
    BadTile {
        /// The rejected tile edge, µm.
        value: f64,
        /// The smallest accepted tile edge (one placement row), µm.
        min_um: f64,
    },
    /// Zero tracks per boundary make utilisation NaN or infinite.
    ZeroCapacity,
    /// `rrr_iterations` above 0 asks for rip-up & reroute, which the
    /// router does not run: it routes each net once.
    RipUpUnsupported {
        /// The rejected iteration count.
        iterations: usize,
    },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::BadTile { value, min_um } => write!(
                f,
                "router tile_um must be finite and at least one row ({min_um} um), got {value}"
            ),
            RouteError::ZeroCapacity => f.write_str("router capacity must be at least 1 track"),
            RouteError::RipUpUnsupported { iterations } => write!(
                f,
                "router rrr_iterations must be 0 (each net is routed once, \
                 without rip-up & reroute), got {iterations}"
            ),
        }
    }
}

impl std::error::Error for RouteError {}

impl RouteConfig {
    /// Checks the config against `lib`'s placement rows (mirrors
    /// `PlacerConfig::validate`). [`crate::router::Router::route`]
    /// trusts its config, so callers holding one from outside the
    /// program validate it first.
    ///
    /// # Errors
    ///
    /// [`RouteError`] naming the offending knob.
    pub fn validate(&self, lib: &Library) -> Result<(), RouteError> {
        let min_um = lib.tech.row_height_um;
        if !(self.tile_um.is_finite() && self.tile_um >= min_um) {
            return Err(RouteError::BadTile {
                value: self.tile_um,
                min_um,
            });
        }
        if self.capacity == 0 {
            return Err(RouteError::ZeroCapacity);
        }
        if self.rrr_iterations > 0 {
            return Err(RouteError::RipUpUnsupported {
                iterations: self.rrr_iterations,
            });
        }
        Ok(())
    }
}

/// Result of global routing.
#[derive(Debug, Clone)]
pub struct GlobalRoute {
    /// Tile size used, µm.
    pub tile_um: f64,
    /// Grid dimensions in tiles.
    pub nx: usize,
    /// Grid dimensions in tiles.
    pub ny: usize,
    /// Routed length per net (µm); 0 for single-pin/unplaced nets.
    pub net_length: Vec<f64>,
    /// Total demand over capacity across edges (0 = congestion-free).
    pub overflow: u64,
    /// Peak edge utilisation (demand / capacity).
    pub peak_utilization: f64,
}

impl GlobalRoute {
    /// Routed length of one net, µm.
    pub fn length(&self, net: NetId) -> f64 {
        self.net_length[net.index()]
    }

    /// Sum of all routed lengths.
    pub fn total_length(&self) -> f64 {
        self.net_length.iter().sum()
    }
}

/// Track usage per tile edge, kept to report overflow and peak
/// utilisation; routing never reads it.
#[derive(Debug, Clone)]
pub(crate) struct Grid {
    nx: usize,
    /// usage of horizontal edges (between (x,y) and (x+1,y)): (nx-1)*ny
    h: Vec<u32>,
    /// usage of vertical edges: nx*(ny-1)
    v: Vec<u32>,
    capacity: u32,
    /// Edge count per usage value, maintained by `apply` so peak
    /// utilisation never needs an O(edges) scan.
    hist: Vec<u64>,
    /// Running total of usage above capacity, maintained by `apply`.
    over: u64,
}

impl Grid {
    pub(crate) fn empty(nx: usize, ny: usize, capacity: u32) -> Grid {
        Grid {
            nx,
            h: vec![0; (nx - 1) * ny],
            v: vec![0; nx * (ny - 1)],
            capacity,
            hist: vec![((nx - 1) * ny + nx * (ny - 1)) as u64],
            over: 0,
        }
    }

    fn h_idx(&self, x: usize, y: usize) -> usize {
        y * (self.nx - 1) + x
    }
    fn v_idx(&self, x: usize, y: usize) -> usize {
        y * self.nx + x
    }

    pub(crate) fn apply(&mut self, path: &[(usize, usize)], dir: i32) {
        for w in path.windows(2) {
            let ((x0, y0), (x1, y1)) = (w[0], w[1]);
            let u = if y0 == y1 {
                let i = self.h_idx(x0.min(x1), y0);
                let old = self.h[i];
                self.h[i] = (old as i64 + dir as i64).max(0) as u32;
                (old, self.h[i])
            } else {
                let i = self.v_idx(x0, y0.min(y1));
                let old = self.v[i];
                self.v[i] = (old as i64 + dir as i64).max(0) as u32;
                (old, self.v[i])
            };
            let (old, new) = u;
            if old == new {
                continue;
            }
            self.hist[old as usize] -= 1;
            if new as usize >= self.hist.len() {
                self.hist.resize(new as usize + 1, 0);
            }
            self.hist[new as usize] += 1;
            // Overflow contribution is max(usage - capacity, 0); a ±1
            // step changes it by ±1 exactly when the higher of the two
            // values is above capacity.
            if old.max(new) > self.capacity {
                if new > old {
                    self.over += 1;
                } else {
                    self.over -= 1;
                }
            }
        }
    }

    pub(crate) fn overflow(&self) -> u64 {
        self.over
    }

    pub(crate) fn peak_utilization(&self) -> f64 {
        // `hist` keeps trailing zero buckets after usage drops; the scan
        // is over distinct usage values, not edges.
        let m = self.hist.iter().rposition(|&c| c > 0).unwrap_or(0);
        m as f64 / self.capacity as f64
    }
}

/// The tile path of one two-pin connection, both ends included: the L
/// whose horizontal leg runs on the lower of the two rows,
/// `min(from.1, to.1)`. Each step crosses one tile edge, so the path is
/// L1-shortest. Of those paths it is the one a uniform-cost A* search
/// over the empty grid returns when its heap breaks ties by row-major
/// tile index (`tests::reference_route`, the oracle of
/// `tests::l_path_matches_the_reference_search`).
pub(crate) fn l_path(from: (usize, usize), to: (usize, usize)) -> Vec<(usize, usize)> {
    let ((fx, fy), (tx, ty)) = (from, to);
    let row = fy.min(ty);
    let mut path = Vec::with_capacity(fx.abs_diff(tx) + fy.abs_diff(ty) + 1);
    // Down `from`'s column to the lower row (no step when `from` is on
    // it), along that row, then up `to`'s column.
    path.extend((row..=fy).rev().map(|y| (fx, y)));
    if tx >= fx {
        path.extend((fx + 1..=tx).map(|x| (x, row)));
    } else {
        path.extend((tx..fx).rev().map(|x| (x, row)));
    }
    path.extend((row + 1..=ty).map(|y| (tx, y)));
    path
}

/// Collects the pin points of a net (driver first).
pub(crate) fn net_pins(netlist: &Netlist, placement: &Placement, net: NetId) -> Vec<Point> {
    let n = netlist.net(net);
    let mut pins = Vec::with_capacity(1 + n.loads.len() + n.port_loads.len());
    match n.driver {
        Some(NetDriver::Inst(pr)) => pins.push(placement.loc(pr.inst)),
        Some(NetDriver::Port(p)) => pins.push(placement.port_loc(p)),
        None => return Vec::new(),
    }
    for pr in &n.loads {
        pins.push(placement.loc(pr.inst));
    }
    for p in &n.port_loads {
        pins.push(placement.port_loc(*p));
    }
    pins
}

/// Runs global routing over all multi-pin nets.
///
/// Thin wrapper over [`crate::router::Router`]: every net is routed
/// independently, in closed form (a pure function of the net's pin
/// list, which is what makes per-net caching and the incremental
/// [`crate::router::Router::reroute_nets`] path exact).
pub fn route_global(
    netlist: &Netlist,
    lib: &Library,
    placement: &Placement,
    config: &RouteConfig,
) -> GlobalRoute {
    crate::router::Router::route(netlist, lib, placement, config, 0)
        .global()
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_base::rng::SplitMix64;
    use smt_place::{place, PlacerConfig};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn chain(lib: &Library, len: usize) -> Netlist {
        let mut n = Netlist::new("chain");
        let mut prev = n.add_input("a");
        let inv = lib.find_id("INV_X1_L").unwrap();
        for i in 0..len {
            let w = n.add_net(&format!("w{i}"));
            let u = n.add_instance(&format!("u{i}"), inv, lib);
            n.connect_by_name(u, "A", prev, lib).unwrap();
            n.connect_by_name(u, "Z", w, lib).unwrap();
            prev = w;
        }
        n.expose_output("z", prev);
        n
    }

    /// Reference search for the closed-form oracle: the A* maze search
    /// routing used to run, over an empty `nx`×`ny` grid, where every
    /// edge costs `1 + weight·(usage / capacity)³ = 1`. Fresh arrays per
    /// call, every pop expanded, tuple heap keys ordered by quantised
    /// f-score, then tile index.
    fn reference_route(
        nx: usize,
        ny: usize,
        from: (usize, usize),
        to: (usize, usize),
    ) -> Vec<(usize, usize)> {
        let idx = |x: usize, y: usize| y * nx + x;
        let mut dist = vec![f64::INFINITY; nx * ny];
        let mut prev = vec![usize::MAX; nx * ny];
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        let h_est = |x: usize, y: usize| {
            ((x as f64 - to.0 as f64).abs() + (y as f64 - to.1 as f64).abs()) * 1.0
        };
        dist[idx(from.0, from.1)] = 0.0;
        let key = |d: f64| (d * 1024.0) as u64;
        heap.push(Reverse((key(h_est(from.0, from.1)), idx(from.0, from.1))));
        while let Some(Reverse((_, u))) = heap.pop() {
            let (x, y) = (u % nx, u / nx);
            if (x, y) == to {
                break;
            }
            let du = dist[u];
            let mut neighbours: [(isize, isize, f64); 4] =
                [(1, 0, 0.0), (-1, 0, 0.0), (0, 1, 0.0), (0, -1, 0.0)];
            for n in &mut neighbours {
                let vx = x as isize + n.0;
                let vy = y as isize + n.1;
                n.2 = if vx < 0 || vy < 0 || vx as usize >= nx || vy as usize >= ny {
                    f64::INFINITY
                } else {
                    1.0
                };
            }
            for n in neighbours {
                if !n.2.is_finite() {
                    continue;
                }
                let vx = (x as isize + n.0) as usize;
                let vy = (y as isize + n.1) as usize;
                let v = idx(vx, vy);
                let nd = du + n.2;
                if nd < dist[v] {
                    dist[v] = nd;
                    prev[v] = u;
                    heap.push(Reverse((key(nd + h_est(vx, vy)), v)));
                }
            }
        }
        let mut path = Vec::new();
        let mut cur = idx(to.0, to.1);
        if prev[cur] == usize::MAX && from != to {
            return vec![from, to];
        }
        while cur != usize::MAX {
            path.push((cur % nx, cur / nx));
            if (cur % nx, cur / nx) == from {
                break;
            }
            cur = prev[cur];
        }
        path.reverse();
        path
    }

    #[test]
    fn l_path_matches_the_reference_search() {
        let check = |nx: usize, ny: usize, from: (usize, usize), to: (usize, usize)| {
            assert_eq!(
                l_path(from, to),
                reference_route(nx, ny, from, to),
                "{nx}x{ny}: {from:?} -> {to:?}"
            );
        };
        // Every (from, to) pair, non-square and 2-wide grids included.
        for (nx, ny) in [(2, 2), (3, 9), (7, 5), (2, 13), (17, 17), (9, 30)] {
            for from in (0..ny).flat_map(|y| (0..nx).map(move |x| (x, y))) {
                for to in (0..ny).flat_map(|y| (0..nx).map(move |x| (x, y))) {
                    check(nx, ny, from, to);
                }
            }
        }
        // Seeded pairs on grids at least 500 tiles a side.
        let mut gen = SplitMix64::new(0x1EAF);
        for (nx, ny, pairs) in [(500, 500, 24), (2, 600, 200), (640, 3, 200), (513, 512, 24)] {
            for _ in 0..pairs {
                let from = (gen.next_below(nx), gen.next_below(ny));
                let to = (gen.next_below(nx), gen.next_below(ny));
                check(nx, ny, from, to);
            }
        }
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        let lib = Library::industrial_130nm();
        let ok = RouteConfig::default();
        assert_eq!(ok.validate(&lib), Ok(()));
        let row = lib.tech.row_height_um;
        let at_row = RouteConfig {
            tile_um: row,
            ..ok.clone()
        };
        assert_eq!(at_row.validate(&lib), Ok(()));
        for tile_um in [0.0, 1e-4, -8.0, row * 0.99, f64::NAN, f64::INFINITY] {
            let bad = RouteConfig {
                tile_um,
                ..ok.clone()
            };
            assert!(
                matches!(bad.validate(&lib), Err(RouteError::BadTile { .. })),
                "tile_um {tile_um}"
            );
        }
        let zero = RouteConfig {
            capacity: 0,
            ..ok.clone()
        };
        assert_eq!(zero.validate(&lib), Err(RouteError::ZeroCapacity));
        for iterations in [1, 2, usize::MAX] {
            let rrr = RouteConfig {
                rrr_iterations: iterations,
                ..ok.clone()
            };
            assert_eq!(
                rrr.validate(&lib),
                Err(RouteError::RipUpUnsupported { iterations })
            );
        }
    }

    #[test]
    fn routes_all_nets_with_positive_length() {
        let lib = Library::industrial_130nm();
        let n = chain(&lib, 50);
        let p = place(&n, &lib, &PlacerConfig::default());
        let gr = route_global(&n, &lib, &p, &RouteConfig::default());
        assert!(gr.total_length() > 0.0);
        // Routed length should be within a sane factor of HPWL.
        let hpwl = p.hpwl(&n);
        assert!(
            gr.total_length() < hpwl * 4.0 + 200.0,
            "routed {} vs hpwl {hpwl}",
            gr.total_length()
        );
    }

    #[test]
    fn congestion_free_small_design() {
        let lib = Library::industrial_130nm();
        let n = chain(&lib, 20);
        let p = place(&n, &lib, &PlacerConfig::default());
        let gr = route_global(&n, &lib, &p, &RouteConfig::default());
        assert_eq!(gr.overflow, 0, "peak = {}", gr.peak_utilization);
    }

    #[test]
    fn tight_capacity_still_routes_every_net() {
        let lib = Library::industrial_130nm();
        let n = chain(&lib, 60);
        let p = place(&n, &lib, &PlacerConfig::default());
        let cfg = RouteConfig {
            capacity: 1,
            ..RouteConfig::default()
        };
        let gr = route_global(&n, &lib, &p, &cfg);
        // Every multi-pin net still gets a length.
        for (id, net) in n.nets() {
            if net.driver.is_some() && !net.loads.is_empty() {
                let pins = net_pins(&n, &p, id);
                let spread = pins.iter().any(|&q| q.manhattan(pins[0]) > gr.tile_um);
                if spread {
                    assert!(gr.length(id) > 0.0, "net {} unrouted", net.name);
                }
            }
        }
    }
}
