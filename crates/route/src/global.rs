//! Grid-based global routing with congestion-aware maze search and
//! rip-up & reroute.
//!
//! The die is tiled; every tile boundary has a track capacity. Each net's
//! Steiner edges are routed as two-pin connections by A* over the tile
//! graph with a congestion-penalised cost, and nets crossing overflowed
//! edges are ripped up and rerouted with a sharper penalty. The outcome
//! per net is a *routed length*, which extraction converts to post-route
//! RC — the "precise RC information which is generated after routing" of
//! the paper.

use smt_base::geom::Point;
use smt_cells::library::Library;
use smt_netlist::netlist::{NetDriver, NetId, Netlist};
use smt_place::Placement;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Router options.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteConfig {
    /// Tile edge length, µm.
    pub tile_um: f64,
    /// Routing tracks per tile boundary.
    pub capacity: u32,
    /// Rip-up & reroute iterations after the initial pass.
    pub rrr_iterations: usize,
}

impl Default for RouteConfig {
    fn default() -> Self {
        RouteConfig {
            tile_um: 8.0,
            capacity: 14,
            rrr_iterations: 2,
        }
    }
}

/// Why a [`RouteConfig`] cannot route a design.
#[derive(Debug, Clone, PartialEq)]
pub enum RouteError {
    /// `tile_um` must be finite and at least one placement row high.
    /// The row height bounds the grid by the design: a smaller tile
    /// sizes it by the knob instead, and a sub-nanometre tile asks for
    /// terabytes of search state.
    BadTile {
        /// The rejected tile edge, µm.
        value: f64,
        /// The smallest accepted tile edge (one placement row), µm.
        min_um: f64,
    },
    /// Zero tracks per boundary make every edge cost NaN or infinite.
    ZeroCapacity,
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::BadTile { value, min_um } => write!(
                f,
                "router tile_um must be finite and at least one row ({min_um} um), got {value}"
            ),
            RouteError::ZeroCapacity => f.write_str("router capacity must be at least 1 track"),
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

#[derive(Debug, Clone)]
pub(crate) struct Grid {
    pub(crate) nx: usize,
    pub(crate) ny: usize,
    /// usage of horizontal edges (between (x,y) and (x+1,y)): (nx-1)*ny
    pub(crate) h: Vec<u32>,
    /// usage of vertical edges: nx*(ny-1)
    pub(crate) v: Vec<u32>,
    pub(crate) capacity: u32,
    /// Edge count per usage value, maintained by `apply` so peak
    /// utilisation never needs an O(edges) scan. Every usage on the grid
    /// indexes it, which [`SearchBuf`]'s cost table relies on.
    hist: Vec<u64>,
    /// Running total of usage above capacity, maintained by `apply`.
    over: u64,
}

impl Grid {
    pub(crate) fn empty(nx: usize, ny: usize, capacity: u32) -> Grid {
        Grid {
            nx,
            ny,
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

    fn edge_cost(&self, usage: u32, weight: f64) -> f64 {
        let u = usage as f64 / self.capacity as f64;
        1.0 + weight * u.powi(3)
    }

    /// A* route between two tiles; returns the tile path. `buf` carries
    /// the search state between calls; any buffer gives the same path.
    pub(crate) fn route(
        &self,
        from: (usize, usize),
        to: (usize, usize),
        weight: f64,
        buf: &mut SearchBuf,
    ) -> Vec<(usize, usize)> {
        let nx = self.nx;
        buf.begin(self, weight);
        let SearchBuf {
            generation,
            tiles,
            heap,
            cost,
            ..
        } = buf;
        let generation = *generation;
        let h_est = |x: usize, y: usize| {
            ((x as f64 - to.0 as f64).abs() + (y as f64 - to.1 as f64).abs()) * 1.0
        };
        // Heap entries order by (quantised f-score, tile), packed into one
        // word: the high half is the key, the low half the tile index.
        let entry =
            |f: f64, tile: usize| Reverse((u128::from((f * 1024.0) as u64) << 64) | tile as u128);
        let src = from.1 * nx + from.0;
        tiles[src] = TileState {
            generation,
            dist: 0.0,
            prev: usize::MAX,
            expanded: f64::NAN,
        };
        heap.push(entry(h_est(from.0, from.1), src));
        while let Some(Reverse(top)) = heap.pop() {
            let u = top as u64 as usize;
            let (x, y) = (u % nx, u / nx);
            if (x, y) == to {
                break;
            }
            // Every queued tile was reached this search, so its state is
            // current. The grid is read-only during the search and `dist`
            // only falls, so a tile already expanded at its current
            // distance would relax nothing: skip the stale entry.
            let du = tiles[u].dist;
            if tiles[u].expanded == du {
                continue;
            }
            tiles[u].expanded = du;
            let neighbours = [
                (x + 1 < nx).then(|| (u + 1, self.h[self.h_idx(x, y)])),
                (x > 0).then(|| (u - 1, self.h[self.h_idx(x - 1, y)])),
                (y + 1 < self.ny).then(|| (u + nx, self.v[self.v_idx(x, y)])),
                (y > 0).then(|| (u - nx, self.v[self.v_idx(x, y - 1)])),
            ];
            for (v, usage) in neighbours.into_iter().flatten() {
                // `hist` has a bucket for every usage value on the grid,
                // so the table covers it.
                let c = cost[usage as usize];
                if !c.is_finite() {
                    continue;
                }
                let nd = du + c;
                let tv = &mut tiles[v];
                if tv.generation != generation {
                    *tv = TileState {
                        generation,
                        dist: f64::INFINITY,
                        prev: usize::MAX,
                        expanded: f64::NAN,
                    };
                }
                if nd < tv.dist {
                    tv.dist = nd;
                    tv.prev = u;
                    heap.push(entry(nd + h_est(v % nx, v / nx), v));
                }
            }
        }
        // Reconstruct.
        let prev = |t: usize| {
            let s = &tiles[t];
            if s.generation == generation {
                s.prev
            } else {
                usize::MAX
            }
        };
        let mut path = Vec::new();
        let mut cur = to.1 * nx + to.0;
        if prev(cur) == usize::MAX && from != to {
            return vec![from, to]; // disconnected fallback (never with a full grid)
        }
        while cur != usize::MAX {
            path.push((cur % nx, cur / nx));
            if (cur % nx, cur / nx) == from {
                break;
            }
            cur = prev(cur);
        }
        path.reverse();
        path
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

    pub(crate) fn path_overflows(&self, path: &[(usize, usize)]) -> bool {
        for w in path.windows(2) {
            let ((x0, y0), (x1, y1)) = (w[0], w[1]);
            let usage = if y0 == y1 {
                self.h[self.h_idx(x0.min(x1), y0)]
            } else {
                self.v[self.v_idx(x0, y0.min(y1))]
            };
            if usage > self.capacity {
                return true;
            }
        }
        false
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

/// One tile's A* state; meaningful only while `generation` matches the
/// owning [`SearchBuf`]'s current search.
#[derive(Debug, Clone, Copy, Default)]
struct TileState {
    generation: u32,
    dist: f64,
    prev: usize,
    /// `dist` when the tile was last expanded (NaN before that).
    expanded: f64,
}

/// Reusable A* state for [`Grid::route`]. Tile entries carry the
/// generation of the search that wrote them, so a new search starts by
/// bumping the generation instead of refilling `nx·ny` arrays, and the
/// heap keeps its capacity between searches.
#[derive(Debug, Default)]
pub(crate) struct SearchBuf {
    generation: u32,
    tiles: Vec<TileState>,
    heap: BinaryHeap<Reverse<u128>>,
    /// `Grid::edge_cost(usage, weight)` per usage value, for the
    /// `(weight bits, capacity)` in `cost_key`.
    cost: Vec<f64>,
    cost_key: (u64, u32),
}

impl SearchBuf {
    /// Readies the buffer for a search over `grid` at `weight`: a new
    /// generation, an empty heap, and an edge-cost table covering every
    /// usage value the grid holds, each entry computed by
    /// [`Grid::edge_cost`] itself.
    fn begin(&mut self, grid: &Grid, weight: f64) {
        let tiles = grid.nx * grid.ny;
        if self.tiles.len() < tiles {
            self.tiles.resize(tiles, TileState::default());
        }
        if self.generation == u32::MAX {
            // Wrapped: no stale stamp may alias the next generation.
            self.tiles.fill(TileState::default());
            self.generation = 0;
        }
        self.generation += 1;
        self.heap.clear();
        let key = (weight.to_bits(), grid.capacity);
        if self.cost_key != key {
            self.cost.clear();
            self.cost_key = key;
        }
        for usage in self.cost.len()..grid.hist.len() {
            self.cost.push(grid.edge_cost(usage as u32, weight));
        }
    }
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
/// Thin wrapper over [`crate::router::Router`]: the initial pass routes
/// every net independently on an empty grid (a pure function of the
/// net's pin list, which is what makes per-net caching and the
/// incremental [`crate::router::Router::reroute_nets`] path exact), and
/// congestion is then resolved by sequential rip-up & reroute in net-id
/// order against the live grid, so later victims see earlier victims'
/// new paths and the iteration converges deterministically.
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

    /// Reference search for the exactness oracle: fresh arrays per call,
    /// every pop expanded, edge costs computed per edge, tuple heap
    /// keys.
    fn reference_route(
        grid: &Grid,
        from: (usize, usize),
        to: (usize, usize),
        weight: f64,
    ) -> Vec<(usize, usize)> {
        let idx = |x: usize, y: usize| y * grid.nx + x;
        let mut dist = vec![f64::INFINITY; grid.nx * grid.ny];
        let mut prev = vec![usize::MAX; grid.nx * grid.ny];
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        let h_est = |x: usize, y: usize| {
            ((x as f64 - to.0 as f64).abs() + (y as f64 - to.1 as f64).abs()) * 1.0
        };
        dist[idx(from.0, from.1)] = 0.0;
        let key = |d: f64| (d * 1024.0) as u64;
        heap.push(Reverse((key(h_est(from.0, from.1)), idx(from.0, from.1))));
        while let Some(Reverse((_, u))) = heap.pop() {
            let (x, y) = (u % grid.nx, u / grid.nx);
            if (x, y) == to {
                break;
            }
            let du = dist[u];
            let mut neighbours: [(isize, isize, f64); 4] =
                [(1, 0, 0.0), (-1, 0, 0.0), (0, 1, 0.0), (0, -1, 0.0)];
            for n in &mut neighbours {
                let nx = x as isize + n.0;
                let ny = y as isize + n.1;
                if nx < 0 || ny < 0 || nx as usize >= grid.nx || ny as usize >= grid.ny {
                    n.2 = f64::INFINITY;
                    continue;
                }
                let usage = if n.0 != 0 {
                    grid.h[grid.h_idx(x.min(nx as usize), y)]
                } else {
                    grid.v[grid.v_idx(x, y.min(ny as usize))]
                };
                n.2 = grid.edge_cost(usage, weight);
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
            path.push((cur % grid.nx, cur / grid.nx));
            if (cur % grid.nx, cur / grid.nx) == from {
                break;
            }
            cur = prev[cur];
        }
        path.reverse();
        path
    }

    /// A grid with seeded random edge usage in `0..=max_usage`, its
    /// usage histogram and overflow kept consistent.
    fn random_grid(
        gen: &mut SplitMix64,
        nx: usize,
        ny: usize,
        capacity: u32,
        max_usage: u32,
    ) -> Grid {
        let mut g = Grid::empty(nx, ny, capacity);
        for u in g.h.iter_mut().chain(g.v.iter_mut()) {
            *u = gen.next_below(max_usage as usize + 1) as u32;
        }
        g.hist = vec![0; max_usage as usize + 1];
        for &u in g.h.iter().chain(&g.v) {
            g.hist[u as usize] += 1;
            g.over += u64::from(u.saturating_sub(capacity));
        }
        g
    }

    #[test]
    fn route_matches_the_reference_search() {
        let mut gen = SplitMix64::new(0x5EA4);
        // One buffer across every grid size, capacity and weight.
        let mut buf = SearchBuf::default();
        for (nx, ny) in [(2, 2), (3, 9), (17, 17), (48, 31), (9, 64)] {
            for capacity in [1, 4, 14, 64] {
                // Empty, lightly used and up to 10× overflowed grids. At
                // capacity 64 the light grid's cost steps fall below the
                // heap key's 1/1024 quantum, so tiles get re-expanded at
                // lower distances.
                let grids = [
                    Grid::empty(nx, ny, capacity),
                    random_grid(&mut gen, nx, ny, capacity, 1),
                    random_grid(&mut gen, nx, ny, capacity, 10 * capacity),
                ];
                for grid in &grids {
                    for weight in [0.0, 16.0, 24.0] {
                        for _ in 0..12 {
                            let from = (gen.next_below(nx), gen.next_below(ny));
                            let to = (gen.next_below(nx), gen.next_below(ny));
                            assert_eq!(
                                grid.route(from, to, weight, &mut buf),
                                reference_route(grid, from, to, weight),
                                "{nx}x{ny} cap {capacity} weight {weight}: {from:?} -> {to:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn search_buffer_survives_generation_wraparound() {
        let mut gen = SplitMix64::new(0xF00D);
        let grid = random_grid(&mut gen, 40, 30, 4, 40);
        let mut buf = SearchBuf::default();
        let check = |buf: &mut SearchBuf, from, to| {
            assert_eq!(
                grid.route(from, to, 24.0, buf),
                reference_route(&grid, from, to, 24.0),
                "{from:?} -> {to:?}"
            );
        };
        // Generation 1 stamps a wide search from one corner; after the
        // wrap-around, generation 1 comes back for searches into that
        // corner, where stale distances would block every relaxation.
        check(&mut buf, (0, 0), (39, 29));
        buf.generation = u32::MAX - 1;
        check(&mut buf, (39, 29), (38, 29));
        check(&mut buf, (39, 29), (0, 0));
        check(&mut buf, (20, 0), (1, 1));
        assert_eq!(buf.generation, 2, "generation wrapped");
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
        let zero = RouteConfig { capacity: 0, ..ok };
        assert_eq!(zero.validate(&lib), Err(RouteError::ZeroCapacity));
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
    fn tight_capacity_triggers_rrr_but_still_routes() {
        let lib = Library::industrial_130nm();
        let n = chain(&lib, 60);
        let p = place(&n, &lib, &PlacerConfig::default());
        let gr = route_global(
            &n,
            &lib,
            &p,
            &RouteConfig {
                capacity: 1,
                ..RouteConfig::default()
            },
        );
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
