//! Incremental global-routing session.
//!
//! [`Router`] mirrors the `Placer` session pattern for the routing
//! stage: a full [`Router::route`] pass caches one route per net, and
//! [`Router::reroute_nets`] later revalidates only the nets whose pin
//! lists changed (cell swapped, load rebound, instance moved), reusing
//! everything else.
//!
//! Reuse is *exact*, not approximate. Each net is routed once and on
//! its own: every Steiner edge takes its closed-form L-shaped tile path
//! (`global::l_path`), so a net's route is a pure function of
//! its ordered pin list, fingerprinted with [`Fnv64`]. Nets never
//! invalidate each other, and the pass parallelises over nets with no
//! ordering effects. The usage grid is the sum of all routes
//! (commutative, so worker-count invariant); its overflow is reported,
//! not resolved, so a refresh costs only the routes of the stale nets,
//! and an incremental refresh is bit-identical to routing the same
//! netlist from scratch — the property the whole-flow incrementality
//! tests digest-assert.

use crate::global::{l_path, net_pins, GlobalRoute, Grid, RouteConfig};
use crate::steiner::steiner_tree;
use smt_base::fingerprint::Fnv64;
use smt_base::geom::{Point, Rect};
use smt_base::par::parallel_map;
use smt_cells::library::Library;
use smt_netlist::netlist::{NetDriver, NetId, Netlist};
use smt_place::Placement;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};

static FULL_ROUTE_RUNS: AtomicU64 = AtomicU64::new(0);

/// Number of from-scratch global-routing passes since process start.
/// Incremental [`Router::reroute_nets`] refreshes do not count; tests
/// use the delta of this counter to assert session reuse.
pub fn full_route_runs() -> u64 {
    FULL_ROUTE_RUNS.load(Ordering::Relaxed)
}

/// One net's routed tile paths (one per inter-tile Steiner edge) and its
/// total routed length in µm.
#[derive(Debug, Clone, Default, PartialEq)]
struct NetRoute {
    paths: Vec<Vec<(usize, usize)>>,
    length: f64,
}

/// Incremental global-routing session: cached per-net routes plus the
/// per-net pin fingerprints that revalidate them against any later
/// netlist and placement.
#[derive(Debug, Clone)]
pub struct Router {
    config: RouteConfig,
    die: Rect,
    nx: usize,
    ny: usize,
    /// Fingerprint of the ordered pin list each route was computed
    /// from; `None` marks a slot that has never been routed.
    fp: Vec<Option<u64>>,
    /// Route per net (pure in the pin list).
    routes: Vec<NetRoute>,
    /// Live usage grid: always the edge-wise sum of the route paths,
    /// maintained by ±1 deltas as routes change — a refresh never
    /// re-applies the whole design or clones the grid.
    grid: Grid,
    view: GlobalRoute,
    /// Nets whose route was rebuilt by the last refresh.
    pub last_rerouted: usize,
    /// Nets whose cached route survived the last refresh.
    pub last_reused: usize,
}

/// Fingerprint of a net's ordered pin list (driver first, then instance
/// loads in load order, then port loads) — the only input the route
/// depends on besides die/config, which the session tracks separately.
/// Streamed straight off the netlist without materialising the
/// intermediate `Vec<Point>` that [`net_pins`] builds (hash framing
/// asserted against it in tests) — what keeps the every-net
/// revalidation scan allocation-free.
fn pin_fp_of(netlist: &Netlist, placement: &Placement, id: NetId) -> u64 {
    let n = netlist.net(id);
    let mut h = Fnv64::new();
    let driver = match n.driver {
        Some(NetDriver::Inst(pr)) => placement.loc(pr.inst),
        Some(NetDriver::Port(p)) => placement.port_loc(p),
        None => {
            // `net_pins` returns an empty list for undriven nets.
            h.write_usize(0);
            return h.finish();
        }
    };
    h.write_usize(1 + n.loads.len() + n.port_loads.len());
    h.write_f64(driver.x);
    h.write_f64(driver.y);
    for pr in &n.loads {
        let p = placement.loc(pr.inst);
        h.write_f64(p.x);
        h.write_f64(p.y);
    }
    for p in &n.port_loads {
        let p = placement.port_loc(*p);
        h.write_f64(p.x);
        h.write_f64(p.y);
    }
    h.finish()
}

impl Router {
    /// Full global-routing pass (counts toward [`full_route_runs`]).
    pub fn route(
        netlist: &Netlist,
        lib: &Library,
        placement: &Placement,
        config: &RouteConfig,
        workers: usize,
    ) -> Router {
        FULL_ROUTE_RUNS.fetch_add(1, Ordering::Relaxed);
        let die = placement.die;
        let (nx, ny) = grid_dims(die, config);
        let mut router = Router {
            config: config.clone(),
            die,
            nx,
            ny,
            fp: Vec::new(),
            routes: Vec::new(),
            grid: Grid::empty(nx, ny, config.capacity),
            view: GlobalRoute {
                tile_um: config.tile_um,
                nx,
                ny,
                net_length: Vec::new(),
                overflow: 0,
                peak_utilization: 0.0,
            },
            last_rerouted: 0,
            last_reused: 0,
        };
        router.refresh_inner(netlist, lib, placement, None, workers);
        router
    }

    /// The current route view (same shape [`crate::global::route_global`]
    /// returns).
    pub fn global(&self) -> &GlobalRoute {
        &self.view
    }

    /// Revalidates every net (no candidate scoping).
    pub fn refresh(
        &mut self,
        netlist: &Netlist,
        lib: &Library,
        placement: &Placement,
        config: &RouteConfig,
        workers: usize,
    ) {
        self.reroute_nets(netlist, lib, placement, config, None, workers);
    }

    /// Incremental refresh. With `candidates: None` — what
    /// [`Router::refresh`], and so the flow, passes — every net's pin
    /// fingerprint is recomputed and compared
    /// with the cached one; stale nets get a fresh route in parallel.
    /// `Some(set)` checks only `set` (plus any nets created since the
    /// last pass), so it is only sound when `set` covers every net whose
    /// pins moved or rebound.
    pub fn reroute_nets(
        &mut self,
        netlist: &Netlist,
        lib: &Library,
        placement: &Placement,
        config: &RouteConfig,
        candidates: Option<&BTreeSet<NetId>>,
        workers: usize,
    ) {
        if placement.die != self.die || *config != self.config {
            // Geometry or knobs changed: nothing is reusable.
            *self = Router::route(netlist, lib, placement, config, workers);
            return;
        }
        self.refresh_inner(netlist, lib, placement, candidates, workers);
    }

    /// Digest of the complete routing result (lengths, paths, congestion
    /// figures) for bit-identity and worker-invariance assertions.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_usize(self.nx);
        h.write_usize(self.ny);
        h.write_u64(self.view.overflow);
        h.write_f64(self.view.peak_utilization);
        for nr in &self.routes {
            h.write_f64(nr.length);
            h.write_usize(nr.paths.len());
            for path in &nr.paths {
                h.write_usize(path.len());
                for &(x, y) in path {
                    h.write_usize(x);
                    h.write_usize(y);
                }
            }
        }
        h.finish()
    }

    fn refresh_inner(
        &mut self,
        netlist: &Netlist,
        lib: &Library,
        placement: &Placement,
        candidates: Option<&BTreeSet<NetId>>,
        workers: usize,
    ) {
        let _ = lib;
        let known = self.fp.len();
        let num_nets = netlist.num_nets();
        if num_nets < known {
            // Checkpoint forks can rewind past net creations: retire the
            // dropped slots from the live grid before truncating.
            for nr in &self.routes[num_nets..] {
                for path in &nr.paths {
                    self.grid.apply(path, -1);
                }
            }
        }
        self.fp.resize(num_nets, None);
        self.routes.resize(num_nets, NetRoute::default());

        // Which slots need their route rebuilt?
        let mut stale: Vec<NetId> = Vec::new();
        let check = |id: NetId, fp: &mut Vec<Option<u64>>, stale: &mut Vec<NetId>| {
            let now = pin_fp_of(netlist, placement, id);
            if fp[id.index()] != Some(now) {
                fp[id.index()] = Some(now);
                stale.push(id);
            }
        };
        match candidates {
            Some(set) => {
                for &id in set {
                    if id.index() < num_nets {
                        check(id, &mut self.fp, &mut stale);
                    }
                }
                // Nets created since the last pass are always checked.
                for i in known..num_nets {
                    let id = NetId(i as u32);
                    if !set.contains(&id) {
                        check(id, &mut self.fp, &mut stale);
                    }
                }
            }
            None => {
                for (id, _) in netlist.nets() {
                    check(id, &mut self.fp, &mut stale);
                }
            }
        }
        stale.sort_unstable();
        self.last_rerouted = stale.len();
        self.last_reused = num_nets - stale.len();
        if stale.is_empty() && num_nets == known {
            // No pin list changed and no net appeared or retired: the
            // routes, the grid and the view are all still exact.
            return;
        }

        // Route the stale nets: pure per-net routing, fanned out with
        // order-preserving `parallel_map`. Small deltas stay on this
        // thread — spawning a worker pool costs more than routing a
        // handful of nets.
        let workers = if stale.len() < 32 { 1 } else { workers };
        let routed = parallel_map(&stale, workers, |&id| {
            self.route_net(netlist, placement, id)
        });
        for (&id, nr) in stale.iter().zip(routed) {
            // ±1 edge updates are exact and commutative, so the grid
            // reaches the same state in any order.
            for path in &self.routes[id.index()].paths {
                self.grid.apply(path, -1);
            }
            self.routes[id.index()] = nr;
            for path in &self.routes[id.index()].paths {
                self.grid.apply(path, 1);
            }
        }

        self.view = GlobalRoute {
            tile_um: self.config.tile_um,
            nx: self.nx,
            ny: self.ny,
            net_length: self.routes.iter().map(|nr| nr.length).collect(),
            overflow: self.grid.overflow(),
            peak_utilization: self.grid.peak_utilization(),
        };
    }

    /// Routes one net: each Steiner edge between two tiles takes its
    /// closed-form L path, and a sub-tile edge counts its direct length.
    /// A pure function of the net's pin list.
    fn route_net(&self, netlist: &Netlist, placement: &Placement, id: NetId) -> NetRoute {
        let pins = net_pins(netlist, placement, id);
        if pins.len() < 2 {
            return NetRoute::default();
        }
        let tree = steiner_tree(&pins);
        let mut paths = Vec::new();
        let mut length = 0.0;
        for (child, parent) in tree.edges() {
            let from = self.tile_of(tree.nodes[parent]);
            let to = self.tile_of(tree.nodes[child]);
            if from == to {
                // Sub-tile connection: count its direct length.
                length += tree.nodes[parent].manhattan(tree.nodes[child]);
                continue;
            }
            let path = l_path(from, to);
            length += (path.len() - 1) as f64 * self.config.tile_um;
            paths.push(path);
        }
        NetRoute { paths, length }
    }

    fn tile_of(&self, p: Point) -> (usize, usize) {
        let x = (((p.x - self.die.lo.x) / self.config.tile_um) as usize).min(self.nx - 1);
        let y = (((p.y - self.die.lo.y) / self.config.tile_um) as usize).min(self.ny - 1);
        (x, y)
    }
}

fn grid_dims(die: Rect, config: &RouteConfig) -> (usize, usize) {
    let nx = ((die.width() / config.tile_um).ceil() as usize).max(2);
    let ny = ((die.height() / config.tile_um).ceil() as usize).max(2);
    (nx, ny)
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn streamed_pin_fp_matches_materialised_pin_list() {
        let lib = Library::industrial_130nm();
        let n = chain(&lib, 12);
        let p = place(&n, &lib, &PlacerConfig::default());
        for (id, _) in n.nets() {
            let pins = net_pins(&n, &p, id);
            let mut h = Fnv64::new();
            h.write_usize(pins.len());
            for pt in &pins {
                h.write_f64(pt.x);
                h.write_f64(pt.y);
            }
            assert_eq!(pin_fp_of(&n, &p, id), h.finish(), "net {id:?}");
        }
    }

    #[test]
    fn refresh_without_changes_reroutes_nothing() {
        let lib = Library::industrial_130nm();
        let n = chain(&lib, 30);
        let p = place(&n, &lib, &PlacerConfig::default());
        let cfg = RouteConfig::default();
        let mut r = Router::route(&n, &lib, &p, &cfg, 0);
        let d0 = r.digest();
        r.refresh(&n, &lib, &p, &cfg, 0);
        assert_eq!(r.last_rerouted, 0);
        assert_eq!(r.last_reused, n.num_nets());
        assert_eq!(r.digest(), d0);
    }

    #[test]
    fn incremental_matches_from_scratch_after_a_move() {
        let lib = Library::industrial_130nm();
        let n = chain(&lib, 30);
        let mut p = place(&n, &lib, &PlacerConfig::default());
        let cfg = RouteConfig::default();
        let mut r = Router::route(&n, &lib, &p, &cfg, 0);

        // Move one instance; only its incident nets need rerouting.
        let u7 = n.find_inst("u7").unwrap();
        let loc = p.loc(u7);
        p.set_loc(u7, smt_base::geom::Point::new(loc.x + 16.0, loc.y));
        let cand: BTreeSet<NetId> = n.inst(u7).conns.iter().flatten().copied().collect();
        r.reroute_nets(&n, &lib, &p, &cfg, Some(&cand), 0);
        assert!(r.last_rerouted <= cand.len());
        assert!(r.last_reused >= n.num_nets() - cand.len());

        let scratch = Router::route(&n, &lib, &p, &cfg, 0);
        assert_eq!(r.digest(), scratch.digest());
        assert_eq!(r.global().net_length, scratch.global().net_length);
    }

    #[test]
    fn worker_count_does_not_change_the_result() {
        let lib = Library::industrial_130nm();
        let n = chain(&lib, 40);
        let p = place(&n, &lib, &PlacerConfig::default());
        let cfg = RouteConfig {
            capacity: 2,
            ..RouteConfig::default()
        };
        let r1 = Router::route(&n, &lib, &p, &cfg, 1);
        // Below 32 stale nets a pass stays on one thread, whatever the
        // worker count.
        assert!(r1.last_rerouted >= 32, "{} nets routed", r1.last_rerouted);
        for workers in [2, 4, 8] {
            assert_eq!(
                Router::route(&n, &lib, &p, &cfg, workers).digest(),
                r1.digest()
            );
        }
    }

    #[test]
    fn full_runs_counter_advances_only_on_full_passes() {
        let lib = Library::industrial_130nm();
        let n = chain(&lib, 10);
        let p = place(&n, &lib, &PlacerConfig::default());
        let cfg = RouteConfig::default();
        let before = full_route_runs();
        let mut r = Router::route(&n, &lib, &p, &cfg, 0);
        r.refresh(&n, &lib, &p, &cfg, 0);
        r.refresh(&n, &lib, &p, &cfg, 0);
        assert_eq!(full_route_runs() - before, 1);
    }
}
