//! Fiduccia–Mattheyses min-cut bipartitioning.
//!
//! The global placer cuts the netlist recursively; each cut is one or more
//! FM passes over a hypergraph view of the cells in the current region:
//! single-cell moves, balance constraint by cell area, best-prefix
//! rollback per pass.
//!
//! Move selection is a linear scan, not gain buckets: each move walks the
//! unlocked cells in index order, and among equal best gains a later cell
//! takes over with seeded probability 1/4. That costs O(unlocked cells)
//! per move and O(n²) per pass. Bucket-list FM (Fiduccia & Mattheyses,
//! DAC 1982) would be O(pins) per pass, but it cannot reproduce this
//! tie-break, whose RNG sequence feeds every placement digest, so it
//! waits for a change that is allowed to move placements.

use smt_base::rng::SplitMix64;

/// A hypergraph: nets connect cells; cells have areas (balance weights).
#[derive(Debug, Clone, Default)]
pub struct Hypergraph {
    /// `nets[n]` = cells on net `n`.
    pub nets: Vec<Vec<usize>>,
    /// `cell_nets[c]` = nets touching cell `c`.
    pub cell_nets: Vec<Vec<usize>>,
    /// Cell areas (used for the balance constraint).
    pub weight: Vec<f64>,
}

impl Hypergraph {
    /// Builds the incidence structure from net membership lists.
    pub fn new(num_cells: usize, nets: Vec<Vec<usize>>, weight: Vec<f64>) -> Self {
        assert_eq!(num_cells, weight.len());
        let mut cell_nets = vec![Vec::new(); num_cells];
        for (n, cells) in nets.iter().enumerate() {
            for &c in cells {
                cell_nets[c].push(n);
            }
        }
        Hypergraph {
            nets,
            cell_nets,
            weight,
        }
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.weight.len()
    }

    /// Cut size of a partition (number of nets spanning both sides).
    pub fn cut(&self, side: &[bool]) -> usize {
        self.nets
            .iter()
            .filter(|cells| {
                let mut any0 = false;
                let mut any1 = false;
                for &c in *cells {
                    if side[c] {
                        any1 = true;
                    } else {
                        any0 = true;
                    }
                }
                any0 && any1
            })
            .count()
    }
}

/// FM bipartitioning options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FmConfig {
    /// Maximum allowed deviation of one side's weight from half the total
    /// (fraction of total weight, e.g. `0.1` = 40/60 worst case).
    pub balance_tol: f64,
    /// Maximum FM passes.
    pub max_passes: usize,
    /// RNG seed for the initial partition.
    pub seed: u64,
}

impl Default for FmConfig {
    fn default() -> Self {
        FmConfig {
            balance_tol: 0.1,
            max_passes: 8,
            seed: 1,
        }
    }
}

/// Runs FM and returns the side assignment (`false` = left, `true` = right).
///
/// The initial partition is a random balanced split; each pass moves every
/// cell at most once in best-gain order and keeps the best prefix.
pub fn bipartition(h: &Hypergraph, config: FmConfig) -> Vec<bool> {
    let n = h.num_cells();
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![false];
    }
    let total_weight: f64 = h.weight.iter().sum();
    let mut rng = SplitMix64::new(config.seed);

    // Random balanced initial partition: shuffle, fill side 0 to half.
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    let mut side = vec![true; n];
    let mut w0 = 0.0;
    for &c in &order {
        if w0 < total_weight / 2.0 {
            side[c] = false;
            w0 += h.weight[c];
        }
    }

    // FM needs slack of at least one cell to move at all from a perfectly
    // balanced start (Fiduccia & Mattheyses' `smax` term).
    let largest = h.weight.iter().cloned().fold(0.0, f64::max);
    let max_dev = (config.balance_tol * total_weight).max(largest);
    let balance = Balance::new(&h.weight, total_weight, max_dev);

    for _pass in 0..config.max_passes {
        let improved = fm_pass(h, &mut side, &balance, &mut rng);
        if !improved {
            break;
        }
    }
    side
}

/// The FM balance constraint: which side-1 weights a move may leave.
#[derive(Debug)]
struct Balance {
    half: f64,
    total: f64,
    max_dev: f64,
    /// Lightest and heaviest cell weight, when every weight and the
    /// total are finite; `None` disables [`Balance::admits_every_move`].
    span: Option<(f64, f64)>,
}

impl Balance {
    fn new(weight: &[f64], total: f64, max_dev: f64) -> Self {
        let finite = total.is_finite() && weight.iter().all(|w| w.is_finite());
        let span = finite.then(|| {
            weight
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &w| {
                    (lo.min(w), hi.max(w))
                })
        });
        Balance {
            half: total / 2.0,
            total,
            max_dev,
            span,
        }
    }

    /// Whether a cell of weight `w` may leave its side (side 1 when
    /// `on_side1`) while side 1 weighs `w1`: side 1 must stay within
    /// `max_dev` of half the total, and neither side may empty.
    fn admits_move(&self, w1: f64, w: f64, on_side1: bool) -> bool {
        let new_w1 = if on_side1 { w1 - w } else { w1 + w };
        !((new_w1 - self.half).abs() > self.max_dev || new_w1 <= 0.0 || new_w1 >= self.total)
    }

    /// True only when every cell's move is admitted at side-1 weight
    /// `w1`. Rounding is monotone, so for finite weights `w1 - w` and
    /// `w1 + w` are monotone in `w` and the admitted set of `new_w1` is
    /// an interval: when the lightest and the heaviest cell pass in both
    /// directions, every cell does.
    fn admits_every_move(&self, w1: f64) -> bool {
        self.span.is_some_and(|(lo, hi)| {
            [lo, hi]
                .iter()
                .all(|&w| self.admits_move(w1, w, true) && self.admits_move(w1, w, false))
        })
    }
}

/// One FM pass; returns true when the cut improved.
fn fm_pass(h: &Hypergraph, side: &mut [bool], balance: &Balance, rng: &mut SplitMix64) -> bool {
    let n = h.num_cells();
    // Net pin counts per side.
    let mut count = vec![[0usize; 2]; h.nets.len()];
    for (net, cells) in h.nets.iter().enumerate() {
        for &c in cells {
            count[net][side[c] as usize] += 1;
        }
    }
    let gain_of = |c: usize, side: &[bool], count: &[[usize; 2]]| -> i64 {
        let from = side[c] as usize;
        let to = 1 - from;
        let mut g = 0i64;
        for &net in &h.cell_nets[c] {
            if count[net][from] == 1 {
                g += 1; // net uncut after move
            }
            if count[net][to] == 0 {
                g -= 1; // net becomes cut
            }
        }
        g
    };

    let mut gains: Vec<i64> = (0..n).map(|c| gain_of(c, side, &count)).collect();
    let mut locked = vec![false; n];
    // The unlocked cells in index order: the selection scan's visiting
    // order. A locked cell is never balance-tested and never draws from
    // the RNG, so leaving it out changes neither the pick nor the RNG
    // sequence.
    let mut free: Vec<u32> = (0..u32::try_from(n).expect("FM cell indices fit in u32")).collect();
    let mut w1: f64 = (0..n).filter(|&c| side[c]).map(|c| h.weight[c]).sum();

    let initial_cut = h.cut(side) as i64;
    let mut cur_cut = initial_cut;
    let mut best_cut = initial_cut;
    let mut best_prefix = 0usize;
    let mut moves: Vec<usize> = Vec::with_capacity(n);

    for _ in 0..n {
        // Select the best-gain unlocked cell whose move keeps balance;
        // a later equal-gain cell wins with probability 1/4.
        let every_move_fits = balance.admits_every_move(w1);
        let mut best: Option<(i64, usize)> = None;
        for &c in &free {
            let c = c as usize;
            if !every_move_fits && !balance.admits_move(w1, h.weight[c], side[c]) {
                continue;
            }
            let g = gains[c];
            match best {
                None => best = Some((g, c)),
                Some((bg, _)) => {
                    if g > bg || (g == bg && rng.chance(0.25)) {
                        best = Some((g, c));
                    }
                }
            }
        }
        let Some((g, c)) = best else { break };

        // Apply the move and update neighbour gains (standard FM rules).
        let from = side[c] as usize;
        let to = 1 - from;
        for &net in &h.cell_nets[c] {
            // Before the move (FM update rules, Fiduccia & Mattheyses '82).
            if count[net][to] == 0 {
                // Net becomes cut: every other free cell gains.
                for &d in &h.nets[net] {
                    if !locked[d] && d != c {
                        gains[d] += 1;
                    }
                }
            } else if count[net][to] == 1 {
                // The lone to-side cell loses its uncut opportunity.
                for &d in &h.nets[net] {
                    if !locked[d] && d != c && side[d] as usize == to {
                        gains[d] -= 1;
                    }
                }
            }
            count[net][from] -= 1;
            count[net][to] += 1;
            // After the move.
            if count[net][from] == 0 {
                // Net now entirely on the to side.
                for &d in &h.nets[net] {
                    if !locked[d] && d != c {
                        gains[d] -= 1;
                    }
                }
            } else if count[net][from] == 1 {
                // The lone from-side cell can now uncut the net.
                for &d in &h.nets[net] {
                    if !locked[d] && d != c && side[d] as usize == from {
                        gains[d] += 1;
                    }
                }
            }
        }
        if side[c] {
            w1 -= h.weight[c];
        } else {
            w1 += h.weight[c];
        }
        side[c] = !side[c];
        locked[c] = true;
        free.remove(free.partition_point(|&f| (f as usize) < c));
        moves.push(c);
        cur_cut -= g;
        if cur_cut < best_cut {
            best_cut = cur_cut;
            best_prefix = moves.len();
        }
    }

    // Roll back to the best prefix.
    for &c in moves.iter().skip(best_prefix).rev() {
        side[c] = !side[c];
    }
    best_cut < initial_cut
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two 4-cliques joined by a single bridge net: the obvious min cut is 1.
    fn two_cliques() -> Hypergraph {
        let mut nets = Vec::new();
        for group in [[0, 1, 2, 3], [4, 5, 6, 7]] {
            for i in 0..4 {
                for j in i + 1..4 {
                    nets.push(vec![group[i], group[j]]);
                }
            }
        }
        nets.push(vec![3, 4]); // bridge
        Hypergraph::new(8, nets, vec![1.0; 8])
    }

    #[test]
    fn fm_finds_the_bridge_cut() {
        let h = two_cliques();
        let side = bipartition(&h, FmConfig::default());
        assert_eq!(h.cut(&side), 1, "sides: {side:?}");
        // Each clique ends on one side.
        assert_eq!(side[0], side[1]);
        assert_eq!(side[1], side[2]);
        assert_eq!(side[2], side[3]);
        assert_eq!(side[4], side[5]);
        assert_ne!(side[0], side[4]);
    }

    #[test]
    fn balance_is_respected() {
        let h = two_cliques();
        let side = bipartition(
            &h,
            FmConfig {
                balance_tol: 0.1,
                ..FmConfig::default()
            },
        );
        let w1 = side.iter().filter(|&&s| s).count();
        assert!((3..=5).contains(&w1), "w1 = {w1}");
    }

    #[test]
    fn degenerate_sizes() {
        let h = Hypergraph::new(0, vec![], vec![]);
        assert!(bipartition(&h, FmConfig::default()).is_empty());
        let h1 = Hypergraph::new(1, vec![], vec![1.0]);
        assert_eq!(bipartition(&h1, FmConfig::default()), vec![false]);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let h = two_cliques();
        let a = bipartition(&h, FmConfig::default());
        let b = bipartition(&h, FmConfig::default());
        assert_eq!(a, b);
    }

    /// Reference pass for the exactness oracle: the selection visits
    /// every cell and balance-tests every unlocked one.
    fn reference_fm_pass(
        h: &Hypergraph,
        side: &mut [bool],
        total_weight: f64,
        max_dev: f64,
        rng: &mut SplitMix64,
    ) -> bool {
        let n = h.num_cells();
        let mut count = vec![[0usize; 2]; h.nets.len()];
        for (net, cells) in h.nets.iter().enumerate() {
            for &c in cells {
                count[net][side[c] as usize] += 1;
            }
        }
        let gain_of = |c: usize, side: &[bool], count: &[[usize; 2]]| -> i64 {
            let from = side[c] as usize;
            let to = 1 - from;
            let mut g = 0i64;
            for &net in &h.cell_nets[c] {
                if count[net][from] == 1 {
                    g += 1;
                }
                if count[net][to] == 0 {
                    g -= 1;
                }
            }
            g
        };
        let mut gains: Vec<i64> = (0..n).map(|c| gain_of(c, side, &count)).collect();
        let mut locked = vec![false; n];
        let mut w1: f64 = (0..n).filter(|&c| side[c]).map(|c| h.weight[c]).sum();
        let initial_cut = h.cut(side) as i64;
        let mut cur_cut = initial_cut;
        let mut best_cut = initial_cut;
        let mut best_prefix = 0usize;
        let mut moves: Vec<usize> = Vec::with_capacity(n);
        for _ in 0..n {
            let mut best: Option<(i64, usize)> = None;
            for c in 0..n {
                if locked[c] {
                    continue;
                }
                let new_w1 = if side[c] {
                    w1 - h.weight[c]
                } else {
                    w1 + h.weight[c]
                };
                if (new_w1 - total_weight / 2.0).abs() > max_dev
                    || new_w1 <= 0.0
                    || new_w1 >= total_weight
                {
                    continue;
                }
                let g = gains[c];
                match best {
                    None => best = Some((g, c)),
                    Some((bg, bc)) => {
                        if g > bg || (g == bg && rng.chance(0.25) && c != bc) {
                            best = Some((g, c));
                        }
                    }
                }
            }
            let Some((g, c)) = best else { break };
            let from = side[c] as usize;
            let to = 1 - from;
            for &net in &h.cell_nets[c] {
                if count[net][to] == 0 {
                    for &d in &h.nets[net] {
                        if !locked[d] && d != c {
                            gains[d] += 1;
                        }
                    }
                } else if count[net][to] == 1 {
                    for &d in &h.nets[net] {
                        if !locked[d] && d != c && side[d] as usize == to {
                            gains[d] -= 1;
                        }
                    }
                }
                count[net][from] -= 1;
                count[net][to] += 1;
                if count[net][from] == 0 {
                    for &d in &h.nets[net] {
                        if !locked[d] && d != c {
                            gains[d] -= 1;
                        }
                    }
                } else if count[net][from] == 1 {
                    for &d in &h.nets[net] {
                        if !locked[d] && d != c && side[d] as usize == from {
                            gains[d] += 1;
                        }
                    }
                }
            }
            if side[c] {
                w1 -= h.weight[c];
            } else {
                w1 += h.weight[c];
            }
            side[c] = !side[c];
            locked[c] = true;
            moves.push(c);
            cur_cut -= g;
            if cur_cut < best_cut {
                best_cut = cur_cut;
                best_prefix = moves.len();
            }
        }
        for &c in moves.iter().skip(best_prefix).rev() {
            side[c] = !side[c];
        }
        best_cut < initial_cut
    }

    /// A seeded random hypergraph: integer weights 1–8 plus a few heavy
    /// cells, nets of 2–6 distinct cells.
    fn random_hypergraph(gen: &mut SplitMix64) -> Hypergraph {
        let n = 2 + gen.next_below(80);
        let weight: Vec<f64> = (0..n)
            .map(|_| {
                if gen.chance(0.04) {
                    (16 + gen.next_below(48)) as f64
                } else {
                    (1 + gen.next_below(8)) as f64
                }
            })
            .collect();
        let nets = (0..gen.next_below(2 * n + 1))
            .map(|_| {
                let mut cells: Vec<usize> = (0..2 + gen.next_below(5))
                    .map(|_| gen.next_below(n))
                    .collect();
                cells.sort_unstable();
                cells.dedup();
                cells
            })
            .collect();
        Hypergraph::new(n, nets, weight)
    }

    /// Balance parameters as [`bipartition`] derives them.
    fn balance_for(h: &Hypergraph, balance_tol: f64) -> (f64, f64, Balance) {
        let total: f64 = h.weight.iter().sum();
        let largest = h.weight.iter().cloned().fold(0.0, f64::max);
        let max_dev = (balance_tol * total).max(largest);
        (total, max_dev, Balance::new(&h.weight, total, max_dev))
    }

    #[test]
    fn fm_pass_matches_the_full_scan_reference() {
        let mut gen = SplitMix64::new(0x0F1D);
        for case in 0..240u64 {
            let h = random_hypergraph(&mut gen);
            let balance_tol = 0.02 + 0.28 * gen.next_f64();
            let (total, max_dev, balance) = balance_for(&h, balance_tol);
            let mut side: Vec<bool> = (0..h.num_cells()).map(|_| gen.chance(0.5)).collect();
            let mut ref_side = side.clone();
            let mut rng = SplitMix64::new(case);
            let mut ref_rng = rng;
            for pass in 0..FmConfig::default().max_passes {
                let improved = fm_pass(&h, &mut side, &balance, &mut rng);
                let ref_improved =
                    reference_fm_pass(&h, &mut ref_side, total, max_dev, &mut ref_rng);
                assert_eq!(improved, ref_improved, "case {case} pass {pass}");
                assert_eq!(side, ref_side, "case {case} pass {pass}");
                assert_eq!(rng, ref_rng, "case {case} pass {pass}: RNG sequence");
                if !improved {
                    break;
                }
            }
        }
    }

    #[test]
    fn every_move_fast_path_implies_the_per_cell_test() {
        let mut gen = SplitMix64::new(0xBA1A);
        let (mut fast, mut per_cell) = (0, 0);
        for _ in 0..400 {
            let h = random_hypergraph(&mut gen);
            let (total, max_dev, balance) = balance_for(&h, 0.02 + 0.28 * gen.next_f64());
            // Side-1 weights near and beyond the balance window.
            let w1 = (total / 2.0 + max_dev * 1.5 * (2.0 * gen.next_f64() - 1.0)).round();
            if balance.admits_every_move(w1) {
                fast += 1;
                for &w in &h.weight {
                    assert!(balance.admits_move(w1, w, true), "w1 {w1} w {w}");
                    assert!(balance.admits_move(w1, w, false), "w1 {w1} w {w}");
                }
            } else {
                per_cell += 1;
            }
        }
        // Both branches of the selection scan are exercised.
        assert!(
            fast > 40 && per_cell > 40,
            "fast {fast}, per-cell {per_cell}"
        );
        // Non-finite weights never take the fast path.
        let inf = Balance::new(&[1.0, f64::INFINITY], f64::INFINITY, 1.0);
        assert!(!inf.admits_every_move(1.0));
    }

    #[test]
    fn weighted_balance() {
        // One heavy cell must sit alone against four light ones.
        let nets = vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4]];
        let h = Hypergraph::new(5, nets, vec![4.0, 1.0, 1.0, 1.0, 1.0]);
        let side = bipartition(
            &h,
            FmConfig {
                balance_tol: 0.15,
                ..FmConfig::default()
            },
        );
        // Both sides populated, and the chain is cut at most once.
        assert!(side.iter().any(|&s| s) && side.iter().any(|&s| !s));
        assert!(h.cut(&side) <= 1, "cut = {}", h.cut(&side));
    }
}
