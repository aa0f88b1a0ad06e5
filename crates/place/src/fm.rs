//! Fiduccia–Mattheyses min-cut bipartitioning.
//!
//! The global placer cuts the netlist recursively; each cut is one or more
//! FM passes over a hypergraph view of the cells in the current region:
//! single-cell moves, balance constraint by cell area, best-prefix
//! rollback per pass.
//!
//! Move selection is defined by a linear scan: walk the unlocked cells in
//! index order, skip those whose move breaks balance, take every strictly
//! higher gain, and let each later cell of the running best gain take
//! over with seeded probability 1/4. That rule and its RNG sequence feed
//! every placement digest, so the pass computes the scan's pick without
//! running the scan. It keeps the free cells in a gain index: one bit per
//! cell in a mask per 64-cell block, side and gain. A selection walks
//! blocks, not cells. It skips each block whose highest gain is below the
//! running best, finds the next higher gain as the lowest set bit of a
//! few masks, and counts the scan's draws with popcounts. When balance
//! admits both sides wholesale, the walk stops at the first cell of the
//! top gain; otherwise each candidate at or above the running best takes
//! the per-cell balance test. Only the draws at the final best gain
//! decide the pick, and SplitMix64 is a Weyl counter, so the selection
//! evaluates the last of those draws first and then skips the RNG past
//! every draw the scan makes ([`SplitMix64::skip`]). Each gain update or
//! lock moves one bit. A selection costs O(blocks), plus those balance
//! tests, instead of O(free cells). Bucket-list FM (Fiduccia &
//! Mattheyses, DAC 1982) picks in O(1) but breaks ties in bucket order,
//! which would move every placement.

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
    /// total are finite; `None` disables [`Balance::admits_side`].
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

    /// True only when every cell of one side (side 1 when `on_side1`)
    /// may leave it at side-1 weight `w1`. Rounding is monotone, so for
    /// finite weights `w1 - w` and `w1 + w` are monotone in `w` and the
    /// admitted set of `new_w1` is an interval: when the lightest and the
    /// heaviest cell may move, every cell may.
    fn admits_side(&self, w1: f64, on_side1: bool) -> bool {
        self.span.is_some_and(|(lo, hi)| {
            self.admits_move(w1, lo, on_side1) && self.admits_move(w1, hi, on_side1)
        })
    }
}

/// The free cells of one FM pass, by 64-cell block, side and gain: what
/// a selection needs to reproduce the scan without visiting every cell.
#[derive(Debug)]
struct GainIndex {
    /// Gain of every cell; a locked cell's entry is stale.
    gain: Vec<i64>,
    /// Slot `s` holds gain `s - offset`. A gain never leaves
    /// `[-offset, offset]`: it is at most the cell's net count in
    /// magnitude.
    offset: i64,
    /// Gain slots per (block, side): `2 * offset + 1`.
    slots: usize,
    /// `masks[(2 * block + side) * slots + slot]`: bit `c % 64` is set
    /// for each free cell `c` of that block and side at that gain.
    masks: Vec<u64>,
    /// `top[2 * block + side]`: one past the highest non-empty slot, 0
    /// when the block has no free cell on that side.
    top: Vec<usize>,
    /// `count[side * slots + slot]`: free cells of that side and gain.
    count: Vec<usize>,
}

impl GainIndex {
    /// Indexes every cell as free; no gain may exceed `max_degree` in
    /// magnitude.
    fn new(side: &[bool], gain: Vec<i64>, max_degree: usize) -> Self {
        let slots = 2 * max_degree + 1;
        let blocks = side.len().div_ceil(64);
        let mut index = GainIndex {
            gain,
            offset: max_degree as i64,
            slots,
            masks: vec![0; 2 * blocks * slots],
            top: vec![0; 2 * blocks],
            count: vec![0; 2 * slots],
        };
        for (c, &on_side1) in side.iter().enumerate() {
            index.insert(c, on_side1);
        }
        index
    }

    fn slot(&self, c: usize) -> usize {
        (self.gain[c] + self.offset) as usize
    }

    fn insert(&mut self, c: usize, on_side1: bool) {
        let (bs, slot) = (2 * (c / 64) + usize::from(on_side1), self.slot(c));
        self.masks[bs * self.slots + slot] |= 1u64 << (c % 64);
        self.top[bs] = self.top[bs].max(slot + 1);
        self.count[usize::from(on_side1) * self.slots + slot] += 1;
    }

    /// Drops free cell `c`, which sits on side 1 when `on_side1`.
    fn remove(&mut self, c: usize, on_side1: bool) {
        let (bs, slot) = (2 * (c / 64) + usize::from(on_side1), self.slot(c));
        let base = bs * self.slots;
        self.masks[base + slot] &= !(1u64 << (c % 64));
        self.count[usize::from(on_side1) * self.slots + slot] -= 1;
        while self.top[bs] > 0 && self.masks[base + self.top[bs] - 1] == 0 {
            self.top[bs] -= 1;
        }
    }

    /// Adds `delta` to the gain of free cell `c`.
    fn bump(&mut self, c: usize, on_side1: bool, delta: i64) {
        self.remove(c, on_side1);
        self.gain[c] += delta;
        self.insert(c, on_side1);
    }

    /// The cell the scan picks at side-1 weight `w1`, with `rng` left
    /// where the scan leaves it; `None` when no free cell may move.
    ///
    /// The scan visits the free cells in index order and skips those
    /// `balance` rejects. The first admitted cell is the first best. A
    /// cell of higher gain replaces the best (a record); a cell of equal
    /// gain draws once and replaces it with probability 1/4.
    fn select(
        &self,
        balance: &Balance,
        w1: f64,
        weight: &[f64],
        rng: &mut SplitMix64,
    ) -> Option<usize> {
        let slots = self.slots;
        let blocks = self.top.len() / 2;
        let wholesale = [false, true].map(|on_side1| balance.admits_side(w1, on_side1));
        // The admitted cells of block `b`, side `s`, as a mask over the
        // block's free cells at slots `from..to` (all bits on a
        // wholesale side).
        let admitted = |b: usize, s: usize, from: usize, to: usize| -> u64 {
            let base = (2 * b + s) * slots;
            let to = to.min(self.top[2 * b + s]);
            if to <= from {
                return 0;
            }
            if wholesale[s] {
                return !0;
            }
            let mut rest = self.masks[base + from..base + to]
                .iter()
                .fold(0, |m, &x| m | x);
            let mut admitted = 0;
            while rest != 0 {
                let bit = rest & rest.wrapping_neg();
                rest ^= bit;
                let c = 64 * b + bit.trailing_zeros() as usize;
                if balance.admits_move(w1, weight[c], s == 1) {
                    admitted |= bit;
                }
            }
            admitted
        };
        // Admitted cells of block `b` at `slot`, both sides.
        let level = |b: usize, slot: usize, admitted: [u64; 2]| -> u64 {
            (self.masks[2 * b * slots + slot] & admitted[0])
                | (self.masks[(2 * b + 1) * slots + slot] & admitted[1])
        };
        let top_slot = (0..slots)
            .rev()
            .find(|&g| self.count[g] + self.count[slots + g] > 0)?;

        // Forward walk over the records. `before` counts the draws at
        // gains below the best, `ties` those at the best after its record.
        let mut best: Option<(usize, usize)> = None;
        let (mut before, mut ties) = (0u64, 0u64);
        'walk: for b in 0..blocks {
            let floor = best.map_or(0, |(g, _)| g);
            let adm = [0, 1].map(|s| admitted(b, s, floor, slots));
            if adm == [0, 0] {
                continue;
            }
            let hi = self.top[2 * b].max(self.top[2 * b + 1]);
            let mut unvisited = !0u64;
            loop {
                let lo = best.map_or(0, |(g, _)| g + 1);
                let above = (lo..hi).fold(0, |m, g| m | level(b, g, adm)) & unvisited;
                // The cells the scan passes before the next record.
                let passed = if above == 0 {
                    unvisited
                } else {
                    unvisited & ((above & above.wrapping_neg()) - 1)
                };
                if let Some((g, _)) = best {
                    ties += u64::from((level(b, g, adm) & passed).count_ones());
                }
                if above == 0 {
                    break;
                }
                let r = above.trailing_zeros();
                let c = 64 * b + r as usize;
                let g = self.slot(c);
                before += ties;
                ties = 0;
                best = Some((g, c));
                if wholesale == [true, true] && g == top_slot {
                    // Every later cell of the top gain is admitted and
                    // ties with `c`.
                    ties = (self.count[g] + self.count[slots + g] - 1) as u64;
                    break 'walk;
                }
                unvisited = !1u64 << r;
            }
        }

        // The pick is the last tie whose draw succeeds, else the record.
        let (g, record) = best?;
        let won = (0..ties).rev().find(|&j| {
            let mut draw = *rng;
            draw.skip(before + j);
            draw.chance(0.25)
        });
        rng.skip(before + ties);
        let Some(j) = won else {
            return Some(record);
        };
        // Tie `j` is the `ties - 1 - j`-th counting back from the last.
        let mut back = ties - 1 - j;
        for b in (record / 64..blocks).rev() {
            let mut m = level(b, g, [0, 1].map(|s| admitted(b, s, g, g + 1)));
            if b == record / 64 {
                m &= !1u64 << (record % 64);
            }
            let k = u64::from(m.count_ones());
            if back < k {
                for _ in 0..back {
                    m ^= 1u64 << (63 - m.leading_zeros());
                }
                return Some(64 * b + 63 - m.leading_zeros() as usize);
            }
            back -= k;
        }
        None
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

    // The update rules below keep every free cell's gain equal to
    // `gain_of`, so no gain exceeds the cell's net count in magnitude.
    let max_degree = h.cell_nets.iter().map(Vec::len).max().unwrap_or(0);
    let gains = (0..n).map(|c| gain_of(c, side, &count)).collect();
    let mut index = GainIndex::new(side, gains, max_degree);
    let mut locked = vec![false; n];
    let mut w1: f64 = (0..n).filter(|&c| side[c]).map(|c| h.weight[c]).sum();

    let initial_cut = h.cut(side) as i64;
    let mut cur_cut = initial_cut;
    let mut best_cut = initial_cut;
    let mut best_prefix = 0usize;
    let mut moves: Vec<usize> = Vec::with_capacity(n);

    for _ in 0..n {
        // Select the best-gain unlocked cell whose move keeps balance;
        // a later equal-gain cell wins with probability 1/4.
        let Some(c) = index.select(balance, w1, &h.weight, rng) else {
            break;
        };
        let g = index.gain[c];

        // Apply the move and update neighbour gains (standard FM rules).
        let from = side[c] as usize;
        let to = 1 - from;
        for &net in &h.cell_nets[c] {
            // Before the move (FM update rules, Fiduccia & Mattheyses '82).
            if count[net][to] == 0 {
                // Net becomes cut: every other free cell gains.
                for &d in &h.nets[net] {
                    if !locked[d] && d != c {
                        index.bump(d, side[d], 1);
                    }
                }
            } else if count[net][to] == 1 {
                // The lone to-side cell loses its uncut opportunity.
                for &d in &h.nets[net] {
                    if !locked[d] && d != c && side[d] as usize == to {
                        index.bump(d, side[d], -1);
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
                        index.bump(d, side[d], -1);
                    }
                }
            } else if count[net][from] == 1 {
                // The lone from-side cell can now uncut the net.
                for &d in &h.nets[net] {
                    if !locked[d] && d != c && side[d] as usize == from {
                        index.bump(d, side[d], 1);
                    }
                }
            }
        }
        if side[c] {
            w1 -= h.weight[c];
        } else {
            w1 += h.weight[c];
        }
        index.remove(c, side[c]);
        side[c] = !side[c];
        locked[c] = true;
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

    /// Reference selection for the exactness oracles: the full scan. It
    /// visits every cell in index order, balance-tests every unlocked one
    /// with its own copy of the window test, and breaks gain ties with
    /// the seeded 1/4 draw.
    fn reference_select(
        weight: &[f64],
        side: &[bool],
        locked: &[bool],
        gains: &[i64],
        w1: f64,
        (total_weight, max_dev): (f64, f64),
        rng: &mut SplitMix64,
    ) -> Option<usize> {
        let mut best: Option<(i64, usize)> = None;
        for c in 0..weight.len() {
            if locked[c] {
                continue;
            }
            let new_w1 = if side[c] {
                w1 - weight[c]
            } else {
                w1 + weight[c]
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
        best.map(|(_, c)| c)
    }

    /// Reference pass for the exactness oracle: [`reference_select`]
    /// picks every move.
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
            let window = (total_weight, max_dev);
            let Some(c) = reference_select(&h.weight, side, &locked, &gains, w1, window, rng)
            else {
                break;
            };
            let g = gains[c];
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

    /// 1–5 integer weight classes in 1–8.
    fn weight_classes(gen: &mut SplitMix64) -> Vec<f64> {
        (0..1 + gen.next_below(5))
            .map(|_| (1 + gen.next_below(8)) as f64)
            .collect()
    }

    /// A seeded random hypergraph of `n` cells: weights from a few
    /// classes plus a few heavy cells, nets of 2–6 pins, and in one
    /// graph out of four, nets that list a cell more than once.
    fn random_hypergraph(gen: &mut SplitMix64, n: usize) -> Hypergraph {
        let classes = weight_classes(gen);
        let weight: Vec<f64> = (0..n)
            .map(|_| {
                if gen.chance(0.04) {
                    (16 + gen.next_below(48)) as f64
                } else {
                    *gen.choose(&classes)
                }
            })
            .collect();
        let repeated_pins = gen.chance(0.25);
        let nets = (0..gen.next_below(2 * n + 1))
            .map(|_| {
                let mut cells: Vec<usize> = (0..2 + gen.next_below(5))
                    .map(|_| gen.next_below(n))
                    .collect();
                if !repeated_pins {
                    cells.sort_unstable();
                    cells.dedup();
                }
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
            // One graph in four spans many 64-cell blocks.
            let n = if case % 4 == 0 {
                60 + gen.next_below(1441)
            } else {
                2 + gen.next_below(80)
            };
            let h = random_hypergraph(&mut gen, n);
            let balance_tol = 0.005 + 0.295 * gen.next_f64();
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
    fn select_matches_the_full_scan_reference() {
        let mut gen = SplitMix64::new(0x5E1E);
        let cases = [
            "both sides wholesale, early stop",
            "one side per-cell",
            "both sides per-cell",
            "pick in block 0",
            "pick at 63",
            "pick at 64",
            "pick in a partial last block",
        ];
        let mut hits = [0usize; 7];
        for case in 0..3000u64 {
            let n = match case % 3 {
                0 => 1 + gen.next_below(64),
                1 => 60 + gen.next_below(10),
                _ => 1 + gen.next_below(1000),
            };
            let classes = weight_classes(&mut gen);
            let heaviest = classes.iter().cloned().fold(0.0, f64::max);
            let weight: Vec<f64> = (0..n).map(|_| *gen.choose(&classes)).collect();
            let side: Vec<bool> = (0..n).map(|_| gen.chance(0.5)).collect();
            let lock_p = 0.9 * gen.next_f64();
            let mut locked: Vec<bool> = (0..n).map(|_| gen.chance(lock_p)).collect();
            // Few distinct gains make long runs of ties.
            let max_degree = 1 + gen.next_below(4);
            let spread = 1 + gen.next_below(2 * max_degree + 1);
            let mut gains: Vec<i64> = (0..n)
                .map(|_| gen.next_below(spread) as i64 - max_degree as i64)
                .collect();
            if gen.chance(0.5) {
                // A free top-gain cell at a block edge or the last cell.
                let c = [0, 63, 64, n - 1][gen.next_below(4)].min(n - 1);
                gains[c] = max_degree as i64;
                locked[c] = false;
            }
            // Windows narrower and wider than the heaviest cell; w1 in
            // the middle or near either edge, on half-unit steps so some
            // moves land exactly on an edge.
            let total: f64 = weight.iter().sum();
            let max_dev = (heaviest * (0.25 + 1.5 * gen.next_f64()) * 2.0).round() / 2.0;
            let w1 = match gen.next_below(3) {
                0 => total / 2.0,
                1 => total / 2.0 - max_dev + heaviest * gen.next_f64(),
                _ => total / 2.0 + max_dev - heaviest * gen.next_f64(),
            };
            let w1 = (w1 * 2.0).round() / 2.0;

            let balance = Balance::new(&weight, total, max_dev);
            let mut index = GainIndex::new(&side, gains.clone(), max_degree);
            for c in (0..n).filter(|&c| locked[c]) {
                index.remove(c, side[c]);
            }
            let mut rng = SplitMix64::new(case);
            let mut ref_rng = rng;
            let pick = index.select(&balance, w1, &weight, &mut rng);
            let window = (total, max_dev);
            let ref_pick =
                reference_select(&weight, &side, &locked, &gains, w1, window, &mut ref_rng);
            assert_eq!(
                pick, ref_pick,
                "case {case}: n {n} w1 {w1} max_dev {max_dev}"
            );
            assert_eq!(rng, ref_rng, "case {case}: RNG state");

            let Some(p) = pick else { continue };
            let wholesale = [false, true].map(|on_side1| balance.admits_side(w1, on_side1));
            let hit = [
                wholesale == [true, true],
                wholesale[0] != wholesale[1],
                wholesale == [false, false],
                p < 64,
                p == 63,
                p == 64,
                n > 64 && n % 64 != 0 && p >= n / 64 * 64,
            ];
            for (count, hit) in hits.iter_mut().zip(hit) {
                *count += usize::from(hit);
            }
        }
        for (name, count) in cases.iter().zip(hits) {
            assert!(count >= 20, "{name}: hit {count} times");
        }
    }

    #[test]
    fn wholesale_side_implies_the_per_cell_test() {
        let mut gen = SplitMix64::new(0xBA1A);
        let (mut wholesale, mut per_cell) = (0, 0);
        for _ in 0..400 {
            let n = 2 + gen.next_below(80);
            let h = random_hypergraph(&mut gen, n);
            let (total, max_dev, balance) = balance_for(&h, 0.005 + 0.295 * gen.next_f64());
            // Side-1 weights near and beyond the balance window.
            let w1 = (total / 2.0 + max_dev * 1.5 * (2.0 * gen.next_f64() - 1.0)).round();
            for on_side1 in [false, true] {
                if balance.admits_side(w1, on_side1) {
                    wholesale += 1;
                    for &w in &h.weight {
                        assert!(balance.admits_move(w1, w, on_side1), "w1 {w1} w {w}");
                    }
                } else {
                    per_cell += 1;
                }
            }
        }
        // Both branches of the selection are exercised.
        assert!(
            wholesale > 80 && per_cell > 80,
            "wholesale {wholesale}, per-cell {per_cell}"
        );
        // Non-finite weights never take the wholesale path.
        let inf = Balance::new(&[1.0, f64::INFINITY], f64::INFINITY, 1.0);
        assert!(!inf.admits_side(1.0, false) && !inf.admits_side(1.0, true));
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
