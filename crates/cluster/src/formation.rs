//! Cluster formation: assigning every non-head node to a cluster head.
//!
//! After the election each ordinary node joins the head whose advertisement
//! it receives most strongly; with the paper's propagation model (identical
//! transmit power at every head) that is simply the *nearest* head.  The
//! paper assumes different clusters operate in different frequency bands, so
//! cluster membership fully determines who contends with whom.

use caem_channel::geometry::Position;
use serde::{Deserialize, Serialize};

/// One formed cluster: a head and its member nodes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cluster {
    /// Node index of the cluster head.
    pub head: usize,
    /// Node indices of the ordinary members (excludes the head itself).
    pub members: Vec<usize>,
}

impl Cluster {
    /// Total number of nodes in the cluster including the head.
    pub fn size(&self) -> usize {
        self.members.len() + 1
    }
}

/// The result of one round's cluster formation.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterFormation {
    /// The formed clusters, one per elected head.
    pub clusters: Vec<Cluster>,
    /// For each node index, the cluster index it belongs to (heads map to
    /// their own cluster); `None` for dead nodes.
    pub assignment: Vec<Option<usize>>,
}

/// Above this `nodes × heads` work product the per-round assignment switches
/// from the quadratic scan to a uniform-grid index over the heads.  The
/// paper-scale scenarios (hundreds of nodes, a handful of heads) stay on the
/// scan; the grid only engages for the large deployments where the scan
/// would dominate the round.  Both paths compute the identical
/// `(distance², head index)` lexicographic minimum, so which one runs is
/// unobservable in the results.
const BRUTE_FORCE_MAX_WORK: usize = 4_000_000;

impl ClusterFormation {
    /// Form clusters by nearest-head assignment.
    ///
    /// * `positions` — every node's position (dead nodes included, ignored).
    /// * `heads` — indices of this round's cluster heads.
    /// * `alive` — liveness mask; dead nodes get no assignment.
    ///
    /// Equidistant heads tie-break to the lowest cluster index, on exact
    /// float equality of the squared distances.
    pub fn nearest_head(positions: &[Position], heads: &[usize], alive: &[bool]) -> Self {
        assert_eq!(
            positions.len(),
            alive.len(),
            "positions/alive length mismatch"
        );
        assert!(
            !heads.is_empty(),
            "cluster formation needs at least one head"
        );
        for &h in heads {
            assert!(h < positions.len(), "head index out of range");
            debug_assert!(alive[h], "dead node cannot be a head");
        }
        let mut clusters: Vec<Cluster> = heads
            .iter()
            .map(|&h| Cluster {
                head: h,
                members: Vec::new(),
            })
            .collect();
        let mut assignment = vec![None; positions.len()];
        for (cluster_idx, &h) in heads.iter().enumerate() {
            assignment[h] = Some(cluster_idx);
        }
        let grid = if positions.len().saturating_mul(heads.len()) > BRUTE_FORCE_MAX_WORK {
            HeadGrid::build(positions, heads)
        } else {
            None
        };
        for node in 0..positions.len() {
            // Heads were pre-assigned above, so `assignment` doubles as the
            // O(1) head-membership test.
            if !alive[node] || assignment[node].is_some() {
                continue;
            }
            let nearest = match &grid {
                Some(grid) => grid.nearest(positions[node], positions, heads),
                None => nearest_head_scan(positions[node], positions, heads),
            };
            clusters[nearest].members.push(node);
            assignment[node] = Some(nearest);
        }
        ClusterFormation {
            clusters,
            assignment,
        }
    }

    /// The cluster index of `node`, if it is assigned.
    pub fn cluster_of(&self, node: usize) -> Option<usize> {
        self.assignment.get(node).copied().flatten()
    }

    /// The head node serving `node` (a head serves itself).
    pub fn head_of(&self, node: usize) -> Option<usize> {
        self.cluster_of(node).map(|c| self.clusters[c].head)
    }

    /// Is `node` a cluster head in this formation?
    ///
    /// O(1): a node is head exactly when the cluster it is assigned to names
    /// it as head (heads are always assigned to their own cluster during
    /// formation, so no separate flag column is needed).
    pub fn is_head(&self, node: usize) -> bool {
        self.cluster_of(node)
            .map(|c| self.clusters[c].head == node)
            .unwrap_or(false)
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }
}

/// The quadratic path: linear scan keeping the first (= lowest cluster
/// index) of the exactly-equal minima, matching `Iterator::min_by`.
fn nearest_head_scan(node: Position, positions: &[Position], heads: &[usize]) -> usize {
    let mut best_d = f64::INFINITY;
    let mut best = 0usize;
    for (idx, &h) in heads.iter().enumerate() {
        let d = node.distance_sq_to(&positions[h]);
        if d < best_d {
            best_d = d;
            best = idx;
        }
    }
    best
}

/// A uniform grid over the round's head positions, queried by expanding
/// cell rings.
///
/// Cells hold head-*list* indices in CSR layout (one prefix-sum array, one
/// flat item array — no per-cell allocation).  A query walks rings of
/// increasing Chebyshev radius `r` around the node's cell and stops once the
/// ring's distance lower bound `(r-1)·cell` strictly exceeds the best
/// squared distance found; ties on the bound keep searching, so a farther
/// ring can still contribute an exactly-equidistant head with a lower
/// cluster index.  The running minimum is lexicographic on
/// `(distance², cluster index)`, which makes the result — including exact
/// float tie-breaks — identical to [`nearest_head_scan`].
struct HeadGrid {
    min_x: f64,
    min_y: f64,
    /// Cell side length (m).
    cell: f64,
    /// Grid width/height in cells.
    gw: usize,
    gh: usize,
    /// CSR: heads of cell `c` are `items[start[c]..start[c + 1]]`.
    start: Vec<u32>,
    items: Vec<u32>,
}

impl HeadGrid {
    /// Build a grid of roughly one head per cell.  Returns `None` when the
    /// head bounding box is degenerate (all heads coincident); callers fall
    /// back to the scan.
    fn build(positions: &[Position], heads: &[usize]) -> Option<Self> {
        let mut min_x = f64::INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        for &h in heads {
            let p = positions[h];
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        let width = max_x - min_x;
        let height = max_y - min_y;
        if width <= 0.0 && height <= 0.0 {
            // All heads coincident (or a single head): no spatial
            // discrimination to index.
            return None;
        }
        // Aim for ~√h cells per axis (≈ one head per cell on a square box;
        // a collinear box degenerates gracefully to a 1 × √h strip).
        let per_axis = (heads.len() as f64).sqrt().ceil().max(1.0);
        let cell = width.max(height) / per_axis;
        if !cell.is_finite() || cell <= 0.0 {
            return None;
        }
        let gw = ((width / cell).ceil() as usize)
            .max(1)
            .min(per_axis as usize + 1);
        let gh = ((height / cell).ceil() as usize)
            .max(1)
            .min(per_axis as usize + 1);
        // Counting sort into CSR: count per cell, prefix-sum, then fill.
        let mut start = vec![0u32; gw * gh + 1];
        let cell_of = |p: Position| -> usize {
            let cx = (((p.x - min_x) / cell) as usize).min(gw - 1);
            let cy = (((p.y - min_y) / cell) as usize).min(gh - 1);
            cy * gw + cx
        };
        for &h in heads {
            start[cell_of(positions[h]) + 1] += 1;
        }
        for i in 1..start.len() {
            start[i] += start[i - 1];
        }
        let mut items = vec![0u32; heads.len()];
        let mut cursor = start.clone();
        for (idx, &h) in heads.iter().enumerate() {
            let c = cell_of(positions[h]);
            items[cursor[c] as usize] = idx as u32;
            cursor[c] += 1;
        }
        Some(HeadGrid {
            min_x,
            min_y,
            cell,
            gw,
            gh,
            start,
            items,
        })
    }

    /// Fold `f` over the heads bucketed in cell `(cx, cy)`.
    #[inline]
    fn scan_cell(
        &self,
        cx: usize,
        cy: usize,
        best: &mut (f64, usize),
        node: Position,
        positions: &[Position],
        heads: &[usize],
    ) {
        let c = cy * self.gw + cx;
        for &i in &self.items[self.start[c] as usize..self.start[c + 1] as usize] {
            let idx = i as usize;
            let d = node.distance_sq_to(&positions[heads[idx]]);
            if d < best.0 || (d == best.0 && idx < best.1) {
                *best = (d, idx);
            }
        }
    }

    /// The `(distance², cluster index)`-lexicographic nearest head of `node`.
    fn nearest(&self, node: Position, positions: &[Position], heads: &[usize]) -> usize {
        // The node may lie outside the head bounding box; clamping its cell
        // only loosens the ring lower bound, never breaks it.
        let cx = ((((node.x - self.min_x) / self.cell).max(0.0)) as usize).min(self.gw - 1);
        let cy = ((((node.y - self.min_y) / self.cell).max(0.0)) as usize).min(self.gh - 1);
        // Rings beyond this radius contain no cells at all.
        let max_r = cx.max(self.gw - 1 - cx).max(cy.max(self.gh - 1 - cy));
        let mut best = (f64::INFINITY, usize::MAX);
        for r in 0..=max_r {
            if best.1 != usize::MAX {
                // Every point of a ring-`r` cell is at least `(r-1)·cell`
                // away.  Strict comparison: an exactly-tying farther head
                // must still be visited for the index tie-break.
                let lower = (r as f64 - 1.0).max(0.0) * self.cell;
                if lower * lower > best.0 {
                    break;
                }
            }
            if r == 0 {
                self.scan_cell(cx, cy, &mut best, node, positions, heads);
                continue;
            }
            let x_lo = cx.saturating_sub(r);
            let x_hi = (cx + r).min(self.gw - 1);
            // Top and bottom rows of the ring (where they exist)...
            if cy >= r {
                for x in x_lo..=x_hi {
                    self.scan_cell(x, cy - r, &mut best, node, positions, heads);
                }
            }
            if cy + r < self.gh {
                for x in x_lo..=x_hi {
                    self.scan_cell(x, cy + r, &mut best, node, positions, heads);
                }
            }
            // ...then the side columns, excluding the corners the rows
            // already visited.
            let y_lo = cy.saturating_sub(r - 1);
            let y_hi = (cy + r - 1).min(self.gh - 1);
            if y_lo <= y_hi {
                if cx >= r {
                    for y in y_lo..=y_hi {
                        self.scan_cell(cx - r, y, &mut best, node, positions, heads);
                    }
                }
                if cx + r < self.gw {
                    for y in y_lo..=y_hi {
                        self.scan_cell(cx + r, y, &mut best, node, positions, heads);
                    }
                }
            }
        }
        debug_assert!(best.1 != usize::MAX, "grid query found no head");
        best.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caem_channel::geometry::Field;
    use caem_simcore::rng::StreamRng;

    fn square_positions() -> Vec<Position> {
        vec![
            Position::new(10.0, 10.0), // 0
            Position::new(90.0, 10.0), // 1
            Position::new(10.0, 90.0), // 2
            Position::new(90.0, 90.0), // 3
            Position::new(12.0, 12.0), // 4 — near node 0
            Position::new(88.0, 88.0), // 5 — near node 3
        ]
    }

    /// Mean distance between members and their heads.
    fn mean_member_distance(formation: &ClusterFormation, positions: &[Position]) -> f64 {
        let mut sum = 0.0;
        let mut count = 0u32;
        for cluster in &formation.clusters {
            let head_pos = positions[cluster.head];
            for &m in &cluster.members {
                sum += positions[m].distance_to(&head_pos);
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }

    #[test]
    fn members_join_nearest_head() {
        let positions = square_positions();
        let alive = vec![true; positions.len()];
        let f = ClusterFormation::nearest_head(&positions, &[0, 3], &alive);
        assert_eq!(f.cluster_count(), 2);
        assert_eq!(f.head_of(4), Some(0));
        assert_eq!(f.head_of(5), Some(3));
        assert!(f.is_head(0));
        assert!(f.is_head(3));
        assert!(!f.is_head(4));
        // Heads belong to their own clusters.
        assert_eq!(f.head_of(0), Some(0));
        assert_eq!(f.head_of(3), Some(3));
        // Everybody alive is assigned somewhere.
        assert!(f.assignment.iter().all(|a| a.is_some()));
    }

    #[test]
    fn dead_nodes_are_unassigned() {
        let positions = square_positions();
        let mut alive = vec![true; positions.len()];
        alive[4] = false;
        let f = ClusterFormation::nearest_head(&positions, &[0, 3], &alive);
        assert_eq!(f.cluster_of(4), None);
        assert_eq!(f.head_of(4), None);
        let total_members: usize = f.clusters.iter().map(|c| c.members.len()).sum();
        assert_eq!(total_members, positions.len() - 2 - 1);
    }

    #[test]
    fn single_head_takes_everyone() {
        let positions = square_positions();
        let alive = vec![true; positions.len()];
        let f = ClusterFormation::nearest_head(&positions, &[2], &alive);
        assert_eq!(f.cluster_count(), 1);
        assert_eq!(f.clusters[0].size(), positions.len());
        assert!(positions
            .iter()
            .enumerate()
            .all(|(i, _)| f.head_of(i) == Some(2)));
    }

    #[test]
    fn cluster_sizes_sum_to_live_nodes() {
        let field = Field::paper_default();
        let mut rng = StreamRng::from_seed_u64(11);
        let positions = field.random_deployment(100, &mut rng);
        let alive = vec![true; 100];
        let heads = vec![3, 17, 42, 68, 91];
        let f = ClusterFormation::nearest_head(&positions, &heads, &alive);
        let total: usize = f.clusters.iter().map(|c| c.size()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn nearest_assignment_minimises_distance() {
        let field = Field::paper_default();
        let mut rng = StreamRng::from_seed_u64(12);
        let positions = field.random_deployment(60, &mut rng);
        let alive = vec![true; 60];
        let heads = vec![0, 1, 2];
        let f = ClusterFormation::nearest_head(&positions, &heads, &alive);
        for node in 3..60 {
            let chosen = f.head_of(node).unwrap();
            let chosen_d = positions[node].distance_to(&positions[chosen]);
            for &h in &heads {
                assert!(
                    chosen_d <= positions[node].distance_to(&positions[h]) + 1e-9,
                    "node {node} not assigned to nearest head"
                );
            }
        }
        assert!(mean_member_distance(&f, &positions) > 0.0);
    }

    #[test]
    fn more_heads_reduce_mean_member_distance() {
        let field = Field::paper_default();
        let mut rng = StreamRng::from_seed_u64(13);
        let positions = field.random_deployment(100, &mut rng);
        let alive = vec![true; 100];
        let few = ClusterFormation::nearest_head(&positions, &[0, 50], &alive);
        let many = ClusterFormation::nearest_head(&positions, &[0, 10, 30, 50, 70, 90], &alive);
        assert!(mean_member_distance(&many, &positions) < mean_member_distance(&few, &positions));
    }

    #[test]
    fn grid_index_matches_the_scan_exactly() {
        // Dense random instance: every node's grid answer must equal the
        // quadratic scan's, index-for-index.
        let field = Field::paper_default();
        let mut rng = StreamRng::from_seed_u64(21);
        let positions = field.random_deployment(3_000, &mut rng);
        let heads: Vec<usize> = (0..150).map(|i| i * 20).collect();
        let grid = HeadGrid::build(&positions, &heads).expect("non-degenerate box");
        for node in 0..positions.len() {
            let scan = nearest_head_scan(positions[node], &positions, &heads);
            let fast = grid.nearest(positions[node], &positions, &heads);
            assert_eq!(fast, scan, "node {node} diverged");
        }
    }

    #[test]
    fn grid_index_tie_breaks_to_the_lowest_cluster_index() {
        // Node 4 at (50, 50) is *exactly* equidistant (d² = 100 in both
        // cases, bit-equal) from heads 0 and 1; both paths must pick the
        // lower cluster index.  Extra heads pad the box so the grid builds.
        let positions = vec![
            Position::new(40.0, 50.0),   // head, cluster 0
            Position::new(60.0, 50.0),   // head, cluster 1 — exact tie
            Position::new(0.0, 0.0),     // head, far corner
            Position::new(100.0, 100.0), // head, far corner
            Position::new(50.0, 50.0),   // the tied node
        ];
        let heads = vec![0, 1, 2, 3];
        let a = positions[4].distance_sq_to(&positions[0]);
        let b = positions[4].distance_sq_to(&positions[1]);
        assert_eq!(a.to_bits(), b.to_bits(), "tie must be exact");
        let grid = HeadGrid::build(&positions, &heads).expect("grid builds");
        assert_eq!(nearest_head_scan(positions[4], &positions, &heads), 0);
        assert_eq!(grid.nearest(positions[4], &positions, &heads), 0);
    }

    #[test]
    fn grid_handles_nodes_outside_the_head_bounding_box() {
        // Heads cluster in the middle; nodes at the field corners query
        // from clamped cells and must still find the true nearest head.
        let positions = vec![
            Position::new(45.0, 45.0),
            Position::new(55.0, 45.0),
            Position::new(45.0, 55.0),
            Position::new(55.0, 55.0),
            Position::new(0.0, 0.0),
            Position::new(100.0, 0.0),
            Position::new(0.0, 100.0),
            Position::new(100.0, 100.0),
        ];
        let heads = vec![0, 1, 2, 3];
        let grid = HeadGrid::build(&positions, &heads).expect("grid builds");
        for node in 4..8 {
            assert_eq!(
                grid.nearest(positions[node], &positions, &heads),
                nearest_head_scan(positions[node], &positions, &heads),
                "corner node {node}"
            );
        }
    }

    #[test]
    fn coincident_heads_degenerate_to_no_grid() {
        let positions = vec![Position::new(5.0, 5.0); 4];
        assert!(HeadGrid::build(&positions, &[0, 1, 2]).is_none());
    }

    #[test]
    #[should_panic]
    fn empty_head_list_rejected() {
        let positions = square_positions();
        let alive = vec![true; positions.len()];
        ClusterFormation::nearest_head(&positions, &[], &alive);
    }

    #[test]
    #[should_panic]
    fn out_of_range_head_rejected() {
        let positions = square_positions();
        let alive = vec![true; positions.len()];
        ClusterFormation::nearest_head(&positions, &[99], &alive);
    }
}
