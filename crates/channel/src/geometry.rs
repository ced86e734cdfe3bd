//! Field geometry: node positions and the deployment area.
//!
//! The paper deploys 100 nodes in a square field (Table II) with the sink /
//! cluster heads inside the field.  Positions are two-dimensional; distances
//! feed the path-loss model.

use caem_simcore::rng::StreamRng;
use serde::{Deserialize, Serialize};

/// A point in the deployment field, in metres.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Position {
    /// X coordinate in metres.
    pub x: f64,
    /// Y coordinate in metres.
    pub y: f64,
}

impl Position {
    /// Create a position.
    pub const fn new(x: f64, y: f64) -> Self {
        Position { x, y }
    }

    /// Euclidean distance to another position, in metres.
    pub fn distance_to(&self, other: &Position) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Squared Euclidean distance (avoids the square root for comparisons).
    pub fn distance_sq_to(&self, other: &Position) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }
}

/// A rectangular deployment field.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Field {
    /// Width in metres.
    pub width: f64,
    /// Height in metres.
    pub height: f64,
}

impl Field {
    /// Create a field of the given dimensions (metres).
    pub fn new(width: f64, height: f64) -> Self {
        assert!(width > 0.0 && height > 0.0, "field must have positive area");
        Field { width, height }
    }

    /// The 100 m × 100 m field used throughout the paper's evaluation.
    pub fn paper_default() -> Self {
        Field::new(100.0, 100.0)
    }

    /// The longest possible link distance inside the field (the diagonal).
    pub fn diagonal(&self) -> f64 {
        (self.width * self.width + self.height * self.height).sqrt()
    }

    /// Is `p` inside the field (inclusive of the boundary)?
    pub fn contains(&self, p: &Position) -> bool {
        p.x >= 0.0 && p.y >= 0.0 && p.x <= self.width && p.y <= self.height
    }

    /// Clamp a position onto the field.
    fn clamp(&self, p: Position) -> Position {
        Position::new(p.x.clamp(0.0, self.width), p.y.clamp(0.0, self.height))
    }

    /// Sample a uniformly random position inside the field.
    fn random_position(&self, rng: &mut StreamRng) -> Position {
        Position::new(rng.uniform(0.0, self.width), rng.uniform(0.0, self.height))
    }

    /// Sample `n` uniformly random positions (the paper's random deployment).
    pub fn random_deployment(&self, n: usize, rng: &mut StreamRng) -> Vec<Position> {
        (0..n).map(|_| self.random_position(rng)).collect()
    }

    /// Deploy `n` nodes in Gaussian hotspot clusters: `clusters` centre
    /// points are drawn uniformly in the field, then nodes are assigned to
    /// centres round-robin and scattered around them with isotropic normal
    /// offsets of standard deviation `sigma` metres (clamped to the field).
    ///
    /// Models event-driven deployments where sensing density concentrates
    /// around phenomena of interest instead of covering the field uniformly.
    pub fn gaussian_cluster_deployment(
        &self,
        n: usize,
        clusters: usize,
        sigma: f64,
        rng: &mut StreamRng,
    ) -> Vec<Position> {
        assert!(clusters > 0, "need at least one hotspot cluster");
        assert!(sigma >= 0.0, "cluster spread must be non-negative");
        let centers: Vec<Position> = (0..clusters).map(|_| self.random_position(rng)).collect();
        (0..n)
            .map(|i| {
                let c = centers[i % clusters];
                let p = Position::new(
                    c.x + sigma * rng.standard_normal(),
                    c.y + sigma * rng.standard_normal(),
                );
                self.clamp(p)
            })
            .collect()
    }

    /// Deploy `n` nodes uniformly inside a horizontal corridor spanning the
    /// full width of the field and `width_fraction` of its height, centred
    /// vertically — the pipeline / road / border-line monitoring geometry.
    pub fn corridor_deployment(
        &self,
        n: usize,
        width_fraction: f64,
        rng: &mut StreamRng,
    ) -> Vec<Position> {
        assert!(
            width_fraction > 0.0 && width_fraction <= 1.0,
            "corridor width fraction must be in (0, 1]"
        );
        let band = self.height * width_fraction;
        let y0 = (self.height - band) / 2.0;
        (0..n)
            .map(|_| Position::new(rng.uniform(0.0, self.width), y0 + rng.uniform(0.0, band)))
            .collect()
    }

    /// Place `n` nodes on a jittered grid — a deterministic but realistic
    /// alternative deployment used by some examples and ablations.
    pub fn grid_deployment(&self, n: usize, jitter: f64, rng: &mut StreamRng) -> Vec<Position> {
        if n == 0 {
            return Vec::new();
        }
        let cols = (n as f64).sqrt().ceil() as usize;
        let rows = n.div_ceil(cols);
        let dx = self.width / cols as f64;
        let dy = self.height / rows as f64;
        let mut out = Vec::with_capacity(n);
        'outer: for r in 0..rows {
            for c in 0..cols {
                if out.len() >= n {
                    break 'outer;
                }
                let base = Position::new((c as f64 + 0.5) * dx, (r as f64 + 0.5) * dy);
                let jittered = Position::new(
                    base.x + rng.uniform(-jitter, jitter),
                    base.y + rng.uniform(-jitter, jitter),
                );
                out.push(self.clamp(jittered));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caem_simcore::rng::StreamRng;

    #[test]
    fn distance_math() {
        let a = Position::new(0.0, 0.0);
        let b = Position::new(3.0, 4.0);
        assert!((a.distance_to(&b) - 5.0).abs() < 1e-12);
        assert!((a.distance_sq_to(&b) - 25.0).abs() < 1e-12);
        assert_eq!(a.distance_to(&a), 0.0);
    }

    #[test]
    fn paper_field_dimensions() {
        let f = Field::paper_default();
        assert_eq!((f.width, f.height), (100.0, 100.0));
        assert!((f.diagonal() - 141.42135).abs() < 1e-4);
    }

    #[test]
    fn contains_and_clamp() {
        let f = Field::new(10.0, 20.0);
        assert!(f.contains(&Position::new(0.0, 0.0)));
        assert!(f.contains(&Position::new(10.0, 20.0)));
        assert!(!f.contains(&Position::new(10.1, 5.0)));
        assert!(!f.contains(&Position::new(5.0, -0.1)));
        assert_eq!(f.clamp(Position::new(-3.0, 25.0)), Position::new(0.0, 20.0));
    }

    #[test]
    fn random_deployment_stays_in_field() {
        let f = Field::paper_default();
        let mut rng = StreamRng::from_seed_u64(1);
        let nodes = f.random_deployment(100, &mut rng);
        assert_eq!(nodes.len(), 100);
        assert!(nodes.iter().all(|p| f.contains(p)));
        // Not all identical.
        assert!(nodes.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn random_deployment_is_deterministic_per_seed() {
        let f = Field::paper_default();
        let a = f.random_deployment(10, &mut StreamRng::from_seed_u64(7));
        let b = f.random_deployment(10, &mut StreamRng::from_seed_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn grid_deployment_counts_and_bounds() {
        let f = Field::paper_default();
        let mut rng = StreamRng::from_seed_u64(3);
        for n in [0usize, 1, 7, 100] {
            let nodes = f.grid_deployment(n, 2.0, &mut rng);
            assert_eq!(nodes.len(), n);
            assert!(nodes.iter().all(|p| f.contains(p)));
        }
    }

    #[test]
    fn gaussian_cluster_deployment_stays_in_field_and_clusters() {
        let f = Field::paper_default();
        let mut rng = StreamRng::from_seed_u64(11);
        let nodes = f.gaussian_cluster_deployment(120, 4, 8.0, &mut rng);
        assert_eq!(nodes.len(), 120);
        assert!(nodes.iter().all(|p| f.contains(p)));
        // Hotspots concentrate mass: the mean nearest-neighbour distance must
        // be clearly below the uniform deployment's.
        let mean_nn = |pts: &[Position]| -> f64 {
            pts.iter()
                .enumerate()
                .map(|(i, p)| {
                    pts.iter()
                        .enumerate()
                        .filter(|&(j, _)| j != i)
                        .map(|(_, q)| p.distance_to(q))
                        .fold(f64::INFINITY, f64::min)
                })
                .sum::<f64>()
                / pts.len() as f64
        };
        let mut rng2 = StreamRng::from_seed_u64(11);
        let uniform = f.random_deployment(120, &mut rng2);
        assert!(mean_nn(&nodes) < mean_nn(&uniform));
    }

    #[test]
    fn corridor_deployment_stays_inside_the_band() {
        let f = Field::paper_default();
        let mut rng = StreamRng::from_seed_u64(5);
        let nodes = f.corridor_deployment(80, 0.2, &mut rng);
        assert_eq!(nodes.len(), 80);
        assert!(nodes.iter().all(|p| f.contains(p)));
        // 20% band centred vertically: y in [40, 60].
        assert!(nodes.iter().all(|p| p.y >= 40.0 && p.y <= 60.0));
        // x still spans most of the field.
        let xmin = nodes.iter().map(|p| p.x).fold(f64::INFINITY, f64::min);
        let xmax = nodes.iter().map(|p| p.x).fold(0.0, f64::max);
        assert!(xmax - xmin > 50.0);
    }

    #[test]
    #[should_panic]
    fn corridor_width_fraction_validated() {
        let f = Field::paper_default();
        let mut rng = StreamRng::from_seed_u64(1);
        f.corridor_deployment(10, 0.0, &mut rng);
    }

    #[test]
    #[should_panic]
    fn zero_area_field_rejected() {
        Field::new(0.0, 10.0);
    }
}
