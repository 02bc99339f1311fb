//! Ward-linkage agglomerative clustering (the "AGC" alternative of Table VI).
//!
//! A full hierarchical clustering is quadratic in the number of points, which
//! is too expensive for the larger attributes, so the implementation follows
//! the common practice of hierarchically clustering a bounded sample (default
//! 1,024 points) and assigning the remaining points to the nearest resulting
//! centroid. The merge step uses the nearest-neighbour-chain algorithm with
//! Ward linkage, which runs in `O(sample² · dim)` time and linear memory.

use crate::{assign_to_nearest, Clustering};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Maximum number of points used for the hierarchical phase.
const MAX_SAMPLE: usize = 1_024;

#[derive(Debug, Clone)]
struct Node {
    /// Sum of member vectors (for centroid computation).
    sum: Vec<f64>,
    /// Number of members.
    size: usize,
    /// Whether this node is still an active cluster.
    alive: bool,
}

impl Node {
    fn centroid(&self) -> Vec<f32> {
        self.sum
            .iter()
            .map(|&s| (s / self.size as f64) as f32)
            .collect()
    }
}

/// Ward distance between two clusters represented by centroid sums and sizes.
///
/// Computed straight off the running `sum`/`size` fields with zero
/// allocations: each centroid component is materialised as the same
/// `(sum / size) as f32` value [`Node::centroid`] would produce and the
/// squared distance accumulates in f32 in [`crate::sq_dist`]'s exact
/// operation
/// order, so the result is bit-identical to the former
/// `sq_dist(&a.centroid(), &b.centroid())` formulation — this function is
/// evaluated O(sample²) times per merge pass, where the two `Vec<f32>`
/// allocations per call used to dominate.
fn ward_distance(a: &Node, b: &Node) -> f64 {
    debug_assert_eq!(a.sum.len(), b.sum.len());
    let na = a.size as f64;
    let nb = b.size as f64;
    let mut acc = 0.0f32;
    for (sa, sb) in a.sum.iter().zip(b.sum.iter()) {
        let ca = (sa / na) as f32;
        let cb = (sb / nb) as f32;
        let d = ca - cb;
        acc += d * d;
    }
    na * nb / (na + nb) * (acc as f64)
}

/// Agglomerative (Ward) clustering of `data` into `k` clusters.
pub fn agglomerative(data: &[&[f32]], k: usize, seed: u64) -> Clustering {
    let n = data.len();
    if n == 0 || k == 0 {
        return Clustering {
            k: 0,
            assignments: Vec::new(),
            centroids: Vec::new(),
        };
    }
    let k = k.min(n);

    // Sample the points used for the hierarchical phase.
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut indices: Vec<usize> = (0..n).collect();
    if n > MAX_SAMPLE {
        indices.shuffle(&mut rng);
        indices.truncate(MAX_SAMPLE.max(k));
    }

    // Initialise one singleton node per sampled point.
    let mut nodes: Vec<Node> = indices
        .iter()
        .map(|&i| Node {
            sum: data[i].iter().map(|&x| x as f64).collect(),
            size: 1,
            alive: true,
        })
        .collect();
    let mut n_alive = nodes.len();

    // Nearest-neighbour-chain agglomeration until `k` clusters remain.
    let mut chain: Vec<usize> = Vec::new();
    while n_alive > k {
        if chain.is_empty() {
            let first = nodes
                .iter()
                .position(|nd| nd.alive)
                .expect("at least k clusters remain alive");
            chain.push(first);
        }
        let current = *chain.last().expect("chain is non-empty");
        // Find the nearest alive neighbour of `current`.
        let mut nearest = None;
        let mut nearest_d = f64::INFINITY;
        for (j, node) in nodes.iter().enumerate() {
            if !node.alive || j == current {
                continue;
            }
            let d = ward_distance(&nodes[current], node);
            if d < nearest_d {
                nearest_d = d;
                nearest = Some(j);
            }
        }
        let Some(nearest) = nearest else { break };
        // If the nearest neighbour is the previous element of the chain, the
        // pair is reciprocal — merge it. Otherwise extend the chain.
        if chain.len() >= 2 && chain[chain.len() - 2] == nearest {
            chain.pop();
            chain.pop();
            // Merge `nearest` into `current`.
            let (a, b) = if current < nearest {
                (current, nearest)
            } else {
                (nearest, current)
            };
            let (left, right) = nodes.split_at_mut(b);
            let target = &mut left[a];
            let source = &mut right[0];
            for (s, x) in target.sum.iter_mut().zip(source.sum.iter()) {
                *s += x;
            }
            target.size += source.size;
            source.alive = false;
            n_alive -= 1;
        } else {
            chain.push(nearest);
        }
    }

    let centroids: Vec<Vec<f32>> = nodes
        .iter()
        .filter(|nd| nd.alive)
        .map(|nd| nd.centroid())
        .collect();
    let assignments = assign_to_nearest(data, &centroids);
    Clustering {
        k: centroids.len(),
        assignments,
        centroids,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_down_to_k_clusters() {
        let mut data = Vec::new();
        for (cx, cy) in [(0.0f32, 0.0f32), (8.0, 8.0)] {
            for i in 0..25 {
                data.push(vec![cx + (i % 5) as f32 * 0.05, cy + (i / 5) as f32 * 0.05]);
            }
        }
        let rows: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        let c = agglomerative(&rows, 2, 3);
        assert_eq!(c.k, 2);
        assert_ne!(c.assignments[0], c.assignments[30]);
        assert_eq!(c.members(0).len() + c.members(1).len(), 50);
    }

    #[test]
    fn k_equal_to_n_gives_singletons() {
        let data = [vec![0.0f32], vec![5.0], vec![10.0]];
        let rows: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        let c = agglomerative(&rows, 3, 0);
        assert_eq!(c.k, 3);
        let mut sorted = c.assignments.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3);
    }

    #[test]
    fn handles_more_points_than_sample_cap() {
        // 1,500 points in two blobs exceeds MAX_SAMPLE.
        let mut data = Vec::new();
        for i in 0..1_500 {
            let base = if i % 2 == 0 { 0.0f32 } else { 50.0 };
            data.push(vec![base + (i % 7) as f32 * 0.01, base]);
        }
        let rows: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        let c = agglomerative(&rows, 2, 9);
        assert_eq!(c.k, 2);
        assert_eq!(c.assignments.len(), 1_500);
        assert_ne!(c.assignments[0], c.assignments[1]);
    }

    #[test]
    fn ward_distance_grows_with_separation() {
        let a = Node {
            sum: vec![0.0, 0.0],
            size: 1,
            alive: true,
        };
        let near = Node {
            sum: vec![1.0, 0.0],
            size: 1,
            alive: true,
        };
        let far = Node {
            sum: vec![10.0, 0.0],
            size: 1,
            alive: true,
        };
        assert!(ward_distance(&a, &near) < ward_distance(&a, &far));
    }

    /// The zero-alloc `ward_distance` must be bit-identical to the
    /// allocating `sq_dist(&a.centroid(), &b.centroid())` formulation it
    /// replaced, including on sizes whose centroid division is inexact.
    #[test]
    fn ward_distance_matches_the_allocating_formulation_bitwise() {
        let mk = |sum: Vec<f64>, size: usize| Node {
            sum,
            size,
            alive: true,
        };
        let nodes = [
            mk(vec![0.1, -2.7, 3.9], 1),
            mk(vec![10.0, 0.5, -0.25], 3),
            mk(vec![-7.3, 7.3, 100.0], 7),
            mk(vec![0.0, 0.0, 0.0], 13),
        ];
        for a in &nodes {
            for b in &nodes {
                let fast = ward_distance(a, b);
                let na = a.size as f64;
                let nb = b.size as f64;
                let reference =
                    na * nb / (na + nb) * (crate::sq_dist(&a.centroid(), &b.centroid()) as f64);
                assert_eq!(fast.to_bits(), reference.to_bits());
            }
        }
    }
}
