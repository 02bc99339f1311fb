//! Lloyd's k-means with k-means++ style seeding.
//!
//! Two implementations share one algorithm:
//!
//! * [`kmeans`] — the production fast path. It factors the input through
//!   [`DedupPoints`] and runs every O(n·k·d) inner loop per *distinct* vector
//!   instead (O(u·k·d), `u` distinct rows), scattering assignments back by
//!   code. Seeding stays row-weighted (the D² scan walks rows, not
//!   distincts), so the sampled centres are exactly the reference's. Its
//!   distances come from the lane-wise kernels of [`crate::lanes`]: an
//!   assignment pass transposes centroids once and sweeps every distinct
//!   vector against them with the centroids as lanes, and seeding
//!   transposes the distinct vectors *in place* (no copy of them is made)
//!   and sweeps each new centre against all of them with the points as
//!   lanes, then transposes them back before the Lloyd loop. Both add every
//!   distance's terms in [`sq_dist`]'s order, so they change no bit.
//!   Everything runs on the calling thread.
//! * [`kmeans_reference`] — the scalar full-row oracle, kept for the
//!   equivalence suite. Its distances are [`sq_dist`] calls. On inputs whose
//!   weighted centroid sums are exact in f64 (e.g. integer-valued features,
//!   and any input with no duplicate rows) the fast path is bit-identical to
//!   it; otherwise the two differ only by f64 summation order in the centroid
//!   update.
//!
//! ## Incremental assignment
//!
//! After a few Lloyd updates most centroids stop moving: the update
//! recomputes them to the same f32 bits. A stationary centroid's distance to
//! a vector is bit-identical to last pass's, so the fast path's assignment
//! passes (every Lloyd pass and the final assignment) re-sweep only the
//! centroids whose bits changed, the *moved* ones, re-seeded empty clusters
//! included. Each distinct vector `u` keeps three values from its last
//! pass: `a[u]`, its centroid (the first minimum, the rule of
//! [`CentroidLanes::nearest`]); `q[u]`, that centroid's computed distance;
//! and `s[u]`, a computed value no larger than any other centroid's non-NaN
//! computed distance. A pass sweeps every `u` against the moved centroids
//! only, and the winner is the first minimum over `a[u]` and the moved
//! centroids when
//!
//! * `a[u]` did not move (it keeps `q[u]`, and last pass's first minimum
//!   beat every stationary centroid, ties included), or
//! * it moved, and its new distance is `≤ q[u]` (it still beats every
//!   stationary centroid) or `< s[u]` (strictly below all of them).
//!
//! `s[u]` then becomes the minimum of itself, the moved centroids' distances
//! other than the winner's, and `q[u]` when a stationary `a[u]` lost.
//! Otherwise, and whenever `q[u]` is not finite, `u` is swept against all
//! `k` centroids. Every comparison is between computed f32 distances, with
//! no epsilon, so the assignments are the full sweep's bit for bit; debug
//! builds assert that after every pass.
//!
//! The first pass has no history: every centroid counts as moved, so it is
//! a full sweep. k-means++ seeding has already computed every distance that
//! sweep needs, one centre at a time, with the same operand order, so
//! [`kmeans_dedup`] folds them into `a`, `q` and `s` as seeding goes and
//! the Lloyd loop starts from that assignment with no centroid moved,
//! skipping the `u × k` first pass (`Assignment::add_centre`).
//!
//! ## Empty clusters
//!
//! Empty clusters are re-seeded *iteratively*: after the surviving centroids
//! move, each empty cluster in turn takes the point farthest from its
//! nearest updated centroid, and the distance field is refreshed before the
//! next empty cluster picks — so two clusters emptied in the same iteration
//! receive two distinct points. (The pre-fix behaviour computed every
//! farthest point against the same stale assignment snapshot, handing the
//! *same* point to every simultaneously-empty cluster; the duplicate
//! centroids then persisted to convergence. [`kmeans_with_initial`] exists
//! so the regression test can plant that exact situation.)

use crate::dedup::DedupPoints;
use crate::lanes::{nearest_two, CentroidLanes};
use crate::{assign_to_nearest_reference, sq_dist, Clustering};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cmp::Ordering;

/// k-means hyper-parameters.
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// Stop when the total centroid movement falls below this threshold.
    pub tolerance: f32,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        Self {
            max_iters: 40,
            tolerance: 1e-4,
        }
    }
}

fn empty_clustering() -> Clustering {
    Clustering {
        k: 0,
        assignments: Vec::new(),
        centroids: Vec::new(),
    }
}

/// Runs k-means over the rows of `data` (each row one point).
///
/// `k` is clamped to the number of points. This is the dedup-weighted fast
/// path; see the module docs for its relationship to [`kmeans_reference`].
pub fn kmeans(data: &[&[f32]], k: usize, config: &KMeansConfig, seed: u64) -> Clustering {
    if data.is_empty() || k == 0 {
        return empty_clustering();
    }
    kmeans_dedup(&mut DedupPoints::build(data), k, config, seed)
}

/// [`kmeans`] over an already-deduplicated input (lets callers that hold a
/// [`DedupPoints`] skip rebuilding it).
///
/// Seeding transposes `dd`'s distinct vectors in place and transposes them
/// back before it returns, so `dd` is borrowed mutably but comes back
/// bit-identical.
pub fn kmeans_dedup(
    dd: &mut DedupPoints,
    k: usize,
    config: &KMeansConfig,
    seed: u64,
) -> Clustering {
    let n = dd.n_rows();
    if n == 0 || k == 0 {
        return empty_clustering();
    }
    let k = k.min(n);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let (mut centroids, assignment) = plus_plus_init_dedup(dd, k, &mut rng);
    let nearest = lloyd_dedup(dd, &mut centroids, assignment, config);
    Clustering {
        k,
        assignments: dd.scatter(&nearest),
        centroids,
    }
}

/// Runs the dedup-weighted Lloyd loop from caller-provided initial centroids
/// (skipping k-means++ seeding). Used by the empty-cluster regression tests
/// to plant a specific starting configuration.
pub fn kmeans_with_initial(
    data: &[&[f32]],
    initial: &[Vec<f32>],
    config: &KMeansConfig,
) -> Clustering {
    if data.is_empty() || initial.is_empty() {
        return empty_clustering();
    }
    let dd = DedupPoints::build(data);
    let mut centroids = initial.to_vec();
    let assignment = Assignment::full(&dd, &centroids);
    let nearest = lloyd_dedup(&dd, &mut centroids, assignment, config);
    Clustering {
        k: centroids.len(),
        assignments: dd.scatter(&nearest),
        centroids,
    }
}

/// The scalar full-row oracle: identical algorithm to [`kmeans`], every loop
/// walking all `n` rows.
pub fn kmeans_reference(data: &[&[f32]], k: usize, config: &KMeansConfig, seed: u64) -> Clustering {
    if data.is_empty() || k == 0 {
        return empty_clustering();
    }
    let n = data.len();
    let k = k.min(n);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut centroids = plus_plus_init(data, k, &mut rng);
    lloyd_reference(data, &mut centroids, config);
    let assignments = assign_to_nearest_reference(data, &centroids);
    Clustering {
        k,
        assignments,
        centroids,
    }
}

/// [`kmeans_reference`] from caller-provided initial centroids.
pub fn kmeans_reference_with_initial(
    data: &[&[f32]],
    initial: &[Vec<f32>],
    config: &KMeansConfig,
) -> Clustering {
    if data.is_empty() || initial.is_empty() {
        return empty_clustering();
    }
    let mut centroids = initial.to_vec();
    lloyd_reference(data, &mut centroids, config);
    let assignments = assign_to_nearest_reference(data, &centroids);
    Clustering {
        k: centroids.len(),
        assignments,
        centroids,
    }
}

/// `max_by`-compatible argmax over per-row distances: on ties (and on NaN,
/// treated as equal) the *later* row wins, matching
/// `Iterator::max_by(partial_cmp.unwrap_or(Equal))`.
fn farthest_row(dists: impl Iterator<Item = f32>) -> usize {
    let mut best = 0usize;
    let mut best_d = f32::NEG_INFINITY;
    for (i, d) in dists.enumerate() {
        if i == 0 || best_d.partial_cmp(&d).unwrap_or(Ordering::Equal) != Ordering::Greater {
            best = i;
            best_d = d;
        }
    }
    best
}

/// Each distinct vector's nearest centroid, kept across the assignment
/// passes of one Lloyd run so that a pass re-sweeps only the centroids that
/// moved (see the module docs for the rules).
struct Assignment {
    /// `a[u]`: the centroid distinct vector `u` is assigned to (`u32`, like
    /// the codes, so that seeding's fold runs 32-bit lanes throughout).
    nearest: Vec<u32>,
    /// `q[u]`: its computed squared distance to `a[u]`; infinite before
    /// the first pass.
    dist: Vec<f32>,
    /// `s[u]`: no larger than any other centroid's non-NaN computed
    /// squared distance to `u`. Never NaN, so `f32::min` keeps it when the
    /// other operand is a NaN distance.
    bound: Vec<f32>,
}

impl Assignment {
    /// No history yet: `q` is infinite, so each vector's first pass sweeps
    /// all centroids.
    fn new(n_unique: usize) -> Self {
        Self {
            nearest: vec![0; n_unique],
            dist: vec![f32::INFINITY; n_unique],
            bound: vec![f32::INFINITY; n_unique],
        }
    }

    /// The first pass over `centroids`: every centroid counts as moved.
    fn full(dd: &DedupPoints, centroids: &[Vec<f32>]) -> Self {
        let mut assignment = Self::new(dd.n_unique());
        let all: Vec<usize> = (0..centroids.len()).collect();
        assignment.pass(dd, centroids, &all);
        assignment
    }

    /// The first pass over centroid 0 alone, from every distinct vector's
    /// distance to it: `a` is 0, `q` that distance, and `s` infinite.
    fn first_centre(dists: &[f32]) -> Self {
        Self {
            nearest: vec![0; dists.len()],
            dist: dists.to_vec(),
            bound: vec![f32::INFINITY; dists.len()],
        }
    }

    /// Extends a first pass over centroids `0..c` to `0..=c`, given every
    /// distinct vector's distance to centroid `c`: the values a full sweep
    /// over `0..=c` computes ([`nearest_two`]'s rule), bit for bit.
    ///
    /// `c` takes over as the first minimum only when its distance `d` is
    /// strictly below every earlier non-NaN distance. That minimum is `q`,
    /// unless no distance so far is below infinity: then `a` is 0 and `q`
    /// its distance, infinite or NaN, and the test is `d < ∞`. The test
    /// `d < ∞ & (d < q | q.is_nan())` covers both cases and is false for a
    /// NaN `d`. The distance that does not win (the displaced `q`, or `d`)
    /// joins the others' minimum `s` unless it is NaN (`other < s` is false
    /// then). Compares and selects on 32-bit lanes, with no branch and no
    /// NaN-aware `min`, so the loop vectorises and costs little next to the
    /// sweep that feeds it.
    fn add_centre(&mut self, c: usize, dists: &[f32]) {
        let c = u32::try_from(c).expect("centroid indices fit u32, like the codes");
        let rows = self.nearest.iter_mut().zip(&mut self.dist);
        for (((a, q), s), &d) in rows.zip(&mut self.bound).zip(dists) {
            let closer = (d < f32::INFINITY) & ((d < *q) | q.is_nan());
            let other = if closer { *q } else { d };
            *s = if other < *s { other } else { *s };
            *q = if closer { d } else { *q };
            *a = if closer { c } else { *a };
        }
    }

    /// Assigns every distinct vector to its nearest of `centroids`, given
    /// that the assignment was exact before and only the centroids listed
    /// in `moved` (ascending) changed since; with none moved it already is.
    /// Bit-identical to [`DedupPoints::assign_unique`].
    fn pass(&mut self, dd: &DedupPoints, centroids: &[Vec<f32>], moved: &[usize]) {
        const STATIONARY: usize = usize::MAX;
        if moved.is_empty() {
            return;
        }
        assert!(
            u32::try_from(centroids.len()).is_ok(),
            "centroid indices fit u32, like the codes"
        );
        let all_moved = moved.len() == centroids.len();
        let mut lane_of = vec![STATIONARY; centroids.len()];
        for (lane, &c) in moved.iter().enumerate() {
            lane_of[c] = lane;
        }
        let mut moved_lanes = CentroidLanes::subset(centroids, moved);
        let mut all_lanes: Option<CentroidLanes> = None;
        for u in 0..dd.n_unique() {
            let x = dd.unique_row(u);
            let (a, q, s) = (self.nearest[u] as usize, self.dist[u], self.bound[u]);
            if all_moved || q.is_finite() {
                let dists = moved_lanes.sq_dists(x);
                let (lane, runner_up) = nearest_two(dists);
                let (w, qw) = (moved[lane], dists[lane]);
                if lane_of[a] == STATIONARY {
                    // `a` keeps `q`, which beat every stationary centroid.
                    if qw < q || (qw == q && w < a) {
                        self.nearest[u] = w as u32;
                        self.dist[u] = qw;
                        self.bound[u] = s.min(runner_up).min(q);
                    } else {
                        self.bound[u] = s.min(qw);
                    }
                    continue;
                }
                // `a` moved: it still beats every stationary centroid if it
                // came no farther, or stays strictly below their bound.
                let qa = dists[lane_of[a]];
                if all_moved || qa <= q || qa < s {
                    self.nearest[u] = w as u32;
                    self.dist[u] = qw;
                    self.bound[u] = if all_moved {
                        runner_up
                    } else {
                        s.min(runner_up)
                    };
                    continue;
                }
            }
            // No history, or the history cannot decide: sweep all `k`.
            let lanes = all_lanes.get_or_insert_with(|| CentroidLanes::new(centroids));
            let dists = lanes.sq_dists(x);
            let (w, runner_up) = nearest_two(dists);
            self.nearest[u] = w as u32;
            self.dist[u] = dists[w];
            self.bound[u] = runner_up;
        }
        debug_assert_eq!(
            self.assigned(),
            dd.assign_unique(centroids),
            "incremental assignment left the full sweep"
        );
    }

    /// `a` as centroid indices, one per distinct vector.
    fn assigned(&self) -> Vec<usize> {
        self.nearest.iter().map(|&a| a as usize).collect()
    }
}

/// Lloyd iterations over the deduplicated points, mutating `centroids` in
/// place, and the nearest centroid per distinct vector under the final
/// centroids. `assignment` must be the full sweep's over the initial
/// `centroids`, so the first iteration needs no pass; each later
/// assignment pass re-sweeps only the centroids that moved
/// ([`Assignment::pass`]).
fn lloyd_dedup(
    dd: &DedupPoints,
    centroids: &mut [Vec<f32>],
    mut assignment: Assignment,
    config: &KMeansConfig,
) -> Vec<usize> {
    debug_assert_eq!(
        assignment.assigned(),
        dd.assign_unique(centroids),
        "the initial assignment is not the full sweep's"
    );
    let mut sums = vec![0.0f64; centroids.len() * dd.dim()];
    let mut moved: Vec<usize> = Vec::new();
    for _ in 0..config.max_iters {
        assignment.pass(dd, centroids, &moved);
        let (movement, next) = update_dedup(dd, centroids, &assignment.nearest, &mut sums);
        moved = next;
        if movement < config.tolerance {
            break;
        }
    }
    assignment.pass(dd, centroids, &moved);
    assignment.assigned()
}

/// One Lloyd update over the deduplicated points, from `nearest` (the
/// centroid per distinct vector): each non-empty cluster's centroid becomes
/// its members' mean, weighting each distinct by its multiplicity, and each
/// empty cluster is re-seeded. `sums` is the caller's `k × dim` buffer for
/// the clusters' f64 sums, reused across updates. Returns the total
/// centroid movement and the centroids whose bits changed, re-seeded ones
/// included, in ascending order.
#[allow(
    clippy::needless_range_loop,
    reason = "`u` indexes parallel arrays in a loop pinned by the bit-identity oracles"
)]
fn update_dedup(
    dd: &DedupPoints,
    centroids: &mut [Vec<f32>],
    nearest: &[u32],
    sums: &mut [f64],
) -> (f32, Vec<usize>) {
    let k = centroids.len();
    let dim = dd.dim();
    let nu = dd.n_unique();
    sums.fill(0.0);
    let mut counts = vec![0u64; k];
    for u in 0..nu {
        let a = nearest[u] as usize;
        let w = dd.counts()[u] as u64;
        counts[a] += w;
        let wf = w as f64;
        let sum = &mut sums[a * dim..(a + 1) * dim];
        for (s, &x) in sum.iter_mut().zip(dd.unique_row(u)) {
            *s += wf * (x as f64);
        }
    }
    let mut movement = 0.0f32;
    let mut empties: Vec<usize> = Vec::new();
    let mut moved = vec![false; k];
    for c in 0..k {
        if counts[c] == 0 {
            empties.push(c);
            continue;
        }
        // The mean overwrites the old centroid coordinate by coordinate;
        // `shift` adds their squared differences in `sq_dist`'s order.
        let mut shift = 0.0f32;
        for (old, &s) in centroids[c].iter_mut().zip(&sums[c * dim..(c + 1) * dim]) {
            let new = (s / counts[c] as f64) as f32;
            let d = *old - new;
            shift += d * d;
            moved[c] |= old.to_bits() != new.to_bits();
            *old = new;
        }
        movement += shift;
    }
    // Iterative empty-cluster re-seeding against the *updated* centroids,
    // refreshing distances after each pick so simultaneously-empty
    // clusters receive distinct points.
    if !empties.is_empty() {
        let mut udist: Vec<f32> = (0..nu)
            .map(|u| sq_dist(dd.unique_row(u), &centroids[nearest[u] as usize]))
            .collect();
        for c in empties {
            let far = farthest_row(dd.codes().iter().map(|&u| udist[u as usize]));
            let far_u = dd.codes()[far] as usize;
            movement += sq_dist(&centroids[c], dd.unique_row(far_u));
            centroids[c] = dd.unique_row(far_u).to_vec();
            moved[c] = true;
            for u in 0..nu {
                let nd = sq_dist(dd.unique_row(u), &centroids[c]);
                if nd < udist[u] {
                    udist[u] = nd;
                }
            }
        }
    }
    (movement, (0..k).filter(|&c| moved[c]).collect())
}

/// Lloyd iterations over the full rows (the scalar oracle), mutating
/// `centroids` in place. Same re-seeding discipline as [`lloyd_dedup`].
fn lloyd_reference(data: &[&[f32]], centroids: &mut [Vec<f32>], config: &KMeansConfig) {
    let k = centroids.len();
    let dim = data[0].len();
    for _ in 0..config.max_iters {
        let assignments = assign_to_nearest_reference(data, centroids);

        let mut sums = vec![vec![0.0f64; dim]; k];
        let mut counts = vec![0u64; k];
        for (row, &a) in data.iter().zip(assignments.iter()) {
            counts[a] += 1;
            for (s, &x) in sums[a].iter_mut().zip(row.iter()) {
                *s += x as f64;
            }
        }
        let mut movement = 0.0f32;
        let mut empties: Vec<usize> = Vec::new();
        for c in 0..k {
            if counts[c] == 0 {
                empties.push(c);
                continue;
            }
            let mut new_centroid = vec![0.0f32; dim];
            for (nc, s) in new_centroid.iter_mut().zip(sums[c].iter()) {
                *nc = (*s / counts[c] as f64) as f32;
            }
            movement += sq_dist(&centroids[c], &new_centroid);
            centroids[c] = new_centroid;
        }
        if !empties.is_empty() {
            let mut dists: Vec<f32> = data
                .iter()
                .zip(assignments.iter())
                .map(|(row, &a)| sq_dist(row, &centroids[a]))
                .collect();
            for c in empties {
                let far = farthest_row(dists.iter().copied());
                movement += sq_dist(&centroids[c], data[far]);
                centroids[c] = data[far].to_vec();
                for (d, row) in dists.iter_mut().zip(data.iter()) {
                    let nd = sq_dist(row, &centroids[c]);
                    if nd < *d {
                        *d = nd;
                    }
                }
            }
        }
        if movement < config.tolerance {
            break;
        }
    }
}

/// k-means++ seeding: the first centre is uniform, subsequent centres are
/// sampled proportionally to the squared distance from the nearest existing
/// centre.
fn plus_plus_init(data: &[&[f32]], k: usize, rng: &mut ChaCha8Rng) -> Vec<Vec<f32>> {
    let n = data.len();
    let mut centroids: Vec<Vec<f32>> = Vec::with_capacity(k);
    centroids.push(data[rng.gen_range(0..n)].to_vec());
    let mut dists: Vec<f32> = data.iter().map(|row| sq_dist(row, &centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = dists.iter().map(|&d| d as f64).sum();
        let next = if total <= f64::EPSILON {
            // All remaining points coincide with existing centroids.
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut chosen = n - 1;
            for (i, &d) in dists.iter().enumerate() {
                target -= d as f64;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centroids.push(data[next].to_vec());
        let last = centroids.last().expect("just pushed");
        for (d, row) in dists.iter_mut().zip(data.iter()) {
            let nd = sq_dist(row, last);
            if nd < *d {
                *d = nd;
            }
        }
    }
    centroids
}

/// [`plus_plus_init`] with distances evaluated once per distinct vector,
/// through the point-lane kernel over the distinct vectors transposed in
/// place ([`DedupPoints::lanes_in_place`]; they are transposed back before
/// this returns). Also returns the [`Assignment`] a first full pass over
/// the centres computes, folded in as each centre's distances arrive
/// ([`Assignment::add_centre`]).
///
/// The D² scan still walks *rows* (each row contributes its distinct's
/// distance), so the consumed RNG stream and the sampled centres are
/// bit-identical to the reference's. Its weights `udists` keep the
/// reference's running `nd < d`, which never leaves a NaN first distance,
/// so they are kept apart from the assignment's `q`.
fn plus_plus_init_dedup(
    dd: &mut DedupPoints,
    k: usize,
    rng: &mut ChaCha8Rng,
) -> (Vec<Vec<f32>>, Assignment) {
    let n = dd.n_rows();
    let (mut points, codes) = dd.lanes_in_place();
    let mut centroids: Vec<Vec<f32>> = Vec::with_capacity(k);
    centroids.push(points.point(codes[rng.gen_range(0..n)] as usize));
    let mut assignment = Assignment::first_centre(points.sq_dists(&centroids[0]));
    let mut udists = assignment.dist.clone();
    while centroids.len() < k {
        let total: f64 = codes.iter().map(|&u| udists[u as usize] as f64).sum();
        let next = if total <= f64::EPSILON {
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut chosen = n - 1;
            for (i, &u) in codes.iter().enumerate() {
                target -= udists[u as usize] as f64;
                if target <= 0.0 {
                    chosen = i;
                    break;
                }
            }
            chosen
        };
        centroids.push(points.point(codes[next] as usize));
        let fresh = points.sq_dists(centroids.last().expect("just pushed"));
        for (d, &nd) in udists.iter_mut().zip(fresh) {
            if nd < *d {
                *d = nd;
            }
        }
        assignment.add_centre(centroids.len() - 1, fresh);
    }
    (centroids, assignment)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The dedup Lloyd loop as it ran before its assignment passes became
    /// incremental, kept as the oracle for them: every pass, and the final
    /// assignment, sweeps all `k` centroids.
    fn lloyd_full_sweep(
        dd: &DedupPoints,
        centroids: &mut [Vec<f32>],
        config: &KMeansConfig,
    ) -> Vec<usize> {
        let mut sums = vec![0.0f64; centroids.len() * dd.dim()];
        for _ in 0..config.max_iters {
            let nearest: Vec<u32> = (dd.assign_unique(centroids).iter())
                .map(|&a| a as u32)
                .collect();
            if update_dedup(dd, centroids, &nearest, &mut sums).0 < config.tolerance {
                break;
            }
        }
        dd.assign_unique(centroids)
    }

    /// [`kmeans_dedup`] on the full-sweep loop, which ignores the
    /// assignment seeding carries and sweeps from the seeded centres.
    fn kmeans_dedup_full_sweep(
        dd: &mut DedupPoints,
        k: usize,
        config: &KMeansConfig,
        seed: u64,
    ) -> Clustering {
        let k = k.min(dd.n_rows());
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (mut centroids, _) = plus_plus_init_dedup(dd, k, &mut rng);
        let nearest = lloyd_full_sweep(dd, &mut centroids, config);
        Clustering {
            k,
            assignments: dd.scatter(&nearest),
            centroids,
        }
    }

    /// [`kmeans_with_initial`] on the full-sweep loop.
    fn with_initial_full_sweep(
        data: &[&[f32]],
        initial: &[Vec<f32>],
        config: &KMeansConfig,
    ) -> Clustering {
        let dd = DedupPoints::build(data);
        let mut centroids = initial.to_vec();
        let nearest = lloyd_full_sweep(&dd, &mut centroids, config);
        Clustering {
            k: centroids.len(),
            assignments: dd.scatter(&nearest),
            centroids,
        }
    }

    fn bits(c: &Clustering) -> Vec<Vec<u32>> {
        c.centroids
            .iter()
            .map(|v| v.iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    fn assert_same(fast: &Clustering, oracle: &Clustering, what: &str) {
        assert_eq!(fast.k, oracle.k, "{what}");
        assert_eq!(fast.assignments, oracle.assignments, "{what}");
        assert_eq!(bits(fast), bits(oracle), "{what}");
    }

    fn refs(data: &[Vec<f32>]) -> Vec<&[f32]> {
        data.iter().map(|r| r.as_slice()).collect()
    }

    /// `n` rows over `u` distinct non-integer vectors, interleaved. The last
    /// coordinate takes `0.25`, `-0.25` or a value near 1e-20, so a
    /// cluster's f64 centroid sum depends on its order (the tiny values
    /// vanish when added next to `±0.25` and survive once those cancel):
    /// `kmeans_reference`, which adds row by row, drifts from the dedup
    /// path's weighted sums, and only the full-sweep loop is an exact oracle.
    fn duplicated_fractional_table(n: usize, u: usize, dim: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| fractional_vector((i * 7 + i / 11) % u, dim))
            .collect()
    }

    /// Distinct vector `v` of [`duplicated_fractional_table`].
    fn fractional_vector(v: usize, dim: usize) -> Vec<f32> {
        (0..dim)
            .map(|d| match v % 3 {
                _ if d + 1 < dim => ((v * (d + 3) + d * d) % 23) as f32 * 0.37,
                0 => 0.25,
                1 => -0.25,
                _ => (v + 1) as f32 * 1e-20,
            })
            .collect()
    }

    #[test]
    fn incremental_lloyd_matches_the_full_sweep_loop_on_duplicated_tables() {
        let budget = KMeansConfig {
            max_iters: 12,
            tolerance: 1e-3,
        };
        let mut reference_differs = false;
        for (n, u, dim, k, seed) in [
            (900usize, 60usize, 6usize, 12usize, 1u64),
            (1_200, 150, 9, 40, 2),
            (700, 35, 3, 35, 3),
            (500, 250, 5, 25, 4),
        ] {
            let data = duplicated_fractional_table(n, u, dim);
            let rows = refs(&data);
            let mut dd = DedupPoints::build(&rows);
            for config in [KMeansConfig::default(), budget.clone()] {
                let fast = kmeans_dedup(&mut dd, k, &config, seed);
                let what = format!("n={n} u={u} k={k} iters={}", config.max_iters);
                assert_same(
                    &fast,
                    &kmeans_dedup_full_sweep(&mut dd, k, &config, seed),
                    &what,
                );
                let reference = kmeans_reference(&rows, k, &config, seed);
                reference_differs |= bits(&fast) != bits(&reference);
            }
        }
        assert!(
            reference_differs,
            "the tables must leave the reference's regime"
        );
    }

    /// Ties, duplicated centroids, non-finite rows and the budget's edges,
    /// against the full-sweep loop.
    #[test]
    fn incremental_lloyd_matches_the_full_sweep_loop_on_edge_cases() {
        let default = KMeansConfig::default();
        let iters = |max_iters| KMeansConfig {
            max_iters,
            tolerance: 1e-3,
        };
        // An integer grid and centroids on its half-steps: many rows sit at
        // exactly the same distance from two or more centroids.
        let grid: Vec<Vec<f32>> = (0..120)
            .map(|i| vec![(i % 6) as f32, ((i / 6) % 5) as f32])
            .collect();
        let planted = [
            vec![
                vec![0.5f32, 0.5],
                vec![0.5, 0.5],
                vec![2.5, 2.0],
                vec![4.5, 3.5],
            ],
            vec![
                vec![2.0f32, 2.0],
                vec![1.0, 2.0],
                vec![3.0, 2.0],
                vec![2.0, 2.0],
            ],
            vec![vec![9.0f32, 9.0]; 3],
        ];
        let rows = refs(&grid);
        for initial in &planted {
            for config in [default.clone(), iters(0), iters(1), iters(2)] {
                assert_same(
                    &kmeans_with_initial(&rows, initial, &config),
                    &with_initial_full_sweep(&rows, initial, &config),
                    &format!("grid from {initial:?}, {} iters", config.max_iters),
                );
            }
        }
        let mut dd = DedupPoints::build(&rows);
        // k = 1, k at the distinct count (30) and past it (duplicate seeds).
        for k in [1usize, 29, 30, 45] {
            for config in [default.clone(), iters(0), iters(1)] {
                for seed in 0..3 {
                    assert_same(
                        &kmeans_dedup(&mut dd, k, &config, seed),
                        &kmeans_dedup_full_sweep(&mut dd, k, &config, seed),
                        &format!("grid k={k} iters={} seed={seed}", config.max_iters),
                    );
                }
            }
        }
        // Rows holding NaN and infinities.
        let mut odd = duplicated_fractional_table(200, 40, 3);
        odd[3][1] = f32::NAN;
        odd[50][0] = f32::INFINITY;
        odd[77][2] = f32::NEG_INFINITY;
        odd[120] = vec![f32::INFINITY, f32::NEG_INFINITY, 1.0];
        let rows = refs(&odd);
        let mut dd = DedupPoints::build(&rows);
        for k in [1usize, 5, 40] {
            for config in [default.clone(), iters(1)] {
                for seed in 0..3 {
                    assert_same(
                        &kmeans_dedup(&mut dd, k, &config, seed),
                        &kmeans_dedup_full_sweep(&mut dd, k, &config, seed),
                        &format!("non-finite k={k} iters={} seed={seed}", config.max_iters),
                    );
                }
            }
        }
    }

    /// Checks what a pass leaves behind against every centroid's computed
    /// distance: the full sweep's assignment, `q` equal to the assigned
    /// centroid's distance, and `s` no larger than any other centroid's.
    fn check_pass(state: &Assignment, dd: &DedupPoints, centroids: &[Vec<f32>], what: &str) {
        assert_eq!(state.assigned(), dd.assign_unique(centroids), "{what}");
        for u in 0..dd.n_unique() {
            let a = state.nearest[u] as usize;
            let dists: Vec<f32> = centroids
                .iter()
                .map(|c| sq_dist(dd.unique_row(u), c))
                .collect();
            assert_eq!(state.dist[u].to_bits(), dists[a].to_bits(), "{what} u={u}");
            for (c, &d) in dists.iter().enumerate() {
                assert!(
                    c == a || d.is_nan() || state.bound[u] <= d,
                    "{what} u={u}: bound {} above centroid {c}'s {d}",
                    state.bound[u]
                );
            }
        }
    }

    /// Replays a planted sequence of centroid sets through the incremental
    /// pass, marking as moved exactly the centroids whose bits changed.
    fn replay(points: &[Vec<f32>], steps: &[Vec<Vec<f32>>]) {
        let rows = refs(points);
        let dd = DedupPoints::build(&rows);
        let mut state = Assignment::new(dd.n_unique());
        for (step, centroids) in steps.iter().enumerate() {
            let changed = |c: usize| match step.checked_sub(1) {
                None => true,
                Some(last) => (steps[last][c].iter().zip(&centroids[c]))
                    .any(|(x, y)| x.to_bits() != y.to_bits()),
            };
            let moved: Vec<usize> = (0..centroids.len()).filter(|&c| changed(c)).collect();
            state.pass(&dd, centroids, &moved);
            check_pass(&state, &dd, centroids, &format!("step {step}"));
        }
    }

    /// Planted moves that only exact bookkeeping gets right.
    #[test]
    fn incremental_pass_keeps_the_first_minimum_through_planted_moves() {
        let c = |v: &[f32]| v.iter().map(|&x| vec![x]).collect::<Vec<_>>();
        // The assigned centroid moves away to exactly the distance of a
        // stationary lower-index centroid, which must win the tie: only a
        // strict `< s` keeps the pass from accepting the moved one.
        replay(&[vec![0.0]], &[c(&[2.0, 1.0]), c(&[2.0, -2.0])]);
        // A stationary assigned centroid loses to a moved one, which then
        // moves away again past it: the bound must have taken the loser's
        // distance.
        replay(
            &[vec![0.0]],
            &[
                c(&[1.0, 3.0, 10.0]),
                c(&[1.0, 0.5, 10.0]),
                c(&[1.0, 2.0, 10.0]),
            ],
        );
        // Integer points and centroids stepping through duplicated and
        // tied positions, a few at a time.
        let points: Vec<Vec<f32>> = (0..40)
            .map(|i| vec![(i % 8) as f32, (i / 8) as f32])
            .collect();
        let mut centroids: Vec<Vec<f32>> = (0..9)
            .map(|c| vec![(c % 3) as f32 * 3.0, (c / 3) as f32 * 2.0])
            .collect();
        let mut steps = vec![centroids.clone()];
        let mut z = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..60 {
            for _ in 0..3 {
                z ^= z << 13;
                z ^= z >> 7;
                z ^= z << 17;
                let c = (z % 9) as usize;
                let source = ((z >> 8) % 9) as usize;
                centroids[c] = match (z >> 16) % 3 {
                    0 => centroids[source].clone(),
                    1 => vec![((z >> 24) % 8) as f32, ((z >> 32) % 5) as f32],
                    _ => vec![((z >> 24) % 15) as f32 * 0.5, ((z >> 32) % 9) as f32 * 0.5],
                };
            }
            steps.push(centroids.clone());
        }
        replay(&points, &steps);
    }

    fn f32_bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Seeds `data` and checks the assignment seeding carries into the
    /// Lloyd loop: `check_pass` against every centre's computed distance,
    /// and the same `a`, `q` bits and `s` bits as a first full pass with
    /// every centroid moved. Seeding must also leave the distinct vectors
    /// as they were.
    fn check_seeded_assignment(data: &[Vec<f32>], k: usize, seed: u64, what: &str) {
        let rows = refs(data);
        let mut dd = DedupPoints::build(&rows);
        let before: Vec<Vec<u32>> = (0..dd.n_unique())
            .map(|u| f32_bits(dd.unique_row(u)))
            .collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let k = k.min(dd.n_rows());
        let (centroids, seeded) = plus_plus_init_dedup(&mut dd, k, &mut rng);
        for (u, row) in before.iter().enumerate() {
            assert_eq!(&f32_bits(dd.unique_row(u)), row, "{what}: vector {u}");
        }
        check_pass(&seeded, &dd, &centroids, what);
        let first = Assignment::full(&dd, &centroids);
        assert_eq!(seeded.nearest, first.nearest, "{what}");
        assert_eq!(f32_bits(&seeded.dist), f32_bits(&first.dist), "{what}");
        assert_eq!(f32_bits(&seeded.bound), f32_bits(&first.bound), "{what}");
    }

    /// The fused seeding sweep against the first pass it replaces: distinct
    /// counts around the 32-lane block, seeds repeated past the distinct
    /// count (the all-coincident branch, whose duplicate centres tie every
    /// distance), k = 1, rows with NaN and infinities, and zero-width rows.
    #[test]
    fn seeding_carries_the_first_full_pass() {
        for u in [1usize, 31, 32, 33, 65] {
            // 7 is prime to every `u` here, so the first `u` rows cover
            // every distinct vector.
            let data: Vec<Vec<f32>> = (0..3 * u + 7)
                .map(|i| fractional_vector(i * 7 % u, 5))
                .collect();
            assert_eq!(DedupPoints::build(&refs(&data)).n_unique(), u);
            for k in [1usize, u.div_ceil(2), u, u + 9] {
                for seed in 0..3 {
                    check_seeded_assignment(&data, k, seed, &format!("u={u} k={k} seed={seed}"));
                }
            }
        }
        let mut odd = duplicated_fractional_table(200, 65, 3);
        odd[0][1] = f32::NAN;
        odd[50][0] = f32::INFINITY;
        odd[77][2] = f32::NEG_INFINITY;
        odd[120] = vec![f32::INFINITY, f32::NEG_INFINITY, 1.0];
        odd[121] = vec![f32::NAN, f32::INFINITY, 2.0];
        for k in [1usize, 5, 40, 80] {
            for seed in 0..6 {
                check_seeded_assignment(&odd, k, seed, &format!("non-finite k={k} seed={seed}"));
            }
        }
        let zero_width = vec![Vec::<f32>::new(); 9];
        for k in [1usize, 3] {
            check_seeded_assignment(&zero_width, k, 4, &format!("zero width k={k}"));
        }
    }

    fn two_blobs() -> Vec<Vec<f32>> {
        let mut data = Vec::new();
        for i in 0..30 {
            data.push(vec![(i % 6) as f32 * 0.01, 0.0]);
        }
        for i in 0..30 {
            data.push(vec![5.0 + (i % 6) as f32 * 0.01, 5.0]);
        }
        data
    }

    #[test]
    fn separates_two_blobs() {
        let data = two_blobs();
        let rows: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        let c = kmeans(&rows, 2, &KMeansConfig::default(), 13);
        assert_eq!(c.k, 2);
        assert_ne!(c.assignments[0], c.assignments[35]);
        assert!(c.members(c.assignments[0]).len() == 30);
    }

    #[test]
    fn k_clamped_to_points() {
        let data = [vec![0.0f32], vec![1.0]];
        let rows: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        let c = kmeans(&rows, 10, &KMeansConfig::default(), 0);
        assert_eq!(c.k, 2);
        assert_eq!(c.centroids.len(), 2);
    }

    #[test]
    fn duplicate_points_do_not_break_seeding() {
        let data = vec![vec![1.0f32, 1.0]; 20];
        let rows: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        let c = kmeans(&rows, 4, &KMeansConfig::default(), 5);
        assert_eq!(c.assignments.len(), 20);
        assert_eq!(c.centroids.len(), 4);
    }

    #[test]
    fn deterministic_for_seed() {
        let data = two_blobs();
        let rows: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        let a = kmeans(&rows, 3, &KMeansConfig::default(), 21);
        let b = kmeans(&rows, 3, &KMeansConfig::default(), 21);
        assert_eq!(a.assignments, b.assignments);
    }

    /// Plants two simultaneously-empty clusters: points {0, 1, 10, 11} with
    /// initial centroids at 0.4, 0.6, 100 and 200 assign every point to the
    /// first two centroids, so clusters 2 and 3 are empty in iteration one.
    /// The pre-fix re-seeding handed both the same farthest point; the fix
    /// must produce pairwise-distinct centroids from a single iteration.
    #[test]
    fn simultaneously_empty_clusters_reseed_to_distinct_points() {
        let data = [vec![0.0f32], vec![1.0], vec![10.0], vec![11.0]];
        let rows: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        let initial = vec![vec![0.4f32], vec![0.6], vec![100.0], vec![200.0]];
        let config = KMeansConfig {
            max_iters: 1,
            ..Default::default()
        };
        let fast = kmeans_with_initial(&rows, &initial, &config);
        let oracle = kmeans_reference_with_initial(&rows, &initial, &config);
        // Each re-seeded centroid lands on a row that must join it in the
        // final assignment.
        assert_eq!(fast.assignments, oracle.assignments);
        assert_eq!(
            fast.assignments,
            with_initial_full_sweep(&rows, &initial, &config).assignments
        );
        for c in [fast, oracle] {
            assert_eq!(c.centroids.len(), 4);
            for a in 0..4 {
                for b in (a + 1)..4 {
                    assert_ne!(
                        c.centroids[a], c.centroids[b],
                        "clusters {a} and {b} share a centroid: {:?}",
                        c.centroids
                    );
                }
            }
        }
    }

    #[test]
    fn with_initial_paths_agree_bitwise_on_integer_data() {
        let data: Vec<Vec<f32>> = (0..64)
            .map(|i| vec![(i % 9) as f32, ((i * 5) % 11) as f32])
            .collect();
        let rows: Vec<&[f32]> = data.iter().map(|r| r.as_slice()).collect();
        let initial = vec![vec![0.0f32, 0.0], vec![4.0, 5.0], vec![8.0, 10.0]];
        let config = KMeansConfig::default();
        let fast = kmeans_with_initial(&rows, &initial, &config);
        let oracle = kmeans_reference_with_initial(&rows, &initial, &config);
        assert_eq!(fast.assignments, oracle.assignments);
        assert_eq!(fast.centroids, oracle.centroids);
    }
}
