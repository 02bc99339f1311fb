//! Lane-wise squared-distance kernels for the clustering fast paths.
//!
//! [`crate::sq_dist`] adds its terms in one dependent f32 chain, so a scalar
//! scan over points and centroids waits on a floating-point add for every
//! coordinate. The kernels here keep that exact chain for every
//! (point, centre) pair — the same `x - y`, the same `d * d`, added in the
//! same `i = 0..dim` order from `0.0`, with no fused multiply-add and no
//! reassociation — but run 32 independent chains side by side as the lanes
//! of a block, whose running sums stay in registers for the whole sweep:
//!
//! * [`CentroidLanes`] transposes the centroids once into blocks of 32
//!   lanes, each block holding coordinate `i` of its 32 centroids in one
//!   contiguous row. One point's distances to all `k` centroids then sweep
//!   the point's coordinates once per block, with the centroids as lanes:
//!   `dist[c] += (x[i] - centroid_c[i])²`. Lloyd assignment, the final
//!   assignment and [`crate::assign_to_nearest`] use it.
//! * `PointLanes` transposes a set of points the same way, so the
//!   distances from every point to one centre sweep the centre's coordinates
//!   once per block, with the points as lanes. k-means++ seeding, which adds
//!   one centre at a time, uses it.
//!
//! Every lane's sum is therefore bit-identical to `sq_dist`.
//! [`CentroidLanes::nearest`] returns the first lane equal to the minimum
//! distance, which is the lane the scalar scan
//! ([`crate::assign_to_nearest_reference`]) settles on — ties and NaN
//! included.
//!
//! On x86-64 CPUs with AVX the sweeps run a copy of the same loop compiled
//! for 256-bit vectors, chosen at run time. Each lane still performs the same
//! IEEE-754 subtract, multiply and add, which round identically at any
//! vector width, and no `fma` target feature is enabled, so the choice
//! changes no bit; it only halves the sweep's instruction count.
//!
//! Both kernels run on the calling thread. Parallelism comes from the caller
//! clustering one attribute per scheduler worker.

/// Lanes per block: the kernels keep one block's running sums in registers
/// across the whole coordinate sweep. 32 f32 lanes are four 256-bit or
/// eight 128-bit vectors — enough independent add chains to hide the add
/// latency.
const BLOCK: usize = 32;

/// One block: coordinate `i` of 32 centroids (or points).
type Block = [f32; BLOCK];

/// Writes `items` (all `dim` wide) into blocks of [`BLOCK`] lanes: block `b`
/// is `dim` consecutive [`Block`]s, the `i`-th holding coordinate `i` of
/// items `b·BLOCK ..`. Lanes past the last item hold `0.0`; their sums are
/// computed and never read.
fn transpose<'a>(items: impl Iterator<Item = &'a [f32]>, n: usize, dim: usize) -> Vec<Block> {
    let mut blocks = vec![[0.0; BLOCK]; n.div_ceil(BLOCK) * dim];
    for (p, item) in items.enumerate() {
        debug_assert_eq!(item.len(), dim, "ragged input");
        let block = &mut blocks[p / BLOCK * dim..][..dim];
        for (lanes, &x) in block.iter_mut().zip(item) {
            lanes[p % BLOCK] = x;
        }
    }
    blocks
}

/// Centroids transposed into lanes for nearest-centroid queries.
#[derive(Debug, Clone)]
pub struct CentroidLanes {
    /// Number of centroids.
    k: usize,
    /// The centroids in blocks of [`BLOCK`] lanes (see [`transpose`]).
    blocks: Vec<Block>,
    /// One point's distance to every lane, reused across queries.
    dists: Vec<f32>,
}

impl CentroidLanes {
    /// Transposes `centroids` (all of one dimension) into lanes.
    pub fn new(centroids: &[Vec<f32>]) -> Self {
        let k = centroids.len();
        let dim = centroids.first().map_or(0, |c| c.len());
        Self {
            k,
            blocks: transpose(centroids.iter().map(|c| c.as_slice()), k, dim),
            dists: vec![0.0; k.div_ceil(BLOCK) * BLOCK],
        }
    }

    /// Squared distance from `x` to every centroid, in centroid order; lane
    /// `c` is bit-identical to `sq_dist(x, &centroids[c])`.
    pub fn sq_dists(&mut self, x: &[f32]) -> &[f32] {
        debug_assert_eq!(
            x.len() * self.dists.len(),
            self.blocks.len() * BLOCK,
            "dims differ"
        );
        dispatch::<false>(x, &self.blocks, &mut self.dists);
        &self.dists[..self.k]
    }

    /// Index of the centroid nearest to `x`: the first minimal distance, `0`
    /// when there are no centroids or no distance is below infinity (NaN
    /// included) — exactly the scalar scan's choice.
    ///
    /// The scalar scan's running `if d < best` is one dependent chain. Here
    /// eight running minima take every eighth lane (the minimum is exact, so
    /// the grouping cannot change it), and the answer is the first lane equal
    /// to their minimum: the lane where the scan would have stopped
    /// improving.
    pub fn nearest(&mut self, x: &[f32]) -> usize {
        let dists = self.sq_dists(x);
        let mut minima = [f32::INFINITY; 8];
        let chunks = dists.chunks_exact(8);
        let tail = chunks.remainder();
        for chunk in chunks {
            for (m, &d) in minima.iter_mut().zip(chunk) {
                if d < *m {
                    *m = d;
                }
            }
        }
        let min = minima
            .iter()
            .chain(tail)
            .fold(f32::INFINITY, |m, &d| if d < m { d } else { m });
        if min < f32::INFINITY {
            dists.iter().position(|&d| d == min).unwrap_or(0)
        } else {
            0
        }
    }
}

/// Points transposed into lanes for distance-to-one-centre queries.
#[derive(Debug, Clone)]
pub(crate) struct PointLanes {
    /// Number of points.
    n: usize,
    /// The points in blocks of [`BLOCK`] lanes (see [`transpose`]).
    blocks: Vec<Block>,
    /// Every lane's distance to one centre, reused across queries.
    dists: Vec<f32>,
}

impl PointLanes {
    /// Transposes `n` points, stored row-major in `flat`, into lanes.
    pub(crate) fn new(flat: &[f32], n: usize) -> Self {
        let dim = flat.len().checked_div(n).unwrap_or(0);
        debug_assert_eq!(n * dim, flat.len(), "ragged points");
        let rows = (0..n).map(|p| &flat[p * dim..(p + 1) * dim]);
        Self {
            n,
            blocks: transpose(rows, n, dim),
            dists: vec![0.0; n.div_ceil(BLOCK) * BLOCK],
        }
    }

    /// The squared distance from every point to `centre`, in point order;
    /// slot `p` is bit-identical to `sq_dist(point_p, centre)`. With
    /// zero-width points every distance is `0.0`.
    pub(crate) fn sq_dists(&mut self, centre: &[f32]) -> &[f32] {
        dispatch::<true>(centre, &self.blocks, &mut self.dists);
        &self.dists[..self.n]
    }
}

/// `out[b·BLOCK + j] = Σᵢ dᵢ²`, summed in `i` order from `0.0`, where `dᵢ`
/// is `s[i] - blocks[b·dim + i][j]` for centroid lanes (`s` is the point)
/// and `blocks[b·dim + i][j] - s[i]` for point lanes (`s` is the centre):
/// `sq_dist(point, centre)`'s operand order either way.
#[inline(always)]
fn sweep<const POINT_LANES: bool>(s: &[f32], blocks: &[Block], out: &mut [f32]) {
    let dim = s.len();
    for (b, out) in out.chunks_exact_mut(BLOCK).enumerate() {
        let mut acc = [0.0f32; BLOCK];
        for (&si, lanes) in s.iter().zip(&blocks[b * dim..(b + 1) * dim]) {
            for (a, &lane) in acc.iter_mut().zip(lanes) {
                let d = if POINT_LANES { lane - si } else { si - lane };
                *a += d * d;
            }
        }
        out.copy_from_slice(&acc);
    }
}

/// [`sweep`], compiled for AVX when the CPU has it (checked once and cached
/// by `std`) and for the baseline target otherwise.
fn dispatch<const POINT_LANES: bool>(s: &[f32], blocks: &[Block], out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") {
        #[target_feature(enable = "avx")]
        fn avx<const POINT_LANES: bool>(s: &[f32], blocks: &[Block], out: &mut [f32]) {
            sweep::<POINT_LANES>(s, blocks, out)
        }
        // SAFETY: the CPU supports AVX, checked just above.
        return unsafe { avx::<POINT_LANES>(s, blocks, out) };
    }
    sweep::<POINT_LANES>(s, blocks, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sq_dist;

    type Sweep = fn(&[f32], &[Block], &mut [f32]);

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn centroid_lanes_match_sq_dist_bitwise() {
        let centroids = vec![
            vec![0.1f32, -2.7, 3.9],
            vec![10.0, 0.5, -0.25],
            vec![-0.0, 0.0, 1e-30],
        ];
        let mut lanes = CentroidLanes::new(&centroids);
        for x in [[0.3f32, -0.7, 0.9], [-0.0, 0.0, 0.0], [1e20, -1e-20, 7.5]] {
            let scalar: Vec<f32> = centroids.iter().map(|c| sq_dist(&x, c)).collect();
            assert_eq!(bits(lanes.sq_dists(&x)), bits(&scalar));
        }
    }

    #[test]
    fn point_lanes_match_sq_dist_bitwise() {
        let points = [0.1f32, -2.7, 3.9, 10.0, 0.5, -0.25, -0.0, 0.0, 1e-30];
        let mut lanes = PointLanes::new(&points, 3);
        let centre = [0.3f32, -0.7, 0.9];
        let scalar: Vec<f32> = points.chunks(3).map(|p| sq_dist(p, &centre)).collect();
        assert_eq!(bits(lanes.sq_dists(&centre)), bits(&scalar));
    }

    /// The dispatched sweeps (the AVX build on CPUs that have it) equal the
    /// baseline build bit for bit, over several blocks and on values that
    /// round on every operation.
    #[test]
    fn dispatched_sweeps_match_the_baseline_build() {
        let dim = 13;
        for n_blocks in [1usize, 3, 12] {
            let blocks: Vec<Block> = (0..n_blocks * dim)
                .map(|r| {
                    std::array::from_fn(|j| ((r * BLOCK + j) * 7919 % 1013) as f32 * 0.0137 - 6.1)
                })
                .collect();
            let s: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.71).sin() * 3.3).collect();
            let pairs: [(Sweep, Sweep); 2] = [
                (sweep::<false>, dispatch::<false>),
                (sweep::<true>, dispatch::<true>),
            ];
            for (baseline_sweep, dispatched_sweep) in pairs {
                let mut baseline = vec![0.0f32; n_blocks * BLOCK];
                baseline_sweep(&s, &blocks, &mut baseline);
                let mut dispatched = vec![1.0f32; n_blocks * BLOCK];
                dispatched_sweep(&s, &blocks, &mut dispatched);
                assert_eq!(bits(&dispatched), bits(&baseline), "{n_blocks} blocks");
            }
        }
    }

    /// Every item lands in its own lane across block boundaries, and the
    /// lanes past the last item hold zero.
    #[test]
    fn transpose_fills_lanes_and_padding() {
        let items: Vec<Vec<f32>> = (0..BLOCK + 3)
            .map(|p| vec![p as f32 + 1.0, -(p as f32)])
            .collect();
        let blocks = transpose(items.iter().map(|v| v.as_slice()), items.len(), 2);
        assert_eq!(blocks.len(), 4);
        assert_eq!(blocks[0][5], 6.0);
        assert_eq!(blocks[1][5], -5.0);
        assert_eq!(blocks[2][2], (BLOCK + 3) as f32);
        assert_eq!(blocks[3][2], -((BLOCK + 2) as f32));
        assert_eq!(blocks[2][3], 0.0);
        assert_eq!(blocks[3][BLOCK - 1], 0.0);
    }

    /// Ties go to the first centroid, NaN distances never win, and an empty
    /// centroid set answers `0` — the scalar scan's choices.
    #[test]
    fn nearest_keeps_the_scalar_tie_breaks() {
        let mut tied = CentroidLanes::new(&[vec![1.0f32], vec![-1.0], vec![1.0]]);
        assert_eq!(tied.nearest(&[0.0]), 0);
        assert_eq!(tied.nearest(&[1.0]), 0);
        let mut with_nan = CentroidLanes::new(&[vec![f32::NAN], vec![5.0]]);
        assert_eq!(with_nan.nearest(&[0.0]), 1);
        assert_eq!(with_nan.nearest(&[f32::NAN]), 0);
        let mut none = CentroidLanes::new(&[]);
        assert!(none.sq_dists(&[1.0, 2.0]).is_empty());
        assert_eq!(none.nearest(&[1.0, 2.0]), 0);
    }

    #[test]
    fn zero_width_points_are_at_distance_zero() {
        let mut centroids = CentroidLanes::new(&[Vec::new(), Vec::new()]);
        assert_eq!(centroids.sq_dists(&[]), &[0.0, 0.0]);
        assert_eq!(centroids.nearest(&[]), 0);
        let mut points = PointLanes::new(&[], 4);
        assert_eq!(points.sq_dists(&[]), &[0.0; 4]);
    }
}
