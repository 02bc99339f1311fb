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
//!   `dist[c] += (x[i] - centroid_c[i])²`. [`crate::assign_to_nearest`]
//!   uses it, and so does every k-means assignment pass, over all
//!   centroids or over only the ones that moved since the last pass.
//! * `PointLanes` is the same layout over a set of points, made *in place*:
//!   each full block of 32 row-major points occupies exactly the `32 × dim`
//!   values of one lane block, so it is transposed inside its own storage
//!   through a `32 × dim` buffer, and the last `n % 32` points go into that
//!   buffer as one zero-padded block. The distances from every point to one
//!   centre then sweep the centre's coordinates once per block, with the
//!   points as lanes. k-means++ seeding, which adds one centre at a time,
//!   uses it over the distinct vectors, and dropping the view transposes
//!   them back, bit for bit.
//!
//! Every lane's sum is therefore bit-identical to `sq_dist`.
//! `nearest_two`, behind [`CentroidLanes::nearest`], returns the first
//! lane equal to the minimum distance, which is the lane the scalar scan
//! ([`crate::assign_to_nearest_reference`]) settles on — ties and NaN
//! included — and the smallest distance among the other lanes.
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

/// One block row: coordinate `i` of 32 centroids (or points). The sweeps
/// read a block as `dim` of these, stored flat as `dim × BLOCK` values.
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
        let dim = centroids.first().map_or(0, |c| c.len());
        Self::from_rows(centroids.iter().map(|c| c.as_slice()), centroids.len(), dim)
    }

    /// Transposes the centroids listed in `which` into lanes, lane `i`
    /// holding `centroids[which[i]]`: an incremental k-means pass sweeps
    /// only the centroids that moved.
    pub(crate) fn subset(centroids: &[Vec<f32>], which: &[usize]) -> Self {
        let dim = centroids.first().map_or(0, |c| c.len());
        let rows = which.iter().map(|&c| centroids[c].as_slice());
        Self::from_rows(rows, which.len(), dim)
    }

    fn from_rows<'a>(rows: impl Iterator<Item = &'a [f32]>, k: usize, dim: usize) -> Self {
        Self {
            k,
            blocks: transpose(rows, k, dim),
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
        dispatch::<false>(x, self.blocks.as_flattened(), &mut self.dists);
        &self.dists[..self.k]
    }

    /// Index of the centroid nearest to `x`: the first minimal distance, `0`
    /// when there are no centroids or no distance is below infinity (NaN
    /// included) — exactly the scalar scan's choice (see `nearest_two`).
    pub fn nearest(&mut self, x: &[f32]) -> usize {
        nearest_two(self.sq_dists(x)).0
    }
}

/// The nearest lane of one sweep and the smallest distance among the other
/// lanes: `(index, runner_up)`.
///
/// `index` is the first lane equal to the minimum distance, or `0` when no
/// distance is below infinity (NaN included), which is where the scalar scan
/// ([`crate::assign_to_nearest_reference`]) settles: its running
/// `if d < best` never moves past the first minimum and never takes a NaN.
/// `runner_up` is the minimum over every lane but `index`, NaN skipped,
/// `INFINITY` when there is none; a tie at the minimum makes it equal to
/// the minimum.
///
/// The scalar scan is one dependent chain. Here eight running pairs of the
/// two smallest values take every eighth lane (minima are exact, so the
/// grouping changes no value), and the two smallest of the whole sweep are
/// the two smallest of those pairs.
pub(crate) fn nearest_two(dists: &[f32]) -> (usize, f32) {
    /// Folds `d` into the two smallest values so far; NaN never enters.
    #[inline(always)]
    fn fold(lo: &mut f32, hi: &mut f32, d: f32) {
        let (small, large) = if d < *lo { (d, *lo) } else { (*lo, d) };
        *lo = small;
        if large < *hi {
            *hi = large;
        }
    }
    let mut lo = [f32::INFINITY; 8];
    let mut hi = [f32::INFINITY; 8];
    let chunks = dists.chunks_exact(8);
    let tail = chunks.remainder();
    for chunk in chunks {
        for ((l, h), &d) in lo.iter_mut().zip(hi.iter_mut()).zip(chunk) {
            fold(l, h, d);
        }
    }
    let (mut min, mut runner_up) = (f32::INFINITY, f32::INFINITY);
    for &d in lo.iter().chain(&hi).chain(tail) {
        fold(&mut min, &mut runner_up, d);
    }
    let index = if min < f32::INFINITY {
        dists.iter().position(|&d| d == min).unwrap_or(0)
    } else {
        0
    };
    (index, runner_up)
}

/// Writes the rows of `src` (`cols` values each) as the columns of `dst`,
/// whose rows are `dst_cols` wide: `dst[c·dst_cols + r] = src[r·cols + c]`.
/// Values are copied, never computed, so every bit pattern survives.
fn transpose_into(src: &[f32], cols: usize, dst: &mut [f32], dst_cols: usize) {
    for (r, row) in src.chunks_exact(cols).enumerate() {
        for (c, &x) in row.iter().enumerate() {
            dst[c * dst_cols + r] = x;
        }
    }
}

/// `n` row-major points of `dim` values, transposed in place into blocks of
/// [`BLOCK`] lanes for distance-to-one-centre queries; dropping the view
/// transposes them back.
///
/// The points' storage is borrowed, not copied. Each full block of
/// [`BLOCK`] rows holds exactly the `BLOCK × dim` values of one lane block,
/// so it is transposed inside its own footprint through `tail`, a
/// `BLOCK × dim` buffer. The last `n % BLOCK` rows stay row-major in the
/// storage, and `tail` then holds them as one zero-padded lane block.
pub(crate) struct PointLanes<'a> {
    /// The points' storage: its full blocks transposed, `dim` rows of
    /// [`BLOCK`] lanes each, followed by the row-major tail rows.
    points: &'a mut [f32],
    /// Number of points.
    n: usize,
    /// Point dimensionality.
    dim: usize,
    /// The tail rows as one zero-padded lane block; the buffer the full
    /// blocks are transposed through.
    tail: Vec<f32>,
    /// Every lane's distance to one centre, reused across queries.
    dists: Vec<f32>,
}

impl<'a> PointLanes<'a> {
    /// Transposes the `n` points stored row-major in `points` (`n × dim`
    /// values) into lanes, in place.
    pub(crate) fn new(points: &'a mut [f32], n: usize, dim: usize) -> Self {
        debug_assert_eq!(points.len(), n * dim, "ragged points");
        let mut tail = vec![0.0; BLOCK * dim];
        if dim > 0 {
            let full = n / BLOCK * BLOCK * dim;
            for block in points[..full].chunks_exact_mut(BLOCK * dim) {
                tail.copy_from_slice(block);
                transpose_into(&tail, dim, block, BLOCK);
            }
            tail.fill(0.0);
            transpose_into(&points[full..], dim, &mut tail, BLOCK);
        }
        Self {
            points,
            n,
            dim,
            tail,
            dists: vec![0.0; n.div_ceil(BLOCK) * BLOCK],
        }
    }

    /// Length of the storage's transposed prefix: the full blocks' values.
    fn full_blocks_len(&self) -> usize {
        self.n / BLOCK * BLOCK * self.dim
    }

    /// Point `p`'s coordinates, gathered from its lane.
    pub(crate) fn point(&self, p: usize) -> Vec<f32> {
        let dim = self.dim;
        let base = p / BLOCK * BLOCK * dim;
        if base < self.full_blocks_len() {
            let block = &self.points[base..base + BLOCK * dim];
            (0..dim).map(|i| block[i * BLOCK + p % BLOCK]).collect()
        } else {
            self.points[p * dim..(p + 1) * dim].to_vec()
        }
    }

    /// The squared distance from every point to `centre`, in point order;
    /// slot `p` is bit-identical to `sq_dist(point_p, centre)`. With
    /// zero-width points every distance is `0.0`.
    pub(crate) fn sq_dists(&mut self, centre: &[f32]) -> &[f32] {
        debug_assert_eq!(centre.len(), self.dim, "dims differ");
        let full = self.full_blocks_len();
        let (full_dists, tail_dists) = self.dists.split_at_mut(self.n / BLOCK * BLOCK);
        dispatch::<true>(centre, &self.points[..full], full_dists);
        dispatch::<true>(centre, &self.tail, tail_dists);
        &self.dists[..self.n]
    }
}

impl Drop for PointLanes<'_> {
    /// Transposes the full blocks back, through `tail`; the tail rows never
    /// left their place.
    fn drop(&mut self) {
        let dim = self.dim;
        if dim == 0 {
            return;
        }
        let full = self.full_blocks_len();
        for block in self.points[..full].chunks_exact_mut(BLOCK * dim) {
            self.tail.copy_from_slice(block);
            transpose_into(&self.tail, BLOCK, block, dim);
        }
    }
}

/// `out[b·BLOCK + j] = Σᵢ dᵢ²`, summed in `i` order from `0.0`, where `dᵢ`
/// is `s[i] - lanes[b·dim + i][j]` for centroid lanes (`s` is the point)
/// and `lanes[b·dim + i][j] - s[i]` for point lanes (`s` is the centre):
/// `sq_dist(point, centre)`'s operand order either way. `blocks` is flat,
/// one [`Block`] row of [`BLOCK`] values after another.
#[inline(always)]
fn sweep<const POINT_LANES: bool>(s: &[f32], blocks: &[f32], out: &mut [f32]) {
    let dim = s.len();
    let (lanes, rest) = blocks.as_chunks::<BLOCK>();
    debug_assert!(rest.is_empty(), "a partial block row");
    for (b, out) in out.chunks_exact_mut(BLOCK).enumerate() {
        let mut acc = [0.0f32; BLOCK];
        for (&si, lanes) in s.iter().zip(&lanes[b * dim..(b + 1) * dim]) {
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
fn dispatch<const POINT_LANES: bool>(s: &[f32], blocks: &[f32], out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx") {
        #[target_feature(enable = "avx")]
        fn avx<const POINT_LANES: bool>(s: &[f32], blocks: &[f32], out: &mut [f32]) {
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

    type Sweep = fn(&[f32], &[f32], &mut [f32]);

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
        let centre = [0.3f32, -0.7, 0.9];
        let scalar: Vec<f32> = points.chunks(3).map(|p| sq_dist(p, &centre)).collect();
        let mut storage = points;
        let mut lanes = PointLanes::new(&mut storage, 3, 3);
        assert_eq!(bits(lanes.sq_dists(&centre)), bits(&scalar));
    }

    /// The same distance, or NaN on both sides: a NaN result's payload is
    /// not specified by Rust's float semantics, only a copied value's is.
    fn same_distance(lanes: f32, scalar: f32) -> bool {
        lanes.to_bits() == scalar.to_bits() || (lanes.is_nan() && scalar.is_nan())
    }

    /// Transposing points in place and back restores every bit — `-0.0`,
    /// two NaN payloads and both infinities included — across full blocks,
    /// a partial tail and no tail at all; in between, every point reads back
    /// from its lane and the sweep equals `sq_dist` lane by lane.
    #[test]
    fn point_lanes_transpose_in_place_and_back() {
        let specials = [
            -0.0f32,
            f32::from_bits(0x7fc0_0001),
            f32::from_bits(0xffa0_0002),
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        for n in [0usize, 1, 31, 32, 33, 64, 65] {
            for dim in [0usize, 1, 13, 108] {
                let rows: Vec<Vec<f32>> = (0..n)
                    .map(|p| {
                        (0..dim)
                            .map(|i| match (p * dim + i) % 23 {
                                s @ 0..5 if p % 3 == 0 => specials[s],
                                r => (p * 31 + i * 7 + r) as f32 * 0.173 - 9.5,
                            })
                            .collect()
                    })
                    .collect();
                let original: Vec<f32> = rows.concat();
                let mut storage = original.clone();
                let mut lanes = PointLanes::new(&mut storage, n, dim);
                for (p, row) in rows.iter().enumerate() {
                    assert_eq!(bits(&lanes.point(p)), bits(row), "n={n} dim={dim} p={p}");
                }
                let centres = [
                    rows.first().cloned().unwrap_or_else(|| vec![0.5; dim]),
                    (0..dim).map(|i| (i as f32 * 0.61).cos() * 4.0).collect(),
                ];
                for centre in &centres {
                    let swept = lanes.sq_dists(centre);
                    assert_eq!(swept.len(), n);
                    for (p, (&got, row)) in swept.iter().zip(&rows).enumerate() {
                        let want = sq_dist(row, centre);
                        assert!(
                            same_distance(got, want),
                            "n={n} dim={dim} p={p}: lanes {got} vs sq_dist {want}"
                        );
                    }
                }
                drop(lanes);
                assert_eq!(bits(&storage), bits(&original), "n={n} dim={dim}");
            }
        }
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
                baseline_sweep(&s, blocks.as_flattened(), &mut baseline);
                let mut dispatched = vec![1.0f32; n_blocks * BLOCK];
                dispatched_sweep(&s, blocks.as_flattened(), &mut dispatched);
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
    /// centroid set answers `0` — the scalar scan's choices. The runner-up
    /// is the smallest other distance, wherever the two smallest fall among
    /// the eight running pairs or the tail.
    #[test]
    fn nearest_keeps_the_scalar_tie_breaks() {
        assert_eq!(nearest_two(&[1.0, 1.0, 1.0]), (0, 1.0));
        assert_eq!(nearest_two(&[f32::NAN, 25.0]), (1, f32::INFINITY));
        assert_eq!(nearest_two(&[f32::INFINITY, f32::NAN]), (0, f32::INFINITY));
        assert_eq!(nearest_two(&[]), (0, f32::INFINITY));
        let mut dists = vec![9.0f32; 19];
        dists[3] = 0.5;
        dists[11] = 0.25;
        dists[12] = f32::NAN;
        assert_eq!(nearest_two(&dists), (11, 0.5));
        dists[11] = 9.0;
        dists[17] = 0.75;
        assert_eq!(nearest_two(&dists), (3, 0.75));
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
        let mut points = PointLanes::new(&mut [], 4, 0);
        assert_eq!(points.sq_dists(&[]), &[0.0; 4]);
    }
}
