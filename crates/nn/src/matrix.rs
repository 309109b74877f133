//! Row-major dense matrix with the operations backpropagation needs.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Mul, Sub};

/// Dense row-major `f64` matrix.
///
/// Shapes are validated eagerly; all shape violations panic, since they are
/// programming errors rather than runtime conditions.
///
/// # Examples
///
/// ```
/// use nn::Matrix;
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(6) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:9.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 6 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl Matrix {
    /// All-zeros matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Square identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must match shape");
        Self { rows, cols, data }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows needs at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "inconsistent row length");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// A 1×n row vector.
    pub fn row_vector(values: &[f64]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// Deterministic pseudo-random matrix in `[-0.5, 0.5)` from a 64-bit
    /// LCG — shared by the kernel unit tests and the micro-benchmarks so
    /// both exercise the same distribution. Not part of the stable API.
    #[doc(hidden)]
    pub fn lcg(rows: usize, cols: usize, mut seed: u64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            data.push(((seed >> 33) as f64 / (1u64 << 31) as f64) - 0.5);
        }
        Self::from_vec(rows, cols, data)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True for a 0-element matrix.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Row-major backing slice.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable row-major backing slice.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow of row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self · b`: cache-blocked, register-tiled saxpy
    /// over `b` in natural (row-major, `k×n`) layout. Every forward
    /// product and every backward `dX = dY·Wᵀ` (as `matmul(&w.transpose())`)
    /// runs through it.
    ///
    /// Determinism contract: every output element `out[i][j]` is the sum
    /// of `a[i][k]·b[k][j]` over `k` in ascending order through a single
    /// accumulator chain, so results never depend on tile sizes, the
    /// remainder path, or (for the pipeline) thread count —
    /// `tests/determinism.rs` stays bit-exact. Within those constraints
    /// the kernel optimises freely:
    ///
    /// * a 4-row × 8-column register block holds the accumulators of 32
    ///   output elements across the whole `k` sweep, so each `k` step is
    ///   one contiguous 8-wide load from `b`'s row shared by 4 rows —
    ///   independent element chains that auto-vectorise without
    ///   reassociating any sum (narrower outputs take 4- or 1-wide
    ///   tiles, single rows up to 16-wide ones, and a last partial tile
    ///   overlaps the one before it);
    /// * terms whose `a` value is an exact zero (±0.0) are skipped. For
    ///   finite `b` a skipped term is a `±0.0` addend, which never changes
    ///   the chain (it starts at +0.0 and never becomes −0.0). For ±∞ or
    ///   NaN `b` the skip is semantic: it drops the NaN of `0·∞` or
    ///   `0·NaN`. The kernel therefore runs without the skip and repeats
    ///   the product with it only when an output came out NaN;
    /// * `k` is processed in L1-sized blocks per column stripe so `b`
    ///   tiles are reused from cache at production shapes, while the
    ///   GAT-sized operands (k ≤ 160) take the single-block fast path.
    ///
    /// The loops themselves live in [`crate::kernel::matmul_into`], one
    /// blocked body compiled for the baseline ISA and for AVX2 — both
    /// bit-identical under this contract.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != b.rows()`.
    pub fn matmul(&self, b: &Matrix) -> Matrix {
        // A zeroed allocation, not a grown empty one: the daemon's
        // per-interval scoring, all small fresh matrices, measured a
        // lower median interval this way (README, allocation-free ascent).
        let mut out = Matrix::zeros(self.rows, b.cols);
        self.matmul_into(b, &mut out);
        out
    }

    /// [`Matrix::matmul`] into `out`, which is reshaped to the product's
    /// shape and fully overwritten: a reused `out` of that shape is
    /// neither reallocated nor cleared first.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != b.rows()`.
    pub fn matmul_into(&self, b: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, b.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, b.rows, b.cols
        );
        let (m, k, n) = (self.rows, self.cols, b.cols);
        out.resize(m, n);
        // Outer product (the `dW = xᵀ·dY` shape of every Dense backward):
        // each output row is one scaled copy of b's only row.
        if k == 1 {
            for (i, &a) in self.data.iter().enumerate() {
                let o_row = &mut out.data[i * n..(i + 1) * n];
                if a == 0.0 {
                    o_row.fill(0.0);
                    continue;
                }
                for (o, &bv) in o_row.iter_mut().zip(&b.data) {
                    // `0.0 +` matches the accumulator chain's start value:
                    // a -0.0 product must still yield +0.0, as in the
                    // other paths (and LLVM cannot fold it away without
                    // fast-math).
                    *o = 0.0 + a * bv;
                }
            }
            return;
        }
        crate::kernel::matmul_into(&mut out.data, &self.data, &b.data, m, k, n);
    }

    /// Reshapes to `rows × cols` in place for a caller that then writes
    /// every element: the buffer is kept, and it allocates only to grow
    /// (the new elements are zero). Elements that were there before keep
    /// stale values until overwritten.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Transpose. Tiled 8×8 so both the reads and the strided writes stay
    /// within a handful of cache lines per tile — a naive row sweep costs
    /// one cache line per element on the write side once `rows() > 8`.
    pub fn transpose(&self) -> Matrix {
        let (r_all, c_all) = (self.rows, self.cols);
        let mut out = Matrix::zeros(c_all, r_all);
        const T: usize = 8;
        for r0 in (0..r_all).step_by(T) {
            let r1 = (r0 + T).min(r_all);
            for c0 in (0..c_all).step_by(T) {
                let c1 = (c0 + T).min(c_all);
                for r in r0..r1 {
                    for c in c0..c1 {
                        out.data[c * r_all + r] = self.data[r * c_all + c];
                    }
                }
            }
        }
        out
    }

    /// Copies rows `[offset, offset + n)` into a fresh `n × cols` matrix —
    /// the per-sample segment view the batched training backward uses to
    /// accumulate parameter gradients in sample order (row-major layout
    /// makes this one contiguous memcpy).
    ///
    /// # Panics
    ///
    /// Panics if `offset + n > rows()`.
    pub fn row_block(&self, offset: usize, n: usize) -> Matrix {
        assert!(
            offset + n <= self.rows,
            "row_block [{offset}, {}) out of range for {} rows",
            offset + n,
            self.rows
        );
        Matrix {
            rows: n,
            cols: self.cols,
            data: self.data[offset * self.cols..(offset + n) * self.cols].to_vec(),
        }
    }

    /// Elementwise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "hadamard shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a * b)
                .collect(),
        }
    }

    /// Adds `row` (1×cols) to every row of `self`, in place — the bias
    /// broadcast.
    ///
    /// # Panics
    ///
    /// Panics unless `row` is `1 × self.cols()`.
    pub fn add_row_broadcast(mut self, row: &Matrix) -> Matrix {
        assert_eq!(row.rows, 1, "broadcast source must be a row vector");
        assert_eq!(row.cols, self.cols, "broadcast width mismatch");
        for r in 0..self.rows {
            crate::kernel::add_assign(self.row_mut(r), &row.data);
        }
        self
    }

    /// Sums each column into a 1×cols row vector — the bias-gradient
    /// reduction.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            // Per-column chains accumulate rows in ascending order; the
            // columns are independent lanes.
            crate::kernel::add_assign(&mut out.data, self.row(r));
        }
        out
    }

    /// Elementwise in-place addition: `self += other`. The allocation-free
    /// sibling of `&self + &other`, used on the gradient-accumulation hot
    /// path (bit-identical to the allocating form: same elementwise order).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_in_place(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        crate::kernel::add_assign(&mut self.data, &other.data);
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|v| v * s)
    }

    /// Concatenates two matrices with equal row counts side by side.
    ///
    /// # Panics
    ///
    /// Panics if the row counts differ.
    pub fn hcat(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hcat row mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all elements; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Flattens to a row-major vector, consuming the matrix.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f64) -> Matrix {
        self.scale(rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]));
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        a.matmul(&b);
    }

    /// Textbook i-j-k triple loop; the oracle for the blocked kernel.
    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a[(i, k)] * b[(k, j)];
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    #[test]
    fn blocked_kernel_is_bit_identical_to_naive_across_block_boundaries() {
        // Shapes straddling the 64-wide tile and the 4-wide unroll: full
        // tiles, remainder rows/cols, and the scalar tail all get hit.
        // (9, 600, 9) drives k past the KB=512 cache block, exercising the
        // partial-sum reload between k-blocks.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 2),
            (16, 64, 64),
            (64, 64, 16),
            (70, 33, 67),
            (9, 600, 9),
        ] {
            let a = Matrix::lcg(m, k, 0xA5A5 ^ (m as u64) << 16 ^ k as u64);
            let b = Matrix::lcg(k, n, 0x5A5A ^ (n as u64) << 16 ^ k as u64);
            let blocked = a.matmul(&b);
            let naive = naive_matmul(&a, &b);
            assert_eq!(blocked.shape(), (m, n));
            for (x, y) in blocked.data().iter().zip(naive.data()) {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "blocked kernel diverged from ascending-k reference at {m}x{k}·{k}x{n}"
                );
            }
        }
    }

    #[test]
    fn negative_zero_products_follow_the_accumulator_chain() {
        // A -2.0 · 0.0 product is -0.0; every kernel path starts its
        // accumulator at +0.0, so the stored element must be +0.0 (bit
        // pattern 0), including the k==1 outer-product fast path.
        let a = Matrix::from_rows(&[&[-2.0], &[3.0]]);
        let b = Matrix::from_rows(&[&[0.0, 1.0]]);
        let out = a.matmul(&b); // k == 1 fast path
        assert_eq!(out[(0, 0)].to_bits(), 0.0f64.to_bits());
        let naive = naive_matmul(&a, &b);
        for (x, y) in out.data().iter().zip(naive.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    /// `matmul` must produce the same bits no matter which kernel
    /// backend is dispatched — the in-process flip via
    /// `set_backend` is safe precisely because of this equivalence.
    #[test]
    fn matmul_entry_points_bit_identical_across_backends() {
        use crate::kernel::{self, Backend};
        let shapes = [(1usize, 160usize, 128usize), (16, 64, 64), (70, 33, 67)];
        let compute = |(m, k, n): (usize, usize, usize)| -> Vec<u64> {
            let a = Matrix::lcg(m, k, 7 + m as u64);
            let b = Matrix::lcg(k, n, 9 + n as u64);
            a.matmul(&b).data().iter().map(|v| v.to_bits()).collect()
        };
        let prev = kernel::set_backend(Backend::Scalar);
        let scalar: Vec<Vec<u64>> = shapes.iter().map(|&s| compute(s)).collect();
        kernel::set_backend(prev);
        let active: Vec<Vec<u64>> = shapes.iter().map(|&s| compute(s)).collect();
        assert_eq!(
            scalar,
            active,
            "matmul bits diverged between scalar and {}",
            kernel::active().name()
        );
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn broadcast_and_reduce_are_adjoint_shapes() {
        let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::row_vector(&[10.0, 20.0]);
        let y = x.add_row_broadcast(&b);
        assert_eq!(y, Matrix::from_rows(&[&[11.0, 22.0], &[13.0, 24.0]]));
        assert_eq!(y.sum_rows(), Matrix::row_vector(&[24.0, 46.0]));
    }

    #[test]
    fn hcat_joins_rows_side_by_side() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0], &[6.0]]);
        let joined = a.hcat(&b);
        assert_eq!(
            joined,
            Matrix::from_rows(&[&[1.0, 2.0, 5.0], &[3.0, 4.0, 6.0]])
        );
    }

    #[test]
    fn identity_is_matmul_neutral() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.matmul(&Matrix::identity(2)), a);
        assert_eq!(Matrix::identity(2).matmul(&a), a);
    }

    #[test]
    fn norm_and_sums() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.sum(), 7.0);
        assert_eq!(a.mean(), 3.5);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 5.0]]);
        assert_eq!(&a + &b, Matrix::from_rows(&[&[4.0, 7.0]]));
        assert_eq!(&b - &a, Matrix::from_rows(&[&[2.0, 3.0]]));
        assert_eq!(&a * 2.0, Matrix::from_rows(&[&[2.0, 4.0]]));
        assert_eq!(a.hadamard(&b), Matrix::from_rows(&[&[3.0, 10.0]]));
    }

    #[test]
    #[should_panic(expected = "data length must match shape")]
    fn from_vec_validates() {
        Matrix::from_vec(2, 2, vec![1.0]);
    }
}
