//! Row-major dense matrix.
//!
//! [`Matrix`] is the workhorse container of the workspace: telemetry
//! matrices (samples × features), design matrices for the regressors, and
//! fingerprint matrices for similarity computation are all `Matrix` values.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major `rows × cols` matrix of `f64`.
///
/// Invariant: `data.len() == rows * cols` at all times.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Builds a matrix from a flat row-major buffer, re-validating the
    /// length invariant instead of panicking. Decoders that accept
    /// untrusted dimensions (e.g. the telemetry JSON reader) come in
    /// through here.
    pub fn try_from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, String> {
        // Checked: dimensions whose product wraps must not pass for the
        // length of a short buffer.
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(format!(
                "matrix buffer length {} does not match {rows}x{cols}",
                data.len()
            ));
        }
        Ok(Self { rows, cols, data })
    }
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix from a slice of equally-long rows.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(
                r.len(),
                cols,
                "row {i} has length {} expected {cols}",
                r.len()
            );
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a single-column matrix from a vector.
    pub fn column_vector(v: &[f64]) -> Self {
        Self::from_vec(v.len(), 1, v.to_vec())
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True when the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrows row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a fresh vector.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "column {c} out of bounds ({})", self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Iterates over the rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul inner dimension mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        // i-k-j loop order keeps the inner loop contiguous in both
        // `other` and `out`, which matters for the larger kernel matrices
        // built by the SVR trainer.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(orow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, v.len(), "matvec dimension mismatch");
        self.iter_rows()
            .map(|row| row.iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// `selfᵀ * self` — the Gram matrix used by the normal-equation solvers.
    pub fn gram(&self) -> Matrix {
        let mut g = Matrix::zeros(self.cols, self.cols);
        for row in self.iter_rows() {
            for i in 0..self.cols {
                let ri = row[i];
                if ri == 0.0 {
                    continue;
                }
                for j in i..self.cols {
                    g[(i, j)] += ri * row[j];
                }
            }
        }
        // mirror the upper triangle
        for i in 0..self.cols {
            for j in 0..i {
                g[(i, j)] = g[(j, i)];
            }
        }
        g
    }

    /// `selfᵀ * v` for a vector with one entry per row.
    pub fn t_matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(self.rows, v.len(), "t_matvec dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for (row, &vi) in self.iter_rows().zip(v) {
            if vi == 0.0 {
                continue;
            }
            for (o, &x) in out.iter_mut().zip(row) {
                *o += vi * x;
            }
        }
        out
    }

    /// Element-wise sum `self + other`.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape());
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Element-wise difference `self - other`.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape());
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        let data = self.data.iter().map(|a| a * s).collect();
        Matrix::from_vec(self.rows, self.cols, data)
    }

    /// Extracts the sub-matrix containing only the listed columns, in order.
    pub fn select_cols(&self, cols: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(self.rows, cols.len());
        for r in 0..self.rows {
            for (j, &c) in cols.iter().enumerate() {
                out[(r, j)] = self[(r, c)];
            }
        }
        out
    }

    /// Extracts the sub-matrix containing only the listed rows, in order.
    pub fn select_rows(&self, rows: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(rows.len(), self.cols);
        for (i, &r) in rows.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(r));
        }
        out
    }

    /// Appends a constant column of ones on the left (intercept column).
    pub fn with_intercept(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols + 1);
        for r in 0..self.rows {
            out[(r, 0)] = 1.0;
            out.row_mut(r)[1..].copy_from_slice(self.row(r));
        }
        out
    }

    /// Stacks `other` below `self`.
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vstack column mismatch");
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Matrix::from_vec(self.rows + other.rows, self.cols, data)
    }

    /// Stacks `other` to the right of `self`.
    pub fn hstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "hstack row mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// Frobenius norm `sqrt(Σ aᵢⱼ²)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|a| a * a).sum::<f64>().sqrt()
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|a| !a.is_finite())
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(10) {
                write!(f, "{:10.4}", self[(r, c)])?;
                if c + 1 < self.cols.min(10) {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 10 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]])
    }

    #[test]
    fn shape_and_indexing() {
        let m = sample();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 2)], 6.0);
    }

    #[test]
    fn row_and_col_access() {
        let m = sample();
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(2), vec![3.0, 6.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = sample(); // 2x3
        let b = a.transpose(); // 3x2
        let p = a.matmul(&b); // 2x2
        assert_eq!(p[(0, 0)], 14.0); // 1+4+9
        assert_eq!(p[(0, 1)], 32.0);
        assert_eq!(p[(1, 0)], 32.0);
        assert_eq!(p[(1, 1)], 77.0);
    }

    #[test]
    fn matvec_and_t_matvec() {
        let m = sample();
        assert_eq!(m.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
        assert_eq!(m.t_matvec(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn gram_equals_t_times_self() {
        let m = sample();
        let g = m.gram();
        let expected = m.transpose().matmul(&m);
        for i in 0..3 {
            for j in 0..3 {
                assert!((g[(i, j)] - expected[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let m = sample();
        let i3 = Matrix::identity(3);
        assert_eq!(m.matmul(&i3), m);
    }

    #[test]
    fn select_cols_and_rows() {
        let m = sample();
        let c = m.select_cols(&[2, 0]);
        assert_eq!(c.row(0), &[3.0, 1.0]);
        let r = m.select_rows(&[1]);
        assert_eq!(r.shape(), (1, 3));
        assert_eq!(r.row(0), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn with_intercept_prepends_ones() {
        let m = sample().with_intercept();
        assert_eq!(m.shape(), (2, 4));
        assert_eq!(m.col(0), vec![1.0, 1.0]);
        assert_eq!(m[(1, 1)], 4.0);
    }

    #[test]
    fn stacking() {
        let m = sample();
        let v = m.vstack(&m);
        assert_eq!(v.shape(), (4, 3));
        assert_eq!(v.row(3), &[4.0, 5.0, 6.0]);
        let h = m.hstack(&m);
        assert_eq!(h.shape(), (2, 6));
        assert_eq!(h.row(0), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn arithmetic() {
        let m = sample();
        assert_eq!(m.add(&m), m.scale(2.0));
        let z = m.sub(&m);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn frobenius_norm_known_value() {
        let m = Matrix::from_rows(&[vec![3.0, 4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn non_finite_detection() {
        let mut m = sample();
        assert!(!m.has_non_finite());
        m[(0, 0)] = f64::NAN;
        assert!(m.has_non_finite());
    }

    #[test]
    #[should_panic(expected = "matmul inner dimension mismatch")]
    fn matmul_mismatch_panics() {
        let m = sample();
        let _ = m.matmul(&m);
    }

    #[test]
    #[should_panic]
    fn from_rows_ragged_panics() {
        let _ = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }
}
