// Small dense linear algebra: column-count-agnostic row-major matrix,
// LU factorization with partial pivoting, solve and explicit inverse.
//
// Used by the EVP preconditioner for the influence-coefficient matrix W
// (size nx + ny - 1 for an nx × ny tile: 23 for a 12 × 12 tile) and by
// tests as a reference solver for the assembled stencil operator on small
// grids.
#pragma once

#include <cstddef>
#include <vector>

namespace minipop::linalg {

/// Row-major dense matrix of doubles.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(int rows, int cols, double fill = 0.0);

  static DenseMatrix identity(int n);

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  double& operator()(int r, int c) { return data_[idx(r, c)]; }
  const double& operator()(int r, int c) const { return data_[idx(r, c)]; }

  DenseMatrix transposed() const;

  /// Matrix-vector product y = A x.
  std::vector<double> apply(const std::vector<double>& x) const;

  /// Matrix-matrix product.
  DenseMatrix multiply(const DenseMatrix& other) const;

  /// Max |a_ij - b_ij|; matrices must be the same shape.
  double max_abs_diff(const DenseMatrix& other) const;

  /// True when |a_ij - a_ji| <= tol * max(1, |a_ij|) for all i,j.
  bool is_symmetric(double tol = 1e-12) const;

 private:
  std::size_t idx(int r, int c) const {
    return static_cast<std::size_t>(r) * cols_ + c;
  }
  int rows_ = 0;
  int cols_ = 0;
  std::vector<double> data_;
};

/// LU factorization with partial pivoting (Doolittle). Throws
/// util::Error on (numerically) singular input.
class LuFactorization {
 public:
  explicit LuFactorization(DenseMatrix a);

  int size() const { return n_; }

  /// Solve A x = b.
  std::vector<double> solve(const std::vector<double>& b) const;

  /// The packed factors: the unit lower factor L below the diagonal and
  /// U on and above it, so that P A = L U.
  const DenseMatrix& factors() const { return lu_; }
  /// Row permutation P: row r of P A is row permutation()[r] of A.
  const std::vector<int>& permutation() const { return perm_; }

  /// Explicit inverse (n solves against unit vectors).
  DenseMatrix inverse() const;

  /// |det(A)| estimate from pivot magnitudes; useful to detect
  /// near-singularity in tests.
  double abs_determinant() const;

 private:
  int n_ = 0;
  DenseMatrix lu_;
  std::vector<int> perm_;
  int sign_ = 1;
};

/// Solve the symmetric positive definite system via Cholesky; reference
/// path used by tests. Throws util::Error if the matrix is not SPD.
std::vector<double> cholesky_solve(const DenseMatrix& a,
                                   const std::vector<double>& b);

/// All eigenvalues of a small symmetric matrix via Jacobi rotations.
/// Reference implementation for validating Lanczos; O(n^3) per sweep.
std::vector<double> symmetric_eigenvalues(const DenseMatrix& a,
                                          double tol = 1e-12,
                                          int max_sweeps = 100);

}  // namespace minipop::linalg
