#include "src/linalg/dense.hpp"

#include <algorithm>
#include <cmath>

#include "src/util/error.hpp"

namespace minipop::linalg {

DenseMatrix::DenseMatrix(int rows, int cols, double fill)
    : rows_(rows),
      cols_(cols),
      data_(static_cast<std::size_t>(rows) * cols, fill) {
  MINIPOP_REQUIRE(rows >= 0 && cols >= 0, "rows=" << rows << " cols=" << cols);
}

DenseMatrix DenseMatrix::identity(int n) {
  DenseMatrix m(n, n);
  for (int i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

DenseMatrix DenseMatrix::transposed() const {
  DenseMatrix t(cols_, rows_);
  for (int r = 0; r < rows_; ++r)
    for (int c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

std::vector<double> DenseMatrix::apply(const std::vector<double>& x) const {
  MINIPOP_REQUIRE(static_cast<int>(x.size()) == cols_,
                  "apply: x.size()=" << x.size() << " cols=" << cols_);
  std::vector<double> y(rows_, 0.0);
  for (int r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (int c = 0; c < cols_; ++c) acc += (*this)(r, c) * x[c];
    y[r] = acc;
  }
  return y;
}

DenseMatrix DenseMatrix::multiply(const DenseMatrix& other) const {
  MINIPOP_REQUIRE(cols_ == other.rows_, "multiply: " << cols_ << " vs "
                                                     << other.rows_);
  DenseMatrix out(rows_, other.cols_);
  for (int r = 0; r < rows_; ++r)
    for (int k = 0; k < cols_; ++k) {
      double a = (*this)(r, k);
      if (a == 0.0) continue;
      for (int c = 0; c < other.cols_; ++c) out(r, c) += a * other(k, c);
    }
  return out;
}

double DenseMatrix::max_abs_diff(const DenseMatrix& other) const {
  MINIPOP_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
                  "shape mismatch");
  double m = 0.0;
  for (int r = 0; r < rows_; ++r)
    for (int c = 0; c < cols_; ++c)
      m = std::max(m, std::abs((*this)(r, c) - other(r, c)));
  return m;
}

bool DenseMatrix::is_symmetric(double tol) const {
  if (rows_ != cols_) return false;
  for (int r = 0; r < rows_; ++r)
    for (int c = r + 1; c < cols_; ++c) {
      double a = (*this)(r, c);
      double b = (*this)(c, r);
      if (std::abs(a - b) > tol * std::max(1.0, std::abs(a))) return false;
    }
  return true;
}

LuFactorization::LuFactorization(DenseMatrix a)
    : n_(a.rows()), lu_(std::move(a)), perm_(n_) {
  MINIPOP_REQUIRE(lu_.rows() == lu_.cols(), "LU needs a square matrix");
  for (int i = 0; i < n_; ++i) perm_[i] = i;

  for (int col = 0; col < n_; ++col) {
    // Partial pivoting.
    int pivot = col;
    double best = std::abs(lu_(col, col));
    for (int r = col + 1; r < n_; ++r) {
      double v = std::abs(lu_(r, col));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    MINIPOP_REQUIRE(best > 0.0, "singular matrix in LU at column " << col);
    if (pivot != col) {
      for (int c = 0; c < n_; ++c) std::swap(lu_(col, c), lu_(pivot, c));
      std::swap(perm_[col], perm_[pivot]);
      sign_ = -sign_;
    }
    double inv_pivot = 1.0 / lu_(col, col);
    for (int r = col + 1; r < n_; ++r) {
      double f = lu_(r, col) * inv_pivot;
      lu_(r, col) = f;
      if (f == 0.0) continue;
      for (int c = col + 1; c < n_; ++c) lu_(r, c) -= f * lu_(col, c);
    }
  }
}

std::vector<double> LuFactorization::solve(const std::vector<double>& b) const {
  MINIPOP_REQUIRE(static_cast<int>(b.size()) == n_,
                  "solve: b.size()=" << b.size() << " n=" << n_);
  // Apply permutation, then forward substitution with unit lower factor.
  std::vector<double> x(n_);
  for (int r = 0; r < n_; ++r) x[r] = b[perm_[r]];
  for (int r = 1; r < n_; ++r) {
    double acc = x[r];
    for (int c = 0; c < r; ++c) acc -= lu_(r, c) * x[c];
    x[r] = acc;
  }
  // Back substitution.
  for (int r = n_ - 1; r >= 0; --r) {
    double acc = x[r];
    for (int c = r + 1; c < n_; ++c) acc -= lu_(r, c) * x[c];
    x[r] = acc / lu_(r, r);
  }
  return x;
}

DenseMatrix LuFactorization::inverse() const {
  DenseMatrix inv(n_, n_);
  std::vector<double> e(n_, 0.0);
  for (int c = 0; c < n_; ++c) {
    e[c] = 1.0;
    auto col = solve(e);
    e[c] = 0.0;
    for (int r = 0; r < n_; ++r) inv(r, c) = col[r];
  }
  return inv;
}

double LuFactorization::abs_determinant() const {
  double d = 1.0;
  for (int i = 0; i < n_; ++i) d *= std::abs(lu_(i, i));
  return d;
}

std::vector<double> cholesky_solve(const DenseMatrix& a,
                                   const std::vector<double>& b) {
  const int n = a.rows();
  MINIPOP_REQUIRE(a.rows() == a.cols(), "cholesky needs a square matrix");
  MINIPOP_REQUIRE(static_cast<int>(b.size()) == n, "rhs size mismatch");
  DenseMatrix l(n, n);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c <= r; ++c) {
      double acc = a(r, c);
      for (int k = 0; k < c; ++k) acc -= l(r, k) * l(c, k);
      if (r == c) {
        MINIPOP_REQUIRE(acc > 0.0, "matrix is not SPD (pivot " << acc
                                                               << " at " << r
                                                               << ")");
        l(r, r) = std::sqrt(acc);
      } else {
        l(r, c) = acc / l(c, c);
      }
    }
  }
  std::vector<double> y(n);
  for (int r = 0; r < n; ++r) {
    double acc = b[r];
    for (int c = 0; c < r; ++c) acc -= l(r, c) * y[c];
    y[r] = acc / l(r, r);
  }
  std::vector<double> x(n);
  for (int r = n - 1; r >= 0; --r) {
    double acc = y[r];
    for (int c = r + 1; c < n; ++c) acc -= l(c, r) * x[c];
    x[r] = acc / l(r, r);
  }
  return x;
}

std::vector<double> symmetric_eigenvalues(const DenseMatrix& a, double tol,
                                          int max_sweeps) {
  const int n = a.rows();
  MINIPOP_REQUIRE(a.rows() == a.cols(), "eigenvalues need a square matrix");
  DenseMatrix m = a;
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (int r = 0; r < n; ++r)
      for (int c = r + 1; c < n; ++c) off += m(r, c) * m(r, c);
    if (std::sqrt(off) < tol) break;
    for (int p = 0; p < n; ++p) {
      for (int q = p + 1; q < n; ++q) {
        if (std::abs(m(p, q)) < 1e-300) continue;
        double theta = (m(q, q) - m(p, p)) / (2.0 * m(p, q));
        double t = (theta >= 0 ? 1.0 : -1.0) /
                   (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        double c = 1.0 / std::sqrt(t * t + 1.0);
        double s = t * c;
        for (int k = 0; k < n; ++k) {
          double mkp = m(k, p);
          double mkq = m(k, q);
          m(k, p) = c * mkp - s * mkq;
          m(k, q) = s * mkp + c * mkq;
        }
        for (int k = 0; k < n; ++k) {
          double mpk = m(p, k);
          double mqk = m(q, k);
          m(p, k) = c * mpk - s * mqk;
          m(q, k) = s * mpk + c * mqk;
        }
      }
    }
  }
  std::vector<double> eig(n);
  for (int i = 0; i < n; ++i) eig[i] = m(i, i);
  std::sort(eig.begin(), eig.end());
  return eig;
}

}  // namespace minipop::linalg
