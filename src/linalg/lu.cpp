#include "linalg/lu.h"

#include <cmath>
#include <numeric>
#include <stdexcept>

namespace nvsram::linalg {

bool LuFactorization::factorize(const DenseMatrix& a, double pivot_floor) {
  if (a.rows() != a.cols()) throw std::invalid_argument("LU: matrix not square");
  const std::size_t n = a.rows();
  lu_ = a;
  perm_.resize(n);
  std::iota(perm_.begin(), perm_.end(), std::size_t{0});
  valid_ = false;
  failed_pivot_ = kNoFailedPivot;
  non_finite_ = false;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: find the largest magnitude entry in column k at/below k.
    // A NaN anywhere in the candidate column poisons the whole step, so it
    // is treated as a failure here rather than silently losing the NaN to
    // the (always-false) magnitude comparisons below.
    std::size_t pivot_row = k;
    double pivot_mag = std::fabs(lu_(k, k));
    bool finite = std::isfinite(pivot_mag);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::fabs(lu_(r, k));
      finite = finite && std::isfinite(mag);
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = r;
      }
    }
    if (!finite || !std::isfinite(pivot_mag)) {
      failed_pivot_ = k;
      non_finite_ = true;
      return false;
    }
    if (pivot_mag < pivot_floor) {
      failed_pivot_ = k;
      return false;
    }
    if (pivot_row != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(lu_(k, c), lu_(pivot_row, c));
      std::swap(perm_[k], perm_[pivot_row]);
    }
    const double inv_pivot = 1.0 / lu_(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double factor = lu_(r, k) * inv_pivot;
      lu_(r, k) = factor;
      if (factor == 0.0) continue;
      for (std::size_t c = k + 1; c < n; ++c) {
        lu_(r, c) -= factor * lu_(k, c);
      }
    }
  }
  valid_ = true;
  return true;
}

Vector LuFactorization::solve(const Vector& b) const {
  Vector y;
  solve_into(b, y);
  return y;
}

void LuFactorization::solve_into(const Vector& b, Vector& y) const {
  if (!valid_) throw std::logic_error("LU::solve before successful factorize");
  const std::size_t n = lu_.rows();
  if (b.size() != n) throw std::invalid_argument("LU::solve rhs size");

  // Apply permutation, then forward substitution (L has unit diagonal).
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = b[perm_[i]];
  for (std::size_t i = 0; i < n; ++i) {
    double sum = y[i];
    for (std::size_t j = 0; j < i; ++j) sum -= lu_(i, j) * y[j];
    y[i] = sum;
  }
  // Back substitution with U.
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = y[ii];
    for (std::size_t j = ii + 1; j < n; ++j) sum -= lu_(ii, j) * y[j];
    y[ii] = sum / lu_(ii, ii);
  }
}

Vector LuFactorization::refine(const DenseMatrix& a, const Vector& b,
                               const Vector& x) const {
  Vector residual = a.multiply(x);
  for (std::size_t i = 0; i < residual.size(); ++i) residual[i] = b[i] - residual[i];
  Vector dx = solve(residual);
  Vector out = x;
  axpy(1.0, dx, out);
  return out;
}

double LuFactorization::pivot_ratio() const {
  if (!valid_ || lu_.rows() == 0) return 0.0;
  double min_p = std::fabs(lu_(0, 0));
  double max_p = min_p;
  for (std::size_t i = 1; i < lu_.rows(); ++i) {
    const double p = std::fabs(lu_(i, i));
    min_p = std::min(min_p, p);
    max_p = std::max(max_p, p);
  }
  return max_p > 0.0 ? min_p / max_p : 0.0;
}

std::optional<Vector> solve_dense(const DenseMatrix& a, const Vector& b) {
  LuFactorization lu;
  if (!lu.factorize(a)) return std::nullopt;
  return lu.solve(b);
}

}  // namespace nvsram::linalg
