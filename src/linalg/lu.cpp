#include "linalg/lu.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace nvsram::linalg {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

bool has_negative_zero(const Vector& v) {
  for (double x : v) {
    if (x == 0.0 && std::signbit(x)) return true;
  }
  return false;
}

bool all_finite(const Vector& v) {
  for (double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

}  // namespace

bool LuFactorization::factorize(const DenseMatrix& a, double pivot_floor) {
  if (a.rows() != a.cols()) throw std::invalid_argument("LU: matrix not square");
  lu_ = a;
  use_plan_ = false;
  return eliminate(pivot_floor);
}

bool LuFactorization::eliminate(double pivot_floor) {
  const std::size_t n = lu_.rows();
  perm_.resize(n);
  std::iota(perm_.begin(), perm_.end(), std::size_t{0});
  pivots_.resize(n);
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
    pivots_[k] = pivot_row;
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

bool LuFactorization::factorize(const CsrMatrix& a, double pivot_floor) {
  use_plan_ = false;
  values_ = a.values();
  if (planned_ && plan_.matches(a)) {
    if (replay(a, pivot_floor)) {
      ++replay_count_;
      use_plan_ = true;
      return true;
    }
    ++miss_count_;
  }
  a.to_dense_into(lu_);
  if (!eliminate(pivot_floor)) return false;
  // The plan relies on structural zeros staying exactly zero, which holds
  // after any successful run: a non-finite multiplier would have spread
  // inf or NaN into the next pivot column and failed the next step.
  planned_ = build_plan(a);
  if (planned_) ++plan_count_;
  use_plan_ = planned_;
  return true;
}

bool LuFactorization::Plan::matches(const CsrMatrix& a) const {
  return a.dimension() == n && a.row_ptr() == row_ptr &&
         a.col_idx() == col_idx;
}

bool LuFactorization::build_plan(const CsrMatrix& a) {
  const std::size_t n = a.dimension();
  Plan& p = plan_;
  p.n = n;
  p.row_ptr = a.row_ptr();
  p.col_idx = a.col_idx();

  // Symbolic rerun of the dense elimination with the recorded pivots: `s`
  // marks structural nonzeros by dense position, `at` tracks which
  // original row sits at each position.
  std::vector<char> s(n * n, 0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t q = p.row_ptr[r]; q < p.row_ptr[r + 1]; ++q) {
      s[r * n + p.col_idx[q]] = 1;
    }
  }
  std::vector<std::size_t> at(n);
  std::iota(at.begin(), at.end(), std::size_t{0});
  p.cand_ptr.assign(1, 0);
  p.cand.clear();
  p.cand.reserve(a.nonzeros() + n);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t pos = k; pos < n; ++pos) {
      if (s[pos * n + k]) p.cand.push_back(at[pos]);
    }
    p.cand_ptr.push_back(p.cand.size());
    if (const std::size_t pr = pivots_[k]; pr != k) {
      std::swap_ranges(s.begin() + k * n, s.begin() + (k + 1) * n,
                       s.begin() + pr * n);
      std::swap(at[k], at[pr]);
    }
    for (std::size_t r = k + 1; r < n; ++r) {
      if (!s[r * n + k]) continue;
      for (std::size_t c = k + 1; c < n; ++c) s[r * n + c] |= s[k * n + c];
    }
  }

  // Everything below is in final row order.  Scattered positions are
  // marked 2 in `s`, so the 1s left over are the fill.
  p.perm = at;
  std::vector<std::size_t>& final_row = at;  // reused as its inverse
  for (std::size_t i = 0; i < n; ++i) final_row[p.perm[i]] = i;
  for (std::size_t& c : p.cand) c = final_row[c];
  p.scatter.resize(a.nonzeros());
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t q = p.row_ptr[r]; q < p.row_ptr[r + 1]; ++q) {
      const std::size_t off = final_row[r] * n + p.col_idx[q];
      p.scatter[q] = off;
      s[off] = 2;
    }
  }
  const std::size_t nnz =
      n * n - static_cast<std::size_t>(std::count(s.begin(), s.end(), 0));
  p.fill.clear();
  p.fill.reserve(nnz - a.nonzeros());
  for (std::size_t off = 0; off < n * n; ++off) {
    if (s[off] == 1) p.fill.push_back(off);
  }

  for (auto* ptr : {&p.lcol_ptr, &p.urow_ptr, &p.lrow_ptr}) {
    ptr->clear();
    ptr->reserve(n + 1);
    ptr->push_back(0);
  }
  for (auto* list : {&p.lcol, &p.urow, &p.lrow}) {
    list->clear();
    list->reserve(nnz);
  }
  for (std::size_t k = 0; k < n; ++k) {
    if (!s[k * n + k]) return false;  // a zero pivot only a zero floor let by
    for (std::size_t r = k + 1; r < n; ++r) {
      if (s[r * n + k]) p.lcol.push_back(r);
    }
    p.lcol_ptr.push_back(p.lcol.size());
    for (std::size_t c = k + 1; c < n; ++c) {
      if (s[k * n + c]) p.urow.push_back(c);
    }
    p.urow_ptr.push_back(p.urow.size());
    for (std::size_t c = 0; c < k; ++c) {
      if (s[k * n + c]) p.lrow.push_back(c);
    }
    p.lrow_ptr.push_back(p.lrow.size());
  }
  return true;
}

bool LuFactorization::replay(const CsrMatrix& a, double pivot_floor) {
  const Plan& p = plan_;
  const std::size_t n = p.n;
  if (lu_.rows() != n || lu_.cols() != n) lu_.resize(n, n);
  valid_ = false;
  double* lu = lu_.data();
  for (const std::size_t off : p.fill) lu[off] = 0.0;
  const std::vector<double>& v = a.values();
  for (std::size_t q = 0; q < v.size(); ++q) lu[p.scatter[q]] = v[q];

  for (std::size_t k = 0; k < n; ++k) {
    // The dense rule over the structural candidates only: every other row
    // holds an exact zero at (r, k), which is finite and never a strict
    // maximum.  Anything but the recorded row, or a step the dense code
    // would fail, is a miss.
    std::size_t pivot = kNone;
    double pivot_mag = 0.0;
    bool finite = true;
    for (std::size_t q = p.cand_ptr[k]; q < p.cand_ptr[k + 1]; ++q) {
      const double mag = std::fabs(lu[p.cand[q] * n + k]);
      finite = finite && std::isfinite(mag);
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot = p.cand[q];
      }
    }
    if (!finite || pivot != k || pivot_mag < pivot_floor) return false;
    const double* pivot_row = lu + k * n;
    const double inv_pivot = 1.0 / pivot_row[k];
    // A non-finite multiplier, or an infinite reciprocal (0 * inf = NaN in
    // the structurally zero rows), makes the dense code spread inf or NaN
    // through entries the plan never visits: the dense code must decide.
    if (!std::isfinite(inv_pivot)) return false;
    for (std::size_t q = p.lcol_ptr[k]; q < p.lcol_ptr[k + 1]; ++q) {
      double* row = lu + p.lcol[q] * n;
      const double factor = row[k] * inv_pivot;
      row[k] = factor;
      if (factor == 0.0) continue;
      if (!std::isfinite(factor)) return false;
      for (std::size_t u = p.urow_ptr[k]; u < p.urow_ptr[k + 1]; ++u) {
        row[p.urow[u]] -= factor * pivot_row[p.urow[u]];
      }
    }
  }
  perm_ = p.perm;
  failed_pivot_ = kNoFailedPivot;
  non_finite_ = false;
  valid_ = true;
  return true;
}

Vector LuFactorization::solve(const Vector& b) const {
  Vector y;
  solve_into(b, y);
  return y;
}

void LuFactorization::solve_planned(const Vector& b, Vector& y) const {
  const Plan& p = plan_;
  const std::size_t n = p.n;
  const double* lu = lu_.data();
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = b[perm_[i]];
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = lu + i * n;
    double sum = y[i];
    for (std::size_t q = p.lrow_ptr[i]; q < p.lrow_ptr[i + 1]; ++q) {
      sum -= row[p.lrow[q]] * y[p.lrow[q]];
    }
    y[i] = sum;
  }
  for (std::size_t ii = n; ii-- > 0;) {
    const double* row = lu + ii * n;
    double sum = y[ii];
    for (std::size_t q = p.urow_ptr[ii]; q < p.urow_ptr[ii + 1]; ++q) {
      sum -= row[p.urow[q]] * y[p.urow[q]];
    }
    y[ii] = sum / row[ii];
  }
}

void LuFactorization::solve_into(const Vector& b, Vector& y) const {
  if (!valid_) throw std::logic_error("LU::solve before successful factorize");
  const std::size_t n = lu_.rows();
  if (b.size() != n) throw std::invalid_argument("LU::solve rhs size");

  if (use_plan_) {
    // Skipping a structural zero term is exact while every partial sum is
    // finite and none is -0.0; the latter needs a -0.0 in b.  Outside that,
    // the dense factors of the saved values give the dense answer.
    if (!has_negative_zero(b)) {
      solve_planned(b, y);
      if (all_finite(y)) return;
    }
    DenseMatrix a(n, n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t q = plan_.row_ptr[r]; q < plan_.row_ptr[r + 1]; ++q) {
        a(r, plan_.col_idx[q]) = values_[q];
      }
    }
    LuFactorization dense;
    // The pivots already passed the caller's floor.
    dense.factorize(a, -std::numeric_limits<double>::infinity());
    dense.solve_into(b, y);
    return;
  }

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
