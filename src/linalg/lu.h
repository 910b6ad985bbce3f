// Partially pivoted LU factorization of a DenseMatrix, with solve/refine.
#pragma once

#include <limits>
#include <optional>

#include "linalg/dense.h"

namespace nvsram::linalg {

// Pivot index reported by the factorizations when nothing failed.
inline constexpr std::size_t kNoFailedPivot =
    std::numeric_limits<std::size_t>::max();

// In-place LU with partial pivoting.  After factorize(), solve() may be
// called repeatedly with different right-hand sides.
class LuFactorization {
 public:
  // Factorizes a copy of `a`.  Returns false if the matrix is singular to
  // working precision (pivot below `pivot_floor`) or a pivot column turned
  // non-finite; failed_pivot()/non_finite() then attribute the failure
  // instead of letting NaN solutions propagate downstream.
  bool factorize(const DenseMatrix& a, double pivot_floor = 1e-300);

  // Solves A x = b using the stored factors.  Requires factorize() == true.
  Vector solve(const Vector& b) const;
  // Allocation-free variant for hot loops: resizes `out` (a no-op once it
  // has the right size) and overwrites it with the solution of solve(b).
  // `out` must not alias `b`.
  void solve_into(const Vector& b, Vector& out) const;

  // One step of iterative refinement against the original matrix.
  Vector refine(const DenseMatrix& a, const Vector& b, const Vector& x) const;

  bool valid() const { return valid_; }
  std::size_t dimension() const { return lu_.rows(); }

  // Estimated reciprocal condition (cheap: min|pivot| / max|pivot|).
  double pivot_ratio() const;

  // After a failed factorize(): the elimination step that gave up, and
  // whether the best candidate pivot there was NaN/Inf (vs merely tiny).
  std::size_t failed_pivot() const { return failed_pivot_; }
  bool non_finite() const { return non_finite_; }

 private:
  DenseMatrix lu_;
  std::vector<std::size_t> perm_;
  bool valid_ = false;
  std::size_t failed_pivot_ = kNoFailedPivot;
  bool non_finite_ = false;
};

// Convenience one-shot solve.  Returns nullopt on singular systems.
std::optional<Vector> solve_dense(const DenseMatrix& a, const Vector& b);

}  // namespace nvsram::linalg
