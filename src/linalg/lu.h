// Partially pivoted LU factorization of a DenseMatrix, with solve/refine.
//
// The CSR entry point adds pivot-sequence replay (the refactor-reuse idea of
// KLU, applied to the dense partial-pivoting rule).  The first factorization
// on a sparsity pattern runs the dense code and records its row pivots; a
// plan built from them holds each step's candidate rows in the dense scan
// order, the symbolic fill in final row order, and the L/U index lists.
// Later factorizations on the same pattern scatter the values straight into
// their final rows and eliminate only over structural nonzeros, checking at
// every step that the dense rule (first strict maximum, finite column,
// pivot above the floor) picks the recorded row.  Structural zeros stay
// exactly zero in the dense code, so every entry sees the same
// floating-point operations and the factors and solutions are bit-identical
// to factorize(DenseMatrix) + solve_into.  The first mismatch reruns the
// dense factorization (same failed_pivot()/non_finite() diagnostics) and,
// when it succeeds, replans from its pivots.
#pragma once

#include <limits>
#include <optional>

#include "linalg/dense.h"
#include "linalg/sparse.h"

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

  // Same factorization of a CSR matrix, replaying the plan of the last
  // successful dense run on the same pattern (see the file comment).
  // Results and diagnostics are bit-identical to factorize(a.to_dense()).
  bool factorize(const CsrMatrix& a, double pivot_floor = 1e-300);

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

  // CSR-path counters: plans built from a dense run, factorizations that
  // replayed a plan, and replays that missed (a different pivot, or a
  // singular / non-finite step) and reran the dense code.
  std::size_t plan_count() const { return plan_count_; }
  std::size_t replay_count() const { return replay_count_; }
  std::size_t miss_count() const { return miss_count_; }

 private:
  // The replay plan of one CSR pattern.  Row indices are final (pivoted)
  // positions; lu_ holds row i of the factors at row i throughout.
  struct Plan {
    std::size_t n = 0;
    std::vector<std::size_t> row_ptr, col_idx;  // the pattern planned for
    std::vector<std::size_t> perm;     // final row -> original row
    std::vector<std::size_t> scatter;  // CSR slot -> offset in lu_
    std::vector<std::size_t> fill;     // fill-in offsets, zeroed first
    // Per step k (CSR-style offsets): the candidate rows in dense scan
    // order, the L rows below k, and the U columns right of k.
    std::vector<std::size_t> cand_ptr, cand;
    std::vector<std::size_t> lcol_ptr, lcol;
    std::vector<std::size_t> urow_ptr, urow;
    // Per row i: the L columns left of i, for forward substitution.
    std::vector<std::size_t> lrow_ptr, lrow;

    bool matches(const CsrMatrix& a) const;
  };

  // Dense partial-pivoting elimination of lu_ in place; records each
  // step's pivot row (dense position) in pivots_.
  bool eliminate(double pivot_floor);
  bool replay(const CsrMatrix& a, double pivot_floor);
  // Builds plan_ from pivots_; false when a pivot is structurally zero.
  bool build_plan(const CsrMatrix& a);
  void solve_planned(const Vector& b, Vector& y) const;

  DenseMatrix lu_;
  std::vector<std::size_t> perm_;
  bool valid_ = false;
  std::size_t failed_pivot_ = kNoFailedPivot;
  bool non_finite_ = false;

  std::vector<std::size_t> pivots_;
  Plan plan_;
  bool planned_ = false;    // plan_ holds a plan
  bool use_plan_ = false;   // the current factors follow plan_
  Vector values_;           // CSR values of the current factors
  std::size_t plan_count_ = 0;
  std::size_t replay_count_ = 0;
  std::size_t miss_count_ = 0;
};

// Convenience one-shot solve.  Returns nullopt on singular systems.
std::optional<Vector> solve_dense(const DenseMatrix& a, const Vector& b);

}  // namespace nvsram::linalg
