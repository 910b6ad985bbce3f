// Linear algebra tests: dense LU, CSR assembly, sparse LU, cross-checks on
// random systems.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <random>

#include "linalg/dense.h"
#include "linalg/lu.h"
#include "linalg/sparse.h"
#include "linalg/sparse_lu.h"

namespace nvsram::linalg {
namespace {

DenseMatrix random_diag_dominant(std::size_t n, std::mt19937& rng) {
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  DenseMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      a(i, j) = dist(rng);
      row_sum += std::fabs(a(i, j));
    }
    a(i, i) = row_sum + 1.0 + std::fabs(dist(rng));
  }
  return a;
}

// ---- dense -----------------------------------------------------------------

TEST(Dense, MultiplyIdentity) {
  const auto eye = DenseMatrix::identity(4);
  const Vector x{1.0, -2.0, 3.0, 0.5};
  EXPECT_EQ(eye.multiply(x), x);
}

TEST(Dense, VectorHelpers) {
  Vector a{1.0, 2.0, 2.0};
  const Vector b{2.0, -1.0, 2.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 4.0);
  EXPECT_DOUBLE_EQ(norm_inf(b), 2.0);
  EXPECT_DOUBLE_EQ(norm_2(a), 3.0);
  axpy(2.0, b, a);
  EXPECT_DOUBLE_EQ(a[0], 5.0);
}

TEST(DenseLu, SolvesSmallSystem) {
  DenseMatrix a(2, 2);
  a(0, 0) = 2.0; a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 3.0;
  const auto x = solve_dense(a, {5.0, 10.0});
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 1.0, 1e-12);
  EXPECT_NEAR((*x)[1], 3.0, 1e-12);
}

TEST(DenseLu, RequiresPivoting) {
  // Zero on the first diagonal: fails without partial pivoting.
  DenseMatrix a(2, 2);
  a(0, 0) = 0.0; a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 1.0;
  const auto x = solve_dense(a, {2.0, 3.0});
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 1.0, 1e-12);
  EXPECT_NEAR((*x)[1], 2.0, 1e-12);
}

TEST(DenseLu, DetectsSingular) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1.0; a(0, 1) = 2.0;
  a(1, 0) = 2.0; a(1, 1) = 4.0;
  EXPECT_FALSE(solve_dense(a, {1.0, 2.0}).has_value());
}

TEST(DenseLu, RandomRoundTrip) {
  std::mt19937 rng(42);
  for (std::size_t n : {3u, 8u, 20u, 50u}) {
    const auto a = random_diag_dominant(n, rng);
    Vector x_true(n);
    for (auto& v : x_true) v = std::uniform_real_distribution<double>(-5, 5)(rng);
    const auto b = a.multiply(x_true);
    const auto x = solve_dense(a, b);
    ASSERT_TRUE(x.has_value());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR((*x)[i], x_true[i], 1e-8) << "n=" << n << " i=" << i;
    }
  }
}

TEST(DenseLu, IterativeRefinementImproves) {
  std::mt19937 rng(7);
  const auto a = random_diag_dominant(30, rng);
  Vector x_true(30, 1.0);
  const auto b = a.multiply(x_true);
  LuFactorization lu;
  ASSERT_TRUE(lu.factorize(a));
  auto x = lu.solve(b);
  const auto x2 = lu.refine(a, b, x);
  Vector r1 = a.multiply(x), r2 = a.multiply(x2);
  for (std::size_t i = 0; i < 30; ++i) {
    r1[i] -= b[i];
    r2[i] -= b[i];
  }
  EXPECT_LE(norm_inf(r2), norm_inf(r1) + 1e-18);
}

// ---- CSR assembly -------------------------------------------------------------

TEST(Csr, AccumulatesDuplicates) {
  SparseBuilder builder(3);
  builder.add(0, 0, 1.0);
  builder.add(0, 0, 2.0);
  builder.add(1, 2, -1.0);
  builder.add(2, 2, 4.0);
  const CsrMatrix m(builder);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.at(1, 2), -1.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);
  EXPECT_EQ(m.nonzeros(), 3u);
}

TEST(Csr, MultiplyMatchesDense) {
  std::mt19937 rng(3);
  SparseBuilder builder(10);
  std::uniform_int_distribution<std::size_t> idx(0, 9);
  std::uniform_real_distribution<double> val(-2.0, 2.0);
  for (int k = 0; k < 40; ++k) builder.add(idx(rng), idx(rng), val(rng));
  for (std::size_t i = 0; i < 10; ++i) builder.add(i, i, 5.0);
  const CsrMatrix m(builder);
  const auto d = m.to_dense();
  Vector x(10);
  for (auto& v : x) v = val(rng);
  const auto y1 = m.multiply(x);
  const auto y2 = d.multiply(x);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-12);
}

TEST(Csr, RejectsOutOfRange) {
  SparseBuilder builder(2);
  builder.add(0, 5, 1.0);
  EXPECT_THROW(CsrMatrix{builder}, std::out_of_range);
}

// ---- sparse LU ------------------------------------------------------------------

TEST(SparseLuTest, SolvesSmallAsymmetric) {
  SparseBuilder b(3);
  b.add(0, 0, 4.0); b.add(0, 1, -1.0);
  b.add(1, 0, -1.0); b.add(1, 1, 4.0); b.add(1, 2, -1.0);
  b.add(2, 1, -1.0); b.add(2, 2, 4.0);
  const CsrMatrix a(b);
  SparseLu lu;
  ASSERT_TRUE(lu.factorize(a));
  const auto x = lu.solve({1.0, 2.0, 3.0});
  const auto ax = a.multiply(x);
  EXPECT_NEAR(ax[0], 1.0, 1e-10);
  EXPECT_NEAR(ax[1], 2.0, 1e-10);
  EXPECT_NEAR(ax[2], 3.0, 1e-10);
}

TEST(SparseLuTest, NeedsPivotingOffDiagonal) {
  // Structurally requires row exchange (zero diagonal in row 0).
  SparseBuilder b(2);
  b.add(0, 1, 1.0);
  b.add(1, 0, 2.0);
  b.add(1, 1, 1.0);
  const CsrMatrix a(b);
  SparseLu lu;
  ASSERT_TRUE(lu.factorize(a));
  const auto x = lu.solve({3.0, 4.0});
  EXPECT_NEAR(x[1], 3.0, 1e-12);
  EXPECT_NEAR(x[0], 0.5, 1e-12);
}

TEST(SparseLuTest, DetectsSingular) {
  SparseBuilder b(2);
  b.add(0, 0, 1.0);
  b.add(0, 1, 1.0);
  // Row 1 empty: structurally singular.
  const CsrMatrix a(b);
  SparseLu lu;
  EXPECT_FALSE(lu.factorize(a));
}

TEST(SparseLuTest, MatchesDenseOnRandomSystems) {
  std::mt19937 rng(11);
  for (std::size_t n : {5u, 25u, 80u}) {
    SparseBuilder builder(n);
    std::uniform_int_distribution<std::size_t> idx(0, n - 1);
    std::uniform_real_distribution<double> val(-1.0, 1.0);
    for (std::size_t k = 0; k < 6 * n; ++k) {
      builder.add(idx(rng), idx(rng), val(rng));
    }
    for (std::size_t i = 0; i < n; ++i) builder.add(i, i, 8.0);
    const CsrMatrix a(builder);

    Vector b(n);
    for (auto& v : b) v = val(rng);

    SparseLu lu;
    ASSERT_TRUE(lu.factorize(a));
    const auto xs = lu.solve(b);
    const auto xd = solve_dense(a.to_dense(), b);
    ASSERT_TRUE(xd.has_value());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(xs[i], (*xd)[i], 1e-8) << "n=" << n;
    }
  }
}

TEST(SparseLuTest, LargeGridSystem) {
  // 2D Laplacian on a 30x30 grid (900 unknowns) — the array-netlist scale.
  const std::size_t g = 30;
  const std::size_t n = g * g;
  SparseBuilder builder(n);
  auto at = [g](std::size_t r, std::size_t c) { return r * g + c; };
  for (std::size_t r = 0; r < g; ++r) {
    for (std::size_t c = 0; c < g; ++c) {
      const std::size_t i = at(r, c);
      builder.add(i, i, 4.0 + 1e-3);
      if (r > 0) builder.add(i, at(r - 1, c), -1.0);
      if (r + 1 < g) builder.add(i, at(r + 1, c), -1.0);
      if (c > 0) builder.add(i, at(r, c - 1), -1.0);
      if (c + 1 < g) builder.add(i, at(r, c + 1), -1.0);
    }
  }
  const CsrMatrix a(builder);
  Vector b(n, 1.0);
  SparseLu lu;
  ASSERT_TRUE(lu.factorize(a));
  const auto x = lu.solve(b);
  const auto ax = a.multiply(x);
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) worst = std::max(worst, std::fabs(ax[i] - 1.0));
  EXPECT_LT(worst, 1e-9);
}

// ---- planned (CSR) LU vs the dense path ---------------------------------------

std::uint64_t bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

// Factorizes `a` through `planned` (which keeps its plan across calls) and
// through a fresh dense factorization; everything observable must agree bit
// for bit.
void expect_matches_dense(LuFactorization& planned, const CsrMatrix& a,
                          const Vector& b, double pivot_floor = 1e-300) {
  LuFactorization dense;
  const bool ok = dense.factorize(a.to_dense(), pivot_floor);
  ASSERT_EQ(planned.factorize(a, pivot_floor), ok);
  EXPECT_EQ(planned.failed_pivot(), dense.failed_pivot());
  EXPECT_EQ(planned.non_finite(), dense.non_finite());
  if (!ok) return;
  EXPECT_EQ(bits(planned.pivot_ratio()), bits(dense.pivot_ratio()));
  Vector x_planned, x_dense;
  planned.solve_into(b, x_planned);
  dense.solve_into(b, x_dense);
  ASSERT_EQ(x_planned.size(), x_dense.size());
  for (std::size_t i = 0; i < x_dense.size(); ++i) {
    EXPECT_EQ(bits(x_planned[i]), bits(x_dense[i]))
        << "unknown " << i << ": " << x_planned[i] << " vs " << x_dense[i];
  }
}

// One MNA-shaped stamp sequence: node rows with a random conductance graph
// and a self term, plus voltage-source branches (the last n/4 unknowns)
// whose rows and columns carry exact +-1 entries around a zero diagonal, so
// pivot columns hold exact magnitude ties that only the scan order breaks.
struct Stamp {
  std::size_t row, col;
  double unit;  // nonzero: a fixed source entry of this value
};

std::vector<Stamp> mna_stamps(std::size_t n, std::mt19937& rng) {
  const std::size_t sources = n / 4;
  const std::size_t nodes = n - sources;
  std::uniform_int_distribution<std::size_t> pick(0, nodes - 1);
  std::vector<Stamp> stamps;
  for (std::size_t i = 0; i < nodes; ++i) stamps.push_back({i, i, 0.0});
  for (std::size_t e = 0; e < 2 * nodes; ++e) {
    const std::size_t a = pick(rng), b = pick(rng);
    if (a == b) continue;
    stamps.push_back({a, a, 0.0});
    stamps.push_back({b, b, 0.0});
    stamps.push_back({a, b, 0.0});
    stamps.push_back({b, a, 0.0});
  }
  for (std::size_t k = 0; k < sources; ++k) {
    const std::size_t br = nodes + k, a = pick(rng), b = pick(rng);
    stamps.push_back({a, br, 1.0});
    stamps.push_back({br, a, 1.0});
    if (b != a) {
      stamps.push_back({b, br, -1.0});
      stamps.push_back({br, b, -1.0});
    }
  }
  return stamps;
}

// Values for `stamps`: fixed source entries, and base[i] * (1 + jitter * u)
// for the rest, u uniform in [-1, 1).
CsrMatrix mna_matrix(std::size_t n, const std::vector<Stamp>& stamps,
                     const Vector& base, double jitter, std::mt19937& rng) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  SparseBuilder builder(n);
  for (std::size_t i = 0; i < stamps.size(); ++i) {
    const Stamp& s = stamps[i];
    builder.add(s.row, s.col,
                s.unit != 0.0 ? s.unit : base[i] * (1.0 + jitter * u(rng)));
  }
  return CsrMatrix(builder);
}

Vector random_vector(std::size_t n, std::mt19937& rng) {
  std::uniform_real_distribution<double> u(-2.0, 2.0);
  Vector v(n);
  for (double& x : v) x = u(rng);
  return v;
}

TEST(PlannedLu, MatchesDenseOnMnaPatternsWithSourceTies) {
  std::mt19937 rng(1234);
  std::uniform_real_distribution<double> u(-2.0, 2.0);
  std::size_t replays = 0, misses = 0;
  for (std::size_t n = 1; n <= 60; ++n) {
    const auto stamps = mna_stamps(n, rng);
    Vector base(stamps.size());
    for (double& v : base) v = u(rng);
    LuFactorization planned;
    // A Newton-like sequence (small relative moves, mostly replays), then
    // unrelated values on the same pattern (frequent pivot changes).
    for (int rep = 0; rep < 8; ++rep) {
      const double jitter = rep < 5 ? 1e-3 : 1.0;
      SCOPED_TRACE("n=" + std::to_string(n) + " rep=" + std::to_string(rep));
      expect_matches_dense(planned, mna_matrix(n, stamps, base, jitter, rng),
                           random_vector(n, rng));
    }
    replays += planned.replay_count();
    misses += planned.miss_count();
  }
  EXPECT_GT(replays, 100u);  // the plans are actually replayed...
  EXPECT_GT(misses, 0u);     // ...and the unrelated values make some miss
}

// A 4x4 whose step-2 pivot is decided by t: row 2 holds t - 0.25 after two
// steps, row 3 (a source row) an exact 1.
CsrMatrix flip_matrix(double t) {
  SparseBuilder b(4);
  b.add(0, 0, 4.0);
  b.add(0, 3, 1.0);
  b.add(1, 1, 4.0);
  b.add(1, 2, 1.0);
  b.add(2, 1, 1.0);
  b.add(2, 2, t);
  b.add(2, 3, 1.0);
  b.add(3, 0, 1.0);
  b.add(3, 2, 1.0);
  return CsrMatrix(b);
}

TEST(PlannedLu, PivotFlipMidReplayFallsBackAndReplans) {
  LuFactorization planned;
  const Vector b{1.0, -2.0, 0.5, 3.0};
  // t = 3, 2: row 2 wins step 2.  t = 1.25: an exact tie, which the first
  // candidate in scan order (row 2) keeps.  t = 0.5: row 3 wins, a miss at
  // step 2.  t = 0.75 replays the new plan; t = 3 flips back.
  const struct {
    double t;
    std::size_t plans, replays, misses;
  } steps[] = {{3.0, 1, 0, 0},  {2.0, 1, 1, 0},  {1.25, 1, 2, 0},
               {0.5, 2, 2, 1},  {0.75, 2, 3, 1}, {3.0, 3, 3, 2}};
  for (const auto& s : steps) {
    SCOPED_TRACE("t=" + std::to_string(s.t));
    expect_matches_dense(planned, flip_matrix(s.t), b);
    EXPECT_EQ(planned.plan_count(), s.plans);
    EXPECT_EQ(planned.replay_count(), s.replays);
    EXPECT_EQ(planned.miss_count(), s.misses);
  }
}

TEST(PlannedLu, SingularAndNonFiniteMatchDenseDiagnostics) {
  LuFactorization planned;
  const Vector b{1.0, 2.0, 3.0};
  auto matrix = [](double a11, double a12, double a22) {
    SparseBuilder s(3);
    s.add(0, 0, 2.0);
    s.add(0, 1, 1.0);
    s.add(1, 0, 1.0);
    s.add(1, 1, a11);
    s.add(1, 2, a12);
    s.add(2, 1, 1.0);
    s.add(2, 2, a22);
    return CsrMatrix(s);
  };
  expect_matches_dense(planned, matrix(3.0, 1.0, 2.0), b);
  ASSERT_EQ(planned.plan_count(), 1u);
  // Numerically singular on the planned pattern (the last pivot cancels
  // to exactly zero): a miss, and the dense rerun reports the same failed
  // pivot.
  expect_matches_dense(planned, matrix(3.0, 5.0, 2.0), b);
  EXPECT_FALSE(planned.valid());
  EXPECT_EQ(planned.failed_pivot(), 2u);
  EXPECT_EQ(planned.miss_count(), 1u);
  // NaN in a pivot column, and NaN in an entry only a later step reads.
  expect_matches_dense(planned, matrix(std::nan(""), 1.0, 2.0), b);
  EXPECT_TRUE(planned.non_finite());
  expect_matches_dense(planned, matrix(3.0, 1.0, std::nan("")), b);
  EXPECT_TRUE(planned.non_finite());
  EXPECT_EQ(planned.failed_pivot(), 2u);
  // A failed factorization keeps the plan: good values replay again.
  const std::size_t replays = planned.replay_count();
  expect_matches_dense(planned, matrix(3.5, 1.0, 2.5), b);
  EXPECT_EQ(planned.replay_count(), replays + 1);
  EXPECT_EQ(planned.plan_count(), 1u);
  // Structurally singular (an empty column): identical failure on the
  // first, unplanned, factorization.
  SparseBuilder empty_col(2);
  empty_col.add(0, 0, 1.0);
  empty_col.add(1, 0, 1.0);
  LuFactorization fresh;
  expect_matches_dense(fresh, CsrMatrix(empty_col), {1.0, 1.0});
  EXPECT_EQ(fresh.failed_pivot(), 1u);

  // An infinite U entry no later pivot column reads: both paths factor,
  // and the non-finite solution takes the dense bits.
  SparseBuilder inf_u(2);
  inf_u.add(0, 0, 2.0);
  inf_u.add(0, 1, HUGE_VAL);
  inf_u.add(1, 1, 3.0);
  LuFactorization with_inf;
  expect_matches_dense(with_inf, CsrMatrix(inf_u), {1.0, 1.0});
  expect_matches_dense(with_inf, CsrMatrix(inf_u), {1.0, 1.0});
  EXPECT_EQ(with_inf.replay_count(), 1u);
}

TEST(PlannedLu, DenormalPivotsAndNegativeZerosStayBitIdentical) {
  // With a zero pivot floor a denormal pivot's reciprocal overflows.  The
  // dense code then spreads inf * 0 = NaN through structurally zero
  // entries and fails the next step; the replay, which never visits those
  // entries, must miss rather than succeed.  Column 0 has no structural L
  // row in `no_l`, and an overflowing multiplier in `with_l`.
  auto no_l = [](double p) {
    SparseBuilder s(3);
    s.add(0, 0, p);
    s.add(1, 1, 1.0);
    s.add(1, 2, 1.0);
    s.add(2, 2, 1.0);
    return CsrMatrix(s);
  };
  auto with_l = [](double p) {
    SparseBuilder s(3);
    s.add(0, 0, p);
    s.add(1, 0, p / 2.0);
    s.add(1, 1, 1.0);
    s.add(2, 2, 1.0);
    return CsrMatrix(s);
  };
  const Vector ones{1.0, 1.0, 1.0};
  for (const auto& make : {std::function<CsrMatrix(double)>(no_l),
                           std::function<CsrMatrix(double)>(with_l)}) {
    LuFactorization planned;
    expect_matches_dense(planned, make(1.0), ones, 0.0);
    expect_matches_dense(planned, make(1e-310), ones, 0.0);
    EXPECT_FALSE(planned.valid());
    EXPECT_TRUE(planned.non_finite());
    EXPECT_EQ(planned.miss_count(), 1u);
    expect_matches_dense(planned, make(2.0), ones, 0.0);
    EXPECT_EQ(planned.replay_count(), 1u);
  }

  // A -0.0 in b sits outside the planned solve's exactness argument and
  // must still give the dense bits.
  LuFactorization lu;
  const Vector b{-0.0, 1.0, -0.0, 2.0};
  for (double t : {3.0, 2.0, 2.5}) expect_matches_dense(lu, flip_matrix(t), b);
  EXPECT_EQ(lu.replay_count(), 2u);
}

TEST(PlannedLu, OneFactorizationReusedAcrossCircuitsOfOneSize) {
  std::mt19937 rng(77);
  const std::size_t n = 24;
  const auto first = mna_stamps(n, rng);
  const auto second = mna_stamps(n, rng);
  Vector base1(first.size()), base2(second.size());
  std::uniform_real_distribution<double> u(0.5, 2.0);
  for (double& v : base1) v = u(rng);
  for (double& v : base2) v = u(rng);
  LuFactorization lu;
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    expect_matches_dense(lu, mna_matrix(n, first, base1, 1e-4, rng),
                         random_vector(n, rng));
    expect_matches_dense(lu, mna_matrix(n, first, base1, 1e-4, rng),
                         random_vector(n, rng));
    expect_matches_dense(lu, mna_matrix(n, second, base2, 1e-4, rng),
                         random_vector(n, rng));
    // A dense factorization of another size in between must not disturb
    // the next CSR factorization.
    ASSERT_TRUE(lu.factorize(DenseMatrix::identity(5)));
    EXPECT_EQ(lu.solve({1, 2, 3, 4, 5}), (Vector{1, 2, 3, 4, 5}));
  }
  // Every switch of pattern replans; the repeat of a pattern replays.
  EXPECT_EQ(lu.plan_count(), 6u);
  EXPECT_EQ(lu.miss_count(), 0u);
  EXPECT_EQ(lu.replay_count(), 3u);
}

TEST(SolveSparse, PicksPathByDimension) {
  SparseBuilder b(2);
  b.add(0, 0, 2.0);
  b.add(1, 1, 4.0);
  const auto x = solve_sparse(CsrMatrix(b), {2.0, 8.0});
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 1.0, 1e-12);
  EXPECT_NEAR((*x)[1], 2.0, 1e-12);
}

}  // namespace
}  // namespace nvsram::linalg
