// Piecewise-linear interpolation over sampled curves.
//
// Used for PWL source evaluation and for extracting crossings/intersections
// from simulated sweeps (e.g. the BET from two E_cyc(t_SD) series).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace nvsram::util {

// A monotone-x piecewise-linear curve.
class PiecewiseLinear {
 public:
  PiecewiseLinear() = default;
  // `xs` must be strictly increasing and the same length as `ys`
  // (throws std::invalid_argument otherwise).
  PiecewiseLinear(std::vector<double> xs, std::vector<double> ys);

  // Evaluate with clamp-to-end extrapolation.
  double operator()(double x) const;

  // The same value as operator()(x), bit for bit, with the segment search
  // started from `segment`: a hint the caller keeps between calls (start it
  // at 0; operator()(x) is this call with no hint).  While queries do not
  // decrease the search walks forward from the hint, so a sorted sweep
  // costs amortized O(1) per point; a query below the hinted segment falls
  // back to a binary search.
  double operator()(double x, std::size_t& segment) const;

  // Evaluate with linear extrapolation beyond the ends.
  double extrapolate(double x) const;

  // First x in [x_begin, x_end] where the curve crosses `level`
  // (linear interpolation inside segments).
  std::optional<double> first_crossing(double level) const;

  // First x where (*this - other) changes sign; both curves are evaluated on
  // the union of their knots.
  std::optional<double> first_intersection(const PiecewiseLinear& other) const;

  std::size_t size() const { return xs_.size(); }
  bool empty() const { return xs_.empty(); }
  const std::vector<double>& xs() const { return xs_; }
  const std::vector<double>& ys() const { return ys_; }

 private:
  // Binary search for the segment of an interior x.  Kept out of line so
  // the inlined hinted lookup stays small.
  std::size_t find_segment(double x) const;

  std::vector<double> xs_;
  std::vector<double> ys_;
};

// Inline: the hinted lookup is the inner loop of the SNM square search.
inline double PiecewiseLinear::operator()(double x,
                                          std::size_t& segment) const {
  if (xs_.empty()) return 0.0;
  if (x <= xs_.front()) return ys_.front();
  if (x >= xs_.back()) return ys_.back();
  // Find i with xs_[i-1] <= x < xs_[i].
  std::size_t i = segment;
  if (i == 0 || i >= xs_.size() || x < xs_[i - 1]) {
    i = find_segment(x);
  } else {
    // x < xs_.back(), so the walk stops at the last segment at the latest.
    while (xs_[i] <= x) ++i;
  }
  segment = i;
  const double t = (x - xs_[i - 1]) / (xs_[i] - xs_[i - 1]);
  return ys_[i - 1] + t * (ys_[i] - ys_[i - 1]);
}

// Trapezoidal integral of samples (xs strictly increasing).
double trapezoid_integral(const std::vector<double>& xs,
                          const std::vector<double>& ys);

}  // namespace nvsram::util
