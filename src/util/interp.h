// Piecewise-linear interpolation over sampled curves.
//
// Used for PWL source evaluation and for extracting crossings/intersections
// from simulated sweeps (e.g. the BET from two E_cyc(t_SD) series).
#pragma once

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
  std::vector<double> xs_;
  std::vector<double> ys_;
};

// Trapezoidal integral of samples (xs strictly increasing).
double trapezoid_integral(const std::vector<double>& xs,
                          const std::vector<double>& ys);

}  // namespace nvsram::util
