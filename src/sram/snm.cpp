#include "sram/snm.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "spice/dc.h"
#include "spice/elements.h"
#include "util/stats.h"

namespace nvsram::sram {

std::vector<std::pair<double, double>> inverter_vtc(
    const models::PaperParams& pp, CellKind kind, const SnmOptions& opts) {
  const double vdd = opts.vvdd > 0.0 ? opts.vvdd : pp.vdd;

  spice::Circuit ckt;
  const auto n_in = ckt.node("in");
  const auto n_out = ckt.node("out");
  const auto n_vdd = ckt.node("vdd");

  auto* vin = ckt.add<spice::VSource>("Vin", n_in, spice::kGround,
                                      spice::SourceSpec::dc(0.0));
  ckt.add<spice::VSource>("Vdd", n_vdd, spice::kGround,
                          spice::SourceSpec::dc(vdd));
  auto vary = [&](const char* name, models::FinFETParams params) {
    if (opts.fet_vary) opts.fet_vary(name, params);
    return params;
  };
  spice::add_finfet(ckt, "pu", n_out, n_in, n_vdd,
                    vary("pu", pp.pmos(pp.fins_load)));
  spice::add_finfet(ckt, "pd", n_out, n_in, spice::kGround,
                    vary("pd", pp.nmos(pp.fins_driver)));

  if (opts.access_on) {
    const auto n_bl = ckt.node("bl");
    const auto n_wl = ckt.node("wl");
    ckt.add<spice::VSource>("Vbl", n_bl, spice::kGround,
                            spice::SourceSpec::dc(vdd));
    ckt.add<spice::VSource>("Vwl", n_wl, spice::kGround,
                            spice::SourceSpec::dc(vdd));
    spice::add_finfet(ckt, "ax", n_bl, n_wl, n_out,
                      vary("ax", pp.nmos(pp.fins_access)));
  }
  if (kind == CellKind::kNvSram) {
    // PS branch loading the output node: out -- FET(SR) -- Y -- MTJ -- CTRL.
    const auto n_y = ckt.node("y");
    const auto n_sr = ckt.node("sr");
    const auto n_ctrl = ckt.node("ctrl");
    ckt.add<spice::VSource>(
        "Vsr", n_sr, spice::kGround,
        spice::SourceSpec::dc(opts.ps_branch_connected ? pp.vsr : 0.0));
    ckt.add<spice::VSource>(
        "Vctrl", n_ctrl, spice::kGround,
        spice::SourceSpec::dc(opts.ps_branch_connected ? 0.0 : pp.vctrl_normal));
    spice::add_finfet(ckt, "ps", n_out, n_sr, n_y,
                      vary("ps", pp.nmos(pp.fins_ps)));
    ckt.add<spice::MTJElement>("mtj", n_ctrl, n_y, pp.mtj,
                               models::MtjState::kParallel);
  }

  const auto points = util::linspace(0.0, vdd, static_cast<std::size_t>(
                                                   std::max(opts.sweep_points, 3)));
  spice::DCSweep sweep(
      ckt, [vin](double v) { vin->set_spec(spice::SourceSpec::dc(v)); }, points,
      {spice::Probe::node_voltage(n_out, "V(out)")});
  const auto wave = sweep.run();

  std::vector<std::pair<double, double>> vtc;
  vtc.reserve(points.size());
  const auto& out = wave.series("V(out)");
  for (std::size_t i = 0; i < points.size(); ++i) {
    vtc.emplace_back(points[i], out[i]);
  }
  return vtc;
}

namespace {

// One butterfly curve as knots with clamp-to-end extension, plus each knot's
// level y - x.  The square search runs in level space, where both curves of
// a lobe must strictly decrease.
struct Knots {
  std::vector<double> x, y, level;

  std::size_t size() const { return x.size(); }

  // The abscissa where the level equals `l`, given the visited knots end at
  // `next`: level[next - 1] >= l >= level[next].  Beyond either end the
  // clamped curve is flat, so its level runs with slope -1.
  double abscissa(std::size_t next, double l) const {
    if (next == 0) return y.front() - l;
    if (next == size()) return y.back() - l;
    const double t = (l - level[next - 1]) / (level[next] - level[next - 1]);
    return x[next - 1] + t * (x[next] - x[next - 1]);
  }
};

// Fills in the levels and checks that they strictly decrease.
Knots with_levels(std::vector<double> x, std::vector<double> y,
                  const char* what) {
  Knots k{std::move(x), std::move(y), {}};
  k.level.reserve(k.size());
  for (std::size_t i = 0; i < k.size(); ++i) {
    k.level.push_back(k.y[i] - k.x[i]);
    if (i > 0 && !(k.level[i] < k.level[i - 1])) {
      throw std::invalid_argument(std::string("compute_snm: ") + what +
                                  " at x = " + std::to_string(k.x[i]));
    }
  }
  return k;
}

// f: vout(vin) on an increasing vin grid.  Every segment must have slope
// < 1, which every inverter VTC has by a wide margin.
Knots forward_curve(const std::vector<std::pair<double, double>>& vtc) {
  std::vector<double> xs, ys;
  xs.reserve(vtc.size());
  ys.reserve(vtc.size());
  for (const auto& [x, y] : vtc) {
    if (!xs.empty() && !(x > xs.back())) {
      throw std::invalid_argument("compute_snm: vin not strictly increasing");
    }
    xs.push_back(x);
    ys.push_back(y);
  }
  return with_levels(std::move(xs), std::move(ys), "VTC segment slope >= 1");
}

// f_inv: the mirrored curve x(vout).  A VTC is monotone non-increasing;
// reverse the samples (and nudge exact plateaus) for an increasing axis.
// The result strictly decreases by construction.
Knots inverse_curve(const std::vector<std::pair<double, double>>& vtc) {
  std::vector<double> xi, yi;
  xi.reserve(vtc.size());
  yi.reserve(vtc.size());
  for (auto it = vtc.rbegin(); it != vtc.rend(); ++it) {
    double w = it->second;  // vout becomes the abscissa
    if (!xi.empty() && w <= xi.back()) w = xi.back() + 1e-12;
    xi.push_back(w);
    yi.push_back(it->first);
  }
  return with_levels(std::move(xi), std::move(yi),
                     "mirrored VTC not strictly decreasing");
}

// Largest axis-aligned square inscribed in the lobe bounded above by y=f(x)
// and below by y = g(x), with its horizontal extent inside [x_lo, x_hi].
// Both curves decrease, so for a square spanning [u, v = u + s] the top
// edge binds at the right end and the bottom edge at the left: a side-s
// square fits iff f(v) - g(u) >= s, i.e. F(v) >= G(u) with F(v) = f(v) - v
// and G(u) = g(u) - u.  F and G strictly decrease, so the widest square at
// u ends at v = min(F^-1(G(u)), x_hi) and
//     s*(u) = min(F^-1(G(u)), x_hi) - u.
// Parametrized by the level l = G(u) = F(v), both u and v are linear in l
// between consecutive knot levels of either curve (and run with slope 1
// beyond all of them), so s* is piecewise linear along that path.  Its
// maximum over u >= x_lo lies on a path vertex, at u = x_lo, or at
// v = x_hi.  One merge of the two descending level lists visits every
// vertex with a monotone cursor per curve: O(n + m) and exact up to
// rounding.  This is the axis-aligned form of Seevinck's 45-degree
// rotated-frame construction (Seevinck, List & Lohstroh, JSSC 1987).
// Squares narrower than 1e-9 V read as 0.
double largest_square(const Knots& f, const Knots& g, double x_lo,
                      double x_hi) {
  double best = 0.0;
  const auto consider = [&](double u, double v) {
    if (u >= x_lo) best = std::max(best, std::min(v, x_hi) - u);
  };
  // Path vertices arrive with u and v non-decreasing; between vertices the
  // path is straight, so crossings of u = x_lo and v = x_hi interpolate.
  // The previous vertex starts at +inf, so the first vertex has no incoming
  // segment: the slope-1 tail before it adds nothing, because that vertex
  // lies at or left of f's first knot (v <= x_hi) and s* is constant along
  // the tail.
  double pu = std::numeric_limits<double>::infinity();
  double pv = pu;
  const auto visit = [&](double u, double v) {
    if (pu < x_lo && x_lo <= u) {
      consider(x_lo, pv + (x_lo - pu) * (v - pv) / (u - pu));
    }
    if (pv < x_hi && x_hi <= v) {
      consider(pu + (x_hi - pv) * (u - pu) / (v - pv), x_hi);
    }
    consider(u, v);
    pu = u;
    pv = v;
  };
  std::size_t i = 0;  // next knot of f in level order
  std::size_t j = 0;  // next knot of g
  while (i < f.size() || j < g.size()) {
    if (j < g.size() && (i == f.size() || g.level[j] >= f.level[i])) {
      visit(g.x[j], f.abscissa(i, g.level[j]));
      ++j;
    } else {
      visit(g.abscissa(j, f.level[i]), f.x[i]);
      ++i;
    }
  }
  // The slope-1 tail after the last vertex, up to u = x_hi: it matters when
  // every vertex lies left of x_lo.
  if (pu < x_hi) visit(x_hi, pv + (x_hi - pu));
  return best >= 1e-9 ? best : 0.0;
}

}  // namespace

SnmResult compute_snm(const std::vector<std::pair<double, double>>& vtc) {
  return compute_snm(vtc, vtc);
}

SnmResult compute_snm(const std::vector<std::pair<double, double>>& vtc_a,
                      const std::vector<std::pair<double, double>>& vtc_b) {
  if (vtc_a.size() < 3 || vtc_b.size() < 3) {
    throw std::invalid_argument("compute_snm: too few points");
  }
  const auto fa = forward_curve(vtc_a);
  const auto fb = forward_curve(vtc_b);
  const auto fa_inv = inverse_curve(vtc_a);
  const auto fb_inv = inverse_curve(vtc_b);

  const double x_lo = std::min(vtc_a.front().first, vtc_b.front().first);
  const double x_hi = std::max(vtc_a.back().first, vtc_b.back().first);
  SnmResult r;
  // Upper-left lobe: curve A above the mirror of B.
  r.lobe_high = largest_square(fa, fb_inv, x_lo, x_hi);
  // Lower-right lobe: the mirror of B above curve A.  Reflecting the
  // butterfly about y = x maps it onto the upper-left lobe of the swapped
  // pair (B above the mirror of A) and keeps every square a square, so it is
  // computed there: swapping A and B then swaps the lobes bit for bit.  The
  // [x_lo, x_hi] bound then limits the square's vertical extent, which no
  // inverter lobe reaches.
  r.lobe_low = largest_square(fb, fa_inv, x_lo, x_hi);
  r.snm = std::min(r.lobe_high, r.lobe_low);
  return r;
}

SnmResult hold_snm(const models::PaperParams& pp, CellKind kind, double vvdd) {
  SnmOptions opts;
  opts.vvdd = vvdd;
  return compute_snm(inverter_vtc(pp, kind, opts));
}

SnmResult read_snm(const models::PaperParams& pp, CellKind kind) {
  SnmOptions opts;
  opts.access_on = true;
  return compute_snm(inverter_vtc(pp, kind, opts));
}

}  // namespace nvsram::sram
