#include "spice/newton.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>

#include "linalg/lu.h"
#include "linalg/sparse_lu.h"
#include "linalg/structure.h"
#include "spice/fet_element.h"
#include "spice/mtj_element.h"
#include "util/log.h"

namespace nvsram::spice {

NewtonOptions NewtonOptions::relaxed(int attempt) const {
  NewtonOptions r = *this;
  if (attempt <= 0) return r;
  // One shared ladder for every retry loop: each attempt loosens the
  // convergence budget 10x (floored at loose-but-sane values), doubles the
  // iteration budget, and raises gmin to tame near-singular bias points.
  const double scale = std::pow(10.0, attempt);
  r.reltol = std::min(reltol * scale, 1e-2);
  r.abstol_v = std::min(abstol_v * scale, 1e-4);
  r.abstol_i = std::min(abstol_i * scale, 1e-7);
  r.gmin = std::min(gmin * scale, 1e-9);
  r.max_iterations = max_iterations * (attempt + 1);
  return r;
}

std::string unknown_name(const Circuit& circuit, const MnaLayout& layout,
                         std::size_t index) {
  if (index < layout.node_count() - 1) return circuit.node_name(index + 1);
  return "branch[" + std::to_string(index - (layout.node_count() - 1)) + "]";
}

namespace {

constexpr std::size_t kNpos = std::numeric_limits<std::size_t>::max();

// Scans `v` for the first non-finite entry; returns its index or npos.
std::size_t first_non_finite(const linalg::Vector& v) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (!std::isfinite(v[i])) return i;
  }
  return kNpos;
}

// Dense-path linear solve of one Newton iteration, shared by solve_newton
// and BatchedNewton: assembles `builder` through the workspace's plan,
// scatters it into the persistent dense matrix, factorizes and solves into
// ws.solution without allocating.  On a factorization failure it records
// the failed pivot and either the non-finite site or the structural verdict
// in `diag`, and returns false.
bool solve_dense(const linalg::SparseBuilder& builder,
                 const linalg::Vector& rhs, NewtonWorkspace& ws,
                 SolveDiagnostics& diag) {
  const std::size_t n = builder.dimension();
  ws.assembler.assemble(builder, ws.matrix);
  ws.matrix.to_dense_into(ws.dense);
  if (ws.dense_lu.factorize(ws.dense)) {
    ws.dense_lu.solve_into(rhs, ws.solution);
    diag.structure = StructuralVerdict::kSound;
    return true;
  }
  diag.singular_pivot = ws.dense_lu.failed_pivot();
  if (ws.dense_lu.non_finite()) {
    diag.non_finite = NonFiniteSite::kFactor;
  } else {
    // A full-pivot-search failure: ask whether the pattern itself can ever
    // be nonsingular, so the diagnosis points at topology or at values, not
    // just "singular".
    const auto pattern =
        linalg::SparsityPattern::from_triplets(n, builder.triplets());
    diag.structure = linalg::maximum_matching(pattern).perfect(n)
                         ? StructuralVerdict::kSound
                         : StructuralVerdict::kSingular;
  }
  return false;
}

// Convergence check on the raw update `solved` against the iterate `x`;
// tracks the worst offender (by how far it exceeds its tolerance budget)
// for diagnostics.  worst_index stays npos when every update is exact.
struct UpdateCheck {
  bool converged = true;
  std::size_t worst_index = kNpos;
  double worst_delta = 0.0;
  double worst_tol = 0.0;
};

UpdateCheck check_update(const linalg::Vector& solved, const linalg::Vector& x,
                         const NewtonOptions& opts, std::size_t node_unknowns) {
  UpdateCheck c;
  double worst_ratio = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double delta = std::fabs(solved[i] - x[i]);
    const double abstol = (i < node_unknowns) ? opts.abstol_v : opts.abstol_i;
    const double tol =
        abstol + opts.reltol * std::max(std::fabs(solved[i]), std::fabs(x[i]));
    if (delta > tol) c.converged = false;
    const double ratio = tol > 0.0 ? delta / tol : 0.0;
    if (ratio > worst_ratio) {
      worst_ratio = ratio;
      c.worst_index = i;
      c.worst_delta = delta;
      c.worst_tol = tol;
    }
  }
  return c;
}

// Damped update: limit node-voltage moves to keep the exponential models
// inside their linear-ish region.
void apply_damped_update(const linalg::Vector& solved, linalg::Vector& x,
                         const NewtonOptions& opts, std::size_t node_unknowns) {
  for (std::size_t i = 0; i < x.size(); ++i) {
    double next = solved[i];
    if (i < node_unknowns) {
      const double delta = next - x[i];
      if (delta > opts.voltage_limit) next = x[i] + opts.voltage_limit;
      if (delta < -opts.voltage_limit) next = x[i] - opts.voltage_limit;
    }
    x[i] = next;
  }
}

// Finalizes a failed factorization: singular unless a non-finite factor
// caused it; the failed pivot, when known, names the worst unknown.
void report_failed_solve(NewtonResult& result, const Circuit& circuit,
                         const MnaLayout& layout, double time) {
  SolveDiagnostics& diag = result.diagnostics;
  result.singular = diag.non_finite == NonFiniteSite::kNone;
  diag.singular = result.singular;
  if (diag.singular_pivot != SolveDiagnostics::kNoPivot) {
    diag.worst_node = unknown_name(circuit, layout, diag.singular_pivot);
  }
  util::log_warn() << "newton: "
                   << (diag.singular ? "singular system"
                                     : "non-finite LU factor")
                   << " at t=" << time
                   << " (structure=" << to_string(diag.structure) << ")";
}

}  // namespace

NewtonResult solve_newton(Circuit& circuit, const MnaLayout& layout,
                          linalg::Vector& x, double time, double dt, bool dc,
                          IntegrationMethod method, const NewtonOptions& opts,
                          NewtonWorkspace* ws) {
  const std::size_t n = layout.unknown_count();
  const std::size_t node_unknowns = layout.node_count() - 1;
  x.resize(n, 0.0);

  // Without a caller workspace the same code runs on a local one.
  std::optional<NewtonWorkspace> local;
  NewtonWorkspace& w = ws ? *ws : local.emplace();
  linalg::SparseBuilder& builder = w.builder;
  linalg::Vector& rhs = w.rhs;
  const linalg::Vector& solved = w.solution;
  builder.resize(n);
  rhs.resize(n);

  NewtonResult result;
  SolveDiagnostics& diag = result.diagnostics;
  diag.time = time;
  diag.last_dt = dt;

  // The worst unknown of the last iteration that recorded one is named only
  // when the solve returns; a culprit unknown (non-finite RHS or solution,
  // failed pivot) takes the name instead.
  std::size_t worst_seen = kNpos;
  auto name_worst = [&] {
    if (worst_seen != kNpos) {
      diag.worst_node = unknown_name(circuit, layout, worst_seen);
    }
  };

  FaultPlan* faults = circuit.fault_plan();
  const int solve_index = faults ? faults->begin_solve() : 0;

  // Injected hard singularity: report it exactly like a real one.
  if (faults && faults->fires(FaultKind::kSingular, solve_index)) {
    result.singular = true;
    diag.singular = true;
    diag.injected = true;
    util::log_warn() << "newton: injected singular fault at solve "
                     << solve_index << " (t=" << time << ")";
    return result;
  }
  const bool stalled =
      faults && faults->fires(FaultKind::kStall, solve_index);

  for (int iter = 1; iter <= opts.max_iterations; ++iter) {
    result.iterations = iter;
    diag.iterations = iter;
    builder.clear();
    std::fill(rhs.begin(), rhs.end(), 0.0);

    StampContext ctx(layout, x, builder, rhs, time, dt, dc, method,
                     opts.source_scale);
    bool first_device = true;
    for (const auto& dev : circuit.devices()) {
      const std::size_t mark = builder.triplets().size();
      dev->stamp(ctx);
      if (faults) {
        if (const FaultSpec* f =
                faults->stamp_fault(solve_index, dev->name(), first_device)) {
          (void)f;
          builder.add(0, 0, std::numeric_limits<double>::quiet_NaN());
          diag.injected = true;
        }
      }
      // Non-finite stamp guard: check only this device's new entries so the
      // culprit is attributed by name.
      const auto& trips = builder.triplets();
      for (std::size_t i = mark; i < trips.size(); ++i) {
        if (!std::isfinite(trips[i].value)) {
          diag.non_finite = NonFiniteSite::kStamp;
          diag.non_finite_device = dev->name();
          name_worst();
          util::log_warn() << "newton: non-finite stamp from device '"
                           << dev->name() << "' at t=" << time;
          return result;
        }
      }
      first_device = false;
    }
    if (const std::size_t bad = first_non_finite(rhs); bad != kNpos) {
      diag.non_finite = NonFiniteSite::kRhs;
      diag.worst_node = unknown_name(circuit, layout, bad);
      util::log_warn() << "newton: non-finite RHS at '" << diag.worst_node
                       << "', t=" << time;
      return result;
    }
    // gmin from every node to ground: keeps floating nodes and cut-off FET
    // stacks numerically nonsingular.
    for (std::size_t i = 0; i < node_unknowns; ++i) {
      builder.add(i, i, opts.gmin);
    }

    bool ok = false;
    if (n <= linalg::kDenseCutoff) {
      ok = solve_dense(builder, rhs, w, diag);
    } else {
      // Sparse path: KLU-style analyze (symbolic, pattern-only) + refactor
      // (numeric).  A caller-provided workspace keeps the analysis across
      // solves; without one a local analysis gives bit-identical numerics.
      w.assembler.assemble(builder, w.matrix);
      const linalg::CsrMatrix& a = w.matrix;
      linalg::SparseLu& lu = w.sparse_lu;
      bool analyzed = lu.analyzed() && lu.pattern_matches(a);
      if (!analyzed) {
        analyzed = lu.analyze(a);
        if (analyzed) w.analyze_count++;
      }
      if (analyzed) {
        diag.structure = StructuralVerdict::kSound;
        ok = lu.refactor(a);
        w.refactor_count++;
        if (!ok && !lu.non_finite()) {
          // Numeric failure of the fixed matching-based pivot order; the
          // threshold-pivoting one-shot factorization may still succeed.
          ok = lu.factorize(a);
          w.fallback_count++;
        }
      } else {
        diag.structure = StructuralVerdict::kSingular;
      }
      if (ok) {
        w.solution = lu.solve(rhs);
      } else {
        diag.singular_pivot = lu.failed_pivot();
        if (lu.non_finite()) diag.non_finite = NonFiniteSite::kFactor;
      }
    }
    if (!ok) {
      if (diag.singular_pivot == SolveDiagnostics::kNoPivot) name_worst();
      report_failed_solve(result, circuit, layout, time);
      return result;
    }
    if (const std::size_t bad = first_non_finite(solved); bad != kNpos) {
      diag.non_finite = NonFiniteSite::kSolution;
      diag.worst_node = unknown_name(circuit, layout, bad);
      util::log_warn() << "newton: non-finite solution at '" << diag.worst_node
                       << "', t=" << time;
      return result;
    }

    const UpdateCheck check = check_update(solved, x, opts, node_unknowns);
    if (check.worst_index != kNpos) {
      worst_seen = check.worst_index;
      diag.worst_delta = check.worst_delta;
      diag.worst_tol = check.worst_tol;
    }
    if (check.converged && !stalled) {
      x.swap(w.solution);
      result.converged = true;
      diag.converged = true;
      name_worst();
      return result;
    }
    apply_damped_update(solved, x, opts, node_unknowns);
  }
  if (stalled) diag.injected = true;
  name_worst();
  return result;
}

NewtonResult solve_newton_with_recovery(Circuit& circuit,
                                        const MnaLayout& layout,
                                        linalg::Vector& x, double time,
                                        double dt, bool dc,
                                        IntegrationMethod method,
                                        const NewtonOptions& opts,
                                        const RecoveryOptions& recovery,
                                        const util::Deadline* deadline,
                                        NewtonWorkspace* ws) {
  const linalg::Vector x0 = x;

  NewtonResult plain =
      solve_newton(circuit, layout, x, time, dt, dc, method, opts, ws);
  if (plain.converged) return plain;
  if (deadline) deadline->check("recovery ladder");

  // ---- stage 1: gmin ramp ----
  // Solve a heavily loaded (gmin_start to ground everywhere) system, then
  // relax the loading rung by rung, warm-starting each rung from the last.
  if (recovery.gmin_ramp) {
    linalg::Vector attempt = x0;
    NewtonOptions rung_opts = opts;
    bool ladder_ok = true;
    NewtonResult rung;
    for (double g = recovery.gmin_start; g >= recovery.gmin_stop * 0.99;
         g /= recovery.gmin_factor) {
      if (deadline) deadline->check("recovery ladder (gmin ramp)");
      rung_opts.gmin = std::max(g, opts.gmin);
      rung = solve_newton(circuit, layout, attempt, time, dt, dc, method,
                          rung_opts, ws);
      plain.iterations += rung.iterations;
      if (!rung.converged) {
        ladder_ok = false;
        break;
      }
    }
    if (ladder_ok) {
      rung_opts.gmin = opts.gmin;
      rung = solve_newton(circuit, layout, attempt, time, dt, dc, method,
                          rung_opts, ws);
      plain.iterations += rung.iterations;
      if (rung.converged) {
        x = std::move(attempt);
        rung.iterations = plain.iterations;
        rung.diagnostics.stage = RecoveryStage::kGminRamp;
        return rung;
      }
    }
  }

  // ---- stage 2: source ramp ----
  // Ramp every independent source from zero (DC) or from the entry scale's
  // fraction (transient salvage) up to the requested scale.
  if (recovery.source_ramp && recovery.source_steps > 0) {
    linalg::Vector attempt =
        recovery.source_ramp_from_zero ? linalg::Vector(x0.size(), 0.0) : x0;
    NewtonOptions ramp_opts = opts;
    bool ramp_ok = true;
    NewtonResult rung;
    for (int s = 1; s <= recovery.source_steps; ++s) {
      if (deadline) deadline->check("recovery ladder (source ramp)");
      ramp_opts.source_scale = opts.source_scale * static_cast<double>(s) /
                               static_cast<double>(recovery.source_steps);
      rung = solve_newton(circuit, layout, attempt, time, dt, dc, method,
                          ramp_opts, ws);
      plain.iterations += rung.iterations;
      if (!rung.converged) {
        util::log_warn() << "newton: source ramp failed at scale "
                         << ramp_opts.source_scale << " (t=" << time << ")";
        ramp_ok = false;
        break;
      }
    }
    if (ramp_ok) {
      x = std::move(attempt);
      rung.iterations = plain.iterations;
      rung.diagnostics.stage = RecoveryStage::kSourceRamp;
      return rung;
    }
  }

  plain.diagnostics.stage = RecoveryStage::kExhausted;
  x = x0;
  return plain;
}

// ---------------------------------------------------------------------------
// BatchedNewton
// ---------------------------------------------------------------------------

BatchedNewton::BatchedNewton(std::vector<Circuit*> circuits,
                             std::vector<const MnaLayout*> layouts)
    : circuits_(std::move(circuits)), layouts_(std::move(layouts)) {
  const std::size_t k = circuits_.size();
  if (k == 0 || k != layouts_.size()) {
    throw std::invalid_argument("BatchedNewton: empty or misaligned batch");
  }
  if (k > kMaxBatchLanes) {
    throw std::invalid_argument("BatchedNewton: more than kMaxBatchLanes lanes");
  }
  n_ = layouts_[0]->unknown_count();
  node_unknowns_ = layouts_[0]->node_count() - 1;
  const std::size_t devices = circuits_[0]->devices().size();
  for (std::size_t l = 1; l < k; ++l) {
    if (layouts_[l]->unknown_count() != n_ ||
        layouts_[l]->node_count() != layouts_[0]->node_count() ||
        circuits_[l]->devices().size() != devices) {
      throw std::invalid_argument("BatchedNewton: lanes are not clones");
    }
  }
  build_groups();
  lane_ws_.resize(k);
  for (NewtonWorkspace& w : lane_ws_) {
    w.builder.resize(n_);
    w.rhs.assign(n_, 0.0);
  }
}

void BatchedNewton::build_groups() {
  const std::size_t k = circuits_.size();
  const std::size_t devices = circuits_[0]->devices().size();
  groups_.clear();
  groups_.reserve(devices);
  for (std::size_t i = 0; i < devices; ++i) {
    DeviceGroup grp;
    grp.index = i;
    grp.fets.assign(k, nullptr);
    grp.mtjs.assign(k, nullptr);
    bool all_fet = true, all_mtj = true;
    for (std::size_t l = 0; l < k; ++l) {
      Device* dev = circuits_[l]->devices()[i].get();
      grp.fets[l] = dynamic_cast<FinFETElement*>(dev);
      grp.mtjs[l] = dynamic_cast<MTJElement*>(dev);
      all_fet = all_fet && grp.fets[l] != nullptr;
      all_mtj = all_mtj && grp.mtjs[l] != nullptr;
    }
    // Lane-parallel stamping additionally requires identical terminals
    // (always true for clones; anything else falls back to scalar).
    if (all_fet) {
      for (std::size_t l = 1; l < k && all_fet; ++l) {
        all_fet = grp.fets[l]->drain() == grp.fets[0]->drain() &&
                  grp.fets[l]->gate() == grp.fets[0]->gate() &&
                  grp.fets[l]->source() == grp.fets[0]->source();
      }
    }
    if (all_mtj) {
      for (std::size_t l = 1; l < k && all_mtj; ++l) {
        all_mtj = grp.mtjs[l]->pinned_node() == grp.mtjs[0]->pinned_node() &&
                  grp.mtjs[l]->free_node() == grp.mtjs[0]->free_node();
      }
    }
    grp.kind = all_fet   ? DeviceGroup::Kind::kFinFET
               : all_mtj ? DeviceGroup::Kind::kMtj
                         : DeviceGroup::Kind::kScalar;
    if (grp.kind != DeviceGroup::Kind::kFinFET) grp.fets.clear();
    if (grp.kind != DeviceGroup::Kind::kMtj) grp.mtjs.clear();
    groups_.push_back(std::move(grp));
  }
}

void BatchedNewton::peel_lane(std::size_t lane,
                              std::vector<NewtonResult>& results,
                              const std::vector<linalg::Vector*>& xs,
                              const linalg::Vector& x0, double time, double dt,
                              bool dc, IntegrationMethod method,
                              const NewtonOptions& opts) {
  // Restart the scalar path from the lane's entry iterate: Newton is
  // deterministic, so the scalar rerun retraces the lockstep trajectory
  // exactly and continues it wherever the batch could not.  The lane's own
  // workspace keeps a scalar fallback factorize() from clobbering the
  // shared analysis.
  ++peel_count_;
  *xs[lane] = x0;
  results[lane] = solve_newton(*circuits_[lane], *layouts_[lane], *xs[lane],
                               time, dt, dc, method, opts, &lane_ws_[lane]);
}

std::vector<NewtonResult> BatchedNewton::solve(
    const std::vector<linalg::Vector*>& xs, double time, double dt, bool dc,
    IntegrationMethod method, const NewtonOptions& opts) {
  const std::size_t k = circuits_.size();
  if (xs.size() != k) {
    throw std::invalid_argument("BatchedNewton::solve: iterate count");
  }
  std::vector<NewtonResult> results(k);

  // Entry iterates, saved pre-resize so a peeled lane restarts from exactly
  // what the scalar path would have seen.
  std::vector<linalg::Vector> x0(k);
  for (std::size_t l = 0; l < k; ++l) x0[l] = *xs[l];

  // Lanes carrying a fault plan run scalar from the start: per-point
  // begin_solve() accounting and injected diagnostics cannot be batched.
  std::vector<std::size_t> active;
  active.reserve(k);
  for (std::size_t l = 0; l < k; ++l) {
    if (circuits_[l]->fault_plan() != nullptr) {
      peel_lane(l, results, xs, x0[l], time, dt, dc, method, opts);
    } else {
      xs[l]->resize(n_, 0.0);
      results[l].diagnostics.time = time;
      results[l].diagnostics.last_dt = dt;
      active.push_back(l);
    }
  }

  std::vector<StampContext> ctxs;
  ctxs.reserve(k);
  StampContext* ctx_ptrs[kMaxBatchLanes];
  FinFETElement* fet_lanes[kMaxBatchLanes];
  MTJElement* mtj_lanes[kMaxBatchLanes];
  const linalg::CsrMatrix* mat_lanes[kMaxBatchLanes];
  const linalg::Vector* rhs_lanes[kMaxBatchLanes];
  std::size_t marks[kMaxBatchLanes];
  std::vector<std::size_t> next_active;
  next_active.reserve(k);

  for (int iter = 1; iter <= opts.max_iterations && !active.empty(); ++iter) {
    ++lockstep_iterations_;
    lane_iterations_ += active.size();
    const std::size_t nact = active.size();

    ctxs.clear();
    for (std::size_t a = 0; a < nact; ++a) {
      const std::size_t l = active[a];
      results[l].iterations = iter;
      results[l].diagnostics.iterations = iter;
      NewtonWorkspace& w = lane_ws_[l];
      w.builder.clear();
      std::fill(w.rhs.begin(), w.rhs.end(), 0.0);
      ctxs.emplace_back(*layouts_[l], *xs[l], w.builder, w.rhs, time, dt, dc,
                        method, opts.source_scale);
      ctx_ptrs[a] = &ctxs[a];
    }
    StampBatch batch(ctx_ptrs, nact);

    // `done[a]` marks a lane whose result finalized mid-iteration (the
    // scalar path would have returned); its devices stop stamping — device
    // stamp() may mutate scratch state — and it drops from `active` below.
    bool done[kMaxBatchLanes] = {};

    // ---- stamping, device by device across all lanes ----
    for (const DeviceGroup& grp : groups_) {
      for (std::size_t a = 0; a < nact; ++a) {
        marks[a] = lane_ws_[active[a]].builder.triplets().size();
      }
      switch (grp.kind) {
        case DeviceGroup::Kind::kFinFET:
          for (std::size_t a = 0; a < nact; ++a) {
            fet_lanes[a] = grp.fets[active[a]];
          }
          stamp_finfet_lanes(fet_lanes, batch);
          break;
        case DeviceGroup::Kind::kMtj:
          for (std::size_t a = 0; a < nact; ++a) {
            mtj_lanes[a] = grp.mtjs[active[a]];
          }
          stamp_mtj_lanes(mtj_lanes, batch);
          break;
        case DeviceGroup::Kind::kScalar:
          for (std::size_t a = 0; a < nact; ++a) {
            if (done[a]) continue;
            circuits_[active[a]]->devices()[grp.index]->stamp(ctxs[a]);
          }
          break;
      }
      // Per-device non-finite stamp guard, per lane (same attribution as
      // the scalar path: first offending device wins).
      for (std::size_t a = 0; a < nact; ++a) {
        if (done[a]) continue;
        const std::size_t l = active[a];
        const auto& trips = lane_ws_[l].builder.triplets();
        for (std::size_t i = marks[a]; i < trips.size(); ++i) {
          if (!std::isfinite(trips[i].value)) {
            SolveDiagnostics& diag = results[l].diagnostics;
            diag.non_finite = NonFiniteSite::kStamp;
            diag.non_finite_device = circuits_[l]->devices()[grp.index]->name();
            util::log_warn() << "newton: non-finite stamp from device '"
                             << diag.non_finite_device << "' at t=" << time;
            done[a] = true;
            break;
          }
        }
      }
    }

    // ---- guards + linear solve per lane ----
    for (std::size_t a = 0; a < nact; ++a) {
      if (done[a]) continue;
      const std::size_t l = active[a];
      SolveDiagnostics& diag = results[l].diagnostics;
      if (const std::size_t bad = first_non_finite(lane_ws_[l].rhs);
          bad != kNpos) {
        diag.non_finite = NonFiniteSite::kRhs;
        diag.worst_node = unknown_name(*circuits_[l], *layouts_[l], bad);
        util::log_warn() << "newton: non-finite RHS at '" << diag.worst_node
                         << "', t=" << time;
        done[a] = true;
        continue;
      }
      for (std::size_t i = 0; i < node_unknowns_; ++i) {
        lane_ws_[l].builder.add(i, i, opts.gmin);
      }
    }

    // `solved[a]`: lane produced a solution vector this iteration.
    bool solved[kMaxBatchLanes] = {};
    if (n_ <= linalg::kDenseCutoff) {
      // Dense path: per-lane partial-pivot LU (pivot orders may diverge
      // between lanes), allocation-free via the lane's workspace.
      for (std::size_t a = 0; a < nact; ++a) {
        if (done[a]) continue;
        const std::size_t l = active[a];
        NewtonWorkspace& w = lane_ws_[l];
        solved[a] = solve_dense(w.builder, w.rhs, w, results[l].diagnostics);
      }
    } else {
      // Sparse path: one shared analysis, lockstep refactorization.  A lane
      // whose pattern diverges from lane 0's, or whose refactorization
      // fails (the scalar path would fall back to a full factorize), peels
      // off to the scalar path.
      std::size_t first = kNpos;
      for (std::size_t a = 0; a < nact; ++a) {
        if (done[a]) continue;
        NewtonWorkspace& w = lane_ws_[active[a]];
        w.assembler.assemble(w.builder, w.matrix);
        if (first == kNpos) first = a;
      }
      if (first != kNpos) {
        const linalg::CsrMatrix& a0 = lane_ws_[active[first]].matrix;
        bool analyzed = ws_.sparse_lu.analyzed() &&
                        ws_.sparse_lu.pattern_matches(a0);
        if (!analyzed) {
          analyzed = ws_.sparse_lu.analyze(a0);
          if (analyzed) ws_.analyze_count++;
        }
        // Lanes sharing the analyzed pattern factor in lockstep; the rest
        // peel.
        std::size_t batch_lanes[kMaxBatchLanes];
        std::size_t nbatch = 0;
        for (std::size_t a = 0; a < nact; ++a) {
          if (done[a]) continue;
          const std::size_t l = active[a];
          const bool matches =
              a == first || ws_.sparse_lu.pattern_matches(lane_ws_[l].matrix);
          if (!matches) {
            peel_lane(l, results, xs, x0[l], time, dt, dc, method, opts);
            done[a] = true;
            continue;
          }
          if (!analyzed) {
            // Structural singularity: the scalar verdict, per lane.
            SolveDiagnostics& diag = results[l].diagnostics;
            diag.structure = StructuralVerdict::kSingular;
            diag.singular_pivot = ws_.sparse_lu.failed_pivot();
            done[a] = true;
            report_failed_solve(results[l], *circuits_[l], *layouts_[l], time);
            continue;
          }
          results[l].diagnostics.structure = StructuralVerdict::kSound;
          batch_lanes[nbatch] = a;
          mat_lanes[nbatch] = &lane_ws_[l].matrix;
          ++nbatch;
        }
        if (nbatch > 0) {
          ws_.sparse_lu.refactor_lanes(mat_lanes, nbatch, lane_values_);
          ws_.refactor_count++;
          linalg::Vector* out_lanes[kMaxBatchLanes];
          for (std::size_t b = 0; b < nbatch; ++b) {
            const std::size_t a = batch_lanes[b];
            rhs_lanes[b] = &lane_ws_[active[a]].rhs;
            out_lanes[b] = &lane_ws_[active[a]].solution;
          }
          ws_.sparse_lu.solve_lanes(lane_values_, rhs_lanes, out_lanes);
          for (std::size_t b = 0; b < nbatch; ++b) {
            const std::size_t a = batch_lanes[b];
            if (lane_values_.valid(b)) {
              solved[a] = true;
            } else {
              peel_lane(active[a], results, xs, x0[active[a]], time, dt, dc,
                        method, opts);
              done[a] = true;
            }
          }
        }
      }
    }

    // ---- per-lane epilogue: guards, convergence, damping ----
    next_active.clear();
    for (std::size_t a = 0; a < nact; ++a) {
      if (done[a]) continue;
      const std::size_t l = active[a];
      SolveDiagnostics& diag = results[l].diagnostics;
      if (!solved[a]) {
        // Dense-path factorization failure (sparse failures peeled above).
        report_failed_solve(results[l], *circuits_[l], *layouts_[l], time);
        continue;
      }
      linalg::Vector& lane_solved = lane_ws_[l].solution;
      if (const std::size_t bad = first_non_finite(lane_solved); bad != kNpos) {
        diag.non_finite = NonFiniteSite::kSolution;
        diag.worst_node = unknown_name(*circuits_[l], *layouts_[l], bad);
        util::log_warn() << "newton: non-finite solution at '"
                         << diag.worst_node << "', t=" << time;
        continue;
      }

      linalg::Vector& x = *xs[l];
      const UpdateCheck check =
          check_update(lane_solved, x, opts, node_unknowns_);
      if (check.worst_index != kNpos) {
        diag.worst_node =
            unknown_name(*circuits_[l], *layouts_[l], check.worst_index);
        diag.worst_delta = check.worst_delta;
        diag.worst_tol = check.worst_tol;
      }
      if (check.converged) {
        x.swap(lane_solved);
        results[l].converged = true;
        diag.converged = true;
        continue;
      }
      apply_damped_update(lane_solved, x, opts, node_unknowns_);
      next_active.push_back(l);
    }
    active.swap(next_active);
  }
  return results;
}

std::vector<NewtonResult> BatchedNewton::solve_with_recovery(
    const std::vector<linalg::Vector*>& xs, double time, double dt, bool dc,
    IntegrationMethod method, const NewtonOptions& opts,
    const RecoveryOptions& recovery, const util::Deadline* deadline) {
  const std::size_t k = circuits_.size();
  if (xs.size() != k) {
    throw std::invalid_argument("BatchedNewton::solve_with_recovery: iterate count");
  }
  std::vector<linalg::Vector> x0(k);
  for (std::size_t l = 0; l < k; ++l) x0[l] = *xs[l];

  std::vector<NewtonResult> results =
      solve(xs, time, dt, dc, method, opts);
  for (std::size_t l = 0; l < k; ++l) {
    if (results[l].converged) continue;
    if (deadline) deadline->check("batched recovery ladder");
    // The full scalar ladder from the entry iterate: its internal plain
    // solve retraces the lockstep trajectory (identical failure), then the
    // gmin/source rungs run warm-started and per-lane as they must.
    ++peel_count_;
    *xs[l] = x0[l];
    results[l] = solve_newton_with_recovery(*circuits_[l], *layouts_[l],
                                            *xs[l], time, dt, dc, method, opts,
                                            recovery, deadline, &lane_ws_[l]);
  }
  return results;
}

}  // namespace nvsram::spice
