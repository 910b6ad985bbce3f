// Newton-Raphson solve of the nonlinear MNA system at one time point.
//
// Devices stamp linearized companions (SPICE convention), so each iteration
// solves A(x_k) x_{k+1} = b(x_k) directly.  Convergence requires the update
// to fall below abstol + reltol * |x| on every unknown, evaluated BEFORE
// step limiting so a limited iterate never reads as converged.
//
// Every solve carries non-finite guards: NaN/Inf in a device stamp, the
// assembled RHS, the LU factors, or the solution vector aborts the
// iteration cleanly and attributes the culprit in the returned
// SolveDiagnostics instead of propagating garbage iterates.
#pragma once

#include "linalg/dense.h"
#include "linalg/lu.h"
#include "linalg/sparse.h"
#include "linalg/sparse_lu.h"
#include "spice/circuit.h"
#include "spice/device.h"
#include "spice/diagnostics.h"
#include "util/watchdog.h"

namespace nvsram::spice {

struct NewtonOptions {
  int max_iterations = 120;
  double abstol_v = 1e-6;      // volts
  double abstol_i = 1e-9;      // amperes (branch unknowns)
  double reltol = 1e-3;
  double gmin = 1e-12;         // conductance added node -> ground
  double source_scale = 1.0;   // for source stepping
  double voltage_limit = 0.4;  // max per-iteration node-voltage update (V)

  // Shared relaxation ladder for retry loops (sweep runners, benches):
  // attempt 0 returns *this unchanged; each later attempt trades accuracy
  // for robustness the same way everywhere instead of per-bench schedules.
  NewtonOptions relaxed(int attempt) const;
};

// Per-analysis solver state that persists across Newton solves on one
// circuit.  Holds the SparseLu symbolic analysis so re-solves on an
// unchanged sparsity pattern skip the matching / ordering / symbolic
// factorization and go straight to numerics (KLU-style refactorization).
// The counters make the reuse observable in tests and benches.
//
// It also holds the per-iteration scratch, so a warm Newton iteration
// neither allocates nor sorts: the stamp builder and RHS, the builder ->
// CSR assembly plan (bit-identical to a fresh CsrMatrix by contract) and
// its matrix, and for the dense path the scattered matrix, its LU factors
// and the solution.  Reusing a workspace on a different circuit is safe:
// the plan replans when the stamp positions change.
struct NewtonWorkspace {
  linalg::SparseLu sparse_lu;
  std::size_t analyze_count = 0;   // symbolic analyses performed
  std::size_t refactor_count = 0;  // numeric-only refactorizations
  std::size_t fallback_count = 0;  // refactor pivot failures -> full factorize

  linalg::SparseBuilder builder;
  linalg::Vector rhs;
  linalg::CsrAssembler assembler;
  linalg::CsrMatrix matrix;
  linalg::DenseMatrix dense;
  linalg::LuFactorization dense_lu;
  linalg::Vector solution;
};

// Escalation ladder used when a plain solve fails: solve under heavy gmin
// loading and relax it rung by rung, then ramp the sources up from zero.
// Shared by the DC operating-point search and the transient mid-step
// salvage (where it runs after dt-halving bottoms out at dt_min).
struct RecoveryOptions {
  bool gmin_ramp = true;
  double gmin_start = 1e-2;
  double gmin_stop = 1e-12;
  double gmin_factor = 10.0;
  bool source_ramp = true;
  int source_steps = 25;
  // DC ramps sources from a zero vector; the transient salvage restarts
  // each rung from the last accepted timepoint instead.
  bool source_ramp_from_zero = true;
};

struct NewtonResult {
  bool converged = false;
  int iterations = 0;
  bool singular = false;
  SolveDiagnostics diagnostics;
};

// Name of an unknown for diagnostics: the node name for voltage unknowns,
// "branch[k]" for device branch currents.
std::string unknown_name(const Circuit& circuit, const MnaLayout& layout,
                         std::size_t index);

// Solves the system at (time, dt); `x` carries the initial guess in and the
// solution out.  `dc` selects the operating-point companion (capacitors
// open).  Branch unknown indices start at layout.node_count()-1.
// `ws` (optional) carries the symbolic LU analysis and the iteration
// scratch between solves; pass the same workspace for every solve on one
// circuit to reuse the analysis whenever the sparsity pattern is unchanged.
// Results are bit-identical with and without a workspace (without one the
// same code runs on a local workspace; a shared one only skips redundant
// symbolic work and allocations).
NewtonResult solve_newton(Circuit& circuit, const MnaLayout& layout,
                          linalg::Vector& x, double time, double dt, bool dc,
                          IntegrationMethod method, const NewtonOptions& opts,
                          NewtonWorkspace* ws = nullptr);

// solve_newton plus the recovery ladder: on failure escalates through
// gmin-ramping and source-ramping at the same timepoint.  On success the
// returned diagnostics record the stage that produced the solution; on
// failure the stage is kExhausted and the diagnostics describe the
// original (unrecovered) failure.  Iteration counts accumulate across all
// attempted rungs.
//
// `deadline` (optional) bounds the ladder's wall-clock time: it is checked
// between rungs/ramp steps and throws util::WatchdogError on expiry, so a
// pathological operating point cannot stall a characterization or sweep
// point indefinitely (DCOptions::max_wall_seconds and
// TranOptions::max_wall_seconds feed it).
NewtonResult solve_newton_with_recovery(Circuit& circuit,
                                        const MnaLayout& layout,
                                        linalg::Vector& x, double time,
                                        double dt, bool dc,
                                        IntegrationMethod method,
                                        const NewtonOptions& opts,
                                        const RecoveryOptions& recovery,
                                        const util::Deadline* deadline = nullptr,
                                        NewtonWorkspace* ws = nullptr);

class FinFETElement;
class MTJElement;

// K-lane lockstep Newton driver for batched parameter sweeps.
//
// Carries K parameter points — per-lane clones of one netlist with
// identical topology and device order, possibly different parameter values
// — through the Newton iteration in lockstep: devices stamp all lanes via
// the structure-of-arrays StampBatch path (lane-parallel FinFET/MTJ
// implementations; scalar per-lane stamping for everything else), one
// shared NewtonWorkspace holds the single symbolic SparseLu analysis, and
// SparseLu::refactor_lanes()/solve_lanes() redo the per-iteration numerics
// for all lanes over the shared scatter plan.
//
// Bit-identity contract: every lane's solution and diagnostics equal what a
// scalar solve_newton() on that lane alone would produce — except that
// quantities whose exact value is 0.0 may differ in the sign of the zero
// (see SparseLu::refactor_lanes()).  Anything that cannot be replicated in
// lockstep peels the lane off to the scalar path: lanes carrying a fault
// plan peel pre-emptively (so FaultPlan::begin_solve() counters and
// injected diagnostics stay per-point), and a lane whose batched
// refactorization fails (where the scalar path would fall back to a full
// factorize) or whose sparsity pattern diverges from the batch restarts
// scalar solve_newton() from its entry iterate — deterministic Newton
// retraces the identical trajectory, so peeling never changes a result.
class BatchedNewton {
 public:
  // `circuits[l]` / `layouts[l]`: lane l's clone of the netlist and its MNA
  // layout.  All lanes must agree on device count/order, node count and
  // unknown count.  Throws std::invalid_argument on an empty batch, more
  // than kMaxBatchLanes lanes, or misaligned lanes.
  BatchedNewton(std::vector<Circuit*> circuits,
                std::vector<const MnaLayout*> layouts);

  std::size_t lanes() const { return circuits_.size(); }

  // Lockstep counterpart of solve_newton(): xs[l] carries lane l's initial
  // guess in and its solution out.
  std::vector<NewtonResult> solve(const std::vector<linalg::Vector*>& xs,
                                  double time, double dt, bool dc,
                                  IntegrationMethod method,
                                  const NewtonOptions& opts);

  // Lockstep counterpart of solve_newton_with_recovery(): runs the batched
  // solve, then any lane that did not converge reruns the full scalar
  // recovery ladder from its entry iterate (the ladder's warm-started rungs
  // are inherently per-lane).  `deadline` is checked between lanes and
  // inside each ladder.
  std::vector<NewtonResult> solve_with_recovery(
      const std::vector<linalg::Vector*>& xs, double time, double dt, bool dc,
      IntegrationMethod method, const NewtonOptions& opts,
      const RecoveryOptions& recovery, const util::Deadline* deadline = nullptr);

  // The shared workspace (symbolic-analysis reuse observable via counters).
  const NewtonWorkspace& workspace() const { return ws_; }

  // Cumulative telemetry across solve() calls, for benches and tests:
  // lockstep iterations executed, lane-iterations summed over active lanes
  // (their ratio over lanes() is the lane occupancy), and lanes peeled off
  // to the scalar path.
  std::size_t lockstep_iterations() const { return lockstep_iterations_; }
  std::size_t lane_iterations() const { return lane_iterations_; }
  std::size_t peel_count() const { return peel_count_; }

 private:
  struct DeviceGroup {
    enum class Kind { kFinFET, kMtj, kScalar };
    Kind kind = Kind::kScalar;
    std::size_t index = 0;               // device index in every lane
    std::vector<FinFETElement*> fets;    // per-lane, kFinFET only
    std::vector<MTJElement*> mtjs;       // per-lane, kMtj only
  };

  void build_groups();
  void peel_lane(std::size_t lane, std::vector<NewtonResult>& results,
                 const std::vector<linalg::Vector*>& xs,
                 const linalg::Vector& x0, double time, double dt, bool dc,
                 IntegrationMethod method, const NewtonOptions& opts);

  std::vector<Circuit*> circuits_;
  std::vector<const MnaLayout*> layouts_;
  std::vector<DeviceGroup> groups_;
  std::size_t n_ = 0;
  std::size_t node_unknowns_ = 0;

  NewtonWorkspace ws_;                      // shared symbolic analysis
  // Per-lane workspaces: the lockstep iteration scratch (persistent, so the
  // hot loop never allocates) and the state of peeled scalar reruns.  A
  // peel only ever overwrites the scratch of the lane it finalizes.
  std::vector<NewtonWorkspace> lane_ws_;
  linalg::SparseLu::LaneValues lane_values_;

  std::size_t lockstep_iterations_ = 0;
  std::size_t lane_iterations_ = 0;
  std::size_t peel_count_ = 0;
};

}  // namespace nvsram::spice
