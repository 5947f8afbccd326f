// Unit and property tests for the LP subsystem: the LinearProgram model,
// the two-phase simplex, and the time-indexed flow LP.
//
// The simplex is differential-tested against brute-force vertex enumeration
// on random small LPs — every basic feasible point is enumerated by solving
// the linear systems of all constraint subsets, so the simplex optimum must
// match the best vertex exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "baselines/flow_lower_bounds.hpp"
#include "core/flow/rejection_flow.hpp"
#include "instance/builders.hpp"
#include "lp/flow_time_lp.hpp"
#include "lp/problem.hpp"
#include "lp/simplex.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"

namespace osched::lp {
namespace {

/// "<prefix><k>" built by appending: GCC 12 raises a false -Wrestrict on
/// `"literal" + std::to_string(k)`.
std::string label(const char* prefix, std::size_t k) {
  std::string name(prefix);
  name.append(std::to_string(k));
  return name;
}

// ------------------------------------------------------------ LinearProgram

TEST(LinearProgram, MergesDuplicateCoefficientsAndDropsZeros) {
  LinearProgram lp;
  const std::size_t x = lp.add_column("x", 1.0);
  const std::size_t y = lp.add_column("y", 1.0);
  lp.add_row("r", Sense::kLessEqual, 5.0,
             {{x, 2.0}, {y, 0.0}, {x, 3.0}});
  ASSERT_EQ(lp.row(0).coefficients.size(), 1u);
  EXPECT_EQ(lp.row(0).coefficients[0].column, x);
  EXPECT_DOUBLE_EQ(lp.row(0).coefficients[0].value, 5.0);
}

TEST(LinearProgram, ObjectiveValueAndViolation) {
  LinearProgram lp;
  const std::size_t x = lp.add_column("x", 2.0, 0.0, 10.0);
  const std::size_t y = lp.add_column("y", -1.0);
  lp.add_row("r1", Sense::kLessEqual, 4.0, {{x, 1.0}, {y, 1.0}});
  lp.add_row("r2", Sense::kGreaterEqual, 1.0, {{x, 1.0}});

  EXPECT_DOUBLE_EQ(lp.objective_value({2.0, 1.0}), 3.0);
  EXPECT_NEAR(lp.max_violation({2.0, 1.0}), 0.0, 1e-12);
  // r1 violated by 3.
  EXPECT_NEAR(lp.max_violation({3.0, 4.0}), 3.0, 1e-12);
  // r2 violated by 1 at x=0.
  EXPECT_NEAR(lp.max_violation({0.0, 0.0}), 1.0, 1e-12);
  // Upper bound violated by 2, but r1 (23 > 4) dominates with 19.
  EXPECT_NEAR(lp.max_violation({12.0, 11.0}), 19.0, 1e-12);
}

TEST(LinearProgram, MaxViolationSeesBoundsWithoutRows) {
  LinearProgram lp;
  lp.add_column("x", 0.0, 1.0, 3.0);
  EXPECT_NEAR(lp.max_violation({5.0}), 2.0, 1e-12);   // above upper
  EXPECT_NEAR(lp.max_violation({0.25}), 0.75, 1e-12);  // below lower
  EXPECT_NEAR(lp.max_violation({2.0}), 0.0, 1e-12);
}

// ----------------------------------------------------------------- simplex

TEST(Simplex, SolvesTextbookTwoVariableLp) {
  // min -3x - 5y  s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  (classic Dantzig).
  LinearProgram lp;
  const std::size_t x = lp.add_column("x", -3.0);
  const std::size_t y = lp.add_column("y", -5.0);
  lp.add_row("r1", Sense::kLessEqual, 4.0, {{x, 1.0}});
  lp.add_row("r2", Sense::kLessEqual, 12.0, {{y, 2.0}});
  lp.add_row("r3", Sense::kLessEqual, 18.0, {{x, 3.0}, {y, 2.0}});

  const SimplexResult result = solve(lp);
  ASSERT_TRUE(result.optimal());
  EXPECT_NEAR(result.objective, -36.0, 1e-9);
  EXPECT_NEAR(result.solution[x], 2.0, 1e-9);
  EXPECT_NEAR(result.solution[y], 6.0, 1e-9);
  EXPECT_NEAR(lp.max_violation(result.solution), 0.0, 1e-9);
}

TEST(Simplex, HandlesEqualityAndGreaterRows) {
  // min x + 2y + 3z  s.t. x + y + z = 6, y + z >= 3, z <= 2.
  LinearProgram lp;
  const std::size_t x = lp.add_column("x", 1.0);
  const std::size_t y = lp.add_column("y", 2.0);
  const std::size_t z = lp.add_column("z", 3.0, 0.0, 2.0);
  lp.add_row("sum", Sense::kEqual, 6.0, {{x, 1.0}, {y, 1.0}, {z, 1.0}});
  lp.add_row("tail", Sense::kGreaterEqual, 3.0, {{y, 1.0}, {z, 1.0}});

  const SimplexResult result = solve(lp);
  ASSERT_TRUE(result.optimal());
  // Optimal: x = 3, y = 3, z = 0 -> 3 + 6 = 9.
  EXPECT_NEAR(result.objective, 9.0, 1e-9);
  EXPECT_NEAR(result.solution[x], 3.0, 1e-9);
  EXPECT_NEAR(result.solution[y], 3.0, 1e-9);
  EXPECT_NEAR(result.solution[z], 0.0, 1e-9);
}

TEST(Simplex, RespectsNonZeroLowerBounds) {
  // min x + y  s.t. x + y >= 5, x in [2, inf), y in [1, 2].
  LinearProgram lp;
  const std::size_t x = lp.add_column("x", 1.0, 2.0);
  const std::size_t y = lp.add_column("y", 1.0, 1.0, 2.0);
  lp.add_row("r", Sense::kGreaterEqual, 5.0, {{x, 1.0}, {y, 1.0}});

  const SimplexResult result = solve(lp);
  ASSERT_TRUE(result.optimal());
  EXPECT_NEAR(result.objective, 5.0, 1e-9);
  EXPECT_GE(result.solution[x], 2.0 - 1e-9);
  EXPECT_GE(result.solution[y], 1.0 - 1e-9);
  EXPECT_LE(result.solution[y], 2.0 + 1e-9);
}

TEST(Simplex, DetectsInfeasibility) {
  LinearProgram lp;
  const std::size_t x = lp.add_column("x", 1.0, 0.0, 1.0);
  lp.add_row("r", Sense::kGreaterEqual, 2.0, {{x, 1.0}});
  EXPECT_EQ(solve(lp).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsContradictoryEqualities) {
  LinearProgram lp;
  const std::size_t x = lp.add_column("x", 0.0);
  const std::size_t y = lp.add_column("y", 0.0);
  lp.add_row("a", Sense::kEqual, 1.0, {{x, 1.0}, {y, 1.0}});
  lp.add_row("b", Sense::kEqual, 3.0, {{x, 1.0}, {y, 1.0}});
  EXPECT_EQ(solve(lp).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  // min -x  with x free upward.
  LinearProgram lp;
  const std::size_t x = lp.add_column("x", -1.0);
  const std::size_t y = lp.add_column("y", 0.0);
  lp.add_row("r", Sense::kGreaterEqual, 0.0, {{x, 1.0}, {y, -1.0}});
  EXPECT_EQ(solve(lp).status, SolveStatus::kUnbounded);
}

TEST(Simplex, HandlesRedundantRows) {
  LinearProgram lp;
  const std::size_t x = lp.add_column("x", 1.0);
  lp.add_row("a", Sense::kEqual, 3.0, {{x, 1.0}});
  lp.add_row("b", Sense::kEqual, 3.0, {{x, 1.0}});  // duplicate of a
  const SimplexResult result = solve(lp);
  ASSERT_TRUE(result.optimal());
  EXPECT_NEAR(result.objective, 3.0, 1e-9);
}

TEST(Simplex, SurvivesDegenerateBeale) {
  // Beale's classic cycling example (min form). Bland's fallback must
  // terminate it.
  LinearProgram lp;
  const std::size_t x1 = lp.add_column("x1", -0.75);
  const std::size_t x2 = lp.add_column("x2", 150.0);
  const std::size_t x3 = lp.add_column("x3", -0.02);
  const std::size_t x4 = lp.add_column("x4", 6.0);
  lp.add_row("r1", Sense::kLessEqual, 0.0,
             {{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}});
  lp.add_row("r2", Sense::kLessEqual, 0.0,
             {{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}});
  lp.add_row("r3", Sense::kLessEqual, 1.0, {{x3, 1.0}});

  const SimplexResult result = solve(lp);
  ASSERT_TRUE(result.optimal());
  EXPECT_NEAR(result.objective, -0.05, 1e-9);
}

TEST(Simplex, StrongDualityOnInequalityForm) {
  // For min c'x, Ax >= b, x >= 0 with equality-free rows, strong duality
  // reads c'x* = y'b with y the reported row duals (y >= 0 on >= rows).
  LinearProgram lp;
  const std::size_t x = lp.add_column("x", 4.0);
  const std::size_t y = lp.add_column("y", 3.0);
  lp.add_row("a", Sense::kGreaterEqual, 10.0, {{x, 2.0}, {y, 1.0}});
  lp.add_row("b", Sense::kGreaterEqual, 12.0, {{x, 1.0}, {y, 3.0}});

  const SimplexResult result = solve(lp);
  ASSERT_TRUE(result.optimal());
  ASSERT_EQ(result.row_duals.size(), 2u);
  EXPECT_GE(result.row_duals[0], -1e-9);
  EXPECT_GE(result.row_duals[1], -1e-9);
  const double dual_objective =
      10.0 * result.row_duals[0] + 12.0 * result.row_duals[1];
  EXPECT_NEAR(dual_objective, result.objective, 1e-8);
  // Dual feasibility: A'y <= c.
  EXPECT_LE(2.0 * result.row_duals[0] + 1.0 * result.row_duals[1], 4.0 + 1e-9);
  EXPECT_LE(1.0 * result.row_duals[0] + 3.0 * result.row_duals[1], 3.0 + 1e-9);
}

// ------------------------------------------- differential: vertex brute force

// Solves a k x k dense linear system by Gaussian elimination with partial
// pivoting; nullopt if singular.
std::optional<std::vector<double>> solve_square(std::vector<std::vector<double>> a,
                                                std::vector<double> b) {
  const std::size_t k = b.size();
  for (std::size_t col = 0; col < k; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < k; ++r) {
      if (std::abs(a[r][col]) > std::abs(a[pivot][col])) pivot = r;
    }
    if (std::abs(a[pivot][col]) < 1e-10) return std::nullopt;
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    for (std::size_t r = 0; r < k; ++r) {
      if (r == col) continue;
      const double f = a[r][col] / a[col][col];
      if (f == 0.0) continue;
      for (std::size_t c = col; c < k; ++c) a[r][c] -= f * a[col][c];
      b[r] -= f * b[col];
    }
  }
  std::vector<double> x(k);
  for (std::size_t i = 0; i < k; ++i) x[i] = b[i] / a[i][i];
  return x;
}

// All-constraints-as-halfspaces description of a small LP (columns assumed
// bounded below by 0 and above by `box`): rows Gx <= h.
struct HalfspaceLp {
  std::size_t dims;
  std::vector<double> objective;
  std::vector<std::vector<double>> g;
  std::vector<double> h;
};

// Enumerate all vertices (intersections of `dims` constraints), filter
// feasible, return the minimum objective; nullopt if no vertex is feasible.
std::optional<double> brute_force_minimum(const HalfspaceLp& lp) {
  const std::size_t rows = lp.g.size();
  std::vector<std::size_t> pick(lp.dims);
  std::optional<double> best;

  const auto feasible = [&](const std::vector<double>& x) {
    for (std::size_t r = 0; r < rows; ++r) {
      double lhs = 0.0;
      for (std::size_t c = 0; c < lp.dims; ++c) lhs += lp.g[r][c] * x[c];
      if (lhs > lp.h[r] + 1e-7) return false;
    }
    return true;
  };

  // Iterate over all combinations of `dims` row indices.
  std::vector<std::size_t> comb(lp.dims);
  for (std::size_t i = 0; i < lp.dims; ++i) comb[i] = i;
  while (true) {
    std::vector<std::vector<double>> a(lp.dims);
    std::vector<double> b(lp.dims);
    for (std::size_t i = 0; i < lp.dims; ++i) {
      a[i] = lp.g[comb[i]];
      b[i] = lp.h[comb[i]];
    }
    if (const auto x = solve_square(a, b); x && feasible(*x)) {
      double obj = 0.0;
      for (std::size_t c = 0; c < lp.dims; ++c) obj += lp.objective[c] * (*x)[c];
      if (!best || obj < *best) best = obj;
    }
    // Next combination.
    std::size_t i = lp.dims;
    while (i > 0 && comb[i - 1] == rows - lp.dims + i - 1) --i;
    if (i == 0) break;
    ++comb[i - 1];
    for (std::size_t j = i; j < lp.dims; ++j) comb[j] = comb[j - 1] + 1;
  }
  return best;
}

class SimplexRandomLpTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimplexRandomLpTest, MatchesVertexEnumeration) {
  util::Rng rng(util::derive_seed(0x51317157, GetParam()));
  const std::size_t dims = 2 + rng.index(2);      // 2 or 3 variables
  const std::size_t extra_rows = 2 + rng.index(3);  // 2..4 random rows
  const double box = 10.0;

  // Random rows a'x <= b built to keep the box's origin feasible (b >= 0),
  // so the LP is feasible and (by the box) bounded.
  HalfspaceLp hs;
  hs.dims = dims;
  hs.objective.resize(dims);
  for (auto& c : hs.objective) c = rng.uniform(-3.0, 3.0);

  LinearProgram lp;
  for (std::size_t c = 0; c < dims; ++c) {
    lp.add_column(label("x", c), hs.objective[c], 0.0, box);
    // Box rows for the brute force: x_c <= box and -x_c <= 0.
    std::vector<double> up(dims, 0.0), down(dims, 0.0);
    up[c] = 1.0;
    down[c] = -1.0;
    hs.g.push_back(up);
    hs.h.push_back(box);
    hs.g.push_back(down);
    hs.h.push_back(0.0);
  }
  for (std::size_t r = 0; r < extra_rows; ++r) {
    std::vector<double> row(dims);
    std::vector<Coefficient> coefficients;
    for (std::size_t c = 0; c < dims; ++c) {
      row[c] = rng.uniform(-2.0, 2.0);
      coefficients.push_back(Coefficient{c, row[c]});
    }
    const double rhs = rng.uniform(0.0, 8.0);
    lp.add_row(label("r", r), Sense::kLessEqual, rhs,
               std::move(coefficients));
    hs.g.push_back(row);
    hs.h.push_back(rhs);
  }

  const SimplexResult result = solve(lp);
  ASSERT_TRUE(result.optimal()) << to_string(result.status);
  EXPECT_NEAR(lp.max_violation(result.solution), 0.0, 1e-7);

  const auto brute = brute_force_minimum(hs);
  ASSERT_TRUE(brute.has_value());
  EXPECT_NEAR(result.objective, *brute, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexRandomLpTest,
                         ::testing::Range<std::uint64_t>(0, 25));

// Larger random LPs where vertex enumeration is too slow: verify primal
// feasibility and the zero duality gap (objective == y'rhs over the
// standard-form rows, using the reported row duals plus the bound rows'
// complementary slackness) — a necessary-and-sufficient optimality witness
// for LPs whose binding structure lives in the rows.
class SimplexStressTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimplexStressTest, FeasibleWithConsistentDuals) {
  util::Rng rng(util::derive_seed(0x57E55, GetParam()));
  const std::size_t dims = 6 + rng.index(5);    // 6..10 variables
  const std::size_t rows = 8 + rng.index(6);    // 8..13 rows

  LinearProgram lp;
  for (std::size_t c = 0; c < dims; ++c) {
    lp.add_column(label("x", c), rng.uniform(-2.0, 2.0), 0.0, 5.0);
  }
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<Coefficient> coefficients;
    for (std::size_t c = 0; c < dims; ++c) {
      if (rng.bernoulli(0.6)) {
        coefficients.push_back(Coefficient{c, rng.uniform(-1.5, 1.5)});
      }
    }
    if (coefficients.empty()) continue;
    // b >= 0 keeps the origin feasible; mixing in >= 0 rows exercises
    // surplus/artificial handling without risking infeasibility.
    if (rng.bernoulli(0.75)) {
      lp.add_row(label("le", r), Sense::kLessEqual,
                 rng.uniform(0.5, 6.0), std::move(coefficients));
    } else {
      for (auto& coef : coefficients) coef.value = std::abs(coef.value);
      lp.add_row(label("ge", r), Sense::kGreaterEqual, 0.0,
                 std::move(coefficients));
    }
  }

  const SimplexResult result = solve(lp);
  ASSERT_TRUE(result.optimal()) << to_string(result.status);
  EXPECT_NEAR(lp.max_violation(result.solution), 0.0, 1e-7);

  // The optimum can never beat the best of 2000 random feasible points by
  // being wrong (sanity direction), and must not exceed the origin's value
  // (0 is feasible).
  EXPECT_LE(result.objective, lp.objective_value(std::vector<double>(dims, 0.0)) + 1e-9);

  // Dual sign conventions on the reported rows.
  for (std::size_t r = 0; r < lp.num_rows(); ++r) {
    if (lp.row(r).sense == Sense::kLessEqual) {
      EXPECT_LE(result.row_duals[r], 1e-7) << lp.row(r).name;
    } else if (lp.row(r).sense == Sense::kGreaterEqual) {
      EXPECT_GE(result.row_duals[r], -1e-7) << lp.row(r).name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexStressTest,
                         ::testing::Range<std::uint64_t>(100, 120));

// ------------------------------------------------------------- flow-time LP

TEST(FlowLpGrid, CoversHorizonWithReleaseBreakpoints) {
  const Instance instance =
      single_machine_instance({{0.0, 3.0}, {2.5, 1.0}, {7.0, 2.0}});
  const auto cells = lp::make_flow_lp_grid(instance, 32);
  ASSERT_GE(cells.size(), 3u);
  EXPECT_DOUBLE_EQ(cells.front().begin, 0.0);
  for (std::size_t k = 1; k < cells.size(); ++k) {
    EXPECT_DOUBLE_EQ(cells[k].begin, cells[k - 1].end);
  }
  // Every release is a cell boundary.
  for (const Job& job : instance.jobs()) {
    bool found = false;
    for (const auto& cell : cells) {
      if (std::abs(cell.begin - job.release) < 1e-12) found = true;
    }
    EXPECT_TRUE(found) << "release " << job.release << " not a breakpoint";
  }
  EXPECT_LE(cells.size(), 33u);  // target plus rounding
}

TEST(FlowLp, SingleJobMatchesClosedForm) {
  // One job, p = 4, released at 0: continuous LP optimum is
  // int_0^4 (t/4 + 1) dt = 6; the start-anchored discrete value approaches
  // it from below.
  const Instance instance = single_machine_instance({{0.0, 4.0}});
  FlowLpOptions options;
  options.target_intervals = 128;
  const auto result = solve_flow_time_lp(instance, options);
  ASSERT_TRUE(result.optimal());
  EXPECT_LE(result.lp_objective, 6.0 + 1e-9);
  EXPECT_GE(result.lp_objective, 5.8);
  EXPECT_NEAR(result.lower_bound, result.lp_objective / 2.0, 1e-12);
  // The fractional optimum uses the machine for exactly p time units.
  EXPECT_NEAR(result.machine_time[0][0], 4.0, 1e-6);
}

TEST(FlowLp, LowerBoundIsCertifiedAgainstExactOpt) {
  util::Rng rng(0xF10F10);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<std::pair<Time, Work>> jobs;
    const std::size_t n = 3 + rng.index(4);  // 3..6 jobs
    for (std::size_t j = 0; j < n; ++j) {
      jobs.push_back({rng.uniform(0.0, 10.0), rng.uniform(0.5, 5.0)});
    }
    const Instance instance = single_machine_instance(jobs);
    const auto lp_result = solve_flow_time_lp(instance, {.target_intervals = 48});
    ASSERT_TRUE(lp_result.optimal());
    const auto opt = exact_optimal_flow_single_machine(instance);
    ASSERT_TRUE(opt.has_value());
    EXPECT_LE(lp_result.lower_bound, *opt + 1e-6)
        << "trial " << trial << ": LP/2 must lower-bound OPT";
    EXPECT_GT(lp_result.lower_bound, 0.0);
  }
}

TEST(FlowLp, RefinementNeverLowersTheBound) {
  const Instance instance = single_machine_instance(
      {{0.0, 3.0}, {1.0, 1.0}, {1.5, 4.0}, {6.0, 2.0}});
  double previous = 0.0;
  for (std::size_t target : {8u, 16u, 32u, 64u}) {
    const auto result = solve_flow_time_lp(instance, {.target_intervals = target});
    ASSERT_TRUE(result.optimal()) << "target " << target;
    EXPECT_GE(result.lp_objective, previous - 1e-7) << "target " << target;
    previous = result.lp_objective;
  }
}

TEST(FlowLp, MidpointVariantEstimatesHigherButCertifiesNothing) {
  const Instance instance =
      single_machine_instance({{0.0, 2.0}, {0.5, 3.0}, {4.0, 1.0}});
  const auto certified = solve_flow_time_lp(instance, {.target_intervals = 32});
  FlowLpOptions midpoint;
  midpoint.target_intervals = 32;
  midpoint.midpoint_costs = true;
  const auto estimate = solve_flow_time_lp(instance, midpoint);
  ASSERT_TRUE(certified.optimal());
  ASSERT_TRUE(estimate.optimal());
  EXPECT_GE(estimate.lp_objective, certified.lp_objective - 1e-9);
  EXPECT_EQ(estimate.lower_bound, 0.0);
}

TEST(FlowLp, UnrelatedMachinesPreferTheFastAssignments) {
  // Two machines; job 0 fast on machine 0, job 1 fast on machine 1.
  InstanceBuilder builder(2);
  builder.add_job(0.0, {1.0, 10.0});
  builder.add_job(0.0, {10.0, 1.0});
  const Instance instance = builder.build();

  const auto result = solve_flow_time_lp(instance, {.target_intervals = 32});
  ASSERT_TRUE(result.optimal());
  // The optimum puts (almost) all work on the fast machines.
  EXPECT_GT(result.machine_time[0][0], 0.9);
  EXPECT_GT(result.machine_time[1][1], 0.9);
  EXPECT_LT(result.machine_time[1][0], 0.5);
  EXPECT_LT(result.machine_time[0][1], 0.5);
}

TEST(FlowLp, RestrictedAssignmentRespectsEligibility) {
  InstanceBuilder builder(2);
  builder.add_job(0.0, {2.0, kTimeInfinity});  // only machine 0
  builder.add_job(0.0, {kTimeInfinity, 3.0});  // only machine 1
  const Instance instance = builder.build();

  const auto result = solve_flow_time_lp(instance, {.target_intervals = 16});
  ASSERT_TRUE(result.optimal());
  EXPECT_NEAR(result.machine_time[1][0], 0.0, 1e-9);
  EXPECT_NEAR(result.machine_time[0][1], 0.0, 1e-9);
  EXPECT_NEAR(result.machine_time[0][0], 2.0, 1e-6);
  EXPECT_NEAR(result.machine_time[1][1], 3.0, 1e-6);
}

TEST(FlowLp, DualsSatisfyThePaperSignConventions) {
  const Instance instance =
      single_machine_instance({{0.0, 2.0}, {1.0, 2.0}, {2.0, 2.0}});
  const auto result = solve_flow_time_lp(instance, {.target_intervals = 24});
  ASSERT_TRUE(result.optimal());
  ASSERT_EQ(result.lambda.size(), 3u);
  for (double lambda : result.lambda) {
    EXPECT_GE(lambda, -1e-9);  // dual of a >= row in a min LP
  }
  for (const auto& machine_beta : result.beta) {
    for (double beta : machine_beta) {
      EXPECT_LE(beta, 1e-9);  // dual of a <= row in a min LP
    }
  }
  // Strong duality against the standard-form rhs: sum_j lambda_j +
  // sum_{i,k} beta_ik * len_k equals the LP optimum (variable bounds are
  // inactive at the optimum here because capacity already binds them).
  double dual_value = 0.0;
  for (double lambda : result.lambda) dual_value += lambda;
  for (std::size_t k = 0; k < result.cells.size(); ++k) {
    dual_value += result.beta[0][k] * result.cells[k].length();
  }
  EXPECT_NEAR(dual_value, result.lp_objective, 1e-6);
}

// On identically-loaded instances, the Theorem 1 scheduler's dual objective
// (a feasible point of the continuous dual) should not wildly exceed the
// discretized LP optimum — with a fine grid the discrete LP approaches the
// continuous one from below, so we allow a small tolerance headroom. This
// catches gross inconsistencies between the two dual computations.
TEST(FlowLp, AlgorithmDualStaysBelowLpOptimumOnFineGrids) {
  workload::WorkloadConfig config;
  config.num_jobs = 8;
  config.num_machines = 2;
  config.load = 0.9;
  config.seed = 99;
  const Instance instance = workload::generate_workload(config);

  const auto lp_result = solve_flow_time_lp(instance, {.target_intervals = 96});
  ASSERT_TRUE(lp_result.optimal());
  const auto run = run_rejection_flow(instance, {.epsilon = 0.3});
  EXPECT_LE(run.dual_objective, lp_result.lp_objective * 1.05 + 1e-6);
}

}  // namespace
}  // namespace osched::lp
