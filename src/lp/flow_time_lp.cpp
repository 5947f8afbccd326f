#include "lp/flow_time_lp.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "lp/problem.hpp"

namespace osched::lp {

namespace {

/// Feasibility horizon: every job fits sequentially on its fastest machine
/// after the last release, so capacity up to this point always admits a
/// feasible y.
Time feasible_horizon(const Instance& instance) {
  Time last_release = 0.0;
  Work total_min_work = 0.0;
  for (std::size_t idx = 0; idx < instance.num_jobs(); ++idx) {
    const auto j = static_cast<JobId>(idx);
    last_release = std::max(last_release, instance.job(j).release);
    total_min_work += instance.min_processing(j);
  }
  return last_release + std::max(total_min_work, 1.0);
}

}  // namespace

std::vector<FlowLpCell> make_flow_lp_grid(const Instance& instance,
                                          std::size_t target_intervals) {
  OSCHED_CHECK_GE(target_intervals, 2u);
  const Time horizon = feasible_horizon(instance);

  std::vector<Time> points;
  points.reserve(instance.num_jobs() + 2);
  points.push_back(0.0);
  points.push_back(horizon);
  for (const Job& job : instance.jobs()) {
    if (job.release < horizon) points.push_back(job.release);
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end(),
                           [](Time a, Time b) { return std::abs(a - b) < kTimeEps; }),
               points.end());

  // Refine: repeatedly split the longest cell until the budget is consumed.
  // (Greedy equal-split keeps the grid balanced without disturbing release
  // breakpoints.)
  std::vector<FlowLpCell> cells;
  for (std::size_t k = 0; k + 1 < points.size(); ++k) {
    cells.push_back(FlowLpCell{points[k], points[k + 1]});
  }
  while (cells.size() < target_intervals) {
    std::size_t longest = 0;
    for (std::size_t k = 1; k < cells.size(); ++k) {
      if (cells[k].length() > cells[longest].length()) longest = k;
    }
    if (cells[longest].length() < 2.0 * kTimeEps) break;
    const Time mid = 0.5 * (cells[longest].begin + cells[longest].end);
    const FlowLpCell right{mid, cells[longest].end};
    cells[longest].end = mid;
    cells.insert(cells.begin() + static_cast<std::ptrdiff_t>(longest) + 1, right);
  }
  return cells;
}

FlowLpResult solve_flow_time_lp(const Instance& instance,
                                const FlowLpOptions& options) {
  instance.check_valid();

  FlowLpResult result;
  result.cells = make_flow_lp_grid(instance, options.target_intervals);
  const std::size_t num_cells = result.cells.size();
  const std::size_t n = instance.num_jobs();
  const std::size_t m = instance.num_machines();

  LinearProgram lp;

  // Columns y[i][j][k]; kept sparse via an index map (kNone = not created:
  // cell before release or ineligible machine).
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> column_of(m * n * num_cells, kNone);
  const auto column_index = [&](std::size_t i, std::size_t j, std::size_t k) -> std::size_t& {
    return column_of[(i * n + j) * num_cells + k];
  };

  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const auto job_id = static_cast<JobId>(j);
      if (!instance.eligible(static_cast<MachineId>(i), job_id)) continue;
      const Work p = instance.processing(static_cast<MachineId>(i), job_id);
      const Time release = instance.job(job_id).release;
      const Weight weight =
          options.use_weights ? instance.job(job_id).weight : 1.0;
      for (std::size_t k = 0; k < num_cells; ++k) {
        const FlowLpCell& cell = result.cells[k];
        if (cell.begin < release - kTimeEps) continue;
        const Time anchor =
            options.midpoint_costs ? 0.5 * (cell.begin + cell.end) : cell.begin;
        const double cost = weight * ((anchor - release) / p + 1.0);
        column_index(i, j, k) =
            lp.add_column("y[" + std::to_string(i) + "," + std::to_string(j) +
                              "," + std::to_string(k) + "]",
                          cost, 0.0, cell.length());
      }
    }
  }

  // complete[j]: sum_{i,k} y/p_ij >= 1.
  std::vector<std::size_t> complete_row(n);
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<Coefficient> coefficients;
    for (std::size_t i = 0; i < m; ++i) {
      const auto job_id = static_cast<JobId>(j);
      if (!instance.eligible(static_cast<MachineId>(i), job_id)) continue;
      const Work p = instance.processing(static_cast<MachineId>(i), job_id);
      for (std::size_t k = 0; k < num_cells; ++k) {
        const std::size_t c = column_index(i, j, k);
        if (c != kNone) coefficients.push_back(Coefficient{c, 1.0 / p});
      }
    }
    complete_row[j] = lp.add_row("complete[" + std::to_string(j) + "]",
                                 Sense::kGreaterEqual, 1.0, std::move(coefficients));
  }

  // capacity[i][k]: sum_j y <= cell length.
  std::vector<std::vector<std::size_t>> capacity_row(m,
                                                     std::vector<std::size_t>(num_cells, kNone));
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t k = 0; k < num_cells; ++k) {
      std::vector<Coefficient> coefficients;
      for (std::size_t j = 0; j < n; ++j) {
        const std::size_t c = column_index(i, j, k);
        if (c != kNone) coefficients.push_back(Coefficient{c, 1.0});
      }
      if (coefficients.empty()) continue;
      capacity_row[i][k] =
          lp.add_row("capacity[" + std::to_string(i) + "," + std::to_string(k) + "]",
                     Sense::kLessEqual, result.cells[k].length(),
                     std::move(coefficients));
    }
  }

  result.num_columns = lp.num_columns();
  result.num_rows = lp.num_rows();

  const SimplexResult solved = lp::solve(lp, options.simplex);
  result.status = solved.status;
  result.iterations = solved.iterations;
  if (!solved.optimal()) return result;

  result.lp_objective = solved.objective;
  result.lower_bound = options.midpoint_costs ? 0.0 : solved.objective / 2.0;

  result.lambda.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    result.lambda[j] = solved.row_duals[complete_row[j]];
  }
  result.beta.assign(m, std::vector<double>(num_cells, 0.0));
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t k = 0; k < num_cells; ++k) {
      if (capacity_row[i][k] != kNone) {
        result.beta[i][k] = solved.row_duals[capacity_row[i][k]];
      }
    }
  }
  result.machine_time.assign(m, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t k = 0; k < num_cells; ++k) {
        const std::size_t c = column_index(i, j, k);
        if (c != kNone) result.machine_time[i][j] += solved.solution[c];
      }
    }
  }
  return result;
}

}  // namespace osched::lp
