#include "core/energy_min/bruteforce.hpp"

#include <algorithm>
#include <limits>
#include <memory>

namespace osched {

namespace {

class Search {
 public:
  Search(const Instance& instance, const BruteForceOptions& options)
      : instance_(instance), options_(options) {
    if (options.machine_alphas.empty()) {
      for (std::size_t i = 0; i < instance.num_machines(); ++i) {
        powers_.push_back(std::make_unique<PolynomialPower>(options.alpha));
      }
    } else {
      OSCHED_CHECK_EQ(options.machine_alphas.size(), instance.num_machines());
      for (double alpha : options.machine_alphas) {
        powers_.push_back(std::make_unique<PolynomialPower>(alpha));
      }
    }
    const std::vector<Speed> speeds =
        options.speeds.empty() ? make_speed_grid(instance, options.speed_levels)
                               : options.speeds;
    const std::size_t n = instance.num_jobs();
    strategies_.reserve(n);
    iso_min_.resize(n, 0.0);
    for (std::size_t idx = 0; idx < n; ++idx) {
      const auto j = static_cast<JobId>(idx);
      strategies_.push_back(
          enumerate_strategies(instance, j, speeds, options.start_grid));
      OSCHED_CHECK(!strategies_[idx].empty())
          << "job " << j << " has no feasible strategy";
      double iso = std::numeric_limits<double>::infinity();
      for (const Strategy& s : strategies_[idx]) {
        const Work p = instance.processing(s.machine, j);
        iso = std::min(iso, powers_[static_cast<std::size_t>(s.machine)]->power(
                                s.speed) *
                                s.duration(p));
      }
      iso_min_[idx] = iso;
    }
    // Suffix sums of isolated minima: admissible lower bound on the cost of
    // the not-yet-placed jobs (marginals of convex powers are superadditive).
    iso_suffix_.resize(n + 1, 0.0);
    for (std::size_t idx = n; idx-- > 0;) {
      iso_suffix_[idx] = iso_suffix_[idx + 1] + iso_min_[idx];
    }
    profiles_.assign(instance.num_machines(), SpeedProfile{});
    current_.resize(n);
    best_choice_.resize(n);
  }

  std::optional<BruteForceResult> run() {
    dfs(0, 0.0);
    if (best_ == std::numeric_limits<double>::infinity()) return std::nullopt;

    BruteForceResult result;
    result.optimal_energy = best_;
    result.chosen = best_choice_;
    result.nodes_explored = nodes_;
    result.certified_optimal = nodes_ < options_.node_budget;
    result.schedule = Schedule(instance_.num_jobs());
    for (std::size_t idx = 0; idx < instance_.num_jobs(); ++idx) {
      const auto j = static_cast<JobId>(idx);
      const Strategy& s = best_choice_[idx];
      const Work p = instance_.processing(s.machine, j);
      result.schedule.mark_dispatched(j, s.machine);
      result.schedule.mark_started(j, s.start, s.speed);
      result.schedule.mark_completed(j, s.start + s.duration(p));
    }
    return result;
  }

 private:
  void dfs(std::size_t idx, double cost_so_far) {
    if (nodes_ >= options_.node_budget) return;
    ++nodes_;
    if (cost_so_far + iso_suffix_[idx] >= best_) return;  // admissible prune
    if (idx == instance_.num_jobs()) {
      best_ = cost_so_far;
      best_choice_ = current_;
      return;
    }
    const auto j = static_cast<JobId>(idx);

    // Order strategies by marginal cost so good incumbents appear early.
    struct Cand {
      double marginal;
      std::size_t index;
    };
    std::vector<Cand> cands;
    cands.reserve(strategies_[idx].size());
    for (std::size_t k = 0; k < strategies_[idx].size(); ++k) {
      const Strategy& s = strategies_[idx][k];
      const Work p = instance_.processing(s.machine, j);
      const double marginal =
          profiles_[static_cast<std::size_t>(s.machine)].marginal_cost(
              s.start, s.start + s.duration(p), s.speed,
              *powers_[static_cast<std::size_t>(s.machine)]);
      cands.push_back({marginal, k});
    }
    std::sort(cands.begin(), cands.end(),
              [](const Cand& a, const Cand& b) { return a.marginal < b.marginal; });

    for (const Cand& cand : cands) {
      if (cost_so_far + cand.marginal + iso_suffix_[idx + 1] >= best_) {
        // Candidates are sorted: everything after is at least as bad.
        break;
      }
      const Strategy& s = strategies_[idx][cand.index];
      const Work p = instance_.processing(s.machine, j);
      const Time end = s.start + s.duration(p);
      // Rebuild-free undo: SpeedProfile has no remove, so snapshot the
      // machine's profile (instances here are tiny by design).
      SpeedProfile snapshot = profiles_[static_cast<std::size_t>(s.machine)];
      profiles_[static_cast<std::size_t>(s.machine)].add(s.start, end, s.speed);
      current_[idx] = s;
      dfs(idx + 1, cost_so_far + cand.marginal);
      profiles_[static_cast<std::size_t>(s.machine)] = std::move(snapshot);
      if (nodes_ >= options_.node_budget) return;
    }
  }

  const Instance& instance_;
  BruteForceOptions options_;
  std::vector<std::unique_ptr<PolynomialPower>> powers_;
  std::vector<std::vector<Strategy>> strategies_;
  std::vector<double> iso_min_;
  std::vector<double> iso_suffix_;
  std::vector<SpeedProfile> profiles_;
  std::vector<Strategy> current_;
  std::vector<Strategy> best_choice_;
  double best_ = std::numeric_limits<double>::infinity();
  std::size_t nodes_ = 0;
};

}  // namespace

std::optional<BruteForceResult> brute_force_energy(
    const Instance& instance, const BruteForceOptions& options) {
  instance.check_valid();
  Search search(instance, options);
  return search.run();
}

}  // namespace osched
