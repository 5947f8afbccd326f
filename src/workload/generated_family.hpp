// Closed-form workload family: the same instance under any storage backend.
//
// The pluggable storage backends (instance/instance.hpp) need workload
// families whose p_ij is a PURE function of (seed, j, i) — then the dense
// matrix, the sparse CSR and the on-demand generator all hold/produce the
// same doubles bit for bit, and the differential wall can assert that the
// schedulers cannot tell the backends apart. generate_workload() cannot do
// this: it samples rows from one shared RNG stream, so entry (j, i) depends
// on every draw before it.
//
// The family here is the e16 "dense" shape restated in closed form:
// Poisson-ish arrivals at a target load, Pareto(min_size, shape) base sizes,
// log-uniform unrelated machine factors in [1/spread, spread], and an
// optional Bernoulli eligibility mask (restricted assignment) with a
// guaranteed fallback machine per job. Every random quantity derives from a
// SplitMix64 hash of (seed, j, i) — no sequential state.
//
// Releases ARE sequential (a cumulative arrival process) but live in the
// materialized jobs vector that every backend carries anyway.
#pragma once

#include <cstdint>
#include <memory>

#include "instance/instance.hpp"

namespace osched::workload {

struct ClosedFormConfig {
  std::size_t num_jobs = 100000;
  std::size_t num_machines = 256;
  std::uint64_t seed = 1;
  /// Target utilization: the arrival rate is load * m / E[size].
  double load = 1.1;
  /// Pareto base sizes: scale min_size, shape pareto_shape.
  double min_size = 0.5;
  double pareto_shape = 1.8;
  /// Machine factor u_ij log-uniform in [1/speed_spread, speed_spread].
  double speed_spread = 4.0;
  /// Per-(j, i) eligibility probability; machine hash(j) % m is always
  /// eligible so every job has at least one. 1.0 = fully eligible — the
  /// only setting the generator backend accepts (its adjacency is implicit).
  double eligibility = 1.0;
};

/// p_ij of the family, pure in (config.seed, j, i); kTimeInfinity where the
/// eligibility mask excludes the machine. Exposed for tests.
Work closed_form_entry(const ClosedFormConfig& config, JobId j, MachineId i);

/// Builds the family's instance under `backend`. All backends hold the same
/// jobs and the same p values bit for bit:
///  * kDense     — materializes the full n×m matrix.
///  * kSparseCsr — materializes eligible entries only (never the matrix).
///  * kGenerator — materializes nothing; requires eligibility == 1.0.
Instance make_closed_form_instance(const ClosedFormConfig& config,
                                   StorageBackend backend);

/// The family's closed form as a standalone shared RowGenerator — the value
/// for SessionOptions::generator (and SchedulerSession::restore) when
/// streaming this family into generator-backed sessions. Requires
/// eligibility == 1.0, the generator contract. Equal configs produce
/// bit-identical generators, so a restored session does not need the
/// original pointer, just the config.
std::shared_ptr<const RowGenerator> make_closed_form_generator(
    const ClosedFormConfig& config);

}  // namespace osched::workload
