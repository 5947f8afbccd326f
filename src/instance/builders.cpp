#include "instance/builders.hpp"

namespace osched {

InstanceBuilder& InstanceBuilder::add_job(Time release,
                                          std::vector<Work> processing,
                                          Weight weight, Time deadline) {
  OSCHED_CHECK_EQ(processing.size(), num_machines_);
  Job job;
  job.id = static_cast<JobId>(jobs_.size());
  job.release = release;
  job.weight = weight;
  job.deadline = deadline;
  jobs_.push_back(job);
  for (std::size_t i = 0; i < num_machines_; ++i) {
    processing_[i].push_back(processing[i]);
  }
  return *this;
}

InstanceBuilder& InstanceBuilder::add_identical_job(Time release,
                                                    Work processing,
                                                    Weight weight,
                                                    Time deadline) {
  return add_job(release, std::vector<Work>(num_machines_, processing), weight,
                 deadline);
}

Instance InstanceBuilder::build() const {
  Instance instance(jobs_, processing_);
  instance.check_valid();
  return instance;
}

Instance single_machine_instance(
    const std::vector<std::pair<Time, Work>>& jobs) {
  InstanceBuilder builder(1);
  for (const auto& [release, processing] : jobs) {
    builder.add_identical_job(release, processing);
  }
  return builder.build();
}

Instance single_machine_weighted_instance(
    const std::vector<std::tuple<Time, Work, Weight>>& jobs) {
  InstanceBuilder builder(1);
  for (const auto& [release, processing, weight] : jobs) {
    builder.add_identical_job(release, processing, weight);
  }
  return builder.build();
}

}  // namespace osched
