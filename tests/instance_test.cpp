// Tests for the instance model: job sorting/renumbering, validation, power
// functions and smoothness parameters.
#include <gtest/gtest.h>

#include "instance/builders.hpp"
#include "instance/instance.hpp"
#include "instance/power.hpp"

namespace osched {
namespace {

TEST(Instance, SortsJobsByReleaseAndRenumbers) {
  std::vector<Job> jobs(3);
  jobs[0] = Job{0, 5.0, 1.0, kTimeInfinity};
  jobs[1] = Job{1, 1.0, 1.0, kTimeInfinity};
  jobs[2] = Job{2, 3.0, 1.0, kTimeInfinity};
  // One machine; processing identifies the original job: 50, 10, 30.
  Instance instance(jobs, {{50.0, 10.0, 30.0}});

  ASSERT_EQ(instance.num_jobs(), 3u);
  EXPECT_DOUBLE_EQ(instance.job(0).release, 1.0);
  EXPECT_DOUBLE_EQ(instance.job(1).release, 3.0);
  EXPECT_DOUBLE_EQ(instance.job(2).release, 5.0);
  // Matrix columns permuted with the jobs.
  EXPECT_DOUBLE_EQ(instance.processing(0, 0), 10.0);
  EXPECT_DOUBLE_EQ(instance.processing(0, 1), 30.0);
  EXPECT_DOUBLE_EQ(instance.processing(0, 2), 50.0);
  // Renumbered ids.
  EXPECT_EQ(instance.job(0).id, 0);
  EXPECT_EQ(instance.job(2).id, 2);
}

TEST(Instance, ReleaseTiesBrokenByOriginalId) {
  std::vector<Job> jobs(2);
  jobs[0] = Job{0, 2.0, 1.0, kTimeInfinity};
  jobs[1] = Job{1, 2.0, 1.0, kTimeInfinity};
  Instance instance(jobs, {{7.0, 9.0}});
  EXPECT_DOUBLE_EQ(instance.processing(0, 0), 7.0);
  EXPECT_DOUBLE_EQ(instance.processing(0, 1), 9.0);
}

TEST(Instance, EligibilityAndMinProcessing) {
  InstanceBuilder builder(3);
  builder.add_job(0.0, {4.0, kTimeInfinity, 2.0});
  const Instance instance = builder.build();
  EXPECT_TRUE(instance.eligible(0, 0));
  EXPECT_FALSE(instance.eligible(1, 0));
  EXPECT_DOUBLE_EQ(instance.min_processing(0), 2.0);
}

TEST(Instance, ProcessingSpreadIgnoresInfinities) {
  InstanceBuilder builder(2);
  builder.add_job(0.0, {1.0, kTimeInfinity});
  builder.add_job(0.0, {kTimeInfinity, 100.0});
  const Instance instance = builder.build();
  EXPECT_DOUBLE_EQ(instance.processing_spread(), 100.0);
}

TEST(Instance, ValidateCatchesProblems) {
  {
    std::vector<Job> jobs(1);
    jobs[0] = Job{0, -1.0, 1.0, kTimeInfinity};
    Instance instance(jobs, {{1.0}});
    EXPECT_NE(instance.validate().find("negative release"), std::string::npos);
  }
  {
    std::vector<Job> jobs(1);
    jobs[0] = Job{0, 0.0, 1.0, kTimeInfinity};
    Instance instance(jobs, {{kTimeInfinity}});
    EXPECT_NE(instance.validate().find("no eligible machine"), std::string::npos);
  }
  {
    std::vector<Job> jobs(1);
    jobs[0] = Job{0, 5.0, 1.0, 4.0};  // deadline before release
    Instance instance(jobs, {{1.0}});
    EXPECT_NE(instance.validate().find("deadline"), std::string::npos);
  }
  {
    std::vector<Job> jobs(1);
    jobs[0] = Job{0, 0.0, 0.0, kTimeInfinity};  // zero weight
    Instance instance(jobs, {{1.0}});
    EXPECT_NE(instance.validate().find("weight"), std::string::npos);
  }
  {
    // No machines: constructs, and validate() names both problems — under
    // every matrix backend and in every copy.
    std::vector<Job> jobs(1);
    jobs[0] = Job{0, 0.0, 1.0, kTimeInfinity};
    const Instance instance(jobs, {});
    const Instance sparse = instance.with_backend(StorageBackend::kSparseCsr);
    for (const Instance& built :
         {instance, sparse, sparse.with_backend(StorageBackend::kDense)}) {
      const Instance copy = built;
      for (const Instance* each : {&built, &copy}) {
        EXPECT_EQ(each->validate(),
                  "no machines; job 0: no eligible machine; ");
        EXPECT_EQ(each->num_jobs(), 1u);
        EXPECT_EQ(each->num_machines(), 0u);
        EXPECT_TRUE(each->eligible_machines(0).empty());
        EXPECT_EQ(each->dispatch_order_width(), 0);
      }
    }
  }
  {
    // No jobs on three machines: valid, with no order table.
    const Instance instance({}, {{}, {}, {}});
    const Instance sparse = instance.with_backend(StorageBackend::kSparseCsr);
    for (const Instance& built :
         {instance, sparse, sparse.with_backend(StorageBackend::kDense)}) {
      const Instance copy = built;
      for (const Instance* each : {&built, &copy}) {
        EXPECT_EQ(each->validate(), "");
        EXPECT_EQ(each->num_jobs(), 0u);
        EXPECT_TRUE(each->jobs().empty());
        EXPECT_EQ(each->num_machines(), 3u);
        EXPECT_EQ(each->dispatch_order_width(), 0);
        EXPECT_EQ(each->p_order_row(0).data(), nullptr);
      }
    }
  }
  {
    // A row with no eligible machine lists none (it is not mistaken for a
    // full row, which shares the identity adjacency).
    std::vector<Job> jobs(2);
    jobs[0] = Job{0, 0.0, 1.0, kTimeInfinity};
    jobs[1] = Job{1, 1.0, 1.0, kTimeInfinity};
    const Instance instance(jobs, {{kTimeInfinity, 1.0}, {kTimeInfinity, 2.0}});
    EXPECT_NE(instance.validate().find("job 0: no eligible machine"),
              std::string::npos);
    EXPECT_TRUE(instance.eligible_machines(0).empty());
    EXPECT_EQ(instance.eligible_machines(1).size(), 2u);
  }
  {
    // Default-constructed: empty, and a valid instance assigns over it.
    Instance instance;
    EXPECT_EQ(instance.validate(), "no machines; ");
    EXPECT_EQ(instance.num_jobs(), 0u);
    EXPECT_TRUE(instance.jobs().empty());
    EXPECT_EQ(instance.store_bytes(), 0u);
    EXPECT_EQ(instance.dispatch_order_width(), 0);
    instance = Instance({Job{0, 0.0, 1.0, kTimeInfinity}}, {{2.0}, {1.0}});
    EXPECT_TRUE(instance.validate().empty());
    EXPECT_EQ(instance.min_processing(0), 1.0);
    EXPECT_EQ(instance.dispatch_order_width(), 16);
  }
}

TEST(Instance, TotalWeight) {
  InstanceBuilder builder(1);
  builder.add_identical_job(0.0, 1.0, 2.5);
  builder.add_identical_job(1.0, 1.0, 1.5);
  EXPECT_DOUBLE_EQ(builder.build().total_weight(), 4.0);
}

TEST(Builders, SingleMachineHelpers) {
  const Instance a = single_machine_instance({{0.0, 3.0}, {1.0, 2.0}});
  EXPECT_EQ(a.num_machines(), 1u);
  EXPECT_EQ(a.num_jobs(), 2u);

  const Instance b =
      single_machine_weighted_instance({{0.0, 3.0, 2.0}, {1.0, 2.0, 5.0}});
  EXPECT_DOUBLE_EQ(b.job(1).weight, 5.0);
}

TEST(Power, PolynomialValues) {
  PolynomialPower power(3.0);
  EXPECT_DOUBLE_EQ(power.power(2.0), 8.0);
  EXPECT_DOUBLE_EQ(power.power(0.0), 0.0);
  EXPECT_DOUBLE_EQ(power.energy(2.0, 0.5), 4.0);
  EXPECT_EQ(power.name(), "P(s)=s^3");
}

TEST(Power, SmoothnessParameters) {
  const auto params = polynomial_smoothness(3.0);
  EXPECT_DOUBLE_EQ(params.mu, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(params.lambda, 9.0);  // alpha^{alpha-1}
  // lambda/(1-mu) = alpha^alpha.
  EXPECT_NEAR(params.lambda / (1.0 - params.mu), theorem3_ratio_bound(3.0), 1e-12);
}

}  // namespace
}  // namespace osched
