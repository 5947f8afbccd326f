// Property tests for the trace (instance CSV) round trip.
//
// The contract: instance_to_csv -> instance_from_csv reproduces every field
// BIT-exactly under %.17g — including "inf" eligibility holes, absent
// deadlines, and extreme magnitudes down to denormals — and a second
// serialization is byte-identical text (serialize/parse is a closed loop).
// The chunked TraceStreamReader must parse the same trace to the same jobs
// as the whole-file path, for any chunk size. Malformed input must come
// back as a message, never an abort.
//
// Seed rotation: OSCHED_FUZZ_SEED (decimal env var), logged for repro.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz_seed.hpp"
#include "workload/generators.hpp"
#include "workload/trace_io.hpp"

namespace osched::workload {
namespace {

std::uint64_t base_seed() {
  return testing::fuzz_base_seed("trace_roundtrip_test", 11);
}

void expect_bit_identical(const Instance& a, const Instance& b) {
  ASSERT_EQ(a.num_jobs(), b.num_jobs());
  ASSERT_EQ(a.num_machines(), b.num_machines());
  for (std::size_t idx = 0; idx < a.num_jobs(); ++idx) {
    const auto j = static_cast<JobId>(idx);
    EXPECT_EQ(a.job(j).release, b.job(j).release) << "job " << j;
    EXPECT_EQ(a.job(j).weight, b.job(j).weight) << "job " << j;
    EXPECT_EQ(a.job(j).deadline, b.job(j).deadline) << "job " << j;
    for (std::size_t i = 0; i < a.num_machines(); ++i) {
      const auto machine = static_cast<MachineId>(i);
      EXPECT_EQ(a.processing(machine, j), b.processing(machine, j))
          << "p[" << i << "][" << j << "]";
    }
  }
}

TEST(TraceRoundTrip, RandomInstancesSurviveExactly) {
  for (std::uint64_t s = 0; s < 6; ++s) {
    WorkloadConfig config;
    config.num_jobs = 120;
    config.num_machines = 1 + s % 4;
    config.seed = base_seed() + s;
    config.load = 1.0;
    config.sizes.dist = s % 2 == 0 ? SizeDistribution::kPareto
                                   : SizeDistribution::kLognormal;
    config.weights = s % 3 == 0 ? WeightDistribution::kUniform
                                : WeightDistribution::kUnit;
    // Half the instances carry inf eligibility holes; a third carry
    // deadlines (absent deadlines serialize as "inf" and must come back).
    if (s % 2 == 1) {
      config.machines.model = MachineModel::kRestricted;
      config.machines.eligibility = 0.5;
    }
    config.with_deadlines = s % 3 == 1;
    const Instance original = generate_workload(config);

    const std::string text = instance_to_csv(original);
    std::string error;
    const auto reloaded = instance_from_csv(text, &error);
    ASSERT_TRUE(reloaded.has_value()) << error;
    expect_bit_identical(original, *reloaded);
    // Closed loop: re-serialization is byte-identical text.
    EXPECT_EQ(instance_to_csv(*reloaded), text) << "seed " << s;
  }
}

TEST(TraceRoundTrip, ExtremeMagnitudesSurviveExactly) {
  // Values chosen to stress %.17g: repeating binary fractions, adjacent
  // representables, denormals, near-overflow magnitudes, and infinities.
  const double tiny = 5e-324;          // smallest positive denormal
  const double next = std::nextafter(1.0, 2.0);
  std::vector<Job> jobs(4);
  jobs[0] = Job{0, 0.0, 1.0 / 3.0, kTimeInfinity};
  jobs[1] = Job{1, 1e-17, next, 1e-17 + 1e300};
  jobs[2] = Job{2, 1.0e300, 1e-300, kTimeInfinity};
  jobs[3] = Job{3, 3.141592653589793, 7.0, 1e301};
  const std::vector<std::vector<Work>> processing = {
      {tiny, 1e300, 0.1, 2.0},
      {kTimeInfinity, next, kTimeInfinity, 1e-300},
  };
  const Instance original(jobs, processing);
  ASSERT_EQ(original.validate(), "");

  const std::string text = instance_to_csv(original);
  std::string error;
  const auto reloaded = instance_from_csv(text, &error);
  ASSERT_TRUE(reloaded.has_value()) << error;
  expect_bit_identical(original, *reloaded);
  EXPECT_EQ(instance_to_csv(*reloaded), text);
}

TEST(TraceRoundTrip, EmptyInstanceWithMachinesSurvives) {
  const Instance original({}, {{}});
  const std::string text = instance_to_csv(original);
  std::string error;
  const auto reloaded = instance_from_csv(text, &error);
  ASSERT_TRUE(reloaded.has_value()) << error;
  EXPECT_EQ(reloaded->num_jobs(), 0u);
  EXPECT_EQ(reloaded->num_machines(), 1u);
}

TEST(TraceRoundTrip, ChunkedStreamReaderMatchesWholeFileParse) {
  WorkloadConfig config;
  config.num_jobs = 500;
  config.num_machines = 3;
  config.seed = base_seed() + 100;
  config.machines.model = MachineModel::kRestricted;
  config.machines.eligibility = 0.6;
  const Instance original = generate_workload(config);
  const std::string text = instance_to_csv(original);

  for (const std::size_t chunk_size : {1ul, 7ul, 100000ul}) {
    std::istringstream in(text);
    TraceStreamReader reader(in);
    ASSERT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(reader.num_machines(), original.num_machines());

    std::size_t at = 0;
    std::vector<StreamJob> chunk;
    while (reader.next_chunk(chunk_size, chunk) > 0) {
      for (const StreamJob& job : chunk) {
        ASSERT_LT(at, original.num_jobs());
        const auto j = static_cast<JobId>(at);
        EXPECT_EQ(job.release, original.job(j).release);
        EXPECT_EQ(job.weight, original.job(j).weight);
        EXPECT_EQ(job.deadline, original.job(j).deadline);
        ASSERT_EQ(job.processing.size(), original.num_machines());
        for (std::size_t i = 0; i < job.processing.size(); ++i) {
          EXPECT_EQ(job.processing[i],
                    original.processing(static_cast<MachineId>(i), j));
        }
        ++at;
      }
    }
    ASSERT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(at, original.num_jobs());
    EXPECT_EQ(reader.rows_read(), original.num_jobs());
  }
}

TEST(TraceRoundTrip, StreamWriterMatchesWholeFileSerialization) {
  WorkloadConfig config;
  config.num_jobs = 60;
  config.num_machines = 2;
  config.seed = base_seed() + 200;
  const Instance original = generate_workload(config);

  std::ostringstream streamed;
  TraceStreamWriter writer(streamed, original.num_machines());
  StreamJob job;
  job.processing.resize(original.num_machines());
  for (std::size_t idx = 0; idx < original.num_jobs(); ++idx) {
    const auto j = static_cast<JobId>(idx);
    job.release = original.job(j).release;
    job.weight = original.job(j).weight;
    job.deadline = original.job(j).deadline;
    for (std::size_t i = 0; i < original.num_machines(); ++i) {
      job.processing[i] = original.processing(static_cast<MachineId>(i), j);
    }
    writer.write_job(job);
  }
  EXPECT_EQ(writer.rows_written(), original.num_jobs());
  EXPECT_EQ(streamed.str(), instance_to_csv(original));
}

TEST(TraceRoundTrip, MalformedInputComesBackAsMessages) {
  std::string error;
  EXPECT_FALSE(instance_from_csv("", &error).has_value());
  EXPECT_NE(error.find("empty trace"), std::string::npos);

  EXPECT_FALSE(instance_from_csv("not,a,trace\n1,2,3\n", &error).has_value());
  EXPECT_NE(error.find("bad header"), std::string::npos);

  EXPECT_FALSE(instance_from_csv("release,weight,deadline,p_0\n1,1,inf\n",
                                 &error)
                   .has_value());
  EXPECT_NE(error.find("wrong arity"), std::string::npos);

  EXPECT_FALSE(instance_from_csv("release,weight,deadline,p_0\nx,1,inf,1\n",
                                 &error)
                   .has_value());
  EXPECT_NE(error.find("non-numeric job fields"), std::string::npos);

  EXPECT_FALSE(instance_from_csv("release,weight,deadline,p_0\n1,1,inf,zap\n",
                                 &error)
                   .has_value());
  EXPECT_NE(error.find("non-numeric p_ij"), std::string::npos);

  // Parseable but structurally invalid: the instance validator's message
  // must surface through the trace API.
  EXPECT_FALSE(instance_from_csv("release,weight,deadline,p_0\n1,1,inf,-2\n",
                                 &error)
                   .has_value());
  EXPECT_NE(error.find("invalid instance"), std::string::npos);

  // NaN fields parse as doubles but must be rejected as an invalid
  // instance, not silently accepted (the gap this suite uncovered).
  EXPECT_FALSE(instance_from_csv("release,weight,deadline,p_0\nnan,1,inf,1\n",
                                 &error)
                   .has_value());
  EXPECT_NE(error.find("invalid instance"), std::string::npos);
  EXPECT_FALSE(instance_from_csv("release,weight,deadline,p_0\n1,1,inf,nan\n",
                                 &error)
                   .has_value());
  EXPECT_NE(error.find("NaN"), std::string::npos);
}

// ------------------------------------------------------- sparse dialect

TEST(TraceRoundTrip, SparseInstancesRoundTripInTheSparseDialect) {
  for (std::uint64_t s = 0; s < 4; ++s) {
    WorkloadConfig config;
    config.num_jobs = 150;
    config.num_machines = 8;
    config.seed = base_seed() + 300 + s;
    config.machines.model = MachineModel::kRestricted;
    config.machines.eligibility = 0.3;
    config.weights = WeightDistribution::kUniform;
    config.with_deadlines = s % 2 == 1;
    const Instance original =
        generate_workload(config).with_backend(StorageBackend::kSparseCsr);

    const std::string text = instance_to_csv(original);
    // The sparse header, not m "p_i" columns — and no ineligible-machine
    // "inf" entries anywhere (absent deadlines still serialize as "inf").
    EXPECT_NE(text.find("eligible:8"), std::string::npos);
    EXPECT_EQ(text.find(":inf"), std::string::npos);

    std::string error;
    const auto reloaded = instance_from_csv(text, &error);
    ASSERT_TRUE(reloaded.has_value()) << error;
    EXPECT_EQ(reloaded->backend(), StorageBackend::kSparseCsr);
    expect_bit_identical(original, *reloaded);
    // Closed loop, same as the dense dialect.
    EXPECT_EQ(instance_to_csv(*reloaded), text) << "seed " << s;
  }
}

TEST(TraceRoundTrip, SparseDialectSurvivesExtremeMagnitudes) {
  const double tiny = 5e-324;
  const double next = std::nextafter(1.0, 2.0);
  std::vector<Job> jobs(3);
  jobs[0] = Job{0, 0.0, 1.0 / 3.0, kTimeInfinity};
  jobs[1] = Job{1, 1e-17, next, 1e-17 + 1e300};
  jobs[2] = Job{2, 1.0e300, 1e-300, kTimeInfinity};
  std::vector<std::vector<SparseEntry>> rows = {
      {{0, tiny}, {1, 1e300}},
      {{1, next}},
      {{0, 0.1}, {1, 1e-300}},
  };
  const Instance original =
      Instance::from_sparse_rows(jobs, 2, std::move(rows));
  ASSERT_EQ(original.validate(), "");

  const std::string text = instance_to_csv(original);
  std::string error;
  const auto reloaded = instance_from_csv(text, &error);
  ASSERT_TRUE(reloaded.has_value()) << error;
  expect_bit_identical(original, *reloaded);
  EXPECT_EQ(instance_to_csv(*reloaded), text);
}

TEST(TraceRoundTrip, ChunkedReaderHandsOutSparseJobsInTheSparseForm) {
  WorkloadConfig config;
  config.num_jobs = 200;
  config.num_machines = 6;
  config.seed = base_seed() + 400;
  config.machines.model = MachineModel::kRestricted;
  config.machines.eligibility = 0.4;
  const Instance original =
      generate_workload(config).with_backend(StorageBackend::kSparseCsr);
  const std::string text = instance_to_csv(original);

  for (const std::size_t chunk_size : {1ul, 7ul, 100000ul}) {
    std::istringstream in(text);
    TraceStreamReader reader(in);
    ASSERT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(reader.format(), TraceFormat::kSparse);
    EXPECT_EQ(reader.num_machines(), original.num_machines());

    std::size_t at = 0;
    std::vector<StreamJob> chunk;
    while (reader.next_chunk(chunk_size, chunk) > 0) {
      for (const StreamJob& job : chunk) {
        ASSERT_LT(at, original.num_jobs());
        const auto j = static_cast<JobId>(at);
        EXPECT_EQ(job.release, original.job(j).release);
        EXPECT_TRUE(job.processing.empty());
        const EligibleMachines eligible = original.eligible_machines(j);
        ASSERT_EQ(job.entries.size(), eligible.size());
        for (std::size_t k = 0; k < job.entries.size(); ++k) {
          EXPECT_EQ(job.entries[k].machine, eligible.begin()[k]);
          EXPECT_EQ(job.entries[k].p,
                    original.processing_unchecked(eligible.begin()[k], j));
        }
        ++at;
      }
    }
    ASSERT_TRUE(reader.ok()) << reader.error();
    EXPECT_EQ(at, original.num_jobs());
  }
}

TEST(TraceRoundTrip, MalformedSparseInputComesBackAsMessages) {
  std::string error;
  // Broken machine count in the header.
  EXPECT_FALSE(
      instance_from_csv("release,weight,deadline,eligible:zap\n", &error)
          .has_value());
  EXPECT_NE(error.find("bad header"), std::string::npos);
  EXPECT_FALSE(instance_from_csv("release,weight,deadline,eligible:0\n", &error)
                   .has_value());
  EXPECT_NE(error.find("bad header"), std::string::npos);
  // Negative counts and counts past MachineId's range are refused too.
  EXPECT_FALSE(instance_from_csv(
                   "release,weight,deadline,eligible:-3\n1,1,inf,0:2\n", &error)
                   .has_value());
  EXPECT_NE(error.find("bad header"), std::string::npos);
  EXPECT_FALSE(
      instance_from_csv(
          "release,weight,deadline,eligible:3000000000\n1,1,inf,0:2\n", &error)
          .has_value());
  EXPECT_NE(error.find("bad header"), std::string::npos);

  // Rows must have exactly 4 fields.
  EXPECT_FALSE(instance_from_csv(
                   "release,weight,deadline,eligible:3\n1,1,inf,0:2,1:3\n",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("wrong arity"), std::string::npos);

  // Token shapes: missing colon, non-numeric halves.
  EXPECT_FALSE(instance_from_csv(
                   "release,weight,deadline,eligible:3\n1,1,inf,0:2 1\n",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("malformed i:p entry"), std::string::npos);
  EXPECT_FALSE(instance_from_csv(
                   "release,weight,deadline,eligible:3\n1,1,inf,a:2\n", &error)
                   .has_value());
  EXPECT_NE(error.find("malformed i:p entry"), std::string::npos);
  EXPECT_FALSE(instance_from_csv(
                   "release,weight,deadline,eligible:3\n1,1,inf,0:zap\n",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("malformed i:p entry"), std::string::npos);
  // Machine ids are decimal digits only: no sign, no leading blank.
  for (const char* id : {"-1", "+1", "\t1"}) {
    EXPECT_FALSE(instance_from_csv("release,weight,deadline,eligible:3\n"
                                   "1,1,inf," + std::string(id) + ":2\n",
                                   &error)
                     .has_value())
        << id;
    EXPECT_NE(error.find("malformed i:p entry"), std::string::npos) << error;
  }

  // Structural demands are diagnosed with the row number, never an abort:
  // out-of-range ids, duplicates, descending order.
  EXPECT_FALSE(instance_from_csv(
                   "release,weight,deadline,eligible:3\n1,1,inf,3:2\n", &error)
                   .has_value());
  EXPECT_NE(error.find("names machine 3"), std::string::npos);
  EXPECT_FALSE(instance_from_csv(
                   "release,weight,deadline,eligible:3\n1,1,inf,1:2 1:3\n",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("strictly ascending"), std::string::npos);
  EXPECT_FALSE(instance_from_csv(
                   "release,weight,deadline,eligible:3\n1,1,inf,2:2 1:3\n",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("strictly ascending"), std::string::npos);

  // Value problems surface through validate(), like the dense dialect.
  EXPECT_FALSE(instance_from_csv(
                   "release,weight,deadline,eligible:3\n1,1,inf,0:-2\n",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("invalid instance"), std::string::npos);
  EXPECT_FALSE(instance_from_csv(
                   "release,weight,deadline,eligible:3\n1,1,inf,0:inf\n",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("invalid instance"), std::string::npos);
  // An empty pair list parses to a job with no eligible machine — invalid
  // instance, not a parse abort.
  EXPECT_FALSE(instance_from_csv(
                   "release,weight,deadline,eligible:3\n1,1,inf,\n", &error)
                   .has_value());
  EXPECT_NE(error.find("no eligible machine"), std::string::npos);
}

// --------------------------------------------------- dialect-quirk wall
//
// Pins what the reader accepts beyond the writer's own output — line-ending
// and quoting quirks, strtod's numeric grammar, rows longer than any read
// block — as the exact bits next_chunk hands out, at several chunk sizes.

struct ExpectedRow {
  double release, weight, deadline;
  std::vector<double> p;
};

void append_hex(std::string& dump, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a ", v);
  dump += buf;
}

/// Every job next_chunk hands out, one "%a" line each, then "ok" or the
/// reader's error.
std::string dump_reader(const std::string& text, std::size_t chunk_size) {
  std::istringstream in(text);
  TraceStreamReader reader(in);
  std::string dump;
  std::vector<StreamJob> chunk;
  while (reader.next_chunk(chunk_size, chunk) > 0) {
    EXPECT_LE(chunk.size(), chunk_size);
    for (const StreamJob& job : chunk) {
      append_hex(dump, job.release);
      append_hex(dump, job.weight);
      append_hex(dump, job.deadline);
      for (const Work p : job.processing) append_hex(dump, p);
      dump += '\n';
    }
  }
  EXPECT_TRUE(chunk.empty());
  return dump + (reader.ok() ? "ok" : "error: " + reader.error());
}

std::string dump_expected(const std::vector<ExpectedRow>& rows,
                          const std::string& tail) {
  std::string dump;
  for (const ExpectedRow& row : rows) {
    append_hex(dump, row.release);
    append_hex(dump, row.weight);
    append_hex(dump, row.deadline);
    for (const double p : row.p) append_hex(dump, p);
    dump += '\n';
  }
  return dump + tail;
}

void expect_reads(const std::string& text, const std::vector<ExpectedRow>& rows,
                  const std::string& tail = "ok") {
  const std::string expected = dump_expected(rows, tail);
  for (const std::size_t chunk_size : {1ul, 2ul, 7ul, 1000ul}) {
    EXPECT_EQ(dump_reader(text, chunk_size), expected)
        << "chunk size " << chunk_size;
  }
}

constexpr double kInf = kTimeInfinity;

TEST(TraceDialectQuirks, CrlfBlankAndEmptyQuotedLinesAreSkipped) {
  expect_reads(
      "release,weight,deadline,p_0\r\n1,1,inf,2\r\n\r\n\n\"\"\n3,1,inf,4\r\n",
      {{1, 1, kInf, {2}}, {3, 1, kInf, {4}}});
}

TEST(TraceDialectQuirks, QuotedFieldsParseAsTheirContents) {
  expect_reads(
      "\"release\",weight,deadline,p_0,p_1\n\"1.5\",1,\"inf\",\"2\",3\n",
      {{1.5, 1, kInf, {2, 3}}});
}

TEST(TraceDialectQuirks, LastRowNeedsNoNewline) {
  const std::vector<ExpectedRow> rows = {{1, 1, kInf, {2}}, {3, 1, kInf, {4}}};
  expect_reads("release,weight,deadline,p_0\n1,1,inf,2\n3,1,inf,4", rows);
  expect_reads("release,weight,deadline,p_0\n1,1,inf,2\n3,1,inf,4\r", rows);
}

TEST(TraceDialectQuirks, NumericFieldsFollowStrtod) {
  // A leading '+' or blank, hex floats, overflow to inf, underflow to 0,
  // and the smallest denormal.
  expect_reads(
      "release,weight,deadline,p_0,p_1,p_2,p_3\n"
      "+1, 2,1e400,0x1p3,1e-400,4.9406564584124654e-324,-0\n",
      {{1, 2, kInf, {8, 0, 4.9406564584124654e-324, -0.0}}});
}

TEST(TraceDialectQuirks, MalformedCsvAfterGoodRowsReturnsTheGoodRowsFirst) {
  expect_reads(
      "release,weight,deadline,p_0\n1,1,inf,2\n3,1,inf,4\n5,1,\"inf,6\n"
      "7,1,inf,8\n",
      {{1, 1, kInf, {2}}, {3, 1, kInf, {4}}}, "error: malformed CSV");
}

TEST(TraceDialectQuirks, RowsWiderThanAReadBlockParseExactly) {
  // At m = 20000 a row is ~400 KB, several times any read block.
  for (const std::size_t m : {5000ul, 20000ul}) {
    std::string text = "release,weight,deadline";
    for (std::size_t i = 0; i < m; ++i) text += ",p_" + std::to_string(i);
    text += '\n';
    std::vector<ExpectedRow> rows;
    for (std::size_t r = 0; r < 3; ++r) {
      ExpectedRow row{static_cast<double>(r), 1.0 / 3.0, kInf, {}};
      for (std::size_t i = 0; i < m; ++i) {
        row.p.push_back(i % 7 == r ? kInf : 1.0 / (1.0 + i + r));
      }
      text += std::to_string(r) + ",0.33333333333333331,inf";
      for (const double p : row.p) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), p < kInf ? ",%.17g" : ",inf", p);
        text += buf;
      }
      text += '\n';
      rows.push_back(std::move(row));
    }
    expect_reads(text, rows);
  }
}

TEST(TraceRoundTrip, WriterConvertsBetweenPayloadFormsAndDialects) {
  // One job, submitted in both payload forms, serialized in both dialects:
  // all four (form, dialect) combinations must produce the same bytes as
  // the canonical same-dialect pairing.
  StreamJob dense_form;
  dense_form.release = 1.5;
  dense_form.weight = 2.0;
  dense_form.deadline = kTimeInfinity;
  dense_form.processing = {kTimeInfinity, 0.75, kTimeInfinity, 3.25};
  StreamJob sparse_form;
  sparse_form.release = 1.5;
  sparse_form.weight = 2.0;
  sparse_form.deadline = kTimeInfinity;
  sparse_form.entries = {{1, 0.75}, {3, 3.25}};

  const auto serialize = [](const StreamJob& job, TraceFormat format) {
    std::ostringstream out;
    TraceStreamWriter writer(out, 4, format);
    writer.write_job(job);
    return out.str();
  };
  EXPECT_EQ(serialize(dense_form, TraceFormat::kDense),
            serialize(sparse_form, TraceFormat::kDense));
  EXPECT_EQ(serialize(dense_form, TraceFormat::kSparse),
            serialize(sparse_form, TraceFormat::kSparse));
}

}  // namespace
}  // namespace osched::workload
