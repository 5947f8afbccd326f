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

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz_seed.hpp"
#include "util/csv.hpp"
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

TEST(TraceDialectQuirks, CarriageReturnOnlyLinesAreBlank) {
  // "\r\r\n" is a blank line, like a bare "\r\n".
  expect_reads("release,weight,deadline,p_0\n1,1,inf,2\n\r\r\n3,1,inf,4\n",
               {{1, 1, kInf, {2}}, {3, 1, kInf, {4}}});
  expect_reads(
      "release,weight,deadline,p_0\r\n1,1,inf,2\r\n\r\r\r\n3,1,inf,4",
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

// ------------------------------------------- writer bytes vs snprintf
//
// The writer formats with std::to_chars(general, 17); its bytes must be
// what "%.17g" printed, with +infinity as "inf", in both dialects.

std::string snprintf_value(double v) {
  if (v >= kTimeInfinity) return "inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::vector<double> writer_values(std::uint64_t seed) {
  const double dmin = std::numeric_limits<double>::min();
  std::vector<double> values = {
      0.0, -0.0, 1.0, 1.0 / 3.0, 0.1, 1e21, 1e22, 123456789012345678.0,
      std::numeric_limits<double>::max(), -std::numeric_limits<double>::max(),
      dmin, std::nextafter(dmin, 0.0), std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(), kTimeInfinity, -kTimeInfinity,
      std::numeric_limits<double>::quiet_NaN()};
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> small(0.0, 8.0);
  for (int k = 0; k < 20000; ++k) {
    values.push_back(k % 2 == 0 ? std::bit_cast<double>(rng()) : small(rng));
  }
  return values;
}

TEST(TraceWriterBytes, RowsMatchTheSnprintfReferenceInBothDialects) {
  constexpr std::size_t kM = 5;
  const std::vector<double> values = writer_values(base_seed() + 500);
  std::ostringstream dense_out;
  std::ostringstream sparse_out;
  std::ostringstream scattered_out;  // sparse payload, dense dialect
  std::ostringstream listed_out;     // sparse payload, sparse dialect
  TraceStreamWriter dense(dense_out, kM, TraceFormat::kDense);
  TraceStreamWriter sparse(sparse_out, kM, TraceFormat::kSparse);
  TraceStreamWriter scattered(scattered_out, kM, TraceFormat::kDense);
  TraceStreamWriter listed(listed_out, kM, TraceFormat::kSparse);
  std::string dense_text = "release,weight,deadline,p_0,p_1,p_2,p_3,p_4\n";
  std::string sparse_text = "release,weight,deadline,eligible:5\n";
  std::string scattered_text = dense_text;
  std::string listed_text = sparse_text;

  std::size_t at = 0;
  const auto next = [&] { return values[at++ % values.size()]; };
  for (std::size_t row = 0; row * (3 + kM) < values.size() + 3 + kM; ++row) {
    StreamJob job;
    job.release = next();
    job.weight = next();
    job.deadline = next();
    for (std::size_t i = 0; i < kM; ++i) job.processing.push_back(next());
    std::string fields = snprintf_value(job.release);
    for (const double v : {job.weight, job.deadline}) {
      fields += ',';
      fields += snprintf_value(v);
    }
    std::string dense_row = fields;
    std::string pairs;
    for (std::size_t i = 0; i < kM; ++i) {
      dense_row += ',';
      dense_row += snprintf_value(job.processing[i]);
      if (job.processing[i] < kTimeInfinity) {
        if (!pairs.empty()) pairs += ' ';
        pairs += std::to_string(i);
        pairs += ':';
        pairs += snprintf_value(job.processing[i]);
      }
    }
    dense.write_job(job);
    dense_text += dense_row + "\n";
    sparse.write_job(job);
    sparse_text += fields + "," + pairs + "\n";

    // The same values as explicit entries on every other machine.
    StreamJob entries = job;
    entries.processing.clear();
    std::string scattered_row = fields;
    std::string listed_pairs;
    for (std::size_t i = 0; i < kM; ++i) {
      if (i % 2 == row % 2) {
        entries.entries.push_back(
            SparseEntry{static_cast<MachineId>(i), job.processing[i]});
        scattered_row += ',';
        scattered_row += snprintf_value(job.processing[i]);
        if (!listed_pairs.empty()) listed_pairs += ' ';
        listed_pairs += std::to_string(i);
        listed_pairs += ':';
        listed_pairs += snprintf_value(job.processing[i]);
      } else {
        scattered_row += ",inf";
      }
    }
    scattered.write_job(entries);
    scattered_text += scattered_row + "\n";
    listed.write_job(entries);
    listed_text += fields + "," + listed_pairs + "\n";
  }
  EXPECT_EQ(dense_out.str(), dense_text);
  EXPECT_EQ(sparse_out.str(), sparse_text);
  EXPECT_EQ(scattered_out.str(), scattered_text);
  EXPECT_EQ(listed_out.str(), listed_text);
}

// ------------------------------------------ reader differential fuzz
//
// Random dense traces mixing the writer's own numerals with every quirk
// the dialect admits or refuses, read at several chunk sizes and compared
// with an independent reference: lines split on ',' (or, for a line
// holding '"' or '\r', by util::parse_csv, the dialect's one home of
// quoting rules), each field's value exactly what strtod reads over the
// whole field ("inf" included), and the first failing row diagnosed
// arity first, then job fields, then p_ij.

/// A field that strtod reads whole: the reader's numeric grammar.
bool strtod_field(const std::string& field, double& v) {
  char* end = nullptr;
  v = std::strtod(field.c_str(), &end);
  return end != field.c_str() && *end == '\0';
}

struct ReferenceRead {
  std::vector<std::vector<double>> rows;  // release, weight, deadline, p...
  std::string error;                      // empty: clean end of trace
  bool keeps_partial_chunk = true;        // false: the failing chunk is dropped
};

ReferenceRead reference_read(const std::string& text, std::size_t m) {
  ReferenceRead read;
  std::vector<std::string> lines;
  std::size_t from = 0;
  while (from < text.size()) {
    const std::size_t newline = text.find('\n', from);
    const std::size_t to = newline == std::string::npos ? text.size() : newline;
    lines.push_back(text.substr(from, to - from));
    from = to + 1;
  }
  const auto reject = [&](std::size_t line, const char* what) {
    read.error = "row " + std::to_string(line) + " " + what;
    read.keeps_partial_chunk = false;
  };
  for (std::size_t line = 1; line < lines.size(); ++line) {
    std::string text_line = lines[line];
    if (!text_line.empty() && text_line.back() == '\r') text_line.pop_back();
    if (text_line.empty()) continue;
    std::vector<std::string> fields;
    if (text_line.find_first_of("\"\r") != std::string::npos) {
      auto rows = util::parse_csv(text_line);
      if (!rows || rows->size() > 1) {
        read.error = "malformed CSV";
        return read;
      }
      if (rows->empty()) continue;  // only carriage returns: a blank line
      fields = (*rows)[0];
      if (fields.size() == 1 && fields[0].empty()) continue;
    } else {
      std::size_t start = 0;
      for (;;) {
        const std::size_t comma = text_line.find(',', start);
        fields.push_back(text_line.substr(start, comma - start));
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    }
    if (fields.size() != m + 3) {
      reject(line, "has wrong arity");
      return read;
    }
    std::vector<double> row(m + 3);
    bool job_ok = true;
    for (std::size_t k = 0; k < 3; ++k) job_ok &= strtod_field(fields[k], row[k]);
    if (!job_ok) {
      reject(line, "has non-numeric job fields");
      return read;
    }
    for (std::size_t k = 3; k < m + 3; ++k) {
      if (!strtod_field(fields[k], row[k])) {
        reject(line, "has non-numeric p_ij");
        return read;
      }
    }
    read.rows.push_back(std::move(row));
  }
  return read;
}

void append_bits(std::string& dump, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx ",
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  dump += buf;
}

std::string dump_bits_reader(const std::string& text, std::size_t chunk_size) {
  std::istringstream in(text);
  TraceStreamReader reader(in);
  std::string dump;
  std::vector<StreamJob> chunk;
  while (reader.next_chunk(chunk_size, chunk) > 0) {
    for (const StreamJob& job : chunk) {
      append_bits(dump, job.release);
      append_bits(dump, job.weight);
      append_bits(dump, job.deadline);
      for (const Work p : job.processing) append_bits(dump, p);
      dump += '\n';
    }
  }
  return dump + (reader.ok() ? "ok" : "error: " + reader.error());
}

std::string dump_bits_expected(const ReferenceRead& read,
                               std::size_t chunk_size) {
  // A row-level rejection drops the rows of the chunk it happens in.
  const std::size_t kept =
      read.keeps_partial_chunk
          ? read.rows.size()
          : read.rows.size() / chunk_size * chunk_size;
  std::string dump;
  for (std::size_t r = 0; r < kept; ++r) {
    for (const double v : read.rows[r]) append_bits(dump, v);
    dump += '\n';
  }
  return dump + (read.error.empty() ? "ok" : "error: " + read.error);
}

/// One dense field: mostly the writer's own numerals, sometimes a quirk;
/// one quirk in sixteen is a field the reader must refuse.
std::string fuzz_field(std::mt19937_64& rng, int quirk_percent) {
  static const std::vector<std::string> kAccepted = {
      "inf", "infinity", "INF", "Infinity", "-inf", "-0", "+1", " 2", "\t3",
      "0x1p3", "0X1P-2", "1e400", "-1e400", "1e-400", "1e-310",
      "4.9406564584124654e-324", "2.2250738585072009e-308", "nan", "NAN",
      "-nan", "nan(123)", "\"1.5\"", "\"inf\"", "1.", ".5", "1e+5",
      "1\r2", "3\r"};
  static const std::vector<std::string> kRefused = {
      "2 ", "\"\"", "\"1,5\"", "", "zap", "1e", "  ", "\"1", "1\"2", "0x",
      "infx", "--1"};
  if (static_cast<int>(rng() % 100) < quirk_percent) {
    const auto& pool = rng() % 16 == 0 ? kRefused : kAccepted;
    return pool[rng() % pool.size()];
  }
  double v = 0.0;
  switch (rng() % 4) {
    case 0: v = std::bit_cast<double>(rng()); break;
    case 1: v = static_cast<double>(rng() % 1000) / 8.0; break;
    default: v = std::ldexp(static_cast<double>(rng() >> 11), -53) * 8.0;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string fuzz_trace(std::mt19937_64& rng, std::size_t m) {
  const int quirk_percent = static_cast<int>(rng() % 4) * 4;  // 0 to 12
  const bool crlf = rng() % 4 == 0;
  std::string text = "release,weight,deadline";
  for (std::size_t i = 0; i < m; ++i) text += ",p_" + std::to_string(i);
  text += crlf ? "\r\n" : "\n";
  const std::size_t rows = 1 + rng() % 40;
  for (std::size_t r = 0; r < rows; ++r) {
    switch (rng() % 40) {
      case 0: text += crlf ? "\r\n" : "\n"; break;  // blank line
      case 1: text += "\"\"\n"; break;              // empty quoted line
      case 2: text += "\r\r\n"; break;                // carriage returns only
      default: break;
    }
    std::size_t arity = m + 3;
    switch (rng() % 200) {
      case 0: ++arity; break;
      case 1: --arity; break;
      default: break;
    }
    for (std::size_t k = 0; k < arity; ++k) {
      if (k > 0) text += ',';
      text += fuzz_field(rng, quirk_percent);
    }
    if (r + 1 < rows || rng() % 3 != 0) text += crlf ? "\r\n" : "\n";
  }
  return text;
}

TEST(TraceReaderFuzz, SinglePassMatchesTheStrtodReference) {
  std::mt19937_64 rng(base_seed() + 600);
  std::size_t rows_read = 0;
  std::size_t errors = 0;
  std::set<std::string> diagnoses;
  for (int trace = 0; trace < 600; ++trace) {
    const std::size_t m = 1 + rng() % 6;
    const std::string text = fuzz_trace(rng, m);
    const ReferenceRead read = reference_read(text, m);
    rows_read += read.rows.size();
    if (!read.error.empty()) {
      ++errors;
      // "row N has ..." without its row number.
      const std::size_t has = read.error.find("has");
      diagnoses.insert(has == std::string::npos ? read.error
                                                : read.error.substr(has));
    }
    for (const std::size_t chunk_size : {1ul, 7ul, 256ul}) {
      ASSERT_EQ(dump_bits_reader(text, chunk_size),
                dump_bits_expected(read, chunk_size))
          << "trace " << trace << " chunk size " << chunk_size << ":\n"
          << text;
    }
  }
  // Both outcomes, and every diagnosis, must be well represented for the
  // wall to mean anything.
  EXPECT_GT(rows_read, 2000u);
  EXPECT_GT(errors, 100u);
  EXPECT_LT(errors, 500u);
  EXPECT_EQ(diagnoses,
            (std::set<std::string>{"has wrong arity", "has non-numeric job fields",
                                   "has non-numeric p_ij", "malformed CSV"}));
}

}  // namespace
}  // namespace osched::workload
