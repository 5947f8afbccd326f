// Measurement plumbing for osched_perf: a steady clock, a fixed log-bucket
// latency histogram, the span tracer, and the metric sink that prints every
// metric with its unit.
//
// Nothing here calls into the library; the workloads in osched_perf.cpp
// time the public calls from outside and hand the numbers to these types.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perf {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process high-water RSS in MiB (VmHWM), 0 when /proc is unavailable.
inline double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    std::getline(status, key);
  }
  return 0.0;
}

/// Latency histogram with 64 sub-buckets per octave of nanoseconds (bucket
/// width under 1.6% of its value; values below 64 ns are exact). Fixed size,
/// so recording millions of samples adds no memory. Quantiles interpolate
/// linearly inside the bucket that holds the requested rank.
class LatencyHistogram {
 public:
  void record(std::int64_t ns) {
    const auto v = static_cast<std::uint64_t>(std::max<std::int64_t>(ns, 0));
    ++counts_[index(v)];
    ++total_;
  }
  std::uint64_t count() const { return total_; }

  /// Quantile in nanoseconds, q in [0, 1]; 0 for an empty histogram.
  double quantile(double q) const {
    if (total_ == 0) return 0.0;
    const double rank = q * static_cast<double>(total_ - 1);
    std::uint64_t below = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      if (counts_[b] == 0) continue;
      if (static_cast<double>(below + counts_[b]) > rank) {
        const double within =
            (rank - static_cast<double>(below) + 0.5) /
            static_cast<double>(counts_[b]);
        return lower(b) + within * width(b);
      }
      below += counts_[b];
    }
    return lower(kBuckets - 1);
  }

 private:
  static constexpr std::size_t kSub = 64;
  static constexpr std::size_t kBuckets = kSub + (64 - 6) * kSub;

  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int e = 63 - std::countl_zero(v);  // >= 6
    const std::uint64_t sub = (v >> (e - 6)) - kSub;
    return kSub + static_cast<std::size_t>(e - 6) * kSub +
           static_cast<std::size_t>(sub);
  }
  static double lower(std::size_t b) {
    if (b < kSub) return static_cast<double>(b);
    const std::size_t e = (b - kSub) / kSub + 6;
    const std::size_t sub = (b - kSub) % kSub;
    return static_cast<double>(kSub + sub) *
           static_cast<double>(std::uint64_t{1} << (e - 6));
  }
  static double width(std::size_t b) {
    if (b < kSub) return 1.0;
    const std::size_t e = (b - kSub) / kSub + 6;
    return static_cast<double>(std::uint64_t{1} << (e - 6));
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

/// Span recorder for the traced run. Every call boundary adds its duration
/// to a per-name busy total; the spans themselves are kept only for every
/// kSampleEvery-th operation. The wall of every traced unit is summed too,
/// so the time no span covers (benchmark loop, tracer) shows as a gap.
class Tracer {
 public:
  static constexpr std::uint64_t kSampleEvery = 64;

  /// Starts operation `op`. Its spans are kept when `op` is a multiple of
  /// kSampleEvery, or always with `keep` (rare, long calls such as drains).
  void begin_op(std::uint64_t op, bool keep = false) {
    op_ = op;
    keep_ = keep || op % kSampleEvery == 0;
  }

  /// Parent of a call the benchmark makes itself.
  static constexpr std::int64_t kRoot = -1;
  /// Id of a span whose operation is not sampled; still a valid parent.
  static constexpr std::int64_t kUnsampled = -2;

  /// Records a finished call [start, end) under `name`, child of span
  /// `parent` (kRoot for a call the benchmark makes itself). Returns the
  /// span's id for use as a parent.
  std::int64_t span(const char* name, std::int64_t parent, std::int64_t start,
                    std::int64_t end) {
    Busy& busy = busy_of(name, parent == kRoot);
    busy.ns += end - start;
    ++busy.calls;
    if (!keep_) return kUnsampled;
    spans_.push_back({op_, name, parent, start, end});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }

  /// Records one traced unit's wall, set-up to bookkeeping included.
  void unit(std::int64_t start, std::int64_t end) {
    wall_ns_ += end - start;
    ++units_;
  }
  double wall_s() const { return static_cast<double>(wall_ns_) * 1e-9; }

  // Totals are summed over every entry with the name: equal literals need
  // not share an address.
  double busy_s(std::string_view name) const {
    std::int64_t ns = 0;
    for (const Busy& busy : busy_) {
      if (name == busy.name) ns += busy.ns;
    }
    return static_cast<double>(ns) * 1e-9;
  }
  std::uint64_t calls(std::string_view name) const {
    std::uint64_t calls = 0;
    for (const Busy& busy : busy_) {
      if (name == busy.name) calls += busy.calls;
    }
    return calls;
  }

  /// Writes the sampled spans, then one busy total per name (whether its
  /// calls are roots, their count and summed nanoseconds), then the summed
  /// wall of the traced units, all as JSON lines.
  bool write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    for (std::size_t id = 0; id < spans_.size(); ++id) {
      const Span& s = spans_[id];
      std::fprintf(out,
                   "{\"id\":%zu,\"op\":%llu,\"name\":\"%s\",\"parent\":%lld,"
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   id, static_cast<unsigned long long>(s.op), s.name,
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.start), static_cast<long long>(s.end));
    }
    for (const Busy& busy : busy_) {
      std::fprintf(out,
                   "{\"total\":\"%s\",\"root\":%s,\"calls\":%llu,"
                   "\"busy_ns\":%lld}\n",
                   busy.name, busy.root ? "true" : "false",
                   static_cast<unsigned long long>(busy.calls),
                   static_cast<long long>(busy.ns));
    }
    std::fprintf(out, "{\"timed_wall_ns\":%lld,\"units\":%llu}\n",
                 static_cast<long long>(wall_ns_),
                 static_cast<unsigned long long>(units_));
    return std::fclose(out) == 0;
  }

 private:
  struct Span {
    std::uint64_t op;
    const char* name;
    std::int64_t parent;
    std::int64_t start;
    std::int64_t end;
  };
  struct Busy {
    const char* name;
    bool root;
    std::int64_t ns = 0;
    std::uint64_t calls = 0;
  };
  /// Span names are string literals, so a handful of pointer compares
  /// finds the total without hashing or allocating on the traced path.
  Busy& busy_of(const char* name, bool root) {
    for (Busy& busy : busy_) {
      if (busy.name == name && busy.root == root) return busy;
    }
    busy_.push_back({name, root});
    return busy_.back();
  }

  std::uint64_t op_ = 0;
  bool keep_ = false;
  std::vector<Span> spans_;
  std::vector<Busy> busy_;
  std::int64_t wall_ns_ = 0;
  std::uint64_t units_ = 0;
};

/// Named metrics with units, printed one per line and then as the final
/// JSON object the runner parses.
class MetricSink {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }

  void print(const std::string& workload, std::uint64_t attempted,
             std::uint64_t failed, std::uint64_t checks_failed) const {
    for (const auto& [name, m] : metrics_) {
      std::printf("metric %-40s %.17g %s\n", name.c_str(), m.value,
                  m.unit.c_str());
    }
    std::printf("{\"workload\": \"%s\", \"attempted\": %llu, \"failed\": %llu, "
                "\"checks_failed\": %llu, \"metrics\": {",
                workload.c_str(), static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(checks_failed));
    const char* sep = "";
    for (const auto& [name, m] : metrics_) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                  name.c_str(), m.value, m.unit.c_str());
      sep = ", ";
    }
    std::printf("}}\n");
  }

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
};

}  // namespace perf
