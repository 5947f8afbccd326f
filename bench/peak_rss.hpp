// Process peak resident set, shared by the scenarios that report
// peak_rss_mib. Kept under bench/ (not src/) because only scenarios read it.
#pragma once

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace osched::bench {

/// Process peak RSS in MiB (0.0 where unsupported). Monotone over the
/// process lifetime: a case's reading includes every earlier case in the
/// same process, so it sizes single-unit (--jobs 1) runs, and grids list
/// their compact cases first.
inline double peak_rss_mib() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
#endif
#else
  return 0.0;
#endif
}

}  // namespace osched::bench
