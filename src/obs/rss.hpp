#pragma once
// Process-memory observability: resident-set-size gauges for scale-out runs.
//
// Sharded (hierarchical) runs exist to fit 10^5-10^6 simulated
// clients in memory (docs/HIERARCHY.md); these helpers make that claim
// measurable. read_rss() parses /proc/self/status (VmRSS / VmHWM);
// sample_rss() additionally publishes the values as gauges:
//   afl.proc.rss.bytes       current resident set
//   afl.proc.rss.peak.bytes  process high-water mark
// On platforms without /proc the sample comes back invalid and no gauges are
// touched.

#include <cstddef>

namespace afl::obs {

struct RssSample {
  std::size_t rss_bytes = 0;   // current resident set (VmRSS)
  std::size_t peak_bytes = 0;  // high-water mark (VmHWM)
  bool valid = false;
};

/// Reads the current process RSS from /proc/self/status.
RssSample read_rss();

/// read_rss() + publishes the afl.proc.rss.* gauges when the read succeeds.
RssSample sample_rss();

}  // namespace afl::obs
