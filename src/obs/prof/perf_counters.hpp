#pragma once
// Hardware-counter groups over Linux perf_event_open(2). One HwCounterGroup
// owns a small group of per-thread counters (cycles, instructions,
// cache-references, cache-misses, branch-misses) read together so ratios
// (IPC, miss rates) are consistent.
//
// Availability is best-effort by design: containers commonly block the
// syscall via seccomp, /proc/sys/kernel/perf_event_paranoid can forbid it,
// VMs may virtualize only a subset of events, and non-Linux platforms lack
// it entirely. Every failure degrades to "no counters" — the profiler and
// bench reports then carry wall/CPU time only. The first failure prints a
// one-line stderr notice (once per process) with the errno so operators know
// why their BENCH_*.json has no cycle columns.

#include <array>
#include <cstddef>
#include <cstdint>

namespace afl::obs::prof {

/// Counter slots, in the order they appear in every sample array.
enum HwCounterId : std::size_t {
  kHwCycles = 0,
  kHwInstructions = 1,
  kHwCacheRefs = 2,
  kHwCacheMisses = 3,
  kHwBranchMisses = 4,
};
inline constexpr std::size_t kNumHwCounters = 5;

/// Stable short name of a counter slot ("cycles", "instructions", ...).
const char* hw_counter_name(std::size_t id);

/// One reading of a counter group. `valid` is false when the group could not
/// be opened at all; `mask` has bit i set when slot i actually counted (some
/// hosts expose cycles/instructions but not the cache events).
struct HwSample {
  std::array<std::uint64_t, kNumHwCounters> v{};
  std::uint32_t mask = 0;
  bool valid = false;

  bool has(std::size_t id) const { return (mask >> id) & 1u; }
};

/// A perf counter group bound to the calling thread (pid=0, any CPU,
/// user-space only — works up to perf_event_paranoid=2). Construct on the
/// thread that will be measured; read() returns cumulative counts since
/// construction.
class HwCounterGroup {
 public:
  HwCounterGroup();
  ~HwCounterGroup();
  HwCounterGroup(const HwCounterGroup&) = delete;
  HwCounterGroup& operator=(const HwCounterGroup&) = delete;

  /// True when at least the group leader (cycles) opened.
  bool valid() const { return leader_fd_ >= 0; }
  /// Bitmask of slots that opened (subset of all kNumHwCounters bits).
  std::uint32_t mask() const { return mask_; }

  /// Cumulative counts since construction. Invalid sample when !valid().
  HwSample read() const;

 private:
  int leader_fd_ = -1;
  std::array<int, kNumHwCounters> fds_{};   // -1 when the slot did not open
  std::array<int, kNumHwCounters> slot_of_; // read-buffer position -> slot
  std::size_t opened_ = 0;
  std::uint32_t mask_ = 0;
};

/// Reads a profiler on/off switch from the environment: unset or empty gives
/// `fallback`, "0" off and "1" on. Any other value prints one stderr warning
/// naming the variable and its value, and gives `fallback`.
bool env_switch(const char* name, bool fallback);

/// Process-wide counter policy: AFL_PROF_COUNTERS=0 (or set_counters_enabled
/// (false), which tests use to force the clock-only fallback) disables the
/// syscall entirely; unset, empty or 1 opens groups on demand.
bool counters_enabled();
void set_counters_enabled(bool on);

/// The lazily opened counter group of the calling thread; nullptr when
/// counters are disabled or unavailable on this host. The first thread that
/// fails to open a group records the reason and prints the one-line notice.
HwCounterGroup* thread_counters();

/// True once any thread successfully opened a group; false after a failure
/// or before first use.
bool counters_available();

/// Human-readable reason counters are unavailable ("" while they work or
/// were never tried).
const char* counters_unavailable_reason();

}  // namespace afl::obs::prof
