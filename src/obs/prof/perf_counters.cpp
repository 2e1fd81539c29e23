#include "obs/prof/perf_counters.hpp"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace afl::obs::prof {
namespace {

std::atomic<bool> g_counters_enabled{env_switch("AFL_PROF_COUNTERS", true)};

std::atomic<bool> g_any_opened{false};
std::atomic<bool> g_noticed{false};
char g_reason[128] = {0};
std::mutex g_reason_mu;

void note_unavailable(const char* what, int err) {
  {
    std::lock_guard<std::mutex> lock(g_reason_mu);
    if (g_reason[0] == '\0') {
      std::snprintf(g_reason, sizeof(g_reason), "%s: %s", what,
                    err != 0 ? std::strerror(err) : "unsupported");
    }
  }
  if (!g_noticed.exchange(true)) {
    std::fprintf(stderr,
                 "[obs.prof] hardware counters unavailable (%s); spans fall "
                 "back to wall/CPU clocks only\n",
                 g_reason);
  }
}

#if defined(__linux__)
long perf_open(struct perf_event_attr* attr, pid_t pid, int cpu, int group_fd,
               unsigned long flags) {
  return syscall(SYS_perf_event_open, attr, pid, cpu, group_fd, flags);
}

struct EventSpec {
  std::uint32_t type;
  std::uint64_t config;
};

constexpr EventSpec kEvents[kNumHwCounters] = {
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_REFERENCES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES},
};
#endif

}  // namespace

bool env_switch(const char* name, bool fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') return fallback;
  if (std::strcmp(env, "0") == 0) return false;
  if (std::strcmp(env, "1") == 0) return true;
  std::fprintf(stderr, "[obs.prof] ignoring %s=%s: expected 0 or 1; staying %s\n",
               name, env, fallback ? "on" : "off");
  return fallback;
}

const char* hw_counter_name(std::size_t id) {
  switch (id) {
    case kHwCycles: return "cycles";
    case kHwInstructions: return "instructions";
    case kHwCacheRefs: return "cache_references";
    case kHwCacheMisses: return "cache_misses";
    case kHwBranchMisses: return "branch_misses";
  }
  return "?";
}

HwCounterGroup::HwCounterGroup() {
  fds_.fill(-1);
  slot_of_.fill(-1);
#if defined(__linux__)
  if (!counters_enabled()) {
    note_unavailable("disabled (AFL_PROF_COUNTERS=0)", 0);
    return;
  }
  for (std::size_t i = 0; i < kNumHwCounters; ++i) {
    struct perf_event_attr attr;
    std::memset(&attr, 0, sizeof(attr));
    attr.size = sizeof(attr);
    attr.type = kEvents[i].type;
    attr.config = kEvents[i].config;
    attr.disabled = (i == 0) ? 1 : 0;  // leader starts the whole group
    attr.exclude_kernel = 1;           // stay legal at perf_event_paranoid<=2
    attr.exclude_hv = 1;
    attr.read_format = PERF_FORMAT_GROUP;
    const long fd = perf_open(&attr, /*pid=*/0, /*cpu=*/-1,
                              /*group_fd=*/leader_fd_, /*flags=*/0);
    if (fd < 0) {
      if (i == 0) {
        // No leader, no group: the host blocks perf entirely.
        note_unavailable("perf_event_open", errno);
        return;
      }
      continue;  // partial hosts (VMs) keep whatever slots did open
    }
    if (i == 0) leader_fd_ = static_cast<int>(fd);
    fds_[i] = static_cast<int>(fd);
    slot_of_[opened_] = static_cast<int>(i);
    ++opened_;
    mask_ |= 1u << i;
  }
  ioctl(leader_fd_, PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP);
  ioctl(leader_fd_, PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP);
  g_any_opened.store(true, std::memory_order_relaxed);
#else
  note_unavailable("perf_event_open is Linux-only", 0);
#endif
}

HwCounterGroup::~HwCounterGroup() {
#if defined(__linux__)
  for (int fd : fds_) {
    if (fd >= 0) close(fd);
  }
#endif
}

HwSample HwCounterGroup::read() const {
  HwSample s;
#if defined(__linux__)
  if (leader_fd_ < 0) return s;
  // PERF_FORMAT_GROUP layout: u64 nr, then one u64 per opened member in
  // open order.
  std::uint64_t buf[1 + kNumHwCounters] = {0};
  const ssize_t n = ::read(leader_fd_, buf, sizeof(buf));
  if (n < static_cast<ssize_t>(sizeof(std::uint64_t))) return s;
  const std::uint64_t nr = buf[0];
  for (std::uint64_t j = 0; j < nr && j < opened_; ++j) {
    const int slot = slot_of_[j];
    if (slot >= 0) s.v[static_cast<std::size_t>(slot)] = buf[1 + j];
  }
  s.mask = mask_;
  s.valid = true;
#endif
  return s;
}

bool counters_enabled() {
  return g_counters_enabled.load(std::memory_order_relaxed);
}

void set_counters_enabled(bool on) {
  g_counters_enabled.store(on, std::memory_order_relaxed);
}

HwCounterGroup* thread_counters() {
  if (!counters_enabled()) {
    if (!g_noticed.load(std::memory_order_relaxed)) {
      note_unavailable("disabled (AFL_PROF_COUNTERS=0)", 0);
    }
    return nullptr;
  }
  thread_local HwCounterGroup group;
  return group.valid() ? &group : nullptr;
}

bool counters_available() {
  return g_any_opened.load(std::memory_order_relaxed);
}

const char* counters_unavailable_reason() {
  std::lock_guard<std::mutex> lock(g_reason_mu);
  return g_reason;
}

}  // namespace afl::obs::prof
