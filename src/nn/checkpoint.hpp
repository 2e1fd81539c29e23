#pragma once
// Binary checkpointing of parameter sets.
//
// Format (little-endian, as written by the host):
//   magic "AFLCKPT2" (8 bytes)
//   u64 entry count
//   per entry: u64 name length, name bytes, u64 rank, u64 dims[rank],
//              f32 data[numel]
//   u32 CRC-32 (util/crc32) of every byte after the magic
// Legacy "AFLCKPT1" files (identical layout, no CRC trailer) still load.
// The format is self-describing enough to reload into any model exposing the
// same names/shapes (server restart, warm-starting an experiment, shipping a
// trained global model to an edge deployment).

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/param.hpp"

namespace afl {

/// Writes `params` to `path`; throws std::runtime_error on I/O failure.
void save_checkpoint(const ParamSet& params, const std::string& path);

/// Reads a checkpoint; throws std::runtime_error on I/O or format errors,
/// including a count or a tensor the file's bytes cannot hold, which is
/// refused before it is allocated.
ParamSet load_checkpoint(const std::string& path);

/// An engine snapshot (docs/POPULATION.md), saved or resumed through one set
/// of primitives, so each section is written once for both directions.
///
/// Format: magic "AFLSNAP1" (8 bytes), then a caller-defined sequence of
/// typed primitives (u64 / f64 / length-prefixed strings / embedded ParamSet
/// bodies in the checkpoint layout above), then a u32 CRC-32 trailer over
/// every byte after the magic, the same integrity scheme as AFLCKPT2. The
/// engines version their layout with a leading format string.
///
/// Every primitive takes a reference: saving writes the value, resuming
/// overwrites it with the next field of the file. Resuming buffers the whole
/// file and verifies magic and CRC up front (so a flipped bit anywhere
/// reports as corruption, never as a structural mis-parse), and refuses a
/// count or a tensor the bytes left cannot hold before it allocates
/// anything. Errors throw std::runtime_error naming the file.
class SnapshotStream {
 public:
  enum class Mode { kSave, kResume };

  /// kSave opens `path` (truncating) and writes the magic; kResume reads and
  /// verifies it. Throws on I/O, magic or CRC errors.
  SnapshotStream(const std::string& path, Mode mode);
  ~SnapshotStream();
  SnapshotStream(const SnapshotStream&) = delete;
  SnapshotStream& operator=(const SnapshotStream&) = delete;

  bool saving() const { return saving_; }
  bool resuming() const { return !saving_; }

  void u64(std::uint64_t& v);
  void f64(double& v);
  /// A bool as a u64 0 or 1; any nonzero value resumes as true.
  void flag(bool& b);
  void str(std::string& s);
  void params(ParamSet& p);

  /// A count of `field` items, each at least `min_item_bytes` long. Resuming
  /// refuses a count the bytes left cannot hold.
  void count(std::uint64_t& n, std::size_t min_item_bytes, const char* field);

  /// count() then `item(x)` for each element of `v`, resized to the count
  /// when resuming.
  template <class T, class F>
  void items(std::vector<T>& v, std::size_t min_item_bytes, const char* field, F&& item) {
    std::uint64_t n = v.size();
    count(n, min_item_bytes, field);
    v.resize(n);
    for (T& x : v) item(x);
  }

  /// count() then `item(key, value)` for each entry of `m` in key order;
  /// resuming replaces `m` and refuses a repeated key.
  template <class K, class V, class F>
  void entries(std::map<K, V>& m, std::size_t min_item_bytes, const char* field, F&& item) {
    std::uint64_t n = m.size();
    count(n, min_item_bytes, field);
    if (saving_) {
      for (auto& [k, v] : m) {
        K key = k;
        item(key, v);
      }
      return;
    }
    m.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      K key{};
      V value{};
      item(key, value);
      if (!m.emplace(std::move(key), std::move(value)).second) reject_repeat(field);
    }
  }

  /// Saving: writes the CRC trailer and closes the file; a stream destroyed
  /// before finish() leaves the file CRC-less, hence unloadable. Resuming:
  /// throws if unread bytes remain, which catches layout drift.
  void finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  bool saving_;

  void bytes(void* data, std::size_t size);
  [[noreturn]] void reject_repeat(const char* field) const;
};

}  // namespace afl
