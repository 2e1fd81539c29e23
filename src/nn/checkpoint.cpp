#include "nn/checkpoint.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>

#include "obs/prof/prof.hpp"
#include "util/crc32.hpp"

namespace afl {
namespace {

// v1 has no integrity trailer; v2 appends a CRC-32 of everything after the
// magic. Both load; save always writes v2.
constexpr char kMagicV1[8] = {'A', 'F', 'L', 'C', 'K', 'P', 'T', '1'};
constexpr char kMagicV2[8] = {'A', 'F', 'L', 'C', 'K', 'P', 'T', '2'};
constexpr char kMagicSnap[8] = {'A', 'F', 'L', 'S', 'N', 'A', 'P', '1'};
// Guards against loading corrupted / truncated files into huge allocations.
constexpr std::uint64_t kMaxNameLen = 4096;
constexpr std::uint64_t kMaxRank = 8;
constexpr std::uint64_t kMaxNumel = 1ULL << 32;

/// Writes through to the stream while folding every byte into a running
/// CRC-32, so the trailer covers exactly what was written after the magic.
struct CrcWriter {
  std::ofstream& out;
  std::uint32_t state = kCrc32Init;

  void write(const void* data, std::size_t size) {
    out.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
    state = crc32_update(state, data, size);
  }
  void write_u64(std::uint64_t v) { write(&v, sizeof(v)); }
};

/// A whole file being parsed and the offset reached. Every size read from it
/// is checked against left() before it allocates.
struct ByteReader {
  std::string bytes;
  std::size_t pos = 0;
  const char* what = "checkpoint";  // message prefix
  std::string path;

  std::size_t left() const { return bytes.size() - pos; }

  [[noreturn]] void fail(const std::string& message) const {
    throw std::runtime_error(std::string(what) + ": " + message + " in " + path);
  }

  void read(void* data, std::size_t size) {
    if (size > left()) fail("truncated field");
    std::memcpy(data, bytes.data() + pos, size);
    pos += size;
  }

  std::uint64_t u64() {
    std::uint64_t v = 0;
    read(&v, sizeof(v));
    return v;
  }

  /// Reads a count of `field` items of at least `min_item_bytes` each, and
  /// refuses one the bytes left cannot hold.
  std::uint64_t count(std::size_t min_item_bytes, const char* field) {
    const std::uint64_t n = u64();
    if (n > left() / min_item_bytes) {
      fail(std::string(field) + " count " + std::to_string(n) + " too large for the " +
           std::to_string(left()) + " bytes left");
    }
    return n;
  }
};

/// Reads a file whole; throws when it cannot be opened.
std::string read_file(const std::string& path, const char* what) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error(std::string(what) + ": cannot open " + path);
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

/// Strips the magic and, when `crc`, verifies and strips the CRC-32 trailer
/// over the whole body before parsing, so a flipped bit anywhere (header or
/// payload) is reported as corruption rather than as whatever structural
/// error it happens to decode into.
void open_body(ByteReader& in, bool crc) {
  in.pos = sizeof(kMagicV2);
  if (!crc) return;
  if (in.left() < sizeof(std::uint32_t)) in.fail("truncated file");
  const std::size_t payload = in.bytes.size() - sizeof(std::uint32_t);
  std::uint32_t stored = 0;
  std::memcpy(&stored, in.bytes.data() + payload, sizeof(stored));
  if (crc32(in.bytes.data() + in.pos, payload - in.pos) != stored) {
    in.fail("CRC mismatch (corrupted file)");
  }
  in.bytes.resize(payload);
}

ParamSet read_body(ByteReader& in) {
  // Each entry holds at least its name length and rank.
  const std::uint64_t count = in.count(2 * sizeof(std::uint64_t), "parameter");
  ParamSet params;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t name_len = in.u64();
    if (name_len > kMaxNameLen) in.fail("name too long");
    std::string name(name_len, '\0');
    in.read(name.data(), name_len);
    const std::uint64_t rank = in.u64();
    if (rank > kMaxRank) in.fail("rank too large");
    Shape shape(rank);
    std::uint64_t numel = 1;
    for (std::uint64_t d = 0; d < rank; ++d) {
      shape[d] = in.u64();
      // Checked before the multiply, so no product can wrap below the cap.
      if (shape[d] != 0 && numel > kMaxNumel / shape[d]) in.fail("tensor too large");
      numel *= shape[d];
    }
    if (numel > in.left() / sizeof(float)) {
      in.fail("tensor \"" + name + "\" of " + std::to_string(numel) +
              " floats too large for the " + std::to_string(in.left()) + " bytes left");
    }
    Tensor t(shape);
    in.read(t.data(), t.numel() * sizeof(float));
    if (!params.emplace(std::move(name), std::move(t)).second) {
      in.fail("duplicate parameter name");
    }
  }
  return params;
}

void write_params_body(CrcWriter& w, const ParamSet& params) {
  w.write_u64(params.size());
  for (const auto& [name, tensor] : params) {
    w.write_u64(name.size());
    w.write(name.data(), name.size());
    w.write_u64(tensor.rank());
    for (std::size_t d = 0; d < tensor.rank(); ++d) w.write_u64(tensor.dim(d));
    w.write(tensor.data(), tensor.numel() * sizeof(float));
  }
}

}  // namespace

void save_checkpoint(const ParamSet& params, const std::string& path) {
  AFL_PROF_SPAN("ckpt.save");
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("checkpoint: cannot open " + path + " for write");
  out.write(kMagicV2, sizeof(kMagicV2));
  CrcWriter w{out};
  write_params_body(w, params);
  const std::uint32_t crc = crc32_final(w.state);
  out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  if (!out) throw std::runtime_error("checkpoint: write failed for " + path);
}

ParamSet load_checkpoint(const std::string& path) {
  AFL_PROF_SPAN("ckpt.load");
  ByteReader in{read_file(path, "checkpoint"), 0, "checkpoint", path};
  const bool v2 = in.bytes.compare(0, sizeof(kMagicV2), kMagicV2, sizeof(kMagicV2)) == 0;
  if (!v2 && in.bytes.compare(0, sizeof(kMagicV1), kMagicV1, sizeof(kMagicV1)) != 0) {
    in.fail("bad magic");
  }
  open_body(in, /*crc=*/v2);  // legacy v1: no integrity trailer
  return read_body(in);
}

struct SnapshotStream::Impl {
  std::ofstream out;   // saving
  CrcWriter writer{out};
  ByteReader in;       // resuming
  bool finished = false;
};

SnapshotStream::SnapshotStream(const std::string& path, Mode mode)
    : impl_(new Impl), saving_(mode == Mode::kSave) {
  ByteReader& in = impl_->in;
  in.what = "snapshot";
  in.path = path;
  if (saving_) {
    impl_->out.open(path, std::ios::binary | std::ios::trunc);
    if (!impl_->out) throw std::runtime_error("snapshot: cannot open " + path + " for write");
    impl_->out.write(kMagicSnap, sizeof(kMagicSnap));
    return;
  }
  in.bytes = read_file(path, "snapshot");
  if (in.bytes.compare(0, sizeof(kMagicSnap), kMagicSnap, sizeof(kMagicSnap)) != 0) {
    in.fail("bad magic");
  }
  open_body(in, /*crc=*/true);
}

SnapshotStream::~SnapshotStream() = default;

void SnapshotStream::bytes(void* data, std::size_t size) {
  if (saving_) return impl_->writer.write(data, size);
  impl_->in.read(data, size);
}

void SnapshotStream::u64(std::uint64_t& v) { bytes(&v, sizeof(v)); }

void SnapshotStream::f64(double& v) { bytes(&v, sizeof(v)); }

void SnapshotStream::flag(bool& b) {
  std::uint64_t v = b ? 1 : 0;
  u64(v);
  b = v != 0;
}

void SnapshotStream::str(std::string& s) {
  std::uint64_t len = s.size();
  u64(len);
  if (!saving_) {
    if (len > kMaxNameLen) impl_->in.fail("string too long");
    s.resize(len);
  }
  bytes(s.data(), len);
}

void SnapshotStream::params(ParamSet& p) {
  if (saving_) return write_params_body(impl_->writer, p);
  p = read_body(impl_->in);
}

void SnapshotStream::count(std::uint64_t& n, std::size_t min_item_bytes, const char* field) {
  if (saving_) return u64(n);
  n = impl_->in.count(min_item_bytes, field);
}

void SnapshotStream::reject_repeat(const char* field) const {
  impl_->in.fail(std::string("repeated ") + field + " key");
}

void SnapshotStream::finish() {
  if (!saving_) {
    if (impl_->in.left() != 0) impl_->in.fail("trailing bytes (writer/reader layout mismatch)");
    return;
  }
  if (impl_->finished) throw std::runtime_error("snapshot: finish() called twice");
  impl_->finished = true;
  const std::uint32_t crc = crc32_final(impl_->writer.state);
  impl_->out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  impl_->out.close();
  if (!impl_->out) impl_->in.fail("write failed");
}

}  // namespace afl
