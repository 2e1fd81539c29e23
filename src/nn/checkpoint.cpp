#include "nn/checkpoint.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <sstream>
#include <stdexcept>

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

std::uint64_t read_u64(std::istream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw std::runtime_error("checkpoint: truncated file");
  return v;
}

ParamSet read_body(std::istream& in) {
  const std::uint64_t count = read_u64(in);
  ParamSet params;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t name_len = read_u64(in);
    if (name_len > kMaxNameLen) throw std::runtime_error("checkpoint: name too long");
    std::string name(name_len, '\0');
    in.read(name.data(), static_cast<std::streamsize>(name_len));
    const std::uint64_t rank = read_u64(in);
    if (rank > kMaxRank) throw std::runtime_error("checkpoint: rank too large");
    Shape shape(rank);
    std::uint64_t numel = 1;
    for (std::uint64_t d = 0; d < rank; ++d) {
      shape[d] = read_u64(in);
      // Checked before the multiply, so no product can wrap below the cap.
      if (shape[d] != 0 && numel > kMaxNumel / shape[d]) {
        throw std::runtime_error("checkpoint: tensor too large");
      }
      numel *= shape[d];
    }
    Tensor t(shape);
    in.read(reinterpret_cast<char*>(t.data()),
            static_cast<std::streamsize>(t.numel() * sizeof(float)));
    if (!in) throw std::runtime_error("checkpoint: truncated tensor data");
    if (!params.emplace(std::move(name), std::move(t)).second) {
      throw std::runtime_error("checkpoint: duplicate parameter name");
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
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("checkpoint: cannot open " + path);
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in) throw std::runtime_error("checkpoint: bad magic in " + path);
  if (std::memcmp(magic, kMagicV2, sizeof(kMagicV2)) == 0) {
    // v2: verify the CRC-32 trailer over the whole body before parsing, so a
    // flipped bit anywhere (header or payload) is reported as corruption
    // rather than as whatever structural error it happens to decode into.
    std::string body((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    if (body.size() < sizeof(std::uint32_t)) {
      throw std::runtime_error("checkpoint: truncated file");
    }
    const std::size_t payload = body.size() - sizeof(std::uint32_t);
    std::uint32_t stored = 0;
    std::memcpy(&stored, body.data() + payload, sizeof(stored));
    if (crc32(body.data(), payload) != stored) {
      throw std::runtime_error("checkpoint: CRC mismatch (corrupted file) in " + path);
    }
    std::istringstream stream(body.substr(0, payload));
    return read_body(stream);
  }
  if (std::memcmp(magic, kMagicV1, sizeof(kMagicV1)) != 0) {
    throw std::runtime_error("checkpoint: bad magic in " + path);
  }
  return read_body(in);  // legacy v1: no integrity trailer
}

struct SnapshotWriter::Impl {
  std::ofstream out;
  std::string path;
  std::uint32_t crc = kCrc32Init;
  bool finished = false;

  void write(const void* data, std::size_t size) {
    out.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
    crc = crc32_update(crc, data, size);
  }
};

SnapshotWriter::SnapshotWriter(const std::string& path) : impl_(new Impl) {
  impl_->path = path;
  impl_->out.open(path, std::ios::binary | std::ios::trunc);
  if (!impl_->out) throw std::runtime_error("snapshot: cannot open " + path + " for write");
  impl_->out.write(kMagicSnap, sizeof(kMagicSnap));
}

SnapshotWriter::~SnapshotWriter() = default;

void SnapshotWriter::u64(std::uint64_t v) { impl_->write(&v, sizeof(v)); }

void SnapshotWriter::f64(double v) { impl_->write(&v, sizeof(v)); }

void SnapshotWriter::str(const std::string& s) {
  u64(s.size());
  impl_->write(s.data(), s.size());
}

void SnapshotWriter::params(const ParamSet& p) {
  CrcWriter w{impl_->out, impl_->crc};
  write_params_body(w, p);
  impl_->crc = w.state;
}

void SnapshotWriter::finish() {
  if (impl_->finished) throw std::runtime_error("snapshot: finish() called twice");
  impl_->finished = true;
  const std::uint32_t crc = crc32_final(impl_->crc);
  impl_->out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  impl_->out.close();
  if (!impl_->out) throw std::runtime_error("snapshot: write failed for " + impl_->path);
}

struct SnapshotReader::Impl {
  std::string path;
  std::istringstream body;

  void read(void* data, std::size_t size) {
    body.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
    if (!body) throw std::runtime_error("snapshot: truncated field in " + path);
  }
};

SnapshotReader::SnapshotReader(const std::string& path) : impl_(new Impl) {
  impl_->path = path;
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("snapshot: cannot open " + path);
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagicSnap, sizeof(kMagicSnap)) != 0) {
    throw std::runtime_error("snapshot: bad magic in " + path);
  }
  std::string body((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (body.size() < sizeof(std::uint32_t)) {
    throw std::runtime_error("snapshot: truncated file " + path);
  }
  const std::size_t payload = body.size() - sizeof(std::uint32_t);
  std::uint32_t stored = 0;
  std::memcpy(&stored, body.data() + payload, sizeof(stored));
  if (crc32(body.data(), payload) != stored) {
    throw std::runtime_error("snapshot: CRC mismatch (corrupted file) in " + path);
  }
  impl_->body.str(body.substr(0, payload));
}

SnapshotReader::~SnapshotReader() = default;

std::uint64_t SnapshotReader::u64() {
  std::uint64_t v = 0;
  impl_->read(&v, sizeof(v));
  return v;
}

double SnapshotReader::f64() {
  double v = 0;
  impl_->read(&v, sizeof(v));
  return v;
}

std::string SnapshotReader::str() {
  const std::uint64_t len = u64();
  if (len > kMaxNameLen) throw std::runtime_error("snapshot: string too long in " + impl_->path);
  std::string s(len, '\0');
  impl_->read(s.data(), len);
  return s;
}

ParamSet SnapshotReader::params() { return read_body(impl_->body); }

void SnapshotReader::expect_end() {
  if (impl_->body.peek() != std::istringstream::traits_type::eof()) {
    throw std::runtime_error("snapshot: trailing bytes in " + impl_->path +
                             " (writer/reader layout mismatch)");
  }
}

}  // namespace afl
