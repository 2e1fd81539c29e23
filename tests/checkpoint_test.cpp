#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "arch/build.hpp"
#include "arch/zoo.hpp"
#include "nn/checkpoint.hpp"
#include "nn/model.hpp"
#include "tensor/ops.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace afl {
namespace {

std::string temp_path(const char* tag) {
  return std::string(::testing::TempDir()) + "/afl_ckpt_" + tag + ".bin";
}

TEST(Checkpoint, RoundTripsModelParams) {
  Rng rng(1);
  ArchSpec spec = mini_vgg(7, 3, 8);
  Model m = build_full_model(spec, &rng);
  const ParamSet saved = m.export_params();
  const std::string path = temp_path("roundtrip");
  save_checkpoint(saved, path);
  const ParamSet loaded = load_checkpoint(path);
  ASSERT_TRUE(same_structure(saved, loaded));
  EXPECT_EQ(max_abs_diff(saved, loaded), 0.0);
  // The loaded set must import cleanly into a fresh model.
  Model fresh = build_full_model(spec);
  EXPECT_NO_THROW(fresh.import_params(loaded));
  std::remove(path.c_str());
}

TEST(Checkpoint, EmptySet) {
  const std::string path = temp_path("empty");
  save_checkpoint({}, path);
  EXPECT_TRUE(load_checkpoint(path).empty());
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileThrows) {
  EXPECT_THROW(load_checkpoint("/nonexistent/dir/x.bin"), std::runtime_error);
}

TEST(Checkpoint, BadMagicThrows) {
  const std::string path = temp_path("badmagic");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOTACKPTxxxxxxxxxxxx";
  }
  EXPECT_THROW(load_checkpoint(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, CorruptedPayloadThrows) {
  Rng rng(4);
  ParamSet ps;
  ps.emplace("w", Tensor::randn({8, 8}, rng));
  const std::string path = temp_path("corrupt");
  save_checkpoint(ps, path);
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  // Flip one bit in the middle of the tensor payload. The structure stays
  // valid, so only the CRC-32 trailer can catch this.
  bytes[bytes.size() / 2] ^= 0x01;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  try {
    load_checkpoint(path);
    FAIL() << "corrupted checkpoint loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, LoadsLegacyV1WithoutTrailer) {
  Rng rng(5);
  ParamSet ps;
  ps.emplace("w", Tensor::randn({4, 3}, rng));
  const std::string path = temp_path("legacy");
  save_checkpoint(ps, path);
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  // Rewrite as a v1 file: old magic, no CRC trailer.
  bytes[7] = '1';
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 4));
  }
  const ParamSet loaded = load_checkpoint(path);
  ASSERT_TRUE(same_structure(ps, loaded));
  EXPECT_EQ(max_abs_diff(ps, loaded), 0.0);
  std::remove(path.c_str());
}

TEST(Checkpoint, TruncatedFileThrows) {
  Rng rng(2);
  ParamSet ps;
  ps.emplace("w", Tensor::randn({8, 8}, rng));
  const std::string path = temp_path("trunc");
  save_checkpoint(ps, path);
  // Chop the file in half.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_THROW(load_checkpoint(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Checkpoint, ShapeWhoseProductWrapsIsRejected) {
  // Dims {2^32, 2^32} multiply to 2^64, which wraps to 0: the reader must
  // refuse the shape rather than load a tensor of it with no elements, from
  // a legacy file and from a v2 file whose CRC trailer is valid.
  std::string body;
  const auto put = [&](std::uint64_t v) {
    body.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(1);  // one tensor
  put(1);  // name length
  body += 'w';
  put(2);  // rank
  put(std::uint64_t{1} << 32);
  put(std::uint64_t{1} << 32);
  const std::uint32_t crc = crc32(body.data(), body.size());
  const std::string files[] = {
      "AFLCKPT1" + body,
      "AFLCKPT2" + body + std::string(reinterpret_cast<const char*>(&crc), sizeof(crc))};
  const std::string path = temp_path("wrap");
  for (const std::string& bytes : files) {
    SCOPED_TRACE(bytes.substr(0, 8));
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    try {
      load_checkpoint(path);
      ADD_FAILURE() << "loaded a shape whose product wraps";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("too large"), std::string::npos) << e.what();
    }
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, PreservesShapesExactly) {
  Rng rng(3);
  ParamSet ps;
  ps.emplace("a", Tensor::randn({2, 3, 4, 5}, rng));
  ps.emplace("b", Tensor::randn({7}, rng));
  ps.emplace("c.long.dotted.name", Tensor::randn({1, 1}, rng));
  const std::string path = temp_path("shapes");
  save_checkpoint(ps, path);
  const ParamSet loaded = load_checkpoint(path);
  EXPECT_EQ(loaded.at("a").shape(), (Shape{2, 3, 4, 5}));
  EXPECT_EQ(loaded.at("b").shape(), (Shape{7}));
  EXPECT_EQ(loaded.at("c.long.dotted.name").shape(), (Shape{1, 1}));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// SnapshotStream, and sizes no file can hold
// ---------------------------------------------------------------------------

/// Writes `magic` + `body` + the CRC-32 of `body` to `path`, as a writer
/// would, so only the structure can be wrong.
void write_sealed(const std::string& path, const std::string& magic, const std::string& body) {
  const std::uint32_t crc = crc32(body.data(), body.size());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << magic << body;
  out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
}

void put_u64(std::string& body, std::uint64_t v) {
  body.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// One parameter entry named "w" of shape {`numel`} and no data.
std::string tensor_without_data(std::uint64_t numel) {
  std::string body;
  put_u64(body, 1);  // one tensor
  put_u64(body, 1);  // name length
  body += 'w';
  put_u64(body, 1);  // rank
  put_u64(body, numel);
  return body;
}

/// Expects `load` to throw std::runtime_error naming `path` and `field`.
template <class F>
void expect_refused(F&& load, const std::string& path, const std::string& field) {
  try {
    load();
    ADD_FAILURE() << "accepted a size the file cannot hold";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(path), std::string::npos) << msg;
    EXPECT_NE(msg.find(field), std::string::npos) << msg;
    EXPECT_NE(msg.find("too large"), std::string::npos) << msg;
  }
}

TEST(SnapshotStream, SavesAndResumesEveryPrimitiveThroughOneFunction) {
  Rng rng(4);
  struct State {
    std::uint64_t n = 0;
    double x = 0.0;
    bool on = false;
    std::string name;
    ParamSet params;
    std::vector<double> curve;
    std::map<std::string, double> levels;
  };
  const auto section = [](SnapshotStream& s, State& st) {
    s.u64(st.n);
    s.f64(st.x);
    s.flag(st.on);
    s.str(st.name);
    s.params(st.params);
    s.items(st.curve, sizeof(double), "curve point", [&](double& v) { s.f64(v); });
    s.entries(st.levels, 2 * sizeof(double), "level", [&](std::string& k, double& v) {
      s.str(k);
      s.f64(v);
    });
    s.finish();
  };
  State saved{7, -0.25, true, "afl", {}, {0.5, 0.75}, {{"L1", 0.5}, {"M1", 0.25}}};
  saved.params.emplace("w", Tensor::randn({3, 2}, rng));
  const std::string path = temp_path("stream");
  {
    SnapshotStream s(path, SnapshotStream::Mode::kSave);
    section(s, saved);
  }
  State resumed;
  SnapshotStream s(path, SnapshotStream::Mode::kResume);
  section(s, resumed);
  EXPECT_EQ(resumed.n, saved.n);
  EXPECT_EQ(resumed.x, saved.x);
  EXPECT_EQ(resumed.on, saved.on);
  EXPECT_EQ(resumed.name, saved.name);
  ASSERT_TRUE(same_structure(resumed.params, saved.params));
  EXPECT_EQ(max_abs_diff(resumed.params, saved.params), 0.0);
  EXPECT_EQ(resumed.curve, saved.curve);
  EXPECT_EQ(resumed.levels, saved.levels);
  std::remove(path.c_str());
}

TEST(SnapshotStream, CountLargerThanTheBytesLeftIsRefused) {
  // 2^62 items of 40 bytes each: a reader that sized a container from the
  // count would ask for 2^65 bytes before noticing the file ends.
  std::string body;
  put_u64(body, std::uint64_t{1} << 62);
  const std::string path = temp_path("snap_count");
  write_sealed(path, "AFLSNAP1", body);
  SnapshotStream s(path, SnapshotStream::Mode::kResume);
  std::uint64_t n = 0;
  expect_refused([&] { s.count(n, 40, "curve point"); }, path, "curve point");
  EXPECT_EQ(n, 0u);
  std::remove(path.c_str());
}

TEST(SnapshotStream, TensorLargerThanTheBytesLeftIsRefused) {
  // A 2^24-float tensor (64 MiB) claimed by a file with no data after it.
  const std::string path = temp_path("snap_tensor");
  write_sealed(path, "AFLSNAP1", tensor_without_data(std::uint64_t{1} << 24));
  SnapshotStream s(path, SnapshotStream::Mode::kResume);
  ParamSet p;
  expect_refused([&] { s.params(p); }, path, "\"w\"");
  std::remove(path.c_str());
}

TEST(Checkpoint, CountLargerThanTheBytesLeftIsRefused) {
  std::string body;
  put_u64(body, std::uint64_t{1} << 62);
  const std::string path = temp_path("ckpt_count");
  write_sealed(path, "AFLCKPT2", body);
  expect_refused([&] { load_checkpoint(path); }, path, "parameter count");
  std::remove(path.c_str());
}

TEST(Checkpoint, TensorLargerThanTheBytesLeftIsRefused) {
  const std::string path = temp_path("ckpt_tensor");
  write_sealed(path, "AFLCKPT2", tensor_without_data(std::uint64_t{1} << 24));
  expect_refused([&] { load_checkpoint(path); }, path, "\"w\"");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace afl
