#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

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

}  // namespace
}  // namespace afl
