#include "util/env.hpp"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace afl {
namespace {

/// A numeric AFL_* value that is not wholly a number is a configuration
/// error, never a partial read ("5%" must not mean 5, "eight" not 0).
[[noreturn]] void bad_number(const std::string& name, const std::string& value,
                             const char* kind) {
  throw std::invalid_argument(name + "=\"" + value + "\" is not " + kind);
}

/// Whether strto*'s parse consumed all of `v`, with no leading whitespace
/// (which strto* would skip) and no overflow.
bool parsed_whole(const std::string& v, const char* end) {
  return !std::isspace(static_cast<unsigned char>(v.front())) &&
         end == v.c_str() + v.size() && errno != ERANGE;
}

}  // namespace

std::string env_or(const std::string& name, const std::string& fallback) {
  const char* v = std::getenv(name.c_str());
  if (v == nullptr || *v == '\0') return fallback;
  return v;
}

int env_or(const std::string& name, int fallback) {
  const std::string v = env_or(name, std::string());
  if (v.empty()) return fallback;
  char* end = nullptr;
  errno = 0;
  const long x = std::strtol(v.c_str(), &end, 10);
  if (!parsed_whole(v, end) || x < INT_MIN || x > INT_MAX) {
    bad_number(name, v, "an integer");
  }
  return static_cast<int>(x);
}

double env_or(const std::string& name, double fallback) {
  const std::string v = env_or(name, std::string());
  if (v.empty()) return fallback;
  char* end = nullptr;
  errno = 0;
  const double x = std::strtod(v.c_str(), &end);
  if (!parsed_whole(v, end) || !std::isfinite(x)) {
    bad_number(name, v, "a finite number");
  }
  return x;
}

BenchScale bench_scale() {
  const std::string v = env_or("ADAPTIVEFL_BENCH_SCALE", "smoke");
  if (v == "full") return BenchScale::kFull;
  return BenchScale::kSmoke;
}

const char* bench_scale_name(BenchScale scale) {
  return scale == BenchScale::kFull ? "full" : "smoke";
}

}  // namespace afl
