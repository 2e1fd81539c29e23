#pragma once
// Environment-variable configuration helpers for bench / example binaries.

#include <string>

namespace afl {

/// Returns the env var value or `fallback` when unset / empty.
std::string env_or(const std::string& name, const std::string& fallback);
/// Numeric variants: the value must be wholly a (decimal) number, else they
/// throw std::invalid_argument naming the variable and the value.
int env_or(const std::string& name, int fallback);
double env_or(const std::string& name, double fallback);

/// Experiment scale selected via ADAPTIVEFL_BENCH_SCALE.
/// - kSmoke (default): seconds-per-run configs so the whole bench suite
///   finishes quickly on a 1-core box.
/// - kFull: longer runs (more rounds / data) closer to the paper's regime.
enum class BenchScale { kSmoke, kFull };
BenchScale bench_scale();
const char* bench_scale_name(BenchScale scale);

}  // namespace afl
