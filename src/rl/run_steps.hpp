#pragma once
// run_steps(): one rounded step applied k times, in time that grows with the
// binades the value crosses instead of with k.
//
// The selector's passes apply one rounded operation to a running value over
// each run of equal weights: s += v, h = fma(-p, lp, h) (or h -= p * lp) and
// r -= v. Each is s -> RN(s + x) for one real x. Inside one binade (one sign
// and exponent, ulp u; the subnormals join the smallest normal binade, whose
// ulp they share) every double is a multiple of u, so RN(s + x) - s depends
// only on x and, when s + x is a tie, on the parity of s / u. A tie rounds to
// an even multiple of u, from which every later tie rounds the same way, so
// after one step the increment is constant until the value leaves the
// binade. There the bits of |s| count ulps: the steps left inside the binade
// are one exact integer addition to them. Real steps enter every binade and
// cross every edge, the last two steps before an edge included.

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>

namespace afl {

namespace run_steps_detail {

inline constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
inline constexpr int kFraction = 52;  // fraction bits of a double

/// Sign and exponent field of a finite nonzero s, subnormals (field 0)
/// counted as field 1; 0 for zero, infinities and NaN.
inline std::uint64_t binade(std::uint64_t bits) {
  const std::uint64_t field = (bits & ~kSign) >> kFraction;
  if ((bits & ~kSign) == 0 || field == 0x7FF) return 0;
  return (bits & kSign) | std::max<std::uint64_t>(field, 1);
}

}  // namespace run_steps_detail

/// Returns s after
///
///   for (i = 0; i < k; ++i) if (stop(s = step(s))) break;
///
/// bit for bit, and stores that loop's final i in `*done` (k when stop()
/// never fired). `step(s)` must round s + x for one real x (s + v, s - v,
/// std::fma(a, b, s), s - t), and stop() must give one answer for all values
/// of one binade, as a sign test does. Runs shorter than 8 steps, and values
/// that are not finite, take the plain loop.
template <typename Step, typename Stop>
double run_steps(double s, std::size_t k, Step step, Stop stop,
                 std::size_t* done = nullptr) {
  using run_steps_detail::binade;
  using run_steps_detail::kFraction;
  using run_steps_detail::kSign;
  constexpr std::size_t kPlainBelow = 8;
  constexpr std::uint64_t kMargin = 2;  // real steps before each binade edge
  std::size_t i = 0;
  while (k - i >= kPlainBelow) {
    // Three real steps: the first may enter a binade, the second settles
    // the parity inside it, the third shows the increment.
    std::uint64_t bits[3] = {};
    for (std::uint64_t& b : bits) {
      if (stop(s = step(s))) {
        if (done != nullptr) *done = i;
        return s;
      }
      ++i;
      b = std::bit_cast<std::uint64_t>(s);
    }
    if (bits[2] == bits[1]) {  // step(s) == s: s never changes again
      i = k;
      break;
    }
    const std::uint64_t key = binade(bits[2]);
    if (key == 0 && s != 0.0) break;  // infinity or NaN
    // The steps move one way, so the middle value shares the binade too.
    if (key == 0 || binade(bits[0]) != key) continue;  // at zero or across an edge
    // How many more steps of d ulps stay inside the binade, kMargin short of
    // its edge: |s|'s bits count ulps there.
    const std::uint64_t sign = bits[2] & kSign;
    const std::uint64_t mag = bits[2] & ~kSign;
    const std::uint64_t field = key & ~kSign;
    const bool grows = bits[2] > bits[1];  // |s| moves away from zero
    const std::uint64_t d = grows ? bits[2] - bits[1] : bits[1] - bits[2];
    const std::uint64_t lo = field == 1 ? 1 : field << kFraction;  // |s| >= lo
    const std::uint64_t hi = (field + 1) << kFraction;               // |s| < hi
    const std::uint64_t room = grows ? hi - 1 - mag : mag - std::min(mag, lo + 1);
    std::uint64_t n = room / d;
    n = std::min<std::uint64_t>(n > kMargin ? n - kMargin : 0, k - i);
    s = std::bit_cast<double>(sign | (grows ? mag + n * d : mag - n * d));
    i += n;
  }
  for (; i < k; ++i) {
    if (stop(s = step(s))) break;
  }
  if (done != nullptr) *done = i;
  return s;
}

}  // namespace afl
