#include "fl/comm.hpp"

#include "nn/checkpoint.hpp"

namespace afl {

double CommStats::waste_rate() const {
  if (sent_ == 0) return 0.0;
  return 1.0 - static_cast<double>(back_) / static_cast<double>(sent_);
}

double CommStats::round_waste_rate() const {
  const std::size_t sent = round_sent();
  if (sent == 0) return 0.0;
  return 1.0 - static_cast<double>(round_returned()) / static_cast<double>(sent);
}

void CommStats::snapshot(SnapshotStream& s) {
  for (std::size_t* v : {&sent_, &back_, &bytes_sent_, &bytes_back_, &retransmits_,
                         &stragglers_, &drops_, &round_sent_mark_, &round_back_mark_,
                         &round_bytes_sent_mark_, &round_bytes_back_mark_,
                         &round_retransmits_mark_, &round_stragglers_mark_}) {
    s.u64(*v);
  }
}

}  // namespace afl
