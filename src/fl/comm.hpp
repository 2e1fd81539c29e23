#pragma once
// Communication accounting. The paper's Figure 5a reports the
// "communication waste rate" 1 - sum(size(ML_back)) / sum(size(ML_send)):
// parameters shipped to a device that the device then pruned away before
// training were wasted bandwidth.
//
// Two layers of accounting coexist:
//   - parameter counts (the paper's unit) — always recorded;
//   - wire bytes, retransmits, stragglers, and dropped frames — recorded
//     only when the simulated transport (src/net/) is configured. With the
//     transport disabled every byte-layer counter stays zero.
//
// Besides the cumulative totals, CommStats tracks per-round deltas: call
// begin_round() at the start of every round and the round_*() accessors
// report traffic since that mark — this is what a per-round Fig. 5a-style
// curve (and the per-round byte telemetry) needs.

#include <cstddef>

namespace afl {

class SnapshotStream;

class CommStats {
 public:
  void record_dispatch(std::size_t params_sent) { sent_ += params_sent; }
  void record_return(std::size_t params_back) { back_ += params_back; }

  /// Byte-layer records (simulated transport only).
  void record_dispatch_bytes(std::size_t bytes) { bytes_sent_ += bytes; }
  void record_return_bytes(std::size_t bytes) { bytes_back_ += bytes; }
  void record_retransmits(std::size_t n) { retransmits_ += n; }
  /// A client whose update arrived after the round deadline (excluded).
  void record_straggler() { ++stragglers_; }
  /// A frame lost on every transmission attempt (client excluded).
  void record_drop() { ++drops_; }

  std::size_t params_sent() const { return sent_; }
  std::size_t params_returned() const { return back_; }
  std::size_t bytes_sent() const { return bytes_sent_; }
  std::size_t bytes_returned() const { return bytes_back_; }
  std::size_t retransmits() const { return retransmits_; }
  std::size_t stragglers() const { return stragglers_; }
  std::size_t drops() const { return drops_; }

  /// 1 - back/sent; 0 when nothing was sent.
  double waste_rate() const;

  /// Marks the start of a round; per-round accessors report deltas since the
  /// last call.
  void begin_round() {
    round_sent_mark_ = sent_;
    round_back_mark_ = back_;
    round_bytes_sent_mark_ = bytes_sent_;
    round_bytes_back_mark_ = bytes_back_;
    round_retransmits_mark_ = retransmits_;
    round_stragglers_mark_ = stragglers_;
  }

  std::size_t round_sent() const { return sent_ - round_sent_mark_; }
  std::size_t round_returned() const { return back_ - round_back_mark_; }
  std::size_t round_bytes_sent() const { return bytes_sent_ - round_bytes_sent_mark_; }
  std::size_t round_bytes_returned() const {
    return bytes_back_ - round_bytes_back_mark_;
  }
  std::size_t round_retransmits() const {
    return retransmits_ - round_retransmits_mark_;
  }
  std::size_t round_stragglers() const { return stragglers_ - round_stragglers_mark_; }

  /// Waste rate of the current round only; 0 when nothing was sent since
  /// begin_round().
  double round_waste_rate() const;

  void reset() { *this = CommStats(); }

  /// Saves or resumes every total and round mark (engine snapshots,
  /// docs/POPULATION.md), so a resumed run reports the same round deltas as
  /// the uninterrupted one.
  void snapshot(SnapshotStream& s);

 private:
  std::size_t sent_ = 0;
  std::size_t back_ = 0;
  std::size_t bytes_sent_ = 0;
  std::size_t bytes_back_ = 0;
  std::size_t retransmits_ = 0;
  std::size_t stragglers_ = 0;
  std::size_t drops_ = 0;
  std::size_t round_sent_mark_ = 0;
  std::size_t round_back_mark_ = 0;
  std::size_t round_bytes_sent_mark_ = 0;
  std::size_t round_bytes_back_mark_ = 0;
  std::size_t round_retransmits_mark_ = 0;
  std::size_t round_stragglers_mark_ = 0;
};

}  // namespace afl
