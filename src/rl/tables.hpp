#pragma once
// RL state for client selection (§3.3 / Algorithm 1).
//
// Curiosity table T_c[type][client]: how often each *model type* (S/M/L) was
// involved (sent or returned) with each client; drives the MBIE-EB bonus
// R_c = 1/sqrt(T_c). Resource table T_r[pool-entry][client]: training scores
// from which the server infers (without ever reading device state) which
// model sizes a client can train. Both initialize to 1 (Algorithm 1, l.1-2).
//
// Storage is sparse: rows only materialize cells for clients that received at
// least one update; absent cells read as the initial 1.0. At scale-out
// populations (10^5-10^6 clients, docs/HIERARCHY.md) only the cohorts ever
// dispatched occupy memory, and touched() (ascending) lets the selector share
// one reward across each run of untouched clients. All cell values stay
// integer-valued doubles, so every derived quantity (rewards, row means) is
// bit-identical to the former dense representation.

#include <array>
#include <cstddef>
#include <unordered_map>
#include <vector>

#include "prune/model_pool.hpp"

namespace afl {

class RlTables {
 public:
  /// `pool_size` = 2p+1 entries, `p` sublevels per level, over `num_clients`.
  RlTables(std::size_t pool_size, std::size_t p, std::size_t num_clients);

  std::size_t num_clients() const { return num_clients_; }
  std::size_t pool_size() const { return pool_size_; }

  double curiosity(Level type, std::size_t client) const;
  double resource_score(std::size_t entry, std::size_t client) const;

  /// Clients some update touched, ascending. Every other client's cells still
  /// read the initial 1.0, so all untouched clients share one reward.
  const std::vector<std::size_t>& touched() const { return touched_; }

  /// Algorithm 1 lines 12-26: record a dispatch of pool entry `sent` to
  /// `client` that came back as entry `back` (back == sent when the device
  /// did not prune; back < sent when it adaptively pruned). All three updates
  /// throw for a client >= num_clients() before changing any state.
  void update(std::size_t sent, Level sent_type, std::size_t back, Level back_type,
              std::size_t client);

  /// Extension (failure injection): the device could not train even the
  /// smallest reachable submodel. Punishes every entry >= `sent` and still
  /// counts the curiosity visit.
  void update_failure(std::size_t sent, Level sent_type, std::size_t client);

  /// Extension (availability): the device never replied. No resource
  /// information was gained, so only the curiosity visit is recorded.
  void update_no_response(Level sent_type, std::size_t client);

  /// Resource reward R_s(m_i, c) (§3.3). `level_entries` lists the pool
  /// indices of type(m_i)'s sublevels; the tail-sum runs to the pool's last
  /// (largest) entry.
  double resource_reward(const std::vector<std::size_t>& level_entries,
                         std::size_t client) const;

  /// Curiosity reward R_c(m_i, c) = 1/sqrt(T_c[type][c]) (MBIE-EB).
  double curiosity_reward(Level type, std::size_t client) const;

  /// Combined reward R = min(0.5, R_s) * R_c.
  double reward(const std::vector<std::size_t>& level_entries, Level type,
                std::size_t client) const;

  /// Telemetry snapshots: mean table value per model type (3 entries) /
  /// per pool entry (2p+1 entries), averaged over clients.
  std::vector<double> mean_curiosity() const;
  std::vector<double> mean_resource() const;

  /// Engine snapshot/resume (docs/POPULATION.md): the full sparse state as
  /// plain data. Cells are sorted by (row, client) so a dump is a
  /// deterministic function of the logical table contents, independent of
  /// unordered_map iteration order.
  struct Dump {
    /// (row index, client, value) triples; tc rows come first (rows 0..2),
    /// then tr rows offset by 3.
    std::vector<std::array<double, 3>> cells;
    std::vector<std::size_t> touched;  // sorted client ids
  };
  Dump dump() const;
  /// Restores a dump into this table. A dump that does not fit its shape
  /// (see restore()) throws std::invalid_argument and changes nothing.
  void restore(const Dump& dump);

 private:
  /// One sparse table row: client -> value, absent cells = 1.0.
  using Row = std::unordered_map<std::size_t, double>;

  double read(const Row& row, std::size_t client) const;
  double& cell(Row& row, std::size_t client);
  void touch(std::size_t client);  // range check first, then add to touched_

  std::size_t pool_size_, p_, num_clients_;
  // T_c: 3 x |C|; T_r: (2p+1) x |C|; rows materialize lazily.
  std::vector<Row> tc_;
  std::vector<Row> tr_;
  std::vector<std::size_t> touched_;  // ascending
};

}  // namespace afl
