#include "rl/tables.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/prof/prof.hpp"
#include "obs/trace.hpp"

namespace afl {
namespace {

obs::Counter& rl_updates() {
  static obs::Counter& c = obs::metrics().counter("afl.rl.updates");
  return c;
}

}  // namespace

RlTables::RlTables(std::size_t pool_size, std::size_t p, std::size_t num_clients)
    : pool_size_(pool_size), p_(p), num_clients_(num_clients),
      tc_(3), tr_(pool_size) {
  if (pool_size_ != 2 * p_ + 1) {
    throw std::invalid_argument("RlTables: pool size must be 2p+1");
  }
}

double RlTables::read(const Row& row, std::size_t client) const {
  if (client >= num_clients_) {
    throw std::out_of_range("RlTables: client index out of range");
  }
  const auto it = row.find(client);
  return it == row.end() ? 1.0 : it->second;
}

double& RlTables::cell(Row& row, std::size_t client) {
  return row.try_emplace(client, 1.0).first->second;
}

void RlTables::touch(std::size_t client) {
  if (client >= num_clients_) {
    throw std::out_of_range("RlTables: client index out of range");
  }
  const auto it = std::lower_bound(touched_.begin(), touched_.end(), client);
  if (it == touched_.end() || *it != client) touched_.insert(it, client);
}

double RlTables::curiosity(Level type, std::size_t client) const {
  return read(tc_.at(static_cast<std::size_t>(type)), client);
}

double RlTables::resource_score(std::size_t entry, std::size_t client) const {
  return read(tr_.at(entry), client);
}

void RlTables::update(std::size_t sent, Level sent_type, std::size_t back,
                      Level back_type, std::size_t client) {
  AFL_PROF_SPAN("rl.update");
  if (back > sent || sent >= pool_size_) {
    throw std::invalid_argument("RlTables::update: returned model grew or entry out of range");
  }
  touch(client);
  rl_updates().inc();
  obs::TraceSpan span("rl_update");
  span.field("outcome", back == sent ? "full" : "pruned")
      .field("client", static_cast<std::uint64_t>(client))
      .field("sent", static_cast<std::uint64_t>(sent))
      .field("back", static_cast<std::uint64_t>(back));
  // Lines 12-13: curiosity counts for both the sent and the returned type.
  cell(tc_[static_cast<std::size_t>(sent_type)], client) += 1.0;
  cell(tc_[static_cast<std::size_t>(back_type)], client) += 1.0;
  const std::size_t last = pool_size_ - 1;  // L_1
  if (back == sent) {
    // Lines 15-18: no local pruning happened, so the client's capacity covers
    // m_i; reward m_i and everything above it, with an extra bonus on L_1.
    for (std::size_t t = sent; t <= last; ++t) cell(tr_[t], client) += 1.0;
    cell(tr_[last], client) += static_cast<double>(p_) - 1.0;
  } else {
    // Lines 20-25: capacity sits between size(m_i') and the next-larger pool
    // model; boost m_i' and progressively punish larger entries.
    cell(tr_[back], client) += static_cast<double>(p_);
    double tau = 0.0;
    for (std::size_t t = back; t <= last; ++t) {
      double& v = cell(tr_[t], client);
      v = std::max(v - tau, 0.0);
      tau += 1.0;
    }
  }
}

void RlTables::update_failure(std::size_t sent, Level sent_type, std::size_t client) {
  AFL_PROF_SPAN("rl.update");
  touch(client);
  rl_updates().inc();
  obs::TraceSpan span("rl_update");
  span.field("outcome", "failure")
      .field("client", static_cast<std::uint64_t>(client))
      .field("sent", static_cast<std::uint64_t>(sent));
  cell(tc_[static_cast<std::size_t>(sent_type)], client) += 1.0;
  for (std::size_t t = sent; t < pool_size_; ++t) {
    double& v = cell(tr_[t], client);
    v = std::max(v - static_cast<double>(p_), 0.0);
  }
}

void RlTables::update_no_response(Level sent_type, std::size_t client) {
  AFL_PROF_SPAN("rl.update");
  touch(client);
  rl_updates().inc();
  obs::TraceSpan span("rl_update");
  span.field("outcome", "no_response")
      .field("client", static_cast<std::uint64_t>(client));
  cell(tc_[static_cast<std::size_t>(sent_type)], client) += 1.0;
}

std::vector<double> RlTables::mean_curiosity() const {
  std::vector<double> out;
  out.reserve(tc_.size());
  for (const Row& row : tc_) {
    // Absent cells are exactly 1.0, and every stored value is an
    // integer-valued double, so this sum (and therefore the mean) is exact
    // regardless of summation order.
    double sum = static_cast<double>(num_clients_ - row.size());
    for (const auto& [client, v] : row) sum += v;
    out.push_back(num_clients_ > 0 ? sum / static_cast<double>(num_clients_) : 0.0);
  }
  return out;
}

std::vector<double> RlTables::mean_resource() const {
  std::vector<double> out;
  out.reserve(tr_.size());
  for (const Row& row : tr_) {
    double sum = static_cast<double>(num_clients_ - row.size());
    for (const auto& [client, v] : row) sum += v;
    out.push_back(num_clients_ > 0 ? sum / static_cast<double>(num_clients_) : 0.0);
  }
  return out;
}

double RlTables::resource_reward(const std::vector<std::size_t>& level_entries,
                                 std::size_t client) const {
  // Numerator: for each sublevel k of type(m_i), the tail-sum of scores from
  // k up to L_1. Denominator: p * (total score over the whole pool).
  double numerator = 0.0;
  for (std::size_t k : level_entries) {
    for (std::size_t t = k; t < pool_size_; ++t) numerator += read(tr_[t], client);
  }
  double total = 0.0;
  for (std::size_t t = 0; t < pool_size_; ++t) total += read(tr_[t], client);
  const double denominator = static_cast<double>(p_) * total;
  if (denominator <= 0.0) return 0.0;
  return numerator / denominator;
}

double RlTables::curiosity_reward(Level type, std::size_t client) const {
  return 1.0 / std::sqrt(curiosity(type, client));
}

RlTables::Dump RlTables::dump() const {
  Dump d;
  auto emit = [&](const std::vector<Row>& rows, std::size_t offset) {
    for (std::size_t r = 0; r < rows.size(); ++r) {
      for (const auto& [client, v] : rows[r]) {
        d.cells.push_back({static_cast<double>(offset + r),
                           static_cast<double>(client), v});
      }
    }
  };
  emit(tc_, 0);
  emit(tr_, tc_.size());
  std::sort(d.cells.begin(), d.cells.end());
  d.touched = touched_;
  return d;
}

void RlTables::restore(const Dump& dump) {
  // Rebuilt aside and committed only once the whole dump checks out. Rows and
  // clients must be integers in range (no other double may reach a size_t
  // cast), values finite and >= 0, touched clients strictly ascending.
  const auto index_ok = [](double x, std::size_t limit) {
    return x >= 0.0 && x < static_cast<double>(limit) && x == std::floor(x);
  };
  std::vector<Row> tc(tc_.size()), tr(tr_.size());
  for (const auto& [row, client, v] : dump.cells) {
    if (!index_ok(row, tc.size() + tr.size()) || !index_ok(client, num_clients_) ||
        !(std::isfinite(v) && v >= 0.0)) {
      throw std::invalid_argument("RlTables::restore: malformed cell");
    }
    const auto r = static_cast<std::size_t>(row);
    (r < tc.size() ? tc[r] : tr[r - tc.size()])[static_cast<std::size_t>(client)] = v;
  }
  const std::vector<std::size_t>& t = dump.touched;
  if ((!t.empty() && t.back() >= num_clients_) ||
      std::adjacent_find(t.begin(), t.end(), std::greater_equal<>()) != t.end()) {
    throw std::invalid_argument("RlTables::restore: touched clients not ascending in range");
  }
  tc_ = std::move(tc);
  tr_ = std::move(tr);
  touched_ = t;
}

double RlTables::reward(const std::vector<std::size_t>& level_entries, Level type,
                        std::size_t client) const {
  // R = min(0.5, R_s) * R_c: the 50% cap stops strong clients from
  // monopolizing selection; beyond it, curiosity decides (§3.3).
  return std::min(0.5, resource_reward(level_entries, client)) *
         curiosity_reward(type, client);
}

}  // namespace afl
