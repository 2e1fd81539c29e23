#include "engine/run.hpp"

#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "fl/evaluate.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "prune/width_prune.hpp"
#include "util/table.hpp"

namespace afl {

double RunResult::best_full_acc() const {
  double best = final_full_acc;
  for (const RoundRecord& r : curve) best = std::max(best, r.full_acc);
  return best;
}

double RunResult::best_avg_acc() const {
  double best = final_avg_acc;
  for (const RoundRecord& r : curve) best = std::max(best, r.avg_acc);
  return best;
}

void RunResult::write_curve_csv(const std::string& path) const {
  Table table({"round", "full_acc", "avg_acc", "comm_waste", "round_waste"});
  for (const RoundRecord& r : curve) {
    table.add_row({std::to_string(r.round), Table::fmt(r.full_acc, 6),
                   Table::fmt(r.avg_acc, 6), Table::fmt(r.comm_waste, 6),
                   Table::fmt(r.round_waste, 6)});
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("write_curve_csv: cannot open " + path);
  out << table.to_csv();
  if (!out) throw std::runtime_error("write_curve_csv: write failed for " + path);
}

void RunResult::write_metrics_jsonl(const std::string& path, bool append) const {
  std::ofstream out(path, append ? std::ios::app : std::ios::trunc);
  if (!out) throw std::runtime_error("write_metrics_jsonl: cannot open " + path);
  for (const RoundMetrics& m : round_metrics) {
    std::ostringstream line;
    line << "{\"algo\":\"" << obs::json_escape(algorithm) << "\",\"round\":" << m.round
         << ",\"round_seconds\":" << m.round_seconds
         << ",\"train_seconds\":" << m.train_seconds
         << ",\"aggregate_seconds\":" << m.aggregate_seconds
         << ",\"eval_seconds\":" << m.eval_seconds
         << ",\"clients_ok\":" << m.clients_ok
         << ",\"clients_failed\":" << m.clients_failed
         << ",\"params_sent\":" << m.params_sent
         << ",\"params_returned\":" << m.params_returned
         << ",\"round_waste\":" << m.round_waste
         << ",\"selector_entropy\":" << m.selector_entropy
         << ",\"bytes_sent\":" << m.bytes_sent
         << ",\"bytes_returned\":" << m.bytes_returned
         << ",\"retransmits\":" << m.retransmits
         << ",\"stragglers\":" << m.stragglers
         << ",\"sim_seconds\":" << m.sim_seconds
         << ",\"virtual_time\":" << m.virtual_time << "}";
    out << line.str() << '\n';
  }
  if (!time_to_acc.empty()) {
    // One summary record per run: simulated seconds to each accuracy
    // threshold the curve crossed (bench JSONs track this over PRs).
    std::ostringstream line;
    line << "{\"algo\":\"" << obs::json_escape(algorithm)
         << "\",\"record\":\"time_to_acc\",\"sim_seconds\":" << sim_seconds
         << ",\"thresholds\":[";
    for (std::size_t i = 0; i < time_to_acc.size(); ++i) {
      const TimeToAcc& t = time_to_acc[i];
      if (i > 0) line << ',';
      line << "{\"accuracy\":" << t.accuracy
           << ",\"sim_seconds\":" << t.sim_seconds << ",\"round\":" << t.round
           << "}";
    }
    line << "]}";
    out << line.str() << '\n';
  }
  if (!out) throw std::runtime_error("write_metrics_jsonl: write failed for " + path);
}

void RunResult::note_time_to_acc(double accuracy, double sim_s,
                                 std::size_t round) {
  for (double threshold : kTtaThresholds) {
    if (accuracy < threshold) break;  // thresholds are ascending
    bool seen = false;
    for (const TimeToAcc& t : time_to_acc) {
      if (t.accuracy == threshold) {
        seen = true;
        break;
      }
    }
    if (!seen) time_to_acc.push_back({threshold, sim_s, round});
  }
}

RoundTelemetry::RoundTelemetry(RunResult& result, std::size_t round)
    : result_(result) {
  m_.round = round;
  result_.comm.begin_round();
}

RoundTelemetry::~RoundTelemetry() {
  m_.round_seconds = watch_.seconds();
  m_.params_sent = result_.comm.round_sent();
  m_.params_returned = result_.comm.round_returned();
  m_.round_waste = result_.comm.round_waste_rate();
  if (net_enabled_) {
    m_.bytes_sent = result_.comm.round_bytes_sent();
    m_.bytes_returned = result_.comm.round_bytes_returned();
    m_.retransmits = result_.comm.round_retransmits();
    m_.stragglers = result_.comm.round_stragglers();
  }
  static obs::Histogram& hist = obs::metrics().histogram("afl.run.round.seconds");
  hist.record(m_.round_seconds);
  obs::metrics().counter("afl.run.rounds").inc();
  obs::TraceEvent ev("round");
  ev.field("algo", result_.algorithm)
      .field("round", static_cast<std::uint64_t>(m_.round))
      .field("clients_ok", static_cast<std::uint64_t>(m_.clients_ok))
      .field("clients_failed", static_cast<std::uint64_t>(m_.clients_failed))
      .field("params_sent", static_cast<std::uint64_t>(m_.params_sent))
      .field("params_returned", static_cast<std::uint64_t>(m_.params_returned))
      .field("round_waste", m_.round_waste)
      .field("train_ms", m_.train_seconds * 1e3)
      .field("aggregate_ms", m_.aggregate_seconds * 1e3)
      .field("eval_ms", m_.eval_seconds * 1e3);
  if (net_enabled_) {
    // Only transport-backed rounds carry the byte columns, keeping
    // transportless traces byte-identical to pre-transport builds.
    ev.field("bytes_sent", static_cast<std::uint64_t>(m_.bytes_sent))
        .field("bytes_returned", static_cast<std::uint64_t>(m_.bytes_returned))
        .field("retransmits", static_cast<std::uint64_t>(m_.retransmits))
        .field("stragglers", static_cast<std::uint64_t>(m_.stragglers));
  }
  if (has_sim_) {
    // Likewise the simulated-clock columns appear only when the run models
    // time (transport clock or async virtual clock).
    ev.field("sim_ms", m_.sim_seconds * 1e3)
        .field("virtual_time", m_.virtual_time);
  }
  ev.field("dur_ms", m_.round_seconds * 1e3);
  ev.emit();
  result_.round_metrics.push_back(m_);
}

double eval_params(const ArchSpec& spec, const WidthPlan& plan,
                   const BuildOptions& options, const ParamSet& params,
                   const Dataset& test, std::size_t eval_batch, ThreadPool& workers) {
  const auto make_model = [&] {
    Model model = build_model(spec, plan, /*init_rng=*/nullptr, options);
    model.import_params(params);
    return model;
  };
  return evaluate(make_model, test, eval_batch, workers).accuracy;
}

std::vector<std::size_t> sample_clients(std::size_t num_clients, std::size_t k,
                                        Rng& rng) {
  std::vector<std::size_t> all(num_clients);
  std::iota(all.begin(), all.end(), 0);
  rng.shuffle(all);
  all.resize(std::min(k, num_clients));
  return all;
}

}  // namespace afl
