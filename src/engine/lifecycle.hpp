#pragma once
// Dispatch-lifecycle causal tracing (afl.trace.v2, docs/OBSERVABILITY.md).
//
// Every dispatch of a time-modeling run gets a stable dispatch_id whose
// virtual-clock phases — select → downlink → compute → uplink(+retries/
// backoff) → buffer_wait → commit, or a terminal drop — are emitted as
// structured `lifecycle` records in the AFL_TRACE_JSONL stream. Both
// engines (the RoundEngine, flat or sharded, and the src/async/ event
// engine) feed one LifecycleTracker per run:
//
//   - the RoundEngine assigns sequential ids during its sequential planning
//     pass, so ids are invariant to AFL_THREADS and the shard count;
//   - the async engine reuses its dispatch counter (slot.round) as the id.
//
// Phase intervals live on the run's virtual clock (run-global simulated
// seconds), so `afl-insight critical-path` can reconstruct the causal DAG
// and `afl-insight export-chrome` can lay tracks out on one timebase.
// Records are buffered per dispatch and emitted in one burst at the
// dispatch's terminal event (failure) or its window commit, always from
// sequential engine code in deterministic order — lifecycle output is
// byte-identical (modulo the wall-clock ts_ms envelope) across thread and
// shard counts.
//
// A tracker is only active when the run models time (transport enabled or
// async engine): transportless sync traces stay byte-identical to v1
// builds. When active it also feeds afl.lifecycle.<phase>.seconds
// histograms and an online critical-path blame summary published to the
// /status endpoint.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace afl::engine {

/// Phase names of the dispatch lifecycle, in causal order.
inline constexpr const char* kPhaseSelect = "select";
inline constexpr const char* kPhaseDownlink = "downlink";
inline constexpr const char* kPhaseCompute = "compute";
inline constexpr const char* kPhaseUplink = "uplink";
inline constexpr const char* kPhaseBufferWait = "buffer_wait";
inline constexpr const char* kPhaseCommit = "commit";
inline constexpr const char* kPhaseDrop = "drop";

/// Online critical-path blame totals in simulated seconds: after each window
/// commit the tracker adds the phase durations of the dispatch that
/// determined the commit instant (the last arrival). A cheap running
/// approximation of `afl-insight critical-path`, published to /status.
struct LifecycleBlame {
  double downlink = 0.0;     // wire time, backoff excluded
  double compute = 0.0;
  double uplink = 0.0;       // wire time, backoff excluded
  double backoff = 0.0;      // retry/re-upload backoff, both directions
  double buffer_wait = 0.0;  // arrival -> commit barrier / buffer flush
  bool valid = false;        // true once any window committed
};

class LifecycleTracker {
 public:
  /// `active` = the run models virtual time; inactive trackers no-op on
  /// every call (one branch), keeping transportless runs untouched.
  explicit LifecycleTracker(bool active) : active_(active) {}
  LifecycleTracker(const LifecycleTracker&) = delete;
  LifecycleTracker& operator=(const LifecycleTracker&) = delete;

  bool active() const { return active_; }

  /// Next sequential dispatch id (1-based). The RoundEngine calls this during
  /// its sequential planning pass; the async engine brings its own counter.
  std::size_t next_id() { return ++last_id_; }

  /// Snapshot/resume (docs/POPULATION.md): the id counter survives a resume
  /// so post-resume dispatches continue the sequence instead of reusing ids.
  std::size_t last_id() const { return last_id_; }
  void set_last_id(std::size_t id) { last_id_ = id; }

  /// Opens a dispatch: records the zero-length select instant at `t_select`
  /// and the identity tags every later record of this dispatch carries.
  /// `version` is the global-model version the dispatch was split from.
  void begin(std::size_t id, std::size_t round, std::size_t client,
             double t_select, int shard = -1, long long version = -1);

  /// Appends a phase interval [t0, t1]. `attempts`/`backoff_s`/`bytes`
  /// annotate transfer phases (0 omits the column).
  void phase(std::size_t id, const char* name, double t0, double t1,
             std::size_t attempts = 0, double backoff_s = 0.0,
             std::size_t bytes = 0);

  /// Terminal failure: appends a zero-length drop record tagged `outcome`
  /// (no_response, adapt_failed, lost_downlink, lost_uplink, deadline,
  /// stale) at `t_end` and emits the dispatch's buffered records now.
  void drop(std::size_t id, const char* outcome, double t_end);

  /// Marks the dispatch's update buffered at the aggregator at `t_arrival`;
  /// it rides the buffer until the owning commit_window().
  void arrived(std::size_t id, double t_arrival);

  /// Commits every arrived dispatch (of `commit_shard`, or all when -1) at
  /// the window's commit instant: appends buffer_wait [arrival, t_commit]
  /// and an outcome-ok commit record tagged `commit_version`, emits the
  /// dispatches in id order, and folds the window's determining dispatch
  /// (latest arrival, ties to the highest id) into the blame summary.
  void commit_window(double t_commit, int commit_shard = -1,
                     long long commit_version = -1);

  /// Sharded-run root-barrier records (dispatch-less, level-tagged): the
  /// idle wait of one edge clock up to the sync barrier, and the merge
  /// instant itself.
  void root_wait(std::size_t round, int shard, double t0, double t1);
  void root_merge(std::size_t round, double t);

  const LifecycleBlame& blame() const { return blame_; }

 private:
  struct PhaseRec {
    const char* name;
    double t0 = 0.0;
    double t1 = 0.0;
    std::size_t attempts = 0;
    double backoff_s = 0.0;
    std::size_t bytes = 0;
  };
  struct DispatchRec {
    std::size_t round = 0;
    std::size_t client = 0;
    int shard = -1;
    long long version = -1;
    double arrival = -1.0;  // >= 0 once buffered at the aggregator
    std::vector<PhaseRec> phases;
  };

  void emit(std::size_t id, const DispatchRec& rec, const char* outcome,
            long long commit_version);
  void record_histograms(const DispatchRec& rec);

  bool active_;
  std::size_t last_id_ = 0;
  std::map<std::size_t, DispatchRec> open_;  // id order = emission order
  DispatchRec critical_rec_;  // window-determining dispatch, kept past erase
  LifecycleBlame blame_;
};

}  // namespace afl::engine
