// The benchmark's workloads: what each one plans, the serial reference its
// outputs are checked against, one timed iteration, and the per-layer
// replay of the traced run.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "engine/experiment_grid.h"
#include "engine/service.h"
#include "server/wire_protocol.h"
#include "topology/cluster.h"
#include "trace.h"

namespace perfbench {

/// Pool threads per planning service. The box the benchmark was sized for
/// has 4 cores; no workload runs more than 4 compute threads.
inline constexpr int kServiceThreads = 4;
/// wire_interactive: closed-loop client connections, and the pool threads
/// of the service behind the server. Half the cores: a request is a chain
/// of thread hand-offs, and with all 4 cores busy each core taken by load
/// from outside the benchmark slowed it by about 30%; with 2 it did not
/// move.
inline constexpr int kWireClients = 2;
inline constexpr int kWireThreads = 2;
/// shard_plane: worker services, each with kShardThreads pool threads.
inline constexpr int kShards = 2;
inline constexpr int kShardThreads = 2;

/// One planning request: a grid config of a preset cluster, evaluated
/// either by measuring every program (top_k < 0) or guided (measure the
/// top_k programs by prediction plus the default AllReduce).
struct Job {
  std::string system;  ///< "a100" or "v100"
  int nodes = 1;
  p2::topology::Cluster cluster;
  std::int64_t grid_index = 0;  ///< index in the preset's FullGrid
  p2::engine::ExperimentConfig config;
  int top_k = -1;

  p2::engine::PlanRequest Request() const;
  p2::server::PlanWireRequest WireRequest() const;
};

/// What one timed iteration (fresh set-up, the workload's requests, then
/// teardown) produced.
struct Iteration {
  bool traced = false;
  double setup_s = 0.0;
  double makespan_s = 0.0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// Compute (pool) threads across the iteration's planning services.
  int threads = 0;
  /// Client-side submit-to-complete time of every request.
  std::vector<double> latency_ms;
  /// wire_interactive: client latency minus the server-side
  /// PipelineStats.total_seconds of the same response.
  std::vector<double> overhead_ms;
};

/// Named per-layer figures; names match BENCHMARK.json's per_layer list or
/// are raw inputs run.py derives them from.
using Counters = std::map<std::string, double>;

/// Mismatches and failures, shared by every thread of a run.
class ErrorLog {
 public:
  void Add(std::string message);
  std::int64_t count() const;
  std::vector<std::string> first() const;

 private:
  static constexpr std::size_t kKept = 20;
  mutable std::mutex mu_;
  std::int64_t count_ = 0;          ///< guarded by mu_
  std::vector<std::string> first_;  ///< guarded by mu_
};

class Bench {
 public:
  static bool IsWorkload(const std::string& name);

  /// `work_dir` receives the wire workload's cache file.
  Bench(std::string workload, std::uint64_t seed, std::string work_dir);
  ~Bench();

  ErrorLog& errors() { return errors_; }

  /// Plans every job on a serial (1-thread) service — outside any timed
  /// region — and keeps the results as the reference each iteration's
  /// outputs are compared with. On wire_interactive this also writes the
  /// cache file the measured services start warm from.
  void PrepareReference();

  /// One iteration. `layers`, when non-null, receives the iteration's
  /// service, server and cache-plane counters.
  Iteration RunIteration(Tracer& tracer, Counters* layers);

  /// The traced run's per-layer replay (replay.cc): every job's placements
  /// through the core, cost and runtime layers' public functions, each call
  /// inside a span, checked against the reference result. Returns the
  /// number of jobs whose replay found a mismatch (details go to errors()).
  std::int64_t Replay(Tracer& tracer, Counters* layers);

  std::int64_t num_jobs() const {
    return static_cast<std::int64_t>(jobs_.size());
  }

  /// The paper's quality figures over the reference results, which every
  /// iteration proves byte-identical to the measured outputs.
  Counters Quality() const;

 private:
  Iteration RunGrid(Tracer& tracer, Counters* layers);
  Iteration RunWire(Tracer& tracer, Counters* layers);
  Iteration RunShard(Tracer& tracer, Counters* layers);
  /// Checks one output against the reference of job `index`.
  bool Check(std::size_t index, const std::string& text);

  std::string workload_;
  std::mt19937_64 rng_;
  std::string work_dir_;
  std::vector<Job> jobs_;
  std::vector<p2::engine::ExperimentResult> reference_;
  std::vector<std::string> expected_;
  /// shard_plane: the serial grid rendered as shard blocks in grid order.
  std::string expected_merged_;
  std::string cache_file_;
  /// The reference service; its engines are the replay's engines.
  std::unique_ptr<p2::engine::PlannerService> reference_service_;
  ErrorLog errors_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
