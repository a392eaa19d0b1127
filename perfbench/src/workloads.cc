#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "bench.h"
#include "engine/cache_store.h"
#include "engine/cli.h"
#include "engine/remote_cache.h"
#include "engine/report.h"
#include "server/planner_client.h"
#include "server/planner_server.h"
#include "server/remote_cache_client.h"

namespace perfbench {

using p2::engine::ExperimentResult;
using p2::engine::PlannerService;
using p2::engine::PlannerServiceOptions;
using p2::server::FrameType;

namespace {

struct Preset {
  const char* system;
  int nodes;
};

std::vector<Job> GridJobs(std::initializer_list<Preset> presets,
                          std::initializer_list<int> top_ks) {
  std::vector<Job> jobs;
  for (const Preset& preset : presets) {
    const p2::topology::Cluster cluster = p2::engine::ClusterFromPreset(
        p2::engine::TopologyPreset{preset.system, preset.nodes});
    const auto grid = p2::engine::FullGrid(cluster);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      for (const int top_k : top_ks) {
        jobs.push_back(Job{preset.system, preset.nodes, cluster,
                           static_cast<std::int64_t>(i), grid[i], top_k});
      }
    }
  }
  return jobs;
}

// The four workloads (see perfbench/README.md for why each exists).
std::vector<Job> MakeJobs(const std::string& workload) {
  if (workload == "grid_measured") {
    return GridJobs({{"a100", 8}, {"v100", 8}}, {-1});
  }
  if (workload == "grid_guided") return GridJobs({{"a100", 16}}, {3});
  if (workload == "wire_interactive") {
    return GridJobs({{"a100", 2}, {"a100", 4}, {"v100", 2}, {"v100", 4}},
                    {1, 2, 3});
  }
  if (workload == "shard_plane") return GridJobs({{"a100", 8}}, {3});
  throw std::invalid_argument("unknown workload " + workload);
}

/// The distinct clusters of `jobs`, in first-use order.
std::vector<p2::topology::Cluster> Clusters(const std::vector<Job>& jobs) {
  std::vector<p2::topology::Cluster> clusters;
  std::set<std::string> seen;
  for (const Job& job : jobs) {
    if (seen.insert(job.cluster.Fingerprint()).second) {
      clusters.push_back(job.cluster);
    }
  }
  return clusters;
}

/// Seeded Fisher-Yates shuffle of 0..n-1 (mt19937_64 is fully specified,
/// so a seed gives the same stream with any standard library).
std::vector<std::size_t> Shuffled(std::size_t n, std::mt19937_64& rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng() % i]);
  }
  return order;
}

double WorkSeconds(const p2::engine::PipelineStats& stats) {
  return stats.synthesis_seconds + stats.evaluation_seconds;
}

void AddCacheCounters(const p2::engine::SynthesisCacheStats& cache,
                      Counters* layers) {
  (*layers)["core.synthesize.runs"] += static_cast<double>(cache.misses);
  (*layers)["engine.cache.lookups"] +=
      static_cast<double>(cache.hits + cache.misses);
  (*layers)["engine.cache.hits"] += static_cast<double>(cache.hits);
  (*layers)["engine.cache.cross_tenant_hits"] +=
      static_cast<double>(cache.cross_tenant_hits);
  (*layers)["engine.cache.deferred_lookups"] +=
      static_cast<double>(cache.deferred_lookups);
  (*layers)["engine.cache.waiter_parks"] +=
      static_cast<double>(cache.waiter_parks);
  (*layers)["engine.cache_store.disk_hits"] +=
      static_cast<double>(cache.disk_hits);
  (*layers)["server.plane.remote_hits"] +=
      static_cast<double>(cache.remote_hits);
  (*layers)["server.plane.remote_errors"] +=
      static_cast<double>(cache.remote_errors);
}

/// Replays the wire codec on frames the run exchanged: each frame is
/// encoded and decoded once, as the sending and receiving peers do, inside
/// "server.wire.encode" / "server.wire.decode" spans.
class CodecReplay {
 public:
  CodecReplay(Tracer& tracer, ErrorLog& errors)
      : tracer_(tracer), errors_(errors) {}

  template <class EncodePayload, class DecodePayload>
  void RoundTrip(FrameType type, EncodePayload encode_payload,
                 DecodePayload decode_payload) {
    std::string bytes;
    {
      Tracer::Scope span(tracer_, "server.wire.encode", frames_);
      bytes = p2::server::EncodeFrame(
          p2::server::Frame{type, encode_payload()});
    }
    bool ok = false;
    {
      Tracer::Scope span(tracer_, "server.wire.decode", frames_);
      p2::server::Frame decoded;
      std::size_t consumed = 0;
      ok = p2::server::DecodeFrame(bytes, &decoded, &consumed) ==
               p2::server::FrameDecodeStatus::kOk &&
           consumed == bytes.size() && decoded.type == type &&
           decode_payload(decoded.payload);
    }
    if (!ok) errors_.Add("wire codec round trip failed");
    ++frames_;
    bytes_ += static_cast<std::int64_t>(bytes.size());
  }

  void AddTo(Counters* layers) const {
    (*layers)["server.wire.frames"] += static_cast<double>(frames_);
    (*layers)["server.wire.bytes"] += static_cast<double>(bytes_);
  }

 private:
  Tracer& tracer_;
  ErrorLog& errors_;
  std::int64_t frames_ = 0;
  std::int64_t bytes_ = 0;
};

/// The benchmark's RemoteCacheBackend decorator: forwards to the real
/// client, times every lookup, and (when recording) keeps the exchanged
/// entries for the codec replay.
class TimedRemoteCache final : public p2::engine::RemoteCacheBackend {
 public:
  TimedRemoteCache(std::shared_ptr<p2::engine::RemoteCacheBackend> inner,
                   bool record)
      : inner_(std::move(inner)), record_(record) {}

  p2::engine::RemoteLookupResult Lookup(const std::string& base_key,
                                        std::int64_t cap) override {
    const auto start = Clock::now();
    p2::engine::RemoteLookupResult result = inner_->Lookup(base_key, cap);
    const double seconds = SecondsBetween(start, Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    ++lookups_;
    lookup_seconds_ += seconds;
    if (record_) lookups_seen_.push_back({base_key, cap, result});
    return result;
  }

  bool Publish(const std::string& key,
               const p2::core::SynthesisResult& result) override {
    const bool ok = inner_->Publish(key, result);
    if (!record_) return ok;
    std::lock_guard<std::mutex> lock(mu_);
    publishes_seen_.push_back({key, result, 0});
    return ok;
  }

  void AddTo(Counters* layers, CodecReplay& codec) {
    std::lock_guard<std::mutex> lock(mu_);
    (*layers)["server.plane.lookup_s"] += lookup_seconds_;
    (*layers)["server.plane.lookup_calls"] += static_cast<double>(lookups_);
    for (const LookupSeen& seen : lookups_seen_) {
      codec.RoundTrip(
          FrameType::kCacheLookupRequest,
          [&] {
            return p2::server::EncodeCacheLookupRequest({seen.base_key,
                                                         seen.cap});
          },
          [](const std::string& payload) {
            p2::server::CacheLookupWireRequest back;
            std::string error;
            return p2::server::DecodeCacheLookupRequest(payload, &back,
                                                        &error);
          });
      using Kind = p2::engine::RemoteLookupResult::Kind;
      if (seen.result.kind == Kind::kUnavailable) continue;  // no reply
      p2::server::CacheLookupWireResponse reply;
      using WireKind = p2::server::CacheLookupWireResponse::Kind;
      reply.kind = seen.result.kind == Kind::kHit     ? WireKind::kHit
                   : seen.result.kind == Kind::kOwned ? WireKind::kOwned
                                                      : WireKind::kRetryAfter;
      reply.retry_after_ms = seen.result.retry_after_ms;
      reply.entry = {seen.result.key, seen.result.result, 0};
      codec.RoundTrip(
          FrameType::kCacheLookupResponse,
          [&] { return p2::server::EncodeCacheLookupResponse(reply); },
          [](const std::string& payload) {
            p2::server::CacheLookupWireResponse back;
            std::string error;
            return p2::server::DecodeCacheLookupResponse(payload, &back,
                                                         &error);
          });
    }
    for (const p2::engine::CacheFileEntry& entry : publishes_seen_) {
      codec.RoundTrip(
          FrameType::kCachePublishRequest,
          [&] { return p2::server::EncodeCachePublishRequest(entry); },
          [](const std::string& payload) {
            p2::engine::CacheFileEntry back;
            std::string error;
            return p2::server::DecodeCachePublishRequest(payload, &back,
                                                         &error);
          });
      codec.RoundTrip(
          FrameType::kCachePublishResponse,
          [] {
            return p2::server::EncodeStatusPayload(p2::server::WireStatus::kOk,
                                                   "");
          },
          [](const std::string& payload) {
            p2::server::WireStatus status;
            std::string text;
            return p2::server::DecodeStatusPayload(payload, &status, &text);
          });
    }
  }

 private:
  struct LookupSeen {
    std::string base_key;
    std::int64_t cap = 0;
    p2::engine::RemoteLookupResult result;
  };

  const std::shared_ptr<p2::engine::RemoteCacheBackend> inner_;
  const bool record_;
  std::mutex mu_;
  std::int64_t lookups_ = 0;           ///< guarded by mu_
  double lookup_seconds_ = 0.0;        ///< guarded by mu_
  std::vector<LookupSeen> lookups_seen_;                     ///< ditto
  std::vector<p2::engine::CacheFileEntry> publishes_seen_;  ///< ditto
};

}  // namespace

p2::engine::PlanRequest Job::Request() const {
  p2::engine::PlanRequest request;
  request.axes = config.axes;
  request.reduction_axes = config.reduction_axes;
  request.measure_top_k = top_k;
  request.cluster = cluster;
  return request;
}

p2::server::PlanWireRequest Job::WireRequest() const {
  p2::server::PlanWireRequest request;
  request.preset_system = system;
  request.preset_nodes = nodes;
  request.axes = config.axes;
  request.reduction_axes = config.reduction_axes;
  request.measure_top_k = top_k;
  return request;
}

void ErrorLog::Add(std::string message) {
  std::lock_guard<std::mutex> lock(mu_);
  ++count_;
  if (first_.size() < kKept) first_.push_back(std::move(message));
}

std::int64_t ErrorLog::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

std::vector<std::string> ErrorLog::first() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_;
}

bool Bench::IsWorkload(const std::string& name) {
  return name == "grid_measured" || name == "grid_guided" ||
         name == "wire_interactive" || name == "shard_plane";
}

Bench::Bench(std::string workload, std::uint64_t seed, std::string work_dir)
    : workload_(std::move(workload)),
      rng_(seed),
      work_dir_(std::move(work_dir)),
      jobs_(MakeJobs(workload_)) {}

Bench::~Bench() = default;

void Bench::PrepareReference() {
  PlannerServiceOptions options;
  options.threads = 1;
  if (workload_ == "wire_interactive") {
    cache_file_ = work_dir_ + "/wire_interactive.p2sc";
    std::remove(cache_file_.c_str());
    options.cache_file = cache_file_;
  }
  reference_service_ = std::make_unique<PlannerService>(options);
  for (const Job& job : jobs_) {
    reference_.push_back(reference_service_->Plan(job.Request()));
    expected_.push_back(p2::engine::CanonicalResultText(reference_.back()));
  }
  if (!cache_file_.empty()) {
    std::string error;
    if (!reference_service_->SaveCache(&error)) {
      throw std::runtime_error("cannot write " + cache_file_ + ": " + error);
    }
  }
  if (workload_ == "shard_plane") {
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      expected_merged_ += p2::engine::RenderShardBlock(
          {jobs_[i].grid_index, jobs_[i].config.ToString(), expected_[i]});
    }
  }
}

bool Bench::Check(std::size_t index, const std::string& text) {
  if (text == expected_[index]) return true;
  errors_.Add(workload_ + ": output of job " + std::to_string(index) + " (" +
              jobs_[index].system + ":" + std::to_string(jobs_[index].nodes) +
              " " + jobs_[index].config.ToString() +
              ") differs from the serial reference");
  return false;
}

Iteration Bench::RunIteration(Tracer& tracer, Counters* layers) {
  if (workload_ == "wire_interactive") return RunWire(tracer, layers);
  if (workload_ == "shard_plane") return RunShard(tracer, layers);
  return RunGrid(tracer, layers);
}

// grid_measured / grid_guided: every config submitted at once to one
// cold-cache service (one tenant per preset), like `p2_plan --grid`.
Iteration Bench::RunGrid(Tracer& tracer, Counters* layers) {
  Iteration it;
  it.traced = tracer.enabled();
  it.threads = kServiceThreads;
  const std::size_t n = jobs_.size();

  const auto setup_start = Clock::now();
  PlannerServiceOptions options;
  options.threads = kServiceThreads;
  auto service = std::make_unique<PlannerService>(options);
  for (const auto& cluster : Clusters(jobs_)) service->EngineFor(cluster);
  const auto first_submit = Clock::now();
  it.setup_s = SecondsBetween(setup_start, first_submit);

  std::vector<p2::engine::PlanHandle> handles;
  std::vector<Clock::time_point> submitted(n);
  for (std::size_t i = 0; i < n; ++i) {
    submitted[i] = Clock::now();
    handles.push_back(service->Submit(jobs_[i].Request()));
  }
  // One waiter per request stamps its completion, so every latency is
  // exact whatever order the requests finish in; this thread takes the
  // results in completion order and renders each as it arrives.
  std::vector<double> latency_ms(n, 0.0);
  std::vector<std::string> texts(n);
  std::vector<std::string> failures(n);
  std::vector<p2::engine::PipelineStats> stats(n);
  std::mutex done_mu;
  std::condition_variable done_cv;
  std::vector<std::size_t> done_order;  // guarded by done_mu
  done_order.reserve(n);
  std::vector<std::thread> waiters;
  waiters.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    waiters.emplace_back([&, i] {
      handles[i].wait();
      const auto done = Clock::now();
      latency_ms[i] = 1e3 * SecondsBetween(submitted[i], done);
      tracer.Record("engine.request", static_cast<std::int64_t>(i),
                    Tracer::kRoot, submitted[i], done);
      std::lock_guard<std::mutex> lock(done_mu);
      done_order.push_back(i);
      done_cv.notify_one();
    });
  }
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t i = 0;
    {
      std::unique_lock<std::mutex> lock(done_mu);
      done_cv.wait(lock, [&] { return done_order.size() > k; });
      i = done_order[k];
    }
    try {
      ExperimentResult result = handles[i].get();
      stats[i] = result.pipeline;
      Tracer::Scope span(tracer, "engine.render",
                         static_cast<std::int64_t>(i));
      texts[i] = p2::engine::CanonicalResultText(result);
    } catch (const std::exception& e) {
      failures[i] = e.what();
    }
  }
  for (std::thread& waiter : waiters) waiter.join();
  it.makespan_s = SecondsBetween(first_submit, Clock::now());

  if (layers != nullptr) {
    AddCacheCounters(service->stats().cache, layers);
    for (const auto& s : stats) {
      (*layers)["engine.service.work_s"] += WorkSeconds(s);
      (*layers)["engine.pipeline.guided_skipped"] +=
          static_cast<double>(s.guided_skipped);
    }
  }
  service.reset();

  for (std::size_t i = 0; i < n; ++i) {
    ++it.attempted;
    if (!failures[i].empty()) {
      errors_.Add(workload_ + ": job " + std::to_string(i) +
                  " failed: " + failures[i]);
      ++it.failed;
    } else if (!Check(i, texts[i])) {
      ++it.failed;
    }
  }
  it.latency_ms = std::move(latency_ms);
  return it;
}

// wire_interactive: a closed loop of kWireClients PlannerClient connections
// to an in-process PlannerServer whose service starts warm from the cache
// file PrepareReference wrote. Each iteration sends every job once, in an
// order drawn from the seed; a client sends its next request only after
// the previous one answered.
Iteration Bench::RunWire(Tracer& tracer, Counters* layers) {
  Iteration it;
  it.traced = tracer.enabled();
  it.threads = kWireThreads;
  const std::vector<std::size_t> order = Shuffled(jobs_.size(), rng_);

  const auto setup_start = Clock::now();
  PlannerServiceOptions options;
  options.threads = kWireThreads;
  options.cache_file = cache_file_;
  options.cache_readonly = true;
  auto service = std::make_unique<PlannerService>(options);
  if (service->cache_load_status() != p2::engine::CacheLoadStatus::kOk) {
    errors_.Add("wire_interactive: cache file did not load: " +
                service->cache_load_message());
  }
  for (const auto& cluster : Clusters(jobs_)) service->EngineFor(cluster);
  auto server = std::make_unique<p2::server::PlannerServer>(*service);
  std::vector<std::unique_ptr<p2::server::PlannerClient>> clients;
  for (int c = 0; c < kWireClients; ++c) {
    clients.push_back(
        std::make_unique<p2::server::PlannerClient>(server->port()));
  }
  const auto first_submit = Clock::now();
  it.setup_s = SecondsBetween(setup_start, first_submit);

  struct Sent {
    std::size_t job = 0;
    double latency_ms = 0.0;
    p2::server::PlanWireResponse response;
  };
  std::vector<std::vector<Sent>> sent(kWireClients);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kWireClients; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t k = next.fetch_add(1); k < order.size();
           k = next.fetch_add(1)) {
        Sent s;
        s.job = order[k];
        const p2::server::PlanWireRequest request = jobs_[s.job].WireRequest();
        const auto start = Clock::now();
        s.response = clients[static_cast<std::size_t>(c)]->Plan(request);
        const auto done = Clock::now();
        s.latency_ms = 1e3 * SecondsBetween(start, done);
        tracer.Record("server.request", static_cast<std::int64_t>(k),
                      Tracer::kRoot, start, done);
        sent[static_cast<std::size_t>(c)].push_back(std::move(s));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  it.makespan_s = SecondsBetween(first_submit, Clock::now());

  const p2::engine::PlannerServiceStats service_stats = service->stats();
  clients.clear();
  server->Shutdown();
  server.reset();
  service.reset();

  CodecReplay codec(tracer, errors_);
  for (const auto& client_sent : sent) {
    for (const Sent& s : client_sent) {
      ++it.attempted;
      it.latency_ms.push_back(s.latency_ms);
      if (s.response.status != p2::server::WireStatus::kOk) {
        errors_.Add("wire_interactive: job " + std::to_string(s.job) +
                    " answered " + p2::server::ToString(s.response.status) +
                    ": " + s.response.message);
        ++it.failed;
        continue;
      }
      if (!Check(s.job, s.response.body)) ++it.failed;
      it.overhead_ms.push_back(s.latency_ms -
                               1e3 * s.response.stats.total_seconds);
      if (layers == nullptr) continue;
      {
        // The server renders each result; replay that render here.
        Tracer::Scope span(tracer, "engine.render",
                           static_cast<std::int64_t>(s.job));
        p2::engine::CanonicalResultText(reference_[s.job]);
      }
      (*layers)["engine.service.work_s"] += WorkSeconds(s.response.stats);
      (*layers)["engine.pipeline.guided_skipped"] +=
          static_cast<double>(s.response.stats.guided_skipped);
      const p2::server::PlanWireRequest request = jobs_[s.job].WireRequest();
      codec.RoundTrip(
          FrameType::kPlanRequest,
          [&] { return p2::server::EncodePlanRequest(request); },
          [](const std::string& payload) {
            p2::server::PlanWireRequest back;
            std::string error;
            return p2::server::DecodePlanRequest(payload, &back, &error);
          });
      codec.RoundTrip(
          FrameType::kPlanResponse,
          [&] { return p2::server::EncodePlanResponse(s.response); },
          [&](const std::string& payload) {
            p2::server::PlanWireResponse back;
            std::string error;
            return p2::server::DecodePlanResponse(payload, &back, &error) &&
                   back.body == s.response.body;
          });
    }
  }
  if (layers != nullptr) {
    AddCacheCounters(service_stats.cache, layers);
    (*layers)["engine.cache_store.entries_loaded"] +=
        static_cast<double>(service_stats.cache_entries_loaded);
    codec.AddTo(layers);
    // The set-up's cache-file load, replayed through the store's public
    // loader into a fresh cache.
    p2::engine::SynthesisCache fresh;
    p2::engine::CacheStore store(cache_file_);
    Tracer::Scope span(tracer, "engine.cache_store.load", 0);
    if (store.LoadInto(&fresh) != p2::engine::CacheLoadStatus::kOk) {
      errors_.Add("wire_interactive: cache store replay did not load");
    }
  }
  return it;
}

// shard_plane: the grid split across kShards worker services behind an
// in-process cache-plane server, each worker planning its shard in order
// and rendering shard blocks like `p2_shard`; the blocks are then parsed
// and merged into grid order.
Iteration Bench::RunShard(Tracer& tracer, Counters* layers) {
  Iteration it;
  it.traced = tracer.enabled();
  it.threads = kShards * kShardThreads;
  const std::size_t n = jobs_.size();

  const auto setup_start = Clock::now();
  PlannerServiceOptions plane_options;
  plane_options.threads = 1;
  auto plane_service = std::make_unique<PlannerService>(plane_options);
  p2::server::PlannerServerOptions plane_server_options;
  plane_server_options.cache_server = true;
  auto plane = std::make_unique<p2::server::PlannerServer>(
      *plane_service, plane_server_options);
  std::vector<std::shared_ptr<TimedRemoteCache>> remotes;
  std::vector<std::unique_ptr<PlannerService>> workers;
  for (int w = 0; w < kShards; ++w) {
    remotes.push_back(std::make_shared<TimedRemoteCache>(
        std::make_shared<p2::server::RemoteCacheClient>(plane->port()),
        layers != nullptr));
    PlannerServiceOptions options;
    options.threads = kShardThreads;
    options.remote_cache = remotes.back();
    workers.push_back(std::make_unique<PlannerService>(options));
    for (const auto& cluster : Clusters(jobs_)) {
      workers.back()->EngineFor(cluster);
    }
  }
  const auto first_submit = Clock::now();
  it.setup_s = SecondsBetween(setup_start, first_submit);

  std::vector<std::string> outputs(kShards);
  std::vector<double> latency_ms(n, 0.0);
  std::vector<p2::engine::PipelineStats> stats(n);
  std::vector<std::string> failures(n);
  std::vector<std::thread> threads;
  for (int w = 0; w < kShards; ++w) {
    threads.emplace_back([&, w] {
      for (const std::size_t i : p2::engine::ShardIndices(n, w, kShards)) {
        const auto start = Clock::now();
        try {
          ExperimentResult result =
              workers[static_cast<std::size_t>(w)]->Plan(jobs_[i].Request());
          const auto done = Clock::now();
          latency_ms[i] = 1e3 * SecondsBetween(start, done);
          tracer.Record("engine.request", static_cast<std::int64_t>(i),
                        Tracer::kRoot, start, done);
          stats[i] = result.pipeline;
          Tracer::Scope span(tracer, "engine.render",
                             static_cast<std::int64_t>(i));
          outputs[static_cast<std::size_t>(w)] +=
              p2::engine::RenderShardBlock(
                  {jobs_[i].grid_index, jobs_[i].config.ToString(),
                   p2::engine::CanonicalResultText(result)});
        } catch (const std::exception& e) {
          latency_ms[i] = 1e3 * SecondsBetween(start, Clock::now());
          failures[i] = e.what();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::vector<p2::engine::ShardBlock> blocks;
  std::string merged;
  std::string error;
  bool merge_ok = true;
  {
    Tracer::Scope span(tracer, "engine.merge", 0);
    for (const std::string& output : outputs) {
      std::vector<p2::engine::ShardBlock> shard;
      merge_ok = merge_ok &&
                 p2::engine::ParseShardBlocks(output, &shard, &error);
      blocks.insert(blocks.end(), shard.begin(), shard.end());
    }
    merge_ok = merge_ok &&
               p2::engine::MergeShardBlocks(
                   blocks, static_cast<std::int64_t>(n), &merged, &error);
  }
  it.makespan_s = SecondsBetween(first_submit, Clock::now());

  if (layers != nullptr) {
    const p2::server::PlannerServerStats plane_stats = plane->stats();
    (*layers)["server.plane.lookups"] +=
        static_cast<double>(plane_stats.cache_lookups);
    (*layers)["server.plane.grants"] +=
        static_cast<double>(plane_stats.cache_grants);
    (*layers)["server.plane.retries"] +=
        static_cast<double>(plane_stats.cache_retries);
    (*layers)["server.plane.publishes"] +=
        static_cast<double>(plane_stats.cache_publishes);
    for (const auto& worker : workers) {
      AddCacheCounters(worker->stats().cache, layers);
    }
    for (const auto& s : stats) {
      (*layers)["engine.service.work_s"] += WorkSeconds(s);
      (*layers)["engine.pipeline.guided_skipped"] +=
          static_cast<double>(s.guided_skipped);
    }
  }
  workers.clear();
  plane->Shutdown();
  plane.reset();
  plane_service.reset();
  if (layers != nullptr) {
    CodecReplay codec(tracer, errors_);
    for (const auto& remote : remotes) remote->AddTo(layers, codec);
    codec.AddTo(layers);
  }

  std::vector<bool> bad(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    if (!failures[i].empty()) {
      errors_.Add("shard_plane: job " + std::to_string(i) +
                  " failed: " + failures[i]);
      bad[i] = true;
    }
  }
  if (!merge_ok) {
    errors_.Add("shard_plane: merge failed: " + error);
  } else if (merged != expected_merged_) {
    errors_.Add("shard_plane: merged grid differs from the serial grid");
  }
  for (const p2::engine::ShardBlock& block : blocks) {
    const auto i = static_cast<std::size_t>(block.index);
    if (i < n && !bad[i] && !Check(i, block.body)) bad[i] = true;
  }
  for (std::size_t i = 0; i < n; ++i) {
    ++it.attempted;
    // A failed merge fails every request of the iteration: none of them
    // reached the merged output the user gets.
    if (bad[i] || !merge_ok || merged != expected_merged_) ++it.failed;
  }
  it.latency_ms = std::move(latency_ms);
  return it;
}

Counters Bench::Quality() const {
  // Placements with a program measurably faster than the default
  // AllReduce, the geometric-mean speed-up of the best measured program
  // over those placements, and top-k accuracy of the predicted-best
  // program. Guided results contribute their measured programs only.
  std::int64_t placements = 0;
  std::int64_t outperformed = 0;
  double log_speedup = 0.0;
  p2::engine::AccuracyCounter accuracy({1, 10});
  for (const ExperimentResult& result : reference_) {
    ExperimentResult measured = result;
    for (auto& placement : measured.placements) {
      ++placements;
      if (placement.NumOutperforming() > 0) {
        ++outperformed;
        const double best =
            placement.programs[static_cast<std::size_t>(
                                   placement.BestMeasuredIndex())]
                .measured_seconds;
        log_speedup +=
            std::log(placement.DefaultAllReduce().measured_seconds / best);
      }
      std::erase_if(placement.programs,
                    [](const auto& p) { return !p.measured; });
    }
    accuracy.AddExperiment(measured);
  }
  Counters quality;
  quality["outperform_share"] =
      placements > 0 ? static_cast<double>(outperformed) /
                           static_cast<double>(placements)
                     : 0.0;
  quality["speedup_geomean"] =
      outperformed > 0
          ? std::exp(log_speedup / static_cast<double>(outperformed))
          : 1.0;
  quality["top1_accuracy"] = accuracy.Rate(0);
  quality["top10_accuracy"] = accuracy.Rate(1);
  return quality;
}

}  // namespace perfbench
