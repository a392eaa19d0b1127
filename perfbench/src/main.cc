// perfbench: runs one workload of the planner benchmark and prints its raw
// measurements as one JSON object on the last line of stdout. run.py builds
// this binary, runs it and turns the raw figures into the metrics
// BENCHMARK.json names.
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1 --out-dir=DIR
//
// Untraced (--trace=0): a warm-up iteration, then fresh-setup iterations
// until S seconds have passed (at least kMinIterations), with outputs
// checked against a serial reference computed before timing starts.
// Traced (--trace=1): after the warm-up, untraced and traced iterations
// alternate for S seconds, then every job is replayed through the layers'
// public functions inside spans (bench.h); the spans of the last traced
// iteration and of the replay go to DIR as a Chrome trace.
#include <malloc.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

#include "bench.h"
#include "json.h"

#ifndef P2_BENCH_BUILD_TYPE
#define P2_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef P2_BENCH_COMPILER
#define P2_BENCH_COMPILER "unknown"
#endif

namespace {

using perfbench::Bench;
using perfbench::Clock;
using perfbench::Counters;
using perfbench::Iteration;
using perfbench::JsonWriter;
using perfbench::SecondsBetween;
using perfbench::Tracer;

constexpr int kMinIterations = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (eq == std::string::npos) return false;
    const std::string key = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0';
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = !value.empty() && *end == '\0' && args->seconds > 0.0;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds &&
         !args->out_dir.empty() && Bench::IsWorkload(args->workload);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Runs one iteration, then hands the heap it freed back to the OS, so each
/// iteration starts from about the footprint of a fresh process and
/// peak_rss_mb reads the largest iteration, not allocator fragmentation
/// accumulated over however many iterations fit in the run.
Iteration RunIteration(Bench& bench, Tracer& tracer, Counters* layers) {
  Iteration it = bench.RunIteration(tracer, layers);
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  return it;
}

void WriteIteration(JsonWriter& json, const Iteration& it) {
  json.BeginObject();
  json.Field("traced", it.traced);
  json.Field("setup_s", it.setup_s);
  json.Field("makespan_s", it.makespan_s);
  json.Field("attempted", it.attempted);
  json.Field("failed", it.failed);
  json.Field("threads", it.threads);
  json.Field("latency_ms", it.latency_ms);
  json.EndObject();
}

int Run(const Args& args) {
  Bench bench(args.workload, args.seed, args.out_dir);
  const auto reference_start = Clock::now();
  bench.PrepareReference();
  const double reference_s = SecondsBetween(reference_start, Clock::now());

  std::vector<Iteration> iterations;
  std::vector<double> overhead_ms;
  std::unique_ptr<Tracer> traced;  // the last traced iteration's spans
  Counters layers;
  Tracer untraced(false);
  // One warm-up iteration, checked but not measured: the first services of
  // the process fault in their allocator arenas and heap pages, a cost a
  // long-lived service pays once.
  const Iteration warmup = RunIteration(bench, untraced, nullptr);
  const auto start = Clock::now();
  while (static_cast<int>(iterations.size()) < kMinIterations ||
         SecondsBetween(start, Clock::now()) < args.seconds) {
    Iteration it = RunIteration(bench, untraced, nullptr);
    overhead_ms.insert(overhead_ms.end(), it.overhead_ms.begin(),
                       it.overhead_ms.end());
    iterations.push_back(std::move(it));
    if (args.trace) {
      auto tracer = std::make_unique<Tracer>(true);
      Counters counters;
      iterations.push_back(RunIteration(bench, *tracer, &counters));
      traced = std::move(tracer);
      layers = std::move(counters);
    }
  }

  std::int64_t attempted = warmup.attempted;
  std::int64_t failed = warmup.failed;
  for (const Iteration& it : iterations) {
    attempted += it.attempted;
    failed += it.failed;
  }
  std::map<std::string, double> self_s;
  if (args.trace) {
    failed += bench.Replay(*traced, &layers);
    attempted += bench.num_jobs();
    self_s = traced->SelfSeconds();
    const std::string path = args.out_dir + "/trace-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".json";
    if (!traced->WriteChromeTrace(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
  }

  JsonWriter json;
  json.BeginObject();
  json.Field("workload", args.workload);
  json.Field("seed", static_cast<std::int64_t>(args.seed));
  json.Field("trace", args.trace);
  json.Key("build");
  json.BeginObject();
  json.Field("build_type", P2_BENCH_BUILD_TYPE);
  json.Field("compiler", P2_BENCH_COMPILER);
  json.Field("compiler_version", __VERSION__);
#ifdef NDEBUG
  json.Field("ndebug", true);
#else
  json.Field("ndebug", false);
#endif
  json.EndObject();
  json.Field("reference_s", reference_s);
  json.Key("iterations");
  json.BeginArray();
  for (const Iteration& it : iterations) WriteIteration(json, it);
  json.EndArray();
  json.Field("overhead_ms", overhead_ms);
  json.Field("attempted", attempted);
  json.Field("failed", failed);
  json.Field("error_count", bench.errors().count());
  json.Field("errors", bench.errors().first());
  json.Field("quality", bench.Quality());
  json.Field("layers", layers);
  json.Field("self_s", self_s);
  json.Field("peak_rss_mb", PeakRssMb());
  json.EndObject();
  std::printf("%s\n", json.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=grid_measured|grid_guided|"
                 "wire_interactive|shard_plane --seed=N --seconds=S "
                 "--trace=0|1 --out-dir=DIR\n");
    return 2;
  }
  try {
    return Run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
