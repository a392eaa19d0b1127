// The traced run's per-layer replay. The service runs its layers on pool
// threads the benchmark cannot see into, so the traced run replays every
// job through the same public functions the pipeline calls, one span per
// call, on the engine the reference service resolved for the job:
//
//   EnumeratePlacements -> SynthesisHierarchy::Build
//     -> SynthesizePrograms (once per cache signature, as the service does)
//     -> LowerProgram (the default AllReduce first) -> core::ToString
//     -> CostModel::PredictProgram
//     -> CompileCollective + FlowSimulator::Run (the programs the service
//        measured)
//
// Every replayed value is compared with the reference result — program
// count, text, prediction and measurement — and every lowering is checked
// by core::CheckLoweredOnFullSystem, an oracle independent of both.
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "core/lowering.h"
#include "core/placement.h"
#include "core/synthesis_hierarchy.h"
#include "core/synthesizer.h"
#include "engine/baselines.h"
#include "engine/synthesis_cache.h"
#include "runtime/collective_schedule.h"
#include "runtime/flow_sim.h"

namespace perfbench {

namespace {

struct ReplayCounts {
  std::int64_t placements = 0;
  std::int64_t states_visited = 0;
  std::int64_t lowered = 0;
  std::int64_t predicted = 0;
  std::int64_t measured = 0;
  std::int64_t flows = 0;
  std::int64_t rate_recomputations = 0;
};

/// Measures `lowered` step by step as runtime::Executor does, one
/// compile span and one flow-simulation span per step.
double Measure(const p2::engine::Engine& engine,
               const p2::core::LoweredProgram& lowered, Tracer& tracer,
               std::int64_t request, std::int64_t parent,
               ReplayCounts* counts) {
  const p2::runtime::Executor& executor = engine.executor();
  double total = 0.0;
  for (const p2::core::LoweredStep& step : lowered.steps) {
    std::vector<p2::runtime::TaskSequence> tasks;
    {
      Tracer::Scope span(tracer, "runtime.compile", request, parent);
      const double bytes_in = step.in_fraction * engine.payload_bytes();
      const double bytes_out = step.out_fraction * engine.payload_bytes();
      tasks.reserve(step.groups.size());
      for (const auto& group : step.groups) {
        tasks.push_back(p2::runtime::CompileCollective(
            step.op, engine.options().algo, group, bytes_in, bytes_out,
            executor.cluster(), executor.network()));
      }
    }
    p2::runtime::FlowSimStats stats;
    {
      Tracer::Scope span(tracer, "runtime.flowsim", request, parent);
      total +=
          p2::runtime::FlowSimulator(executor.network()).Run(tasks, &stats);
    }
    counts->flows += stats.flows_completed;
    counts->rate_recomputations += stats.rate_recomputations;
  }
  return total;
}

}  // namespace

std::int64_t Bench::Replay(Tracer& tracer, Counters* layers) {
  ReplayCounts counts;
  std::int64_t failed = 0;
  std::unordered_map<std::string, p2::core::SynthesisResult> synthesized;
  const p2::core::Program default_ar = p2::engine::DefaultAllReduceProgram();

  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    const Job& job = jobs_[j];
    const auto request = static_cast<std::int64_t>(j);
    const p2::engine::ExperimentResult& expected = reference_[j];
    const p2::engine::Engine& engine =
        reference_service_->EngineFor(job.cluster);
    const auto& options = engine.options();
    const std::string where = workload_ + " replay of job " +
                              std::to_string(j) + " (" +
                              job.config.ToString() + ")";
    bool ok = true;
    const auto fail = [&](const std::string& what) {
      if (ok) {
        errors_.Add(where + ": " + what);
        ++failed;
      }
      ok = false;
    };

    Tracer::Scope job_span(tracer, "replay.request", request);
    std::vector<p2::core::ParallelismMatrix> placements;
    {
      Tracer::Scope span(tracer, "core.enumerate", request, job_span.id());
      placements = p2::core::EnumeratePlacements(job.cluster.hierarchy(),
                                                 job.config.axes);
    }
    counts.placements += static_cast<std::int64_t>(placements.size());
    if (placements.size() != expected.placements.size()) {
      fail("placement count differs");
      continue;
    }

    for (std::size_t p = 0; p < placements.size(); ++p) {
      const p2::engine::PlacementEvaluation& want = expected.placements[p];
      std::optional<p2::core::SynthesisHierarchy> sh;
      {
        Tracer::Scope span(tracer, "core.hierarchy", request, job_span.id());
        sh.emplace(p2::core::SynthesisHierarchy::Build(
            placements[p], job.config.reduction_axes, options.hierarchy_kind,
            options.collapse_hierarchy));
      }
      const std::string key =
          p2::engine::SynthesisCache::BaseKey(*sh, options.synthesis);
      auto found = synthesized.find(key);
      if (found == synthesized.end()) {
        Tracer::Scope span(tracer, "core.synthesize", request, job_span.id());
        found = synthesized
                    .emplace(key, p2::core::SynthesizePrograms(
                                      *sh, options.synthesis))
                    .first;
        counts.states_visited += found->second.stats.states_visited;
      }

      // The evaluated list: the default AllReduce, then every synthesized
      // program except the one whose lowering duplicates it — the
      // pipeline's own rule.
      std::vector<const p2::core::Program*> programs{&default_ar};
      std::vector<p2::core::LoweredProgram> lowered;
      {
        Tracer::Scope span(tracer, "core.lower", request, job_span.id());
        lowered.push_back(p2::core::LowerProgram(*sh, default_ar));
      }
      for (const p2::core::Program& program : found->second.programs) {
        p2::core::LoweredProgram lowered_program;
        {
          Tracer::Scope span(tracer, "core.lower", request, job_span.id());
          lowered_program = p2::core::LowerProgram(*sh, program);
        }
        const auto& steps = lowered_program.steps;
        if (steps.size() == 1 &&
            steps[0].op == p2::core::Collective::kAllReduce &&
            steps[0].groups == lowered.front().steps[0].groups) {
          continue;
        }
        programs.push_back(&program);
        lowered.push_back(std::move(lowered_program));
      }
      counts.lowered += 1 + static_cast<std::int64_t>(
                                found->second.programs.size());
      if (programs.size() != want.programs.size()) {
        fail("program count differs at placement " + std::to_string(p));
        continue;
      }

      for (std::size_t i = 0; i < programs.size(); ++i) {
        const p2::engine::ProgramEvaluation& w = want.programs[i];
        std::string text;
        {
          Tracer::Scope span(tracer, "core.to_string", request, job_span.id());
          text = p2::core::ToString(*programs[i], sh->level_names());
        }
        double predicted = 0.0;
        {
          Tracer::Scope span(tracer, "cost.predict", request, job_span.id());
          predicted = engine.cost_model().PredictProgram(
              lowered[i], engine.payload_bytes(), options.algo);
        }
        ++counts.predicted;
        if (text != w.text) fail("program text differs: " + text);
        if (predicted != w.predicted_seconds) fail("prediction differs");
        if (w.measured) {
          const double measured = Measure(engine, lowered[i], tracer, request,
                                          job_span.id(), &counts);
          ++counts.measured;
          if (measured != w.measured_seconds) fail("measurement differs");
        }
        std::string error;
        bool valid = false;
        {
          Tracer::Scope span(tracer, "oracle.check_lowered", request,
                             job_span.id());
          valid = p2::core::CheckLoweredOnFullSystem(*sh, lowered[i], &error);
        }
        if (!valid) {
          fail("lowered program fails the full-system check: " + error);
        }
      }
    }
  }

  const auto add = [layers](const char* name, std::int64_t value) {
    (*layers)[name] += static_cast<double>(value);
  };
  add("core.enumerate.placements", counts.placements);
  add("core.synthesize.states_visited", counts.states_visited);
  add("core.lower.programs", counts.lowered);
  add("cost.predict.programs", counts.predicted);
  add("runtime.measure.programs", counts.measured);
  add("runtime.flowsim.flows", counts.flows);
  add("runtime.flowsim.rate_recomputations", counts.rate_recomputations);
  return failed;
}

}  // namespace perfbench
