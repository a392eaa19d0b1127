// Synchronous lookup-or-synthesize over SynthesisCache's non-blocking
// surface, for tests that just need an entry in (or served from) a cache.
// It runs the pipeline's owner protocol without a remote plane: TryLookup;
// on kOwned synthesize and publish with CompleteOwned (withdrawing with
// AbandonOwned if the synthesis throws). Callers must not race another
// lookup of the same signature: a kInFlight result fails the test.
#ifndef P2_TESTS_CACHE_LOOKUP_H_
#define P2_TESTS_CACHE_LOOKUP_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "core/synthesis_hierarchy.h"
#include "core/synthesizer.h"
#include "engine/synthesis_cache.h"

namespace p2::engine {

inline std::shared_ptr<const core::SynthesisResult> LookupOrSynthesize(
    SynthesisCache& cache, const core::SynthesisHierarchy& sh,
    const core::SynthesisOptions& options,
    CacheLookupOutcome* outcome = nullptr,
    std::int64_t tenant = SynthesisCache::kNoTenant) {
  SynthesisCache::DeferredLookup deferred;
  auto looked = cache.TryLookup(sh, options, [] {}, &deferred, outcome, tenant);
  if (looked.state == SynthesisCache::TryLookupState::kReady) {
    return looked.result;
  }
  if (looked.state == SynthesisCache::TryLookupState::kInFlight) {
    ADD_FAILURE() << "LookupOrSynthesize raced another lookup";
    cache.CancelDeferred(&deferred);
    return nullptr;
  }
  std::shared_ptr<const core::SynthesisResult> result;
  try {
    result = std::make_shared<const core::SynthesisResult>(
        core::SynthesizePrograms(sh, options));
  } catch (...) {
    cache.AbandonOwned(sh, options);
    throw;
  }
  cache.CompleteOwned(sh, options, result, tenant);
  return result;
}

}  // namespace p2::engine

#endif  // P2_TESTS_CACHE_LOOKUP_H_
