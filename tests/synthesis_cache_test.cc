// The synthesis cache's contract (ISSUE 1): placements inducing isomorphic
// synthesis hierarchies — equal signatures — share one synthesis run and get
// identical program sets; differing signatures miss.
#include "engine/synthesis_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string_view>
#include <thread>
#include <vector>

#include "cache_lookup.h"
#include "common/fault_injection.h"
#include "core/synthesis_hierarchy.h"
#include "engine/service.h"
#include "topology/presets.h"

namespace p2::engine {
namespace {

using core::ParallelismMatrix;
using core::SynthesisHierarchy;
using core::SynthesisHierarchyKind;

// Two placements of axes (8, 2, 2) on a [2 16] hierarchy that differ only in
// where the *non-reduction* axes land: their reduction-axis rows agree, so
// under kReductionAxes they pose the same synthesis problem.
SynthesisHierarchy IsomorphicA() {
  const ParallelismMatrix m({{1, 8}, {1, 2}, {2, 1}});
  const std::vector<int> raxes = {0};
  return SynthesisHierarchy::Build(m, raxes,
                                   SynthesisHierarchyKind::kReductionAxes);
}

SynthesisHierarchy IsomorphicB() {
  const ParallelismMatrix m({{1, 8}, {2, 1}, {1, 2}});
  const std::vector<int> raxes = {0};
  return SynthesisHierarchy::Build(m, raxes,
                                   SynthesisHierarchyKind::kReductionAxes);
}

// Same axes, but the reduction axis is split differently: another signature.
SynthesisHierarchy Different() {
  const ParallelismMatrix m({{2, 4}, {1, 2}, {1, 2}});
  const std::vector<int> raxes = {0};
  return SynthesisHierarchy::Build(m, raxes,
                                   SynthesisHierarchyKind::kReductionAxes);
}

TEST(Signature, InvariantUnderDeviceRenumbering) {
  EXPECT_EQ(IsomorphicA().Signature(), IsomorphicB().Signature());
  // ...even though the placements map synthesis devices to different global
  // devices.
  bool same_map = true;
  const auto a = IsomorphicA();
  const auto b = IsomorphicB();
  ASSERT_EQ(a.num_synth_devices(), b.num_synth_devices());
  ASSERT_EQ(a.num_replicas(), b.num_replicas());
  for (std::int64_t r = 0; r < a.num_replicas(); ++r) {
    for (std::int64_t s = 0; s < a.num_synth_devices(); ++s) {
      if (a.GlobalDevice(s, r) != b.GlobalDevice(s, r)) same_map = false;
    }
  }
  EXPECT_FALSE(same_map);
}

TEST(Signature, DistinguishesDifferentSynthesisProblems) {
  EXPECT_NE(IsomorphicA().Signature(), Different().Signature());
}

TEST(Signature, CoversLevelsAndGoal) {
  const auto sig = IsomorphicA().Signature();
  EXPECT_NE(sig.find("levels:"), std::string::npos);
  EXPECT_NE(sig.find("goal:"), std::string::npos);
}

TEST(SynthesisCache, HitsOnEqualSignaturesAndReturnsIdenticalPrograms) {
  SynthesisCache cache;
  const core::SynthesisOptions options;
  const auto first = LookupOrSynthesize(cache, IsomorphicA(), options);
  const auto second = LookupOrSynthesize(cache, IsomorphicB(), options);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(first.get(), second.get());  // the very same memoized result
  EXPECT_GE(cache.stats().seconds_saved, 0.0);

  // A hit is indistinguishable from a fresh synthesis (determinism).
  const auto fresh = core::SynthesizePrograms(IsomorphicB(), options);
  ASSERT_EQ(second->programs.size(), fresh.programs.size());
  for (std::size_t i = 0; i < fresh.programs.size(); ++i) {
    EXPECT_EQ(second->programs[i], fresh.programs[i]);
  }
}

TEST(SynthesisCache, MissesOnDifferentSignatures) {
  SynthesisCache cache;
  const core::SynthesisOptions options;
  LookupOrSynthesize(cache, IsomorphicA(), options);
  LookupOrSynthesize(cache, Different(), options);
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.stats().hits, 0);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(SynthesisCache, KeyIncludesSynthesisOptions) {
  SynthesisCache cache;
  core::SynthesisOptions small;
  small.max_program_size = 2;
  core::SynthesisOptions large;
  large.max_program_size = 4;
  const auto a = LookupOrSynthesize(cache, IsomorphicA(), small);
  const auto b = LookupOrSynthesize(cache, IsomorphicA(), large);
  EXPECT_EQ(cache.stats().misses, 2);  // different options never alias
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(a.get(), b.get());
  EXPECT_LE(a->programs.size(), b->programs.size());
}

TEST(SynthesisCache, LargerCapEntriesServeSmallerCapQueries) {
  // max_programs-aware subsumption: an entry synthesized under a larger cap
  // serves a smaller-cap query by truncation — a hit, not a miss — and the
  // truncated list equals what a fresh small-cap synthesis would return
  // (the synthesizer keeps the smallest programs, a size-ordered prefix).
  SynthesisCache cache;
  core::SynthesisOptions unbounded;  // default cap 2^20: effectively complete
  const auto full = LookupOrSynthesize(cache, IsomorphicA(), unbounded);
  ASSERT_GT(full->programs.size(), 2u);

  core::SynthesisOptions capped = unbounded;
  capped.max_programs = 2;
  CacheLookupOutcome outcome;
  const auto served =
      LookupOrSynthesize(cache, IsomorphicA(), capped, &outcome);
  EXPECT_TRUE(outcome.hit);
  EXPECT_TRUE(outcome.subsumed);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().subsumed_hits, 1);
  EXPECT_EQ(cache.size(), 1u);  // one entry serves both caps

  const auto fresh = core::SynthesizePrograms(IsomorphicA(), capped);
  ASSERT_EQ(served->programs.size(), fresh.programs.size());
  for (std::size_t i = 0; i < fresh.programs.size(); ++i) {
    EXPECT_EQ(served->programs[i], fresh.programs[i]);
  }
}

TEST(SynthesisCache, CompleteEntriesServeAnyCap) {
  // An entry that finished below its cap holds the whole solution set, so
  // even a *larger*-cap query is a hit.
  SynthesisCache cache;
  core::SynthesisOptions small_cap;
  small_cap.max_programs = 1 << 10;  // far above the real program count
  const auto first = LookupOrSynthesize(cache, IsomorphicA(), small_cap);
  ASSERT_LT(static_cast<std::int64_t>(first->programs.size()),
            small_cap.max_programs);

  core::SynthesisOptions big_cap = small_cap;
  big_cap.max_programs = 1 << 20;
  CacheLookupOutcome outcome;
  const auto served =
      LookupOrSynthesize(cache, IsomorphicA(), big_cap, &outcome);
  EXPECT_TRUE(outcome.hit);
  EXPECT_FALSE(outcome.subsumed);  // nothing was truncated
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(served.get(), first.get());
}

TEST(SynthesisCache, TruncatedEntriesAreUpgradedByLargerCapQueries) {
  SynthesisCache cache;
  core::SynthesisOptions tiny;
  tiny.max_programs = 1;  // truncated: programs.size() == cap
  const auto truncated = LookupOrSynthesize(cache, IsomorphicA(), tiny);
  ASSERT_EQ(truncated->programs.size(), 1u);

  // A larger cap cannot be served by a truncated entry: it re-synthesizes
  // and the richer result replaces the entry...
  core::SynthesisOptions bigger = tiny;
  bigger.max_programs = 1 << 20;
  CacheLookupOutcome outcome;
  const auto full = LookupOrSynthesize(cache, IsomorphicA(), bigger, &outcome);
  EXPECT_FALSE(outcome.hit);
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_GT(full->programs.size(), 1u);
  EXPECT_EQ(cache.size(), 1u);

  // ...after which the original tiny cap is served by subsumption.
  const auto again = LookupOrSynthesize(cache, IsomorphicA(), tiny, &outcome);
  EXPECT_TRUE(outcome.hit);
  EXPECT_TRUE(outcome.subsumed);
  EXPECT_EQ(again->programs.size(), 1u);
  EXPECT_EQ(again->programs[0], truncated->programs[0]);
}

TEST(SynthesisCache, SubsumptionWorksAcrossSnapshotPreloadRoundTrips) {
  // The persisted key embeds the cap the entry was synthesized under, so a
  // disk-warmed cache still serves smaller caps by truncation — as disk
  // hits.
  SynthesisCache cache;
  const core::SynthesisOptions unbounded;
  LookupOrSynthesize(cache, IsomorphicA(), unbounded);

  SynthesisCache warmed;
  EXPECT_EQ(warmed.Preload(cache.Snapshot()), 1);
  core::SynthesisOptions capped = unbounded;
  capped.max_programs = 2;
  CacheLookupOutcome outcome;
  const auto served =
      LookupOrSynthesize(warmed, IsomorphicA(), capped, &outcome);
  EXPECT_TRUE(outcome.hit);
  EXPECT_TRUE(outcome.from_disk);
  EXPECT_TRUE(outcome.subsumed);
  EXPECT_EQ(served->programs.size(), 2u);
  EXPECT_EQ(warmed.stats().disk_hits, 1);
  EXPECT_EQ(warmed.stats().misses, 0);
}

TEST(SynthesisCache, NonPositiveCapsAreServedAsEmptyPrefixes) {
  // A cap <= 0 means "no programs" to the synthesizer; through the cache it
  // must mean the same — an empty truncation of any existing entry, never a
  // negative iterator offset.
  SynthesisCache cache;
  const core::SynthesisOptions unbounded;
  LookupOrSynthesize(cache, IsomorphicA(), unbounded);
  for (const std::int64_t cap : {std::int64_t{0}, std::int64_t{-1}}) {
    core::SynthesisOptions capped = unbounded;
    capped.max_programs = cap;
    CacheLookupOutcome outcome;
    const auto served =
        LookupOrSynthesize(cache, IsomorphicA(), capped, &outcome);
    EXPECT_TRUE(outcome.hit) << cap;
    EXPECT_TRUE(served->programs.empty()) << cap;
    const auto fresh = core::SynthesizePrograms(IsomorphicA(), capped);
    EXPECT_TRUE(fresh.programs.empty()) << cap;
  }
  EXPECT_EQ(cache.stats().misses, 1);
}

TEST(SynthesisCache, PreloadWithoutACapMarkerIsConservative) {
  // A key not produced by Key() (foreign writer) carries no cap; the entry
  // is assumed to hold exactly its program count, so it serves caps up to
  // that count and re-synthesizes beyond it instead of claiming
  // completeness it cannot prove.
  SynthesisCache donor;
  const core::SynthesisOptions options;
  LookupOrSynthesize(donor, IsomorphicA(), options);
  auto snapshot = donor.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  const std::size_t num_programs = snapshot[0].second.programs.size();
  // Strip the ";cap=..." suffix Key() appends.
  const auto marker = snapshot[0].first.rfind(";cap=");
  ASSERT_NE(marker, std::string::npos);
  snapshot[0].first.resize(marker);

  SynthesisCache warmed;
  EXPECT_EQ(warmed.Preload(std::move(snapshot)), 1);
  core::SynthesisOptions beyond = options;
  beyond.max_programs =
      static_cast<std::int64_t>(num_programs) + 1;  // beyond what it holds
  CacheLookupOutcome outcome;
  LookupOrSynthesize(warmed, IsomorphicA(), beyond, &outcome);
  EXPECT_FALSE(outcome.hit);  // conservatively re-synthesized
  EXPECT_EQ(warmed.stats().misses, 1);
}

TEST(SynthesisCache, LruCapEvictsLeastRecentlyUsed) {
  SynthesisCache cache(/*max_entries=*/1);
  const core::SynthesisOptions options;
  LookupOrSynthesize(cache, IsomorphicA(), options);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 0);

  // A second signature overflows the cap: the first entry is evicted...
  LookupOrSynthesize(cache, Different(), options);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 1);

  // ...so revisiting it is a miss (re-synthesis), never a wrong result.
  CacheLookupOutcome outcome;
  const auto again =
      LookupOrSynthesize(cache, IsomorphicA(), options, &outcome);
  EXPECT_FALSE(outcome.hit);
  EXPECT_EQ(cache.stats().misses, 3);
  EXPECT_EQ(cache.stats().evictions, 2);
  const auto fresh = core::SynthesizePrograms(IsomorphicA(), options);
  ASSERT_EQ(again->programs.size(), fresh.programs.size());
}

TEST(SynthesisCache, LruTouchOnHitProtectsHotEntries) {
  SynthesisCache cache(/*max_entries=*/2);
  const core::SynthesisOptions options;
  LookupOrSynthesize(cache, IsomorphicA(), options);  // A is LRU after B lands
  LookupOrSynthesize(cache, Different(), options);
  // Touch A: B becomes the least recently used...
  LookupOrSynthesize(cache, IsomorphicB(), options);  // same signature as A
  EXPECT_EQ(cache.stats().hits, 1);

  // ...so a third signature evicts B, not A.
  core::SynthesisOptions other = options;
  other.max_program_size = options.max_program_size + 1;
  LookupOrSynthesize(cache, IsomorphicA(), other);  // distinct base key
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1);
  CacheLookupOutcome outcome;
  LookupOrSynthesize(cache, IsomorphicA(), options, &outcome);
  EXPECT_TRUE(outcome.hit) << "the hot entry must have survived";
}

TEST(SynthesisCache, UnboundedByDefault) {
  SynthesisCache cache;
  const core::SynthesisOptions options;
  LookupOrSynthesize(cache, IsomorphicA(), options);
  LookupOrSynthesize(cache, Different(), options);
  EXPECT_EQ(cache.max_entries(), 0);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 0);
}

TEST(SynthesisCache, PreloadRespectsTheLruCap) {
  SynthesisCache donor;
  const core::SynthesisOptions options;
  LookupOrSynthesize(donor, IsomorphicA(), options);
  LookupOrSynthesize(donor, Different(), options);

  SynthesisCache capped(/*max_entries=*/1);
  EXPECT_EQ(capped.Preload(donor.Snapshot()), 2);  // both inserted...
  EXPECT_EQ(capped.size(), 1u);                    // ...one evicted again
  EXPECT_EQ(capped.stats().evictions, 1);
}

// Cross-cluster sharing (ISSUE 5): two different machines whose placements
// pose the same synthesis problem — equal reduction-axis factorization over
// equally-deep hierarchies — hit one cache entry, and the hit is
// attributable as cross-tenant when the lookups carry distinct tenant tags.
TEST(SynthesisCache, TenantsWithACommonSubHierarchyShareOneEntry) {
  // A 4-node A100 cluster ([4 16]) and an 8-node V100 cluster ([8 8]): an
  // 8-wide reduction axis split as (2, 4) over nodes x GPUs is a valid
  // placement row on both, and the synthesis hierarchy only sees the
  // factorization — not the machine — so the signatures agree.
  const ParallelismMatrix on_a100({{2, 4}, {2, 4}});  // axes (8, 8) on [4 16]
  const ParallelismMatrix on_v100({{2, 4}, {4, 2}});  // axes (8, 8) on [8 8]
  const std::vector<int> raxes = {0};
  const auto sh_a100 = SynthesisHierarchy::Build(
      on_a100, raxes, SynthesisHierarchyKind::kReductionAxes);
  const auto sh_v100 = SynthesisHierarchy::Build(
      on_v100, raxes, SynthesisHierarchyKind::kReductionAxes);
  ASSERT_EQ(sh_a100.Signature(), sh_v100.Signature());

  SynthesisCache cache;
  const core::SynthesisOptions options;
  CacheLookupOutcome outcome;
  LookupOrSynthesize(cache, sh_a100, options, &outcome, /*tenant=*/0);
  EXPECT_FALSE(outcome.hit);
  EXPECT_FALSE(outcome.cross_tenant);

  const auto served =
      LookupOrSynthesize(cache, sh_v100, options, &outcome, /*tenant=*/1);
  EXPECT_TRUE(outcome.hit);
  EXPECT_TRUE(outcome.cross_tenant);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().cross_tenant_hits, 1);
  // The shared entry is exactly what the second tenant would have
  // synthesized itself.
  const auto fresh = core::SynthesizePrograms(sh_v100, options);
  ASSERT_EQ(served->programs.size(), fresh.programs.size());
  for (std::size_t i = 0; i < fresh.programs.size(); ++i) {
    EXPECT_EQ(served->programs[i], fresh.programs[i]);
  }

  // Same tenant re-reading its own entry is NOT cross-tenant...
  LookupOrSynthesize(cache, sh_a100, options, &outcome, /*tenant=*/0);
  EXPECT_TRUE(outcome.hit);
  EXPECT_FALSE(outcome.cross_tenant);
  // ...and untagged lookups never are.
  LookupOrSynthesize(cache, sh_a100, options, &outcome);
  EXPECT_TRUE(outcome.hit);
  EXPECT_FALSE(outcome.cross_tenant);
  EXPECT_EQ(cache.stats().cross_tenant_hits, 1);
}

TEST(SynthesisCache, DiskPreloadedEntriesAreNeverCrossTenant) {
  SynthesisCache donor;
  const core::SynthesisOptions options;
  LookupOrSynthesize(donor, IsomorphicA(), options, nullptr, /*tenant=*/7);

  SynthesisCache warmed;
  warmed.Preload(donor.Snapshot());
  CacheLookupOutcome outcome;
  LookupOrSynthesize(warmed, IsomorphicA(), options, &outcome, /*tenant=*/3);
  EXPECT_TRUE(outcome.hit);
  EXPECT_TRUE(outcome.from_disk);
  // Disk entries belong to no tenant: the cross-run reuse is the disk_hits
  // figure, not cross-tenant sharing.
  EXPECT_FALSE(outcome.cross_tenant);
}

// A request deferred behind a stalled owner must unwind as soon as it is
// cancelled: the cancel wakes its group's Wait (a condition variable the
// CancelToken notifies), whose abort hook re-enqueues the deferred task so
// it observes the cancellation — no poll interval, and no ride-out of the
// foreign owner's synthesis. One trial measures Cancel()-to-PlanCancelled;
// the *median* of five trials must come in well under a 5 ms poll period
// (a reintroduced poll wakes uniformly within (0, 5] ms, median ~2.5 ms),
// while staying robust against a couple of scheduler hiccups.
double DeferredCancelLatencyMsOnce() {
  EngineOptions engine_options;
  engine_options.payload_bytes = 1e8;
  const Engine engine(topology::MakeA100Cluster(2), engine_options);
  PlannerService service(engine, PlannerServiceOptions{.threads = 2});
  std::atomic<bool> armed{true};
  std::atomic<bool> owner_inside{false};
  std::atomic<bool> release_owner{false};
  FaultScope scope([&](std::string_view point) {
    if (point != "synth.layer" || !armed.exchange(false)) return;
    owner_inside.store(true);  // only the first synthesis stalls
    while (!release_owner.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  // One placement, hence one signature: the second request has nothing to
  // do but defer behind the first one's stalled synthesis.
  PlanRequest request;
  request.axes = {32};
  request.reduction_axes = {0};
  PlanHandle owner = service.Submit(request);
  while (!owner_inside.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  PlanHandle waiter = service.Submit(request);
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (service.stats().cache.deferred_lookups == 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(service.stats().cache.deferred_lookups, 1);
  const auto cancelled_at = std::chrono::steady_clock::now();
  waiter.Cancel();
  EXPECT_THROW(waiter.get(), PlanCancelled);
  const auto resolved_at = std::chrono::steady_clock::now();
  release_owner.store(true);
  owner.get();
  return std::chrono::duration<double, std::milli>(resolved_at - cancelled_at)
      .count();
}

TEST(SynthesisCache, CancelledWaiterWakesWellUnderTheOldPollPeriod) {
  std::vector<double> latencies_ms;
  for (int trial = 0; trial < 5; ++trial) {
    latencies_ms.push_back(DeferredCancelLatencyMsOnce());
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  const double median_ms = latencies_ms[latencies_ms.size() / 2];
  EXPECT_LT(median_ms, 2.0) << "cancel-to-PlanCancelled median " << median_ms
                            << " ms — the deferred request's wake-up has "
                               "regressed toward a 5 ms poll";
}

// ISSUE 9: the non-blocking lookup surface. TryLookup never parks — it
// either serves (kReady), claims ownership (kOwned), or registers a
// continuation against the owner's flight (kInFlight) and returns.
TEST(SynthesisCache, TryLookupServesClaimsAndDefers) {
  SynthesisCache cache;
  const core::SynthesisOptions options;

  // Fresh signature: the caller becomes the owner...
  SynthesisCache::DeferredLookup owner_handle;
  auto owned = cache.TryLookup(IsomorphicA(), options, [] {}, &owner_handle);
  ASSERT_EQ(owned.state, SynthesisCache::TryLookupState::kOwned);
  EXPECT_FALSE(owner_handle.active());

  // ...and while its flight is open, another lookup on an isomorphic
  // hierarchy defers: continuation registered, no park, no result yet.
  std::atomic<bool> fired{false};
  SynthesisCache::DeferredLookup deferred;
  const auto in_flight = cache.TryLookup(
      IsomorphicB(), options, [&] { fired.store(true); }, &deferred);
  ASSERT_EQ(in_flight.state, SynthesisCache::TryLookupState::kInFlight);
  EXPECT_EQ(in_flight.result, nullptr);
  EXPECT_TRUE(deferred.active());
  EXPECT_FALSE(fired.load());
  EXPECT_EQ(cache.stats().deferred_lookups, 1);

  // Owner completion publishes and fires the continuation synchronously.
  auto result = std::make_shared<const core::SynthesisResult>(
      core::SynthesizePrograms(IsomorphicA(), options));
  cache.CompleteOwned(IsomorphicA(), options, result);
  EXPECT_TRUE(fired.load());
  EXPECT_EQ(cache.stats().continuations_fired, 1);
  EXPECT_EQ(cache.stats().misses, 1);

  // The deferred caller retries: a plain hit now (and the retry releases
  // the eviction reservation its handle held).
  CacheLookupOutcome outcome;
  const auto retried = cache.TryLookup(IsomorphicB(), options, [] {},
                                       &deferred, &outcome);
  ASSERT_EQ(retried.state, SynthesisCache::TryLookupState::kReady);
  EXPECT_FALSE(deferred.active());
  EXPECT_TRUE(outcome.hit);
  EXPECT_EQ(retried.result.get(), result.get());
  EXPECT_EQ(cache.stats().hits, 1);
}

TEST(SynthesisCache, OwnerDeathFiresContinuationsAndHandsOffOwnership) {
  SynthesisCache cache;
  const core::SynthesisOptions options;

  SynthesisCache::DeferredLookup owner_handle;
  auto owned = cache.TryLookup(IsomorphicA(), options, [] {}, &owner_handle);
  ASSERT_EQ(owned.state, SynthesisCache::TryLookupState::kOwned);

  std::atomic<bool> fired{false};
  SynthesisCache::DeferredLookup deferred;
  const auto in_flight = cache.TryLookup(
      IsomorphicB(), options, [&] { fired.store(true); }, &deferred);
  ASSERT_EQ(in_flight.state, SynthesisCache::TryLookupState::kInFlight);

  // The owner's synthesis died: the flight dissolves, continuations fire,
  // and the deferred caller's retry finds no entry and no flight — it
  // becomes the new owner and synthesizes for itself.
  cache.AbandonOwned(IsomorphicA(), options);
  EXPECT_TRUE(fired.load());
  EXPECT_EQ(cache.stats().continuations_fired, 1);

  const auto retried =
      cache.TryLookup(IsomorphicB(), options, [] {}, &deferred);
  ASSERT_EQ(retried.state, SynthesisCache::TryLookupState::kOwned);
  auto result = std::make_shared<const core::SynthesisResult>(
      core::SynthesizePrograms(IsomorphicB(), options));
  cache.CompleteOwned(IsomorphicB(), options, result);
  EXPECT_EQ(cache.stats().misses, 1);  // the dead owner's claim counted none
  EXPECT_EQ(cache.size(), 1u);

  CacheLookupOutcome outcome;
  LookupOrSynthesize(cache, IsomorphicA(), options, &outcome);
  EXPECT_TRUE(outcome.hit);
}

// A deferred lookup holds an eviction reservation on its
// base, and CancelDeferred must release it — no leaked reservation pinning
// the base in a capped cache forever.
TEST(SynthesisCache, CancelDeferredReleasesTheEvictionReservation) {
  SynthesisCache cache(/*max_entries=*/1);
  const core::SynthesisOptions plain;
  std::atomic<bool> owner_inside{false};
  std::atomic<bool> release_owner{false};
  std::atomic<int> synth_calls{0};
  FaultScope scope([&](std::string_view point) {
    if (point != "synth.layer") return;
    if (synth_calls.fetch_add(1) != 0) return;  // only the owner stalls
    owner_inside.store(true);
    while (!release_owner.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::thread owner([&] { LookupOrSynthesize(cache, IsomorphicA(), plain); });
  while (!owner_inside.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::atomic<bool> fired{false};
  SynthesisCache::DeferredLookup deferred;
  const auto in_flight = cache.TryLookup(
      IsomorphicB(), plain, [&] { fired.store(true); }, &deferred);
  ASSERT_EQ(in_flight.state, SynthesisCache::TryLookupState::kInFlight);
  EXPECT_TRUE(deferred.active());

  // Departure before the owner resolves: reservation released, continuation
  // deregistered — the owner's later completion must fire nothing.
  cache.CancelDeferred(&deferred);
  EXPECT_FALSE(deferred.active());
  release_owner.store(true);
  owner.join();
  EXPECT_FALSE(fired.load());
  EXPECT_EQ(cache.stats().continuations_fired, 0);

  // With the reservation gone, the published entry is evictable again: a
  // second signature displaces it instead of overflowing the cap.
  LookupOrSynthesize(cache, Different(), plain);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(SynthesisCache, ClearResetsEverything) {
  SynthesisCache cache;
  const core::SynthesisOptions options;
  LookupOrSynthesize(cache, IsomorphicA(), options);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().misses, 0);
  LookupOrSynthesize(cache, IsomorphicA(), options);
  EXPECT_EQ(cache.stats().misses, 1);
}

}  // namespace
}  // namespace p2::engine
