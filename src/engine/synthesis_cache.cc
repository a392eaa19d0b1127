#include "engine/synthesis_cache.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <thread>
#include <utility>

namespace p2::engine {

namespace {

constexpr std::string_view kCapMarker = ";cap=";

/// Total retry-after budget spent waiting out one foreign grant before the
/// lookup gives up and synthesizes locally (a safe duplicate, never a wrong
/// answer): a crashed foreign owner must not wedge this worker even if the
/// server keeps re-granting.
constexpr int kMaxRemoteRetryMs = 60'000;

/// Recovers the max_programs cap a persisted Key() embeds. False when the
/// key was not produced by Key() (e.g. a hand-forged cache file).
bool ParseCapFromKey(const std::string& key, std::string* base,
                     std::int64_t* cap) {
  const auto pos = key.rfind(kCapMarker);
  if (pos == std::string::npos) return false;
  const char* begin = key.data() + pos + kCapMarker.size();
  const char* end = key.data() + key.size();
  if (begin == end) return false;
  std::int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end || value < 0) return false;
  base->assign(key, 0, pos);
  *cap = value;
  return true;
}

}  // namespace

std::string SynthesisCache::BaseKey(const core::SynthesisHierarchy& sh,
                                    const core::SynthesisOptions& options) {
  // Every SynthesisOptions field that can change the program list must
  // appear in the key or be bridged by subsumption, or two queries with
  // different options would silently share program sets. `threads` is
  // deliberately excluded: the transposition search's output and stats are
  // identical at any thread count (tests/synth_differential_test.cc proves
  // it), so caching per thread count would only split the cache.
  // `max_programs` is excluded *here* because entries record the cap they
  // were synthesized under and smaller caps are served by truncation (the
  // size-ordered program list makes the truncation exact); it still appears
  // in the full Key() so persisted entries keep their cap. The assert fires
  // when a field is added without revisiting this function.
  // `cancel` is excluded for the same reason as `threads`: it is pure
  // execution strategy — a search that *completes* returns the same program
  // list with or without a token, and an aborted search publishes nothing.
  static_assert(sizeof(core::SynthesisOptions) ==
                    4 * sizeof(std::int64_t),  // int max_program_size
                                               // + int threads (excluded)
                                               // + int64 max_programs
                                               // + CancelToken (excluded)
                "new SynthesisOptions field? include it in the cache key");
  return sh.Signature() + ";size<=" + std::to_string(options.max_program_size);
}

std::string SynthesisCache::Key(const core::SynthesisHierarchy& sh,
                                const core::SynthesisOptions& options) {
  return BaseKey(sh, options) + std::string(kCapMarker) +
         std::to_string(options.max_programs);
}

std::string SynthesisCache::BaseOfKey(const std::string& key) {
  std::string base;
  std::int64_t cap = 0;
  return ParseCapFromKey(key, &base, &cap) ? base : key;
}

void SynthesisCache::set_remote(std::shared_ptr<RemoteCacheBackend> remote) {
  std::unique_lock<std::mutex> lock(mu_);
  remote_ = std::move(remote);
}

SynthesisCache::Entry& SynthesisCache::PublishLocked(const std::string& base,
                                                     Entry entry) {
  const auto it = entries_.find(base);
  if (it != entries_.end()) {
    // Replacement (cap upgrade): keep the LRU slot, refreshed below.
    entry.lru = it->second.lru;
    it->second = std::move(entry);
    TouchLocked(it->second);
    return it->second;
  }
  lru_.push_front(base);
  entry.lru = lru_.begin();
  Entry& inserted = entries_.emplace(base, std::move(entry)).first->second;
  EvictLocked();
  return inserted;
}

void SynthesisCache::TouchLocked(Entry& entry) {
  lru_.splice(lru_.begin(), lru_, entry.lru);
}

void SynthesisCache::EvictLocked() {
  if (max_entries_ <= 0) return;
  auto it = lru_.end();
  while (it != lru_.begin() &&
         static_cast<std::int64_t>(entries_.size()) > max_entries_) {
    --it;
    // A reserved base has deferred lookups about to be served from it:
    // immune until the last one has done its retry. The cache
    // may transiently exceed its cap by the number of reserved bases.
    if (reserved_.find(*it) != reserved_.end()) continue;
    entries_.erase(*it);
    it = lru_.erase(it);
    ++stats_.evictions;
  }
}

bool SynthesisCache::ConsultRemote(RemoteCacheBackend& remote,
                                   const std::string& base,
                                   const core::SynthesisOptions& options,
                                   core::SynthesisResult* result,
                                   std::int64_t* entry_cap) {
  const std::int64_t cap = std::max<std::int64_t>(0, options.max_programs);
  const auto count_error = [this] {
    std::unique_lock<std::mutex> lock(mu_);
    ++stats_.remote_errors;
  };
  int waited_ms = 0;
  for (;;) {
    // A cancelled request stops retrying and falls through to the local
    // synthesis, whose own cancellation checkpoints unwind it — the remote
    // consult never needs to throw.
    if (options.cancel.cancel_requested()) return false;
    RemoteLookupResult reply = remote.Lookup(base, cap);
    switch (reply.kind) {
      case RemoteLookupResult::Kind::kHit: {
        std::string reply_base;
        std::int64_t reply_cap = 0;
        if (!ParseCapFromKey(reply.key, &reply_base, &reply_cap)) {
          reply_base = reply.key;
          reply_cap = static_cast<std::int64_t>(reply.result.programs.size());
        }
        const bool complete =
            static_cast<std::int64_t>(reply.result.programs.size()) <
            reply_cap;
        if (reply_base != base || (!complete && cap > reply_cap)) {
          // A hit for the wrong base or one that cannot serve our cap is a
          // protocol violation by the plane: synthesize locally rather than
          // adopt an answer we cannot trust.
          count_error();
          return false;
        }
        *result = std::move(reply.result);
        *entry_cap = reply_cap;
        return true;
      }
      case RemoteLookupResult::Kind::kOwned:
        // The grant is ours: synthesize locally and publish the completion.
        return false;
      case RemoteLookupResult::Kind::kRetryAfter: {
        if (waited_ms >= kMaxRemoteRetryMs) {
          // The foreign owner looks dead (or the grant keeps bouncing):
          // a duplicate local synthesis is safe, wedging here is not.
          count_error();
          return false;
        }
        const int sleep_ms = std::clamp(reply.retry_after_ms, 1, 1000);
        std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
        waited_ms += sleep_ms;
        break;
      }
      case RemoteLookupResult::Kind::kUnavailable:
        count_error();
        return false;
    }
  }
}

std::shared_ptr<const core::SynthesisResult> SynthesisCache::AdoptRemoteHit(
    const std::string& base, core::SynthesisResult fetched,
    std::int64_t entry_cap, std::int64_t cap, CacheLookupOutcome* outcome) {
  const double original_seconds = fetched.stats.seconds;
  // Like Preload: this process spent nothing synthesizing, so the served
  // result reports zero seconds while the foreign wall-clock lives on in
  // original_seconds for the savings accounting.
  fetched.stats.seconds = 0.0;
  std::unique_lock<std::mutex> lock(mu_);
  Entry entry;
  entry.result =
      std::make_shared<const core::SynthesisResult>(std::move(fetched));
  entry.original_seconds = original_seconds;
  entry.max_programs = entry_cap;
  // owner_tenant stays kNoTenant: the entry was synthesized by a foreign
  // process, not by any tenant of this one.
  Entry& published = PublishLocked(base, std::move(entry));
  ++stats_.hits;
  ++stats_.remote_hits;
  stats_.seconds_saved += original_seconds;
  const bool subsumed =
      cap < static_cast<std::int64_t>(published.result->programs.size());
  if (subsumed) ++stats_.subsumed_hits;
  if (outcome != nullptr) {
    *outcome = CacheLookupOutcome{};
    outcome->hit = true;
    outcome->from_remote = true;
    outcome->subsumed = subsumed;
    outcome->seconds_saved = original_seconds;
  }
  auto result = published.result;
  // Settle the flight we claimed before consulting the plane: deferred
  // lookups are served from the adopted entry.
  SettleFlight(lock, base);
  if (!subsumed) return result;
  auto truncated = std::make_shared<core::SynthesisResult>();
  truncated->stats = result->stats;
  truncated->programs.assign(
      result->programs.begin(),
      result->programs.begin() + static_cast<std::ptrdiff_t>(cap));
  return truncated;
}

std::shared_ptr<const core::SynthesisResult> SynthesisCache::FetchRemoteOwned(
    const core::SynthesisHierarchy& sh, const core::SynthesisOptions& options,
    CacheLookupOutcome* outcome) {
  std::shared_ptr<RemoteCacheBackend> remote;
  {
    std::unique_lock<std::mutex> lock(mu_);
    remote = remote_;
  }
  if (remote == nullptr) return nullptr;
  const std::string base = BaseKey(sh, options);
  const std::int64_t cap = std::max<std::int64_t>(0, options.max_programs);
  core::SynthesisResult fetched;
  std::int64_t entry_cap = 0;
  if (!ConsultRemote(*remote, base, options, &fetched, &entry_cap)) {
    return nullptr;
  }
  return AdoptRemoteHit(base, std::move(fetched), entry_cap, cap, outcome);
}

std::shared_ptr<const core::SynthesisResult> SynthesisCache::ServeHitLocked(
    std::unique_lock<std::mutex>& lock, Entry& entry, std::int64_t cap,
    std::int64_t tenant, CacheLookupOutcome* outcome) {
  TouchLocked(entry);
  ++stats_.hits;
  stats_.seconds_saved += entry.original_seconds;
  if (entry.from_disk) {
    ++stats_.disk_hits;
    stats_.disk_seconds_saved += entry.original_seconds;
  }
  const bool cross_tenant = entry.owner_tenant != kNoTenant &&
                            tenant != kNoTenant && entry.owner_tenant != tenant;
  if (cross_tenant) ++stats_.cross_tenant_hits;
  const bool subsumed =
      cap < static_cast<std::int64_t>(entry.result->programs.size());
  if (subsumed) ++stats_.subsumed_hits;
  if (outcome != nullptr) {
    outcome->hit = true;
    outcome->from_disk = entry.from_disk;
    outcome->subsumed = subsumed;
    outcome->cross_tenant = cross_tenant;
    outcome->seconds_saved = entry.original_seconds;
  }
  auto result = entry.result;
  // The truncation copies up to `cap` programs — do it outside the lock,
  // off the snapshotted shared_ptr, so concurrent lookups on other
  // signatures never stall behind it. Truncating to a smaller cap is
  // exact: the entry's program list is the smallest-first prefix of the
  // full solution set, so its own prefix is precisely what a fresh
  // synthesis under `cap` would return. The stats (and the counterfactual
  // seconds) stay those of the run that produced the entry, like any other
  // hit.
  lock.unlock();
  if (!subsumed) return result;
  auto truncated = std::make_shared<core::SynthesisResult>();
  truncated->stats = result->stats;
  truncated->programs.assign(
      result->programs.begin(),
      result->programs.begin() + static_cast<std::ptrdiff_t>(cap));
  return truncated;
}

void SynthesisCache::SettleFlight(std::unique_lock<std::mutex>& lock,
                                  const std::string& base) {
  const auto fit = inflight_.find(base);
  std::vector<Continuation> continuations = std::move(fit->second);
  stats_.continuations_fired += static_cast<std::int64_t>(continuations.size());
  inflight_.erase(fit);
  lock.unlock();
  // Outside every lock, so a continuation is free to call straight back into
  // the cache or into a ThreadPool group.
  for (Continuation& continuation : continuations) continuation.fn();
}

SynthesisCache::TryLookupResult SynthesisCache::TryLookup(
    const core::SynthesisHierarchy& sh, const core::SynthesisOptions& options,
    std::function<void()> on_resolved, DeferredLookup* deferred,
    CacheLookupOutcome* outcome, std::int64_t tenant) {
  if (outcome != nullptr) *outcome = CacheLookupOutcome{};
  const std::string base = BaseKey(sh, options);
  const std::int64_t cap = std::max<std::int64_t>(0, options.max_programs);

  TryLookupResult r;
  std::unique_lock<std::mutex> lock(mu_);
  // A retry after a deferral releases its reservation here — under the same
  // lock acquisition as the lookup below, so eviction (which also needs the
  // lock) cannot squeeze between the release and the read.
  if (deferred->active_) {
    deferred->active_ = false;
    const auto rit = reserved_.find(deferred->base_);
    if (--rit->second == 0) reserved_.erase(rit);
  }
  const auto it = entries_.find(base);
  if (it != entries_.end() && it->second.CanServe(cap)) {
    r.state = TryLookupState::kReady;
    r.result = ServeHitLocked(lock, it->second, cap, tenant, outcome);
    return r;
  }
  const auto fit = inflight_.find(base);
  if (fit != inflight_.end()) {
    // Defer: reserve the base (the published entry must survive until our
    // retry reads it) and register the continuation under the tag
    // CancelDeferred withdraws by.
    ++reserved_[base];
    deferred->active_ = true;
    deferred->base_ = base;
    deferred->id_ = next_continuation_id_++;
    fit->second.push_back(Continuation{deferred->id_, std::move(on_resolved)});
    ++stats_.deferred_lookups;
    r.state = TryLookupState::kInFlight;
    return r;
  }
  // Claim the flight: the caller is now the owner every concurrent lookup
  // of this base defers behind, until CompleteOwned/AbandonOwned.
  inflight_.emplace(base, std::vector<Continuation>{});
  r.state = TryLookupState::kOwned;
  return r;
}

void SynthesisCache::CompleteOwned(
    const core::SynthesisHierarchy& sh, const core::SynthesisOptions& options,
    std::shared_ptr<const core::SynthesisResult> result, std::int64_t tenant) {
  const std::string base = BaseKey(sh, options);
  const std::int64_t cap = std::max<std::int64_t>(0, options.max_programs);
  const std::shared_ptr<const core::SynthesisResult> completed = result;
  std::unique_lock<std::mutex> lock(mu_);
  const std::shared_ptr<RemoteCacheBackend> remote = remote_;
  Entry entry;
  entry.result = std::move(result);
  entry.original_seconds = entry.result->stats.seconds;
  entry.max_programs = cap;
  entry.owner_tenant = tenant;
  PublishLocked(base, std::move(entry));
  ++stats_.misses;
  SettleFlight(lock, base);
  // Publish to the remote plane after settling: local deferred lookups never
  // stall behind the wire, and a failed publish only loses cross-worker
  // reuse of this entry.
  if (remote != nullptr &&
      !remote->Publish(
          base + std::string(kCapMarker) + std::to_string(cap), *completed)) {
    std::unique_lock<std::mutex> relock(mu_);
    ++stats_.remote_errors;
  }
}

void SynthesisCache::AbandonOwned(const core::SynthesisHierarchy& sh,
                                  const core::SynthesisOptions& options) {
  const std::string base = BaseKey(sh, options);
  std::unique_lock<std::mutex> lock(mu_);
  SettleFlight(lock, base);
}

void SynthesisCache::CancelDeferred(DeferredLookup* deferred) {
  if (deferred == nullptr || !deferred->active_) return;
  std::unique_lock<std::mutex> lock(mu_);
  deferred->active_ = false;
  const auto rit = reserved_.find(deferred->base_);
  if (--rit->second == 0) reserved_.erase(rit);
  // Withdraw the continuation if the flight still holds it. The flight may
  // already be a *successor* (our owner settled, extracting our
  // continuation, and someone re-claimed the base) — ids are never reused,
  // so the scan simply finds nothing and the extracted continuation fires
  // late as the caller's fire-once no-op.
  const auto fit = inflight_.find(deferred->base_);
  if (fit != inflight_.end()) {
    auto& continuations = fit->second;
    for (auto it = continuations.begin(); it != continuations.end(); ++it) {
      if (it->id == deferred->id_) {
        continuations.erase(it);
        break;
      }
    }
  }
}

bool SynthesisCache::LookupByKey(const std::string& base_key, std::int64_t cap,
                                 std::string* key,
                                 core::SynthesisResult* result,
                                 bool* in_flight) {
  const std::int64_t clamped = std::max<std::int64_t>(0, cap);
  std::unique_lock<std::mutex> lock(mu_);
  if (in_flight != nullptr) {
    *in_flight = inflight_.find(base_key) != inflight_.end();
  }
  const auto it = entries_.find(base_key);
  if (it == entries_.end() || !it->second.CanServe(clamped)) return false;
  TouchLocked(it->second);
  *key = base_key + std::string(kCapMarker) +
         std::to_string(it->second.max_programs);
  *result = *it->second.result;
  // The wire carries the original synthesis wall-clock (like Snapshot), so
  // the adopting worker's seconds-saved accounting spans processes.
  result->stats.seconds = it->second.original_seconds;
  return true;
}

bool SynthesisCache::PublishByKey(const std::string& key,
                                  core::SynthesisResult result) {
  std::string base;
  std::int64_t cap = 0;
  if (!ParseCapFromKey(key, &base, &cap)) {
    // Same conservative fallback as Preload for a non-Key-shaped key.
    base = key;
    cap = static_cast<std::int64_t>(result.programs.size());
  }
  const double original_seconds = result.stats.seconds;
  const bool incoming_complete =
      static_cast<std::int64_t>(result.programs.size()) < cap;
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = entries_.find(base);
  // Keep the existing entry when it subsumes the incoming one: it serves
  // every cap the incoming entry could (complete, or at least as large a
  // truncated prefix). Out-of-order publishes from racing workers are
  // harmless either way — both are prefixes of the same ordered list.
  if (it != entries_.end() &&
      (it->second.complete() ||
       (!incoming_complete && it->second.max_programs >= cap))) {
    return false;
  }
  result.stats.seconds = 0.0;
  Entry entry;
  entry.result =
      std::make_shared<const core::SynthesisResult>(std::move(result));
  entry.original_seconds = original_seconds;
  entry.max_programs = cap;
  PublishLocked(base, std::move(entry));
  return true;
}

std::int64_t SynthesisCache::Preload(
    std::vector<std::pair<std::string, core::SynthesisResult>> entries) {
  std::unique_lock<std::mutex> lock(mu_);
  std::int64_t inserted = 0;
  for (auto& [key, result] : entries) {
    std::string base;
    std::int64_t cap = 0;
    if (!ParseCapFromKey(key, &base, &cap)) {
      // Not a Key()-shaped key (foreign writer): assume the entry holds
      // exactly its program count, so it serves caps up to that count and
      // never fabricates completeness.
      base = key;
      cap = static_cast<std::int64_t>(result.programs.size());
    }
    if (entries_.find(base) != entries_.end()) continue;
    const double original_seconds = result.stats.seconds;
    // Served results report zero synthesis time: this process never ran the
    // search. The original wall-clock lives on in Entry::original_seconds
    // for the savings accounting and for re-persisting.
    result.stats.seconds = 0.0;
    Entry entry;
    entry.result =
        std::make_shared<const core::SynthesisResult>(std::move(result));
    entry.original_seconds = original_seconds;
    entry.from_disk = true;
    entry.max_programs = cap;
    PublishLocked(base, std::move(entry));
    ++inserted;
  }
  return inserted;
}

std::vector<std::pair<std::string, core::SynthesisResult>>
SynthesisCache::Snapshot() const {
  std::vector<std::pair<std::string, core::SynthesisResult>> snapshot;
  {
    std::unique_lock<std::mutex> lock(mu_);
    snapshot.reserve(entries_.size());
    for (const auto& [base, entry] : entries_) {
      core::SynthesisResult result = *entry.result;
      result.stats.seconds = entry.original_seconds;
      snapshot.emplace_back(base + std::string(kCapMarker) +
                                std::to_string(entry.max_programs),
                            std::move(result));
    }
  }
  std::sort(snapshot.begin(), snapshot.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return snapshot;
}

SynthesisCacheStats SynthesisCache::stats() const {
  std::unique_lock<std::mutex> lock(mu_);
  return stats_;
}

std::size_t SynthesisCache::size() const {
  std::unique_lock<std::mutex> lock(mu_);
  return entries_.size();
}

void SynthesisCache::Clear() {
  std::unique_lock<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
  stats_ = SynthesisCacheStats{};
}

}  // namespace p2::engine
