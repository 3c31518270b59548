#ifndef LSMLAB_UTIL_PIN_TRACKER_H_
#define LSMLAB_UTIL_PIN_TRACKER_H_

/// Debug-build leak detector for refcounted pins — the runtime mirror of
/// the static acquire/release analysis in tools/check_resource_flow.py.
///
/// A cache that hands out pinned handles (LruCache, TableCache) owns one
/// PinTracker per resource kind. Every externally visible acquisition
/// records the caller's source location (captured by a defaulted
/// std::source_location parameter on the acquire API, so the recorded site
/// is the caller, not the cache); every release removes one record. When
/// the cache is destroyed with pins still live, the tracker prints a
/// per-acquisition-site report — site, count — and aborts, turning "the
/// destructor assert fired somewhere" into "this call site leaked N pins".
/// Every ctest run of a debug build doubles as a pin-leak check.
///
/// Release builds make every call a no-op. The members exist in every
/// build: a class that holds a PinTracker has one layout whether or not a
/// translation unit defines NDEBUG.

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <source_location>
#include <string>
#include <unordered_map>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace lsmlab {

class PinTracker {
 public:
  /// `resource` names the pinned resource in leak reports (static string).
  explicit PinTracker(const char* resource) : resource_(resource) {}

  PinTracker(const PinTracker&) = delete;
  PinTracker& operator=(const PinTracker&) = delete;

  /// Records one live pin keyed by the handle's address. The same handle
  /// may be pinned many times (every Lookup of a resident entry returns
  /// the same pointer); each acquisition gets its own record.
  void Acquire(const void* pin, const std::source_location& loc) {
#ifndef NDEBUG
    MutexLock lock(&mu_);
    live_.emplace(pin, FormatSite(loc));
#else
    (void)pin;
    (void)loc;
#endif
  }

  /// Drops one record for `pin`. Releasing a pin that was never acquired
  /// is itself a bug (a double-release upstream) and asserts.
  void Release(const void* pin) {
#ifndef NDEBUG
    MutexLock lock(&mu_);
    auto it = live_.find(pin);
    assert(it != live_.end() && "released a pin that was never acquired");
    if (it != live_.end()) {
      live_.erase(it);
    }
#else
    (void)pin;
#endif
  }

  /// Number of currently live pins (test introspection; 0 in release
  /// builds).
  size_t LiveCount() const {
    MutexLock lock(&mu_);
    return live_.size();
  }

  /// Called from the owning cache's destructor: aborts with a per-site
  /// leak report when any pin is still live. The report is assembled
  /// under mu_ but written to stderr only after the lock is released —
  /// the tracker obeys the same no-I/O-under-lock contract it helps
  /// enforce (tools/check_lock_io.py).
  void CheckNoLivePins() {
    std::string report;
    {
      MutexLock lock(&mu_);
      if (live_.empty()) {
        return;
      }
      std::map<std::string, int> by_site;
      for (const auto& [pin, site] : live_) {
        by_site[site]++;
      }
      report = "lsmlab: " + std::string(resource_) + ": " +
               std::to_string(live_.size()) +
               " pin(s) still live at cache destruction:\n";
      for (const auto& [site, count] : by_site) {
        report += "  " + std::to_string(count) + " acquired at " + site + "\n";
      }
    }
    std::fputs(report.c_str(), stderr);
    std::abort();
  }

 private:
  static std::string FormatSite(const std::source_location& loc) {
    return std::string(loc.file_name()) + ":" + std::to_string(loc.line()) +
           " (" + loc.function_name() + ")";
  }

  const char* const resource_;
  mutable Mutex mu_{LockRank::kPinTrackerMu};
  // handle address -> formatted acquisition site, one entry per live pin.
  std::unordered_multimap<const void*, std::string> live_ GUARDED_BY(mu_);
};

}  // namespace lsmlab

#endif  // LSMLAB_UTIL_PIN_TRACKER_H_
