#include "core/lifetime.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <vector>

namespace astra::core {
namespace {

constexpr double kSecondsPerDay = static_cast<double>(SimTime::kSecondsPerDay);

// The Weibull/exponential estimators accumulate floating-point sums in
// observation order, so feed them hash-map contents in sorted-key order to
// keep the fitted parameters bit-identical across hash layouts.
template <typename Map>
std::vector<typename Map::key_type> SortedKeys(const Map& map) {
  std::vector<typename Map::key_type> keys;
  keys.reserve(map.size());
  for (const auto& entry : map) keys.push_back(entry.first);
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace

LifetimeAnalysis AnalyzeLifetimes(std::span<const logs::MemoryErrorRecord> records,
                                  const CoalesceResult& coalesced, TimeWindow window,
                                  int dimm_count) {
  // Each DIMM's earliest CE (ordered by DIMM, so the estimators accumulate
  // in a fixed order).
  std::map<std::int64_t, std::int64_t> first_ce;
  for (const auto& record : records) {
    if (record.type != logs::FailureType::kCorrectable) continue;
    const std::int64_t dimm = GlobalDimmIndex(record.node, record.slot);
    const std::int64_t seconds = record.timestamp.Seconds();
    const auto [it, inserted] = first_ce.try_emplace(dimm, seconds);
    if (!inserted && seconds < it->second) it->second = seconds;
  }

  LifetimeAnalysis analysis;
  const double window_days = window.DurationDays();

  std::vector<stats::SurvivalObservation> first_ce_obs;
  first_ce_obs.reserve(static_cast<std::size_t>(dimm_count));
  for (const auto& [dimm, seconds] : first_ce) {
    stats::SurvivalObservation obs;
    obs.time = static_cast<double>(SecondsBetween(window.begin, SimTime{seconds})) /
               kSecondsPerDay;
    obs.event = true;
    first_ce_obs.push_back(obs);
  }
  const std::size_t censored =
      static_cast<std::size_t>(dimm_count) > first_ce.size()
          ? static_cast<std::size_t>(dimm_count) - first_ce.size()
          : 0;
  for (std::size_t i = 0; i < censored; ++i) {
    first_ce_obs.push_back(stats::SurvivalObservation{window_days, false});
  }

  analysis.time_to_first_ce = stats::KaplanMeier(first_ce_obs);
  analysis.first_ce_weibull = stats::FitWeibull(first_ce_obs);
  analysis.first_ce_exponential = stats::FitExponential(first_ce_obs);
  analysis.first_ce_afr = stats::AnnualizedFailureRate(
      first_ce.size(), analysis.first_ce_exponential.total_exposure, 365.25);

  // Fault activity spans.  A fault still erroring within a day of the
  // window end is censored: we did not observe it go quiet.
  std::vector<stats::SurvivalObservation> activity;
  activity.reserve(coalesced.faults.size());
  const SimTime censor_horizon = window.end.AddDays(-1);
  for (const auto& fault : coalesced.faults) {
    stats::SurvivalObservation obs;
    obs.time = std::max(
        static_cast<double>(SecondsBetween(fault.first_seen, fault.last_seen)) /
            kSecondsPerDay,
        1.0 / 24.0);  // sub-hour activity floored at one hour
    obs.event = fault.last_seen < censor_horizon;
    activity.push_back(obs);
  }
  analysis.fault_activity_days = stats::KaplanMeier(activity);
  analysis.median_fault_activity_days = analysis.fault_activity_days.MedianSurvival();
  return analysis;
}

ReplacementLifetimeAnalysis AnalyzeReplacementLifetimes(
    std::span<const replace::ReplacementEvent> events, logs::ComponentKind kind,
    TimeWindow tracking, int site_count) {
  ReplacementLifetimeAnalysis analysis;
  analysis.sites = static_cast<std::size_t>(site_count);
  const double tracking_days = tracking.DurationDays();

  // Lifetime of the ORIGINAL part in each site: time from tracking start to
  // its first replacement; sites never replaced are censored at window end.
  // (Subsequent same-site replacements belong to the next part's lifetime
  // and are rare enough at these rates to ignore for the fit.)
  std::unordered_map<std::int64_t, double> first_replacement_day;
  for (const auto& event : events) {
    if (event.site.kind != kind) continue;
    const std::int64_t key = static_cast<std::int64_t>(event.site.node) * 64 +
                             event.site.index;
    const double day = static_cast<double>(SecondsBetween(tracking.begin, event.day)) /
                       kSecondsPerDay;
    const auto it = first_replacement_day.find(key);
    if (it == first_replacement_day.end() || day < it->second) {
      first_replacement_day[key] = day;
    }
    ++analysis.replacements;
  }

  std::vector<stats::SurvivalObservation> lifetimes;
  lifetimes.reserve(static_cast<std::size_t>(site_count));
  for (const std::int64_t site : SortedKeys(first_replacement_day)) {
    // Day-0 replacements are valid events; keep strictly positive times for
    // the log-based Weibull estimator.
    lifetimes.push_back(stats::SurvivalObservation{
        std::max(first_replacement_day.at(site), 0.5), true});
  }
  const std::size_t censored =
      static_cast<std::size_t>(site_count) > first_replacement_day.size()
          ? static_cast<std::size_t>(site_count) - first_replacement_day.size()
          : 0;
  for (std::size_t i = 0; i < censored; ++i) {
    lifetimes.push_back(stats::SurvivalObservation{tracking_days, false});
  }

  analysis.lifetime_fit = stats::FitWeibull(lifetimes);
  analysis.exponential = stats::FitExponential(lifetimes);
  analysis.afr = stats::AnnualizedFailureRate(
      first_replacement_day.size(), analysis.exponential.total_exposure, 365.25);
  return analysis;
}

}  // namespace astra::core
