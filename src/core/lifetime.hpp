// Lifetime / survival analyses over campaign telemetry:
//
//  - time-to-first-CE per DIMM (Kaplan-Meier + parametric fits): most DIMMs
//    never log an error during the window — textbook right-censoring;
//  - observed fault activity spans (first_seen .. last_seen);
//  - replacement-lifetime fit: treating time-in-service-until-replacement as
//    the lifetime variable recovers the §3.1 infant-mortality signature
//    (Weibull shape < 1) directly from inventory-diff events, closing the
//    loop on Fig. 3's qualitative narrative.
#pragma once

#include <cstdint>
#include <span>

#include "core/coalesce.hpp"
#include "replace/replacement_sim.hpp"
#include "stats/survival.hpp"

namespace astra::core {

struct LifetimeAnalysis {
  // Subjects: every DIMM in the fleet; event: its first logged CE.
  stats::KaplanMeierCurve time_to_first_ce;
  stats::WeibullFit first_ce_weibull;
  stats::ExponentialFit first_ce_exponential;
  // First-CE incidence annualized per DIMM (events per DIMM-year).
  double first_ce_afr = 0.0;

  // Observed fault activity spans in days (faults whose stream touches the
  // final day are treated as censored).
  stats::KaplanMeierCurve fault_activity_days;
  double median_fault_activity_days = 0.0;
};

// `dimm_count` is the fleet's DIMM population (node_count * 16 for scaled
// runs); DIMMs that never logged a CE are right-censored at the window end.
// Only CE records are considered.
[[nodiscard]] LifetimeAnalysis AnalyzeLifetimes(
    std::span<const logs::MemoryErrorRecord> records, const CoalesceResult& coalesced,
    TimeWindow window, int dimm_count);

struct ReplacementLifetimeAnalysis {
  stats::WeibullFit lifetime_fit;      // time-in-service until replacement
  stats::ExponentialFit exponential;   // memoryless baseline for contrast
  double afr = 0.0;                    // replacements per site-year
  std::size_t replacements = 0;
  std::size_t sites = 0;

  // The §3.1 takeaway in one bit: a decreasing hazard (shape < 1) means the
  // replacement process is dominated by infant mortality, not aging.
  [[nodiscard]] bool InfantMortalityDominated() const noexcept {
    return lifetime_fit.InfantMortality();
  }
};

// `kind` selects the component class; `site_count` its population.
[[nodiscard]] ReplacementLifetimeAnalysis AnalyzeReplacementLifetimes(
    std::span<const replace::ReplacementEvent> events, logs::ComponentKind kind,
    TimeWindow tracking, int site_count);

}  // namespace astra::core
