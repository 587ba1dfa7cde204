// Availability impact accounting: what memory failures actually COST a
// production machine, derived from the error log alone.
//
// Two channels, both grounded in the paper:
//  - DUEs crash the node (uncorrectable data loss -> kernel panic / job
//    kill): each costs a reboot plus lost work (re-queue, checkpoint
//    rollback).
//  - CE storms degrade the node while it stays up: correctable errors
//    "can have significant performance implications [18, 24]" (§3.2 — [18]
//    is Macarenco et al.'s SMI-interference study), because each burst of
//    corrections steals cycles through polling/SMI machinery.
//
// A chipkill counterfactual is computed from the log: a DUE on a DIMM whose
// CE history shows the multi-bit-single-word signature was a single-device
// failure — exactly the class a chipkill-grade code corrects transparently
// (see ecc/chipkill.hpp) — so those node-crashes were avoidable at the cost
// §2.2 says Astra chose not to pay.
#pragma once

#include <cstdint>
#include <span>

#include "logs/records.hpp"

namespace astra::core {

struct ImpactConfig {
  // Node outage per DUE: panic + reboot + health checks + scheduler rejoin.
  double due_outage_minutes = 20.0;
  // Lost computation per DUE beyond the outage itself (killed job re-queue /
  // checkpoint rollback), expressed in node-hours.
  double due_lost_work_node_hours = 2.0;
  // A node-hour with at least this many CEs counts as a storm hour.
  std::uint32_t storm_ces_per_hour = 1000;
  // Effective capacity lost during a storm hour (correction overhead,
  // polling, SMI-style interference).
  double storm_slowdown_fraction = 0.10;
};

struct ImpactAnalysis {
  double total_node_hours = 0.0;

  std::uint64_t due_events = 0;
  double node_hours_lost_to_dues = 0.0;

  std::uint64_t storm_node_hours = 0;
  double node_hours_lost_to_storms = 0.0;

  // 1 - lost/total.
  double availability = 1.0;

  // Chipkill counterfactual.
  std::uint64_t dues_avoidable_with_chipkill = 0;
  double node_hours_saved_by_chipkill = 0.0;

  [[nodiscard]] double TotalLostNodeHours() const noexcept {
    return node_hours_lost_to_dues + node_hours_lost_to_storms;
  }
};

[[nodiscard]] ImpactAnalysis AnalyzeImpact(
    std::span<const logs::MemoryErrorRecord> records, TimeWindow window,
    int node_count, const ImpactConfig& config = {});

}  // namespace astra::core
