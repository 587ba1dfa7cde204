#include "core/report.hpp"

#include <algorithm>
#include <ostream>

#include "logs/ingest_machine.hpp"
#include "util/strings.hpp"
#include "util/text_table.hpp"

namespace astra::core {

void RenderCaveats(std::ostream& out, const std::vector<std::string>& caveats) {
  if (caveats.empty()) return;
  out << "== data-quality caveats ==\n";
  for (const auto& caveat : caveats) out << "  ! " << caveat << '\n';
}

void RenderAnalysisReport(std::ostream& out, const AnalysisArtifacts& artifacts) {
  const auto& faults = artifacts.faults;
  const auto& positions = artifacts.positions;
  const int nodes = artifacts.node_span;

  out << "== volume ==\n";
  out << "  records: " << WithThousands(artifacts.record_count) << " ("
      << WithThousands(faults.total_errors) << " CEs, "
      << WithThousands(faults.skipped_records) << " DUEs)\n";
  out << "  coalesced faults: " << WithThousands(faults.faults.size()) << '\n';
  out << "  nodes with CEs: " << positions.nodes_with_errors << " of " << nodes
      << '\n';

  out << "== fault modes ==\n";
  TextTable modes({"mode", "faults", "errors"});
  for (int m = 0; m < faultsim::kObservedModeCount; ++m) {
    const auto mode = static_cast<faultsim::ObservedMode>(m);
    if (faults.FaultsOfMode(mode) == 0) continue;
    modes.AddRow({std::string(faultsim::ObservedModeName(mode)),
                  WithThousands(faults.FaultsOfMode(mode)),
                  WithThousands(faults.ErrorsOfMode(mode))});
  }
  modes.Print(out);

  out << "== positional verdicts (fault counts) ==\n";
  const auto verdict = [](const stats::ChiSquareResult& r) {
    return std::string(r.ConsistentWithUniform() ? "uniform" : "skewed") + " (V=" +
           FormatDouble(r.cramers_v, 3) + ")";
  };
  out << "  socket: " << verdict(positions.fault_uniformity.socket)
      << "\n  bank:   " << verdict(positions.fault_uniformity.bank)
      << "\n  column: " << verdict(positions.fault_uniformity.column)
      << "\n  slot:   " << verdict(positions.fault_uniformity.slot)
      << "\n  rack:   " << verdict(positions.fault_uniformity.rack)
      << "\n  region: " << verdict(positions.fault_uniformity.region) << '\n';
  out << "  rank0/rank1 faults: " << positions.faults.per_rank[0] << "/"
      << positions.faults.per_rank[1] << '\n';
  out << "  top 2% nodes hold "
      << FormatDouble(100.0 * positions.ce_concentration.ShareOfTop(
                                  static_cast<std::size_t>(
                                      std::max(1, nodes / 50))),
                      1)
      << "% of CEs\n";

  out << "== monthly CE series ==\n  ";
  for (const auto m : artifacts.series.all_errors) out << m << ' ';
  out << "(trend " << FormatDouble(artifacts.series.TrendSlopePerMonth(), 1)
      << "/month)\n";

  out << "== uncorrectable ==\n  HET-recorded DUEs: "
      << artifacts.dues.memory_due_events
      << "  FIT/DIMM: " << FormatDouble(artifacts.dues.fit_per_dimm, 0)
      << (artifacts.dues.low_confidence ? "  [low confidence]" : "") << '\n';

  const auto& prediction = artifacts.prediction;
  out << "== DUE early warning (multi-bit signature) ==\n  flagged DIMMs: "
      << prediction.dimms_flagged
      << "  precision: " << FormatDouble(prediction.Precision(), 2)
      << "  recall: " << FormatDouble(prediction.Recall(), 2) << '\n';
  if (!prediction.flags.empty()) {
    out << "  first flags:\n";
    for (std::size_t i = 0; i < std::min<std::size_t>(5, prediction.flags.size());
         ++i) {
      const auto& flag = prediction.flags[i];
      out << "    " << flag.flagged_at.ToString() << "  node " << flag.node
          << " slot " << DimmSlotLetter(flag.slot) << "  (" << flag.reason
          << ")\n";
    }
  }

  // Every stage repeats the shared ingest caveats; print each once.
  std::vector<std::string> caveats;
  const auto add_unique = [&caveats](const std::vector<std::string>& more) {
    for (const auto& c : more) {
      if (std::find(caveats.begin(), caveats.end(), c) == caveats.end()) {
        caveats.push_back(c);
      }
    }
  };
  add_unique(faults.caveats);
  add_unique(positions.caveats);
  add_unique(artifacts.dues.caveats);
  RenderCaveats(out, caveats);
}

namespace {

// One stream's ingest accounting line, printed unconditionally so malformed
// lines are never silently swallowed (an empty report is itself information).
void RenderIngestLine(std::ostream& out, const std::string& name,
                      const logs::IngestReport& report) {
  out << "  " << name << ": " << WithThousands(report.stats.total_lines)
      << " lines, " << WithThousands(report.stats.parsed) << " parsed, "
      << WithThousands(report.stats.malformed) << " quarantined ("
      << FormatDouble(100.0 * report.stats.MalformedFraction(), 2) << "%)";
  if (report.stats.malformed > 0) {
    out << " [";
    bool first = true;
    for (int r = 0; r < logs::kMalformedReasonCount; ++r) {
      const auto n = report.malformed_by_reason[static_cast<std::size_t>(r)];
      if (n == 0) continue;
      out << (first ? "" : ", ")
          << logs::MalformedReasonName(static_cast<logs::MalformedReason>(r))
          << " " << n;
      first = false;
    }
    out << "]";
  }
  if (report.duplicates_removed > 0) {
    out << ", " << WithThousands(report.duplicates_removed) << " deduped";
  }
  if (report.reordered > 0 || report.order_violations > 0) {
    out << ", " << WithThousands(report.reordered) << " re-sorted";
    if (report.order_violations > 0) {
      out << " (" << WithThousands(report.order_violations) << " beyond window)";
    }
  }
  if (report.header_remapped) out << ", header remapped";
  out << '\n';
}

}  // namespace

void RenderIngestReport(std::ostream& out, const logs::IngestPolicy& policy,
                        const logs::IngestReport& memory_report,
                        const logs::IngestReport* het_report) {
  out << "== ingest ("
      << (policy.mode == logs::IngestPolicy::Mode::kStrict ? "strict" : "lenient")
      << ", budget " << FormatDouble(100.0 * policy.max_malformed_fraction, 1)
      << "%) ==\n";
  RenderIngestLine(out, "memory_errors", memory_report);
  if (het_report == nullptr) {
    out << "  het_events: MISSING (DUE analysis degrades)\n";
  } else {
    RenderIngestLine(out, "het_events", *het_report);
  }
  for (const auto& repair : logs::RepairLines(memory_report)) {
    out << "  repair: " << repair << '\n';
  }
  if (het_report != nullptr) {
    for (const auto& repair : logs::RepairLines(*het_report)) {
      out << "  repair: " << repair << '\n';
    }
  }
}

void RenderEmptyDatasetReport(std::ostream& out, const DataQuality& quality) {
  out << "== volume ==\n  records: 0 — analysis skipped "
         "(no parseable memory error records)\n";
  RenderCaveats(out, quality.Caveats());
}

}  // namespace astra::core
