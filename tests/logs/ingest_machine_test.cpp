// IngestMachine: checkpointing at ANY line boundary is invisible.  A dirty
// stream (drifted header, torn lines, duplicates, displacements inside and
// beyond the reorder window) fed with a Snapshot/Restore round trip between
// any two lines must deliver the same records, in the same order, with the
// same report as one uninterrupted feed.
#include "logs/ingest_machine.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace astra::logs {
namespace {

MemoryErrorRecord MakeRecord(std::int64_t offset_s, NodeId node = 3) {
  MemoryErrorRecord r;
  r.timestamp = SimTime::FromCivil(2019, 6, 15, 12, 0, 0).AddSeconds(offset_s);
  r.node = node;
  r.slot = DimmSlot::C;
  r.socket = SocketOfSlot(r.slot);
  r.rank = 1;
  r.bank = 4;
  r.bit_position = EncodeRecordedBit(17, 2);
  r.physical_address = 0xdeadbeefULL + static_cast<std::uint64_t>(offset_s);
  r.syndrome = 0x1234;
  return r;
}

// The record as a collector with the first two columns swapped logs it.
std::string Drifted(const MemoryErrorRecord& record) {
  const std::string line = FormatRecord(record);
  const std::size_t first_tab = line.find('\t');
  const std::size_t second_tab = line.find('\t', first_tab + 1);
  return line.substr(first_tab + 1, second_tab - first_tab - 1) + "\t" +
         line.substr(0, first_tab) + line.substr(second_tab);
}

const char* const kDriftedHeader =
    "node_id\tts\tsocket\ttype\tslot\trow\trank\tbank\tbit\tphysaddr\tsyndrome";

// A drifted-header stream with every kind of damage the machine repairs or
// quarantines.  With a 600 s window: records 60 s behind the newest are
// re-sorted, records 3600 s behind are delivered late (order violations).
std::vector<std::string> DirtyLines() {
  std::vector<std::string> lines = {kDriftedHeader};
  std::int64_t t = 0;
  for (int i = 0; i < 120; ++i) {
    t += 120;
    const std::string line = Drifted(MakeRecord(t, 3 + i % 4));
    lines.push_back(line);
    if (i % 7 == 3) lines.push_back(line);                             // duplicate
    if (i % 9 == 4) lines.push_back(Drifted(MakeRecord(t - 60, 9)));   // in window
    if (i % 13 == 6) lines.push_back(Drifted(MakeRecord(t - 3600, 11)));  // beyond
    if (i % 11 == 5) lines.push_back(line.substr(0, line.size() / 2));  // torn
    if (i % 17 == 8) {  // garbled timestamp, the second column in this file
      const std::size_t first_tab = line.find('\t');
      lines.push_back(line.substr(0, first_tab) + "\tgarbage" +
                      line.substr(line.find('\t', first_tab + 1)));
    }
    if (i % 19 == 9) lines.push_back("");
    if (i == 50) lines.push_back(kDriftedHeader);  // repeated header mid-stream
  }
  return lines;
}

struct Fed {
  std::vector<MemoryErrorRecord> delivered;
  IngestReport report;
};

void ExpectSameReport(const IngestReport& a, const IngestReport& b) {
  EXPECT_EQ(a.stats.total_lines, b.stats.total_lines);
  EXPECT_EQ(a.stats.parsed, b.stats.parsed);
  EXPECT_EQ(a.stats.malformed, b.stats.malformed);
  EXPECT_EQ(a.malformed_by_reason, b.malformed_by_reason);
  EXPECT_EQ(a.duplicates_removed, b.duplicates_removed);
  EXPECT_EQ(a.out_of_order_seen, b.out_of_order_seen);
  EXPECT_EQ(a.reordered, b.reordered);
  EXPECT_EQ(a.order_violations, b.order_violations);
  EXPECT_EQ(a.header_remapped, b.header_remapped);
  EXPECT_EQ(a.columns_reordered, b.columns_reordered);
  EXPECT_EQ(a.budget_exceeded, b.budget_exceeded);
  EXPECT_EQ(a.aborted, b.aborted);
  EXPECT_EQ(RepairLines(a), RepairLines(b));
}

// Feed `lines`, checkpointing and restoring into a fresh machine at boundary
// `cut` (lines.size() is the boundary before Drain; npos means never).
// Feeding stops at a strict abort, as every driver's does.
Fed FeedWithCheckpointAt(const std::vector<std::string>& lines,
                         const IngestPolicy& policy, std::size_t cut) {
  Fed fed;
  const auto sink = [&fed](const MemoryErrorRecord& r) { fed.delivered.push_back(r); };
  IngestMachine<MemoryErrorRecord> machine(policy);
  bool feeding = true;
  for (std::size_t i = 0; i <= lines.size(); ++i) {
    if (i == cut) {
      std::string state;
      binio::Writer writer(state);
      machine.Snapshot(writer);
      IngestMachine<MemoryErrorRecord> resumed(policy);
      binio::Reader reader(state);
      EXPECT_TRUE(resumed.Restore(reader));
      EXPECT_TRUE(reader.AtEnd());
      machine = std::move(resumed);
    }
    if (feeding && i < lines.size()) feeding = machine.FeedLine(lines[i], sink);
  }
  machine.Drain(sink);
  fed.report = machine.Report();
  return fed;
}

void ExpectEveryCutIsInvisible(const IngestPolicy& policy) {
  const auto lines = DirtyLines();
  const Fed whole = FeedWithCheckpointAt(lines, policy, std::string::npos);
  for (std::size_t cut = 0; cut <= lines.size(); ++cut) {
    SCOPED_TRACE("checkpoint before line " + std::to_string(cut));
    const Fed resumed = FeedWithCheckpointAt(lines, policy, cut);
    EXPECT_EQ(resumed.delivered, whole.delivered);
    ExpectSameReport(resumed.report, whole.report);
  }
}

TEST(IngestMachineTest, DirtyStreamExercisesEveryRepair) {
  IngestPolicy policy;
  policy.reorder_window_seconds = 600;
  const auto lines = DirtyLines();
  const Fed whole = FeedWithCheckpointAt(lines, policy, std::string::npos);
  const IngestReport& report = whole.report;
  EXPECT_TRUE(report.Consistent());
  EXPECT_EQ(whole.delivered.size(), report.Delivered());
  EXPECT_TRUE(report.header_remapped);
  EXPECT_TRUE(report.columns_reordered);
  EXPECT_GT(report.duplicates_removed, 0u);
  EXPECT_GT(report.reordered, 0u);
  EXPECT_GT(report.order_violations, 0u);
  EXPECT_GT(report.malformed_by_reason[static_cast<std::size_t>(
                MalformedReason::kFieldCount)],
            0u);
  EXPECT_GT(report.malformed_by_reason[static_cast<std::size_t>(
                MalformedReason::kBadTimestamp)],
            0u);
  EXPECT_EQ(RepairLines(report).size(), 3u);
}

TEST(IngestMachineTest, CheckpointAtEveryLineBoundaryIsInvisible) {
  IngestPolicy policy;
  policy.reorder_window_seconds = 600;
  ExpectEveryCutIsInvisible(policy);
}

TEST(IngestMachineTest, CheckpointAtEveryLineBoundaryBeforeAndAfterStrictAbort) {
  // The stream's malformed share is well over 1 %, so strict mode aborts
  // once the grace period is past; cuts on both sides of the abort agree.
  IngestPolicy policy = IngestPolicy::Strict(0.01);
  policy.reorder_window_seconds = 600;
  const auto lines = DirtyLines();
  ASSERT_TRUE(FeedWithCheckpointAt(lines, policy, std::string::npos).report.aborted);
  ExpectEveryCutIsInvisible(policy);
}

TEST(IngestMachineTest, TruncatedSnapshotIsRejectedAndResets) {
  IngestPolicy policy;
  policy.reorder_window_seconds = 600;
  IngestMachine<MemoryErrorRecord> machine(policy);
  for (const auto& line : DirtyLines()) {
    ASSERT_TRUE(machine.FeedLine(line, [](const MemoryErrorRecord&) {}));
  }
  std::string state;
  binio::Writer writer(state);
  machine.Snapshot(writer);

  for (const std::size_t keep : {std::size_t{0}, std::size_t{5}, state.size() / 2,
                                 state.size() - 1}) {
    IngestMachine<MemoryErrorRecord> restored(policy);
    binio::Reader reader(std::string_view(state).substr(0, keep));
    EXPECT_FALSE(restored.Restore(reader)) << "kept " << keep;
    EXPECT_EQ(restored.Report().stats.total_lines, 0u) << "kept " << keep;
    EXPECT_FALSE(restored.Report().header_remapped) << "kept " << keep;
  }
}

}  // namespace
}  // namespace astra::logs
