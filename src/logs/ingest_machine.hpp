// The one hardened-ingest state machine.  Every ingest driver — the serial
// IngestLogFile (log_file.hpp), the sharded ParallelIngestLogFile
// (parallel_ingest.hpp) and the tail-follow stream::TailReader — is a thin
// shell over IngestMachine<Record>, so the quarantine, dedup, windowed
// re-sort and accounting decisions exist exactly once.
//
// A driver walks its lines and, per line:
//  1. on a file's first line, ResolveHeader: the canonical header is
//     skipped, a drifted-but-mappable header is remapped and skipped,
//     anything else is data;
//  2. Classify turns the line into a LineOutcome (record plus dedup hash, or
//     the quarantine reason).  Classify is const, so parse shards may call it
//     concurrently;
//  3. Feed applies the ordered stages to that outcome: dedup, the windowed
//     re-sort buffer and the running strict budget.  Feed returns false on a
//     strict abort, after which the driver stops reading.
// Drain delivers what the re-sort buffer still holds and closes the
// accounting.  Snapshot/Restore checkpoint all of the above.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "logs/ingest.hpp"
#include "logs/serialize.hpp"
#include "util/binio.hpp"
#include "util/strings.hpp"

namespace astra::logs {

namespace detail {

template <typename Record>
[[nodiscard]] std::optional<Record> ParseLine(std::string_view line) {
  if constexpr (std::is_same_v<Record, MemoryErrorRecord>) {
    return ParseMemoryError(line);
  } else if constexpr (std::is_same_v<Record, SensorRecord>) {
    return ParseSensor(line);
  } else if constexpr (std::is_same_v<Record, HetRecord>) {
    return ParseHet(line);
  } else if constexpr (std::is_same_v<Record, InventoryRecord>) {
    return ParseInventory(line);
  } else {
    static_assert(!sizeof(Record), "no parser registered for this record type");
  }
}

template <typename Record>
std::string_view Header() noexcept {
  if constexpr (std::is_same_v<Record, MemoryErrorRecord>) {
    return MemoryErrorHeader();
  } else if constexpr (std::is_same_v<Record, SensorRecord>) {
    return SensorHeader();
  } else if constexpr (std::is_same_v<Record, HetRecord>) {
    return HetHeader();
  } else if constexpr (std::is_same_v<Record, InventoryRecord>) {
    return InventoryHeader();
  } else {
    static_assert(!sizeof(Record), "no header registered for this record type");
  }
}

template <typename Record>
[[nodiscard]] SimTime TimestampOf(const Record& record) noexcept {
  if constexpr (std::is_same_v<Record, InventoryRecord>) {
    return record.scan_date;
  } else {
    return record.timestamp;
  }
}

// The fate of one data line.  `malformed` is 0 for a parsed record, else
// 1 + MalformedReason, so Feed can update the per-reason quarantine
// breakdown without re-classifying.
template <typename Record>
struct LineOutcome {
  Record record{};
  std::size_t dedup_hash = 0;
  std::uint8_t malformed = 0;
};

}  // namespace detail

// The human-readable repair log of `report`, one line per repair kind: the
// header remap, then dropped duplicates, then the windowed re-sort.  Derived
// from the counters, so a merged report lists each repair once, summed.
[[nodiscard]] inline std::vector<std::string> RepairLines(const IngestReport& report) {
  std::vector<std::string> lines;
  if (report.header_remapped) {
    lines.push_back("remapped drifted header (" +
                    std::string(report.columns_reordered ? "column order"
                                                         : "aliases only") +
                    ") back to canonical schema");
  }
  if (report.duplicates_removed > 0) {
    lines.push_back("dropped " + std::to_string(report.duplicates_removed) +
                    " exact duplicate record(s)");
  }
  if (report.reordered > 0) {
    lines.push_back("re-sorted " + std::to_string(report.reordered) +
                    " out-of-order record(s) within the reorder window");
  }
  return lines;
}

template <typename Record>
class IngestMachine {
 public:
  using Outcome = detail::LineOutcome<Record>;

  explicit IngestMachine(const IngestPolicy& policy)
      : policy_(policy), canonical_fields_(SplitView(Canonical(), '\t').size()) {}

  // Begin a new file (a rotated log carries a fresh header): the next line
  // goes through header resolution again.  Delivered records, the
  // accounting and the dedup/re-sort state are kept — the stream is the
  // unit of analysis, files are just its transport.
  void StartFile() {
    header_pending_ = true;
    header_map_.reset();
    file_header_line_.clear();
  }

  // Resolve a file's first line.  True when it was a header (canonical, or
  // drifted and remapped) and must not be classified; false when the file is
  // headerless and the line is data.
  [[nodiscard]] bool ResolveHeader(std::string_view first_line) {
    header_pending_ = false;
    if (first_line == Canonical()) return true;
    if (!policy_.remap_headers || first_line.empty()) return false;
    auto map = HeaderMap::Build(Canonical(), first_line);
    if (!map) return false;
    header_map_ = std::move(*map);
    file_header_line_ = std::string(first_line);
    report_.header_remapped = true;
    report_.columns_reordered = report_.columns_reordered || !header_map_->Identity();
    return true;
  }

  // One line, after header resolution.  nullopt for lines that carry no data
  // (blank, a repeated header).  Safe to call concurrently as long as each
  // caller brings its own `scratch` buffer for the column projection.
  [[nodiscard]] std::optional<Outcome> Classify(std::string_view line,
                                                std::string& scratch) const {
    if (line.empty() || line == Canonical()) return std::nullopt;
    if (header_map_ && line == file_header_line_) return std::nullopt;

    Outcome outcome;
    std::string_view effective = line;
    if (header_map_ && !header_map_->Identity()) {
      if (!header_map_->ProjectLine(SplitView(line, '\t'), scratch)) {
        outcome.malformed = 1 + static_cast<std::uint8_t>(MalformedReason::kFieldCount);
        return outcome;
      }
      effective = scratch;
    }
    if (auto record = detail::ParseLine<Record>(effective)) {
      outcome.record = std::move(*record);
      if (policy_.dedup) outcome.dedup_hash = std::hash<std::string_view>{}(effective);
    } else {
      outcome.malformed =
          1 + static_cast<std::uint8_t>(ClassifyMalformed(effective, canonical_fields_));
    }
    return outcome;
  }

  // The serial driver's whole per-line step: header resolution on a file's
  // first line, then Classify and Feed.  False on a strict abort.
  template <typename Sink>
  [[nodiscard]] bool FeedLine(std::string_view line, const Sink& sink) {
    if (header_pending_ && ResolveHeader(line)) return true;
    const auto outcome = Classify(line, projected_);
    return !outcome || Feed(*outcome, sink);
  }

  // Account one data line and deliver whatever the re-sort window releases.
  // False once the running malformed fraction blows the strict budget (a
  // grace period avoids tripping on short prefixes); the driver stops there.
  template <typename Sink>
  [[nodiscard]] bool Feed(const Outcome& outcome, const Sink& sink) {
    ++report_.stats.total_lines;
    if (outcome.malformed != 0) {
      ++report_.stats.malformed;
      ++report_.malformed_by_reason[outcome.malformed - 1];
    } else {
      ++report_.stats.parsed;
      if (policy_.dedup && !seen_hashes_.insert(outcome.dedup_hash).second) {
        ++report_.duplicates_removed;
      } else {
        Accept(outcome.record, sink);
      }
    }
    if (policy_.mode == IngestPolicy::Mode::kStrict &&
        report_.stats.total_lines >= IngestPolicy::kBudgetGraceLines &&
        report_.stats.MalformedFraction() > policy_.max_malformed_fraction) {
      report_.budget_exceeded = true;
      report_.aborted = true;
      return false;
    }
    return true;
  }

  // Deliver the re-sort buffer and close the accounting.  Also after a
  // strict abort: every record counted as parsed is delivered, so
  // Delivered() always matches what the sink saw.  Idempotent.
  template <typename Sink>
  void Drain(const Sink& sink) {
    for (const auto& p : pending_) Emit(p, sink);
    pending_.clear();
    if (report_.stats.MalformedFraction() > policy_.max_malformed_fraction) {
      report_.budget_exceeded = true;
    }
  }

  [[nodiscard]] const IngestReport& Report() const noexcept { return report_; }
  // Pre-size the dedup set for `records` parsed lines (the parallel driver
  // knows the count once its parse phase is done).
  void ReserveDedup(std::size_t records) {
    if (policy_.dedup) seen_hashes_.reserve(records);
  }

  // Checkpoint the whole machine.  Buffered records round-trip through the
  // canonical text format (FormatRecord and ParseLine are exact inverses);
  // dedup hashes are std::hash values, meaningful only within one build.
  void Snapshot(binio::Writer& writer) const {
    writer.PutBool(header_pending_);
    writer.PutBool(header_map_.has_value());
    writer.PutString(file_header_line_);

    writer.PutU64(report_.stats.total_lines);
    writer.PutU64(report_.stats.parsed);
    writer.PutU64(report_.stats.malformed);
    for (const auto n : report_.malformed_by_reason) writer.PutU64(n);
    writer.PutU64(report_.duplicates_removed);
    writer.PutU64(report_.out_of_order_seen);
    writer.PutU64(report_.reordered);
    writer.PutU64(report_.order_violations);
    writer.PutBool(report_.header_remapped);
    writer.PutBool(report_.columns_reordered);
    writer.PutBool(report_.budget_exceeded);
    writer.PutBool(report_.aborted);

    writer.PutU64(seq_);
    writer.PutBool(max_seen_.has_value());
    writer.PutI64(max_seen_ ? max_seen_->Seconds() : 0);
    writer.PutBool(last_emitted_.has_value());
    writer.PutI64(last_emitted_ ? last_emitted_->Seconds() : 0);

    std::vector<std::uint64_t> hashes;
    hashes.reserve(seen_hashes_.size());
    // astra-lint: allow(det-unordered-iter): collected then sorted below.
    for (const std::size_t h : seen_hashes_) {
      hashes.push_back(static_cast<std::uint64_t>(h));
    }
    std::sort(hashes.begin(), hashes.end());
    writer.PutU64(hashes.size());
    for (const std::uint64_t h : hashes) writer.PutU64(h);

    writer.PutU64(pending_.size());
    for (const auto& p : pending_) {
      writer.PutString(FormatRecord(p.record));
      writer.PutU64(p.seq);
      writer.PutBool(p.was_out_of_order);
    }
  }

  // Replace this machine's state.  False on a malformed payload; the
  // machine is then reset to its initial state, never half-restored.
  [[nodiscard]] bool Restore(binio::Reader& reader) {
    *this = IngestMachine(policy_);
    header_pending_ = reader.GetBool();
    const bool has_header_map = reader.GetBool();
    bool ok = reader.GetString(file_header_line_);
    if (ok && has_header_map) {
      // The projection is rebuilt, not serialized: the drifted header line is
      // the authoritative state and HeaderMap::Build is deterministic.
      header_map_ = HeaderMap::Build(Canonical(), file_header_line_);
      ok = header_map_.has_value();
    }

    report_.stats.total_lines = reader.GetU64();
    report_.stats.parsed = reader.GetU64();
    report_.stats.malformed = reader.GetU64();
    for (auto& n : report_.malformed_by_reason) n = reader.GetU64();
    report_.duplicates_removed = reader.GetU64();
    report_.out_of_order_seen = reader.GetU64();
    report_.reordered = reader.GetU64();
    report_.order_violations = reader.GetU64();
    report_.header_remapped = reader.GetBool();
    report_.columns_reordered = reader.GetBool();
    report_.budget_exceeded = reader.GetBool();
    report_.aborted = reader.GetBool();

    seq_ = reader.GetU64();
    const bool has_max = reader.GetBool();
    const SimTime max_seen{reader.GetI64()};
    if (has_max) max_seen_ = max_seen;
    const bool has_last = reader.GetBool();
    const SimTime last_emitted{reader.GetI64()};
    if (has_last) last_emitted_ = last_emitted;

    const std::uint64_t hash_count = reader.GetU64();
    ok = ok && reader.CanReadItems(hash_count, sizeof(std::uint64_t));
    if (ok) seen_hashes_.reserve(static_cast<std::size_t>(hash_count));
    for (std::uint64_t i = 0; ok && i < hash_count; ++i) {
      seen_hashes_.insert(static_cast<std::size_t>(reader.GetU64()));
    }

    const std::uint64_t pending_count = reader.GetU64();
    ok = ok && reader.CanReadItems(pending_count, 16);
    std::string line;
    for (std::uint64_t i = 0; ok && i < pending_count; ++i) {
      ok = reader.GetString(line);
      auto record = ok ? detail::ParseLine<Record>(line) : std::nullopt;
      ok = record.has_value();
      if (ok) Enqueue(Pending{std::move(*record), reader.GetU64(), reader.GetBool()});
    }

    if (!ok || !reader.Ok()) {
      *this = IngestMachine(policy_);
      return false;
    }
    return true;
  }

 private:
  struct Pending {
    Record record;
    std::uint64_t seq = 0;
    bool was_out_of_order = false;
  };

  [[nodiscard]] static std::string_view Canonical() noexcept {
    return detail::Header<Record>();
  }

  [[nodiscard]] static bool Earlier(const Pending& a, const Pending& b) noexcept {
    const SimTime ta = detail::TimestampOf(a.record);
    const SimTime tb = detail::TimestampOf(b.record);
    return ta < tb || (ta == tb && a.seq < b.seq);
  }

  // The re-sort buffer stays sorted ascending by (timestamp, arrival seq).
  // Error logs arrive nearly sorted, so almost every record belongs at the
  // back (O(1)); only a displaced record pays the binary-search insert.
  void Enqueue(Pending p) {
    if (pending_.empty() || !Earlier(p, pending_.back())) {
      pending_.push_back(std::move(p));
    } else {
      pending_.insert(std::upper_bound(pending_.begin(), pending_.end(), p, Earlier),
                      std::move(p));
    }
  }

  // A unique record: note whether it arrived behind the newest timestamp,
  // then buffer it and release everything at or beyond the window horizon.
  template <typename Sink>
  void Accept(const Record& record, const Sink& sink) {
    Pending p{record, seq_++, false};
    const SimTime t = detail::TimestampOf(record);
    if (max_seen_ && t < *max_seen_) {
      p.was_out_of_order = true;
      ++report_.out_of_order_seen;
    }
    if (!max_seen_ || t > *max_seen_) max_seen_ = t;
    if (policy_.reorder_window_seconds <= 0) {
      Emit(p, sink);
      return;
    }
    Enqueue(std::move(p));
    const SimTime horizon = max_seen_->AddSeconds(-policy_.reorder_window_seconds);
    while (!pending_.empty() &&
           detail::TimestampOf(pending_.front().record) <= horizon) {
      Emit(pending_.front(), sink);
      pending_.pop_front();
    }
  }

  template <typename Sink>
  void Emit(const Pending& p, const Sink& sink) {
    const SimTime t = detail::TimestampOf(p.record);
    if (last_emitted_ && t < *last_emitted_) {
      ++report_.order_violations;
    } else if (p.was_out_of_order) {
      ++report_.reordered;
    }
    if (!last_emitted_ || t > *last_emitted_) last_emitted_ = t;
    sink(p.record);
  }

  IngestPolicy policy_;
  std::size_t canonical_fields_ = 0;

  bool header_pending_ = true;
  std::optional<HeaderMap> header_map_;
  std::string file_header_line_;
  std::string projected_;

  IngestReport report_;
  std::deque<Pending> pending_;
  std::uint64_t seq_ = 0;
  std::optional<SimTime> max_seen_;
  std::optional<SimTime> last_emitted_;
  std::unordered_set<std::size_t> seen_hashes_;
};

}  // namespace astra::logs
