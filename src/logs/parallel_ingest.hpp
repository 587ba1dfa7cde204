// Parallel sharded ingest: the multi-threaded counterpart of IngestLogFile
// (log_file.hpp) with byte-identical output at any thread count.
//
// The pipeline has two phases:
//
//  1. PARALLEL PARSE.  The file is memory-mapped and — after the header line
//     is resolved sequentially (canonical, drifted-but-mappable, or data) —
//     the remaining byte range is cut at newline boundaries into one shard
//     per worker (util/mapped_file.hpp).  Each shard parses its lines into a
//     pre-sized per-shard outcome buffer: for every data line, either the
//     parsed record plus its dedup hash, or the malformed-reason code.  Line
//     parsing is independent line-to-line, so this phase is embarrassingly
//     parallel and carries ~all of the ingest cost (field splitting, strict
//     numeric parsing, domain checks, hashing).
//
//  2. SEQUENTIAL REPLAY.  The per-shard outcome buffers, concatenated in
//     shard index order, reproduce the exact line sequence the serial reader
//     sees.  The inherently ordered stages — duplicate dropping, the
//     windowed re-sort buffer, running strict-budget accounting with early
//     abort — are replayed over that sequence by Feeding the same
//     IngestMachine IngestLogFile drives.  Every counter, abort point and
//     the delivered record order therefore match the serial path exactly:
//     reports are byte-identical whether threads == 1 or 64.
//
// Invariants inherited from the serial path: parsed + malformed ==
// total_lines, Delivered() == records handed to the sink, and strict-mode
// exit behaviour (budget_exceeded / aborted) is unchanged.
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "logs/log_file.hpp"
#include "util/io_faults.hpp"
#include "util/mapped_file.hpp"
#include "util/parallel.hpp"

namespace astra::logs {

namespace detail {

// One shard's outcomes, one per data line in order.  Parsing is the const
// IngestMachine::Classify, a pure function of the line and the (shared,
// read-only) header mapping, so shards run concurrently.
template <typename Record>
struct ShardParse {
  std::vector<LineOutcome<Record>> outcomes;
  std::size_t parsed = 0;
};

template <typename Record>
void ParseShard(std::string_view shard, const IngestMachine<Record>& machine,
                ShardParse<Record>& out) {
  // Pre-size the outcome arena: one newline count pass, then no growth.
  out.outcomes.reserve(
      1 + static_cast<std::size_t>(std::count(shard.begin(), shard.end(), '\n')));
  std::string scratch;
  ForEachLineInView(shard, [&](std::string_view line) {
    if (auto outcome = machine.Classify(line, scratch)) {
      if (outcome->malformed == 0) ++out.parsed;
      out.outcomes.push_back(std::move(*outcome));
    }
    return true;
  });
}

}  // namespace detail

// Files below this size are ingested serially: shard setup costs more than
// it saves, and the serial path is byte-identical anyway.
inline constexpr std::size_t kParallelIngestMinBytes = 64 * 1024;

// Hardened streaming ingest, parallel edition.  Semantics are identical to
// IngestLogFile (same policy handling, same report, same record order);
// `threads` sets the shard/worker count (0 = hardware concurrency, 1 forces
// the serial path).  Returns nullopt only when the file cannot be opened.
// `size_hint`, when provided, is called once between the parse and replay
// phases with the total parsed-record count — sinks that buffer records can
// pre-size their storage instead of growing it delivery by delivery.
template <typename Record>
[[nodiscard]] std::optional<IngestReport> ParallelIngestLogFile(
    const std::string& path, const IngestPolicy& policy, unsigned threads,
    const std::function<void(const Record&)>& sink,
    const std::function<void(std::size_t)>& size_hint = nullptr) {
  const unsigned resolved = ResolveThreadCount(threads);
  if (resolved <= 1) return IngestLogFile<Record>(path, policy, sink);

  const auto file = io::Current().MapFile(path);
  if (!file) return std::nullopt;
  const std::string_view bytes = file->Bytes();
  if (bytes.size() < kParallelIngestMinBytes) {
    return IngestLogFile<Record>(path, policy, sink);
  }

  // Header resolution is sequential (it is one line).
  IngestMachine<Record> machine(policy);
  std::string_view data = bytes;
  std::string_view rest;
  if (const auto first = FirstLineOf(bytes, &rest);
      first && machine.ResolveHeader(*first)) {
    data = rest;
  }

  // Phase 1: parse all shards concurrently.
  const auto shards = SplitAtLineBoundaries(data, resolved);
  std::vector<detail::ShardParse<Record>> parses(shards.size());
  ParallelShards(shards.size(), shards.size(),
                 [&](std::size_t, std::size_t begin, std::size_t end) {
                   for (std::size_t i = begin; i < end; ++i) {
                     detail::ParseShard<Record>(shards[i], machine, parses[i]);
                   }
                 });

  std::size_t total_parsed = 0;
  for (const auto& parse : parses) total_parsed += parse.parsed;
  if (size_hint) size_hint(total_parsed);
  machine.ReserveDedup(total_parsed);

  // Phase 2: feed the concatenated outcomes in order, stopping at a strict
  // abort.
  for (const auto& parse : parses) {
    if (!std::all_of(parse.outcomes.begin(), parse.outcomes.end(),
                     [&](const auto& outcome) { return machine.Feed(outcome, sink); })) {
      break;
    }
  }
  machine.Drain(sink);
  return machine.Report();
}

// Convenience: parallel hardened ingest into a pre-sized vector.
template <typename Record>
[[nodiscard]] std::optional<std::vector<Record>> ParallelIngestAllRecords(
    const std::string& path, const IngestPolicy& policy, unsigned threads,
    IngestReport* report_out = nullptr) {
  std::vector<Record> records;
  const auto report = ParallelIngestLogFile<Record>(
      path, policy, threads,
      [&records](const Record& r) { records.push_back(r); },
      [&records](std::size_t parsed) { records.reserve(parsed); });
  if (!report) return std::nullopt;
  if (report_out != nullptr) *report_out = *report;
  return records;
}

}  // namespace astra::logs
