// Tail-follow ingest: the streaming counterpart of logs::IngestLogFile.
//
// A TailReader feeds ONE growing log file through a logs::IngestMachine
// (logs/ingest_machine.hpp), the state machine the batch reader drives, and
// keeps only the file cursor: each Poll() re-maps the file and feeds any
// newly appended COMPLETE lines (a torn final line without its '\n' is left
// for a later poll — appenders write whole records, so a partial line means
// the writer is mid-append).
// Finish() consumes the final (possibly unterminated) line, drains the
// re-sort buffer and closes the accounting, after which Report() is field-
// identical to what IngestLogFile would have produced over the final bytes.
//
// Rotation/truncation: a file shorter than the consumed offset means the
// producer rotated (or truncated) the log.  The reader restarts at byte 0 of
// the new file — re-running header detection, since a fresh file carries a
// fresh header — while keeping every delivered record, the accounting and
// the dedup/reorder state: the stream is the unit of analysis, files are
// just its transport.  A missing file is reported (kMissing) and retried on
// the next poll; strict-budget aborts are sticky, exactly like the batch
// reader stopping mid-file.
//
// I/O faults: every map of the file goes through the io::Io seam and is
// retried under the reader's bounded backoff policy (util/retry.hpp), so a
// transient open/mmap failure is absorbed invisibly — IoRetries() counts the
// recoveries, the report stays byte-identical to a clean run.  Only after
// the attempt budget is spent does a poll surface kMissing; persistent
// unreadability is then the caller's policy decision (the watch CLI backs
// off across polls and eventually exits with a documented code).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "logs/log_file.hpp"
#include "util/binio.hpp"
#include "util/io_faults.hpp"
#include "util/mapped_file.hpp"
#include "util/retry.hpp"

namespace astra::stream {

enum class TailStatus {
  kIdle,     // no new complete lines since the last poll
  kAdvanced, // consumed at least one new line
  kRotated,  // file shrank: restarted from byte 0 (may also have advanced)
  kAborted,  // strict policy stopped the ingest (sticky)
  kMissing,  // file absent/unreadable this poll; retried next poll
};

template <typename Record>
class TailReader {
 public:
  using Sink = std::function<void(const Record&)>;

  // `retry` bounds how many times one poll re-attempts a failed map before
  // reporting kMissing; `sleep` paces those attempts (null = immediate, the
  // poll loop itself provides pacing).  The default is fail-fast, matching
  // the pre-seam behaviour.
  TailReader(std::string path, const logs::IngestPolicy& policy,
             const RetryPolicy& retry = RetryPolicy::None(), SleepFn sleep = {})
      : path_(std::move(path)),
        retry_(retry),
        sleep_(std::move(sleep)),
        machine_(policy) {}

  // Consume newly appended complete lines.  `sink` receives records in the
  // same order the batch reader would deliver them.
  TailStatus Poll(const Sink& sink) {
    if (Aborted()) return TailStatus::kAborted;
    if (finished_) return TailStatus::kIdle;
    const auto mapped = MapWithRetry();
    if (!mapped) return TailStatus::kMissing;
    seen_file_ = true;

    bool rotated = false;
    std::string_view bytes = mapped->Bytes();
    if (bytes.size() < offset_) {
      // The file shrank under us: rotation or truncation.  Restart the file
      // cursor and header detection; analyzer-visible state stays.
      offset_ = 0;
      machine_.StartFile();
      ++rotations_;
      rotated = true;
    }

    std::string_view fresh = bytes.substr(offset_);
    const std::size_t last_nl = fresh.rfind('\n');
    if (last_nl == std::string_view::npos) {
      return rotated ? TailStatus::kRotated : TailStatus::kIdle;
    }
    const std::string_view complete = fresh.substr(0, last_nl + 1);
    bool advanced = false;
    ForEachLineInView(complete, [&](std::string_view line) {
      advanced = true;
      return machine_.FeedLine(line, sink);
    });
    offset_ += complete.size();
    if (Aborted()) return TailStatus::kAborted;
    if (rotated) return TailStatus::kRotated;
    return advanced ? TailStatus::kAdvanced : TailStatus::kIdle;
  }

  // Consume the final unterminated line (batch getline semantics visit it),
  // drain the re-sort buffer and close the accounting.  Idempotent.
  void Finish(const Sink& sink) {
    if (finished_) return;
    finished_ = true;
    if (!Aborted()) {
      if (const auto mapped = MapWithRetry()) {
        seen_file_ = true;
        std::string_view bytes = mapped->Bytes();
        if (bytes.size() >= offset_) {
          ForEachLineInView(bytes.substr(offset_), [&](std::string_view line) {
            return machine_.FeedLine(line, sink);
          });
          offset_ = bytes.size();
        }
      }
    }
    machine_.Drain(sink);
  }

  [[nodiscard]] const logs::IngestReport& Report() const noexcept {
    return machine_.Report();
  }
  [[nodiscard]] bool SeenFile() const noexcept { return seen_file_; }
  [[nodiscard]] std::size_t Offset() const noexcept { return offset_; }
  [[nodiscard]] std::uint64_t Rotations() const noexcept { return rotations_; }
  [[nodiscard]] bool Aborted() const noexcept { return machine_.Report().aborted; }
  [[nodiscard]] bool Finished() const noexcept { return finished_; }
  // Transient I/O failures absorbed by in-poll retries.  Observability only:
  // a recovered fault never changes the report (and is not checkpointed).
  [[nodiscard]] std::uint64_t IoRetries() const noexcept { return io_retries_; }

  // Checkpoint the reader: the file cursor, then the ingest machine (header
  // repair, accounting, dedup hashes, re-sort buffer).
  void Snapshot(binio::Writer& writer) const {
    writer.PutU64(offset_);
    writer.PutU64(rotations_);
    writer.PutBool(finished_);
    writer.PutBool(seen_file_);
    machine_.Snapshot(writer);
  }

  // Replace this reader's state.  False on a malformed payload; the reader
  // is reset to its initial state, never half-restored.
  [[nodiscard]] bool Restore(binio::Reader& reader) {
    offset_ = reader.GetU64();
    rotations_ = reader.GetU64();
    finished_ = reader.GetBool();
    seen_file_ = reader.GetBool();
    if (machine_.Restore(reader) && reader.Ok()) return true;
    offset_ = 0;
    rotations_ = 0;
    finished_ = false;
    seen_file_ = false;
    return false;
  }

 private:
  // Map the file through the Io seam, absorbing up to retry_.max_attempts-1
  // transient failures.  Failure here means the budget is spent.
  [[nodiscard]] std::optional<MappedFile> MapWithRetry() {
    for (int attempt = 1;; ++attempt) {
      auto mapped = io::Current().MapFile(path_);
      if (mapped) {
        io_retries_ += static_cast<std::uint64_t>(attempt - 1);
        return mapped;
      }
      if (attempt >= std::max(retry_.max_attempts, 1)) return std::nullopt;
      if (sleep_) sleep_(BackoffDelayMs(retry_, attempt));
    }
  }

  std::string path_;
  RetryPolicy retry_;
  SleepFn sleep_;
  std::uint64_t io_retries_ = 0;

  logs::IngestMachine<Record> machine_;
  std::size_t offset_ = 0;
  std::uint64_t rotations_ = 0;
  bool finished_ = false;
  bool seen_file_ = false;
};

}  // namespace astra::stream
