// Durable checkpoints for the streaming monitor.
//
// On-disk layout (all integers little-endian):
//
//   offset  size  field
//   0       8     magic  "ASTRACKP"
//   8       4     format version (currently 3)
//   12      8     payload length in bytes
//   20      4     CRC-32 of the payload bytes
//   24      n     payload: StreamMonitor::Snapshot bytes (reader cursors
//                 followed by each engine's Snapshot in fixed order)
//
// Version history:
//   1 — per-analyzer stream-wrapper state (pre-engine); the coalescer
//       carried no monthly bins and the predictor state lived in a separate
//       het-record side buffer.
//   2 — unified engine snapshots (core/engine.hpp): absolute-calendar-month
//       bins in the coalesce and temporal engines, het records buffered
//       inside the uncorrectable engine.
//   3 — each reader is its file cursor followed by its IngestMachine
//       snapshot (logs/ingest_machine.hpp); repair log strings are no
//       longer stored (they are derived from the counters) and the report
//       gained the columns-reordered bit.
// Payloads of any other version are laid out differently and are rejected
// with kBadVersion, never half-decoded.
//
// Writes are atomic AND durable: the envelope is written to a `.tmp`
// sidecar, the sidecar is fsync'd, renamed over the target, and the parent
// directory is fsync'd so the rename itself survives power loss.  A crash at
// any point leaves either the previous checkpoint intact or the new one
// fully in place — never a torn target.  A torn `.tmp` left by a crash is
// inert (restores never look at it) and is swept by
// RemoveStaleCheckpointTmp on startup.
//
// Restores are paranoid: a file that is unreadable, short, mislabelled,
// version-skewed, checksum-mismatched or semantically malformed is REJECTED
// with a specific status — the monitor is left in its freshly-constructed
// state and the caller decides whether to start over or abort.  A checkpoint
// is a same-build resume artifact (see binio.hpp); version bumps are the
// compatibility mechanism.
//
// Both Save and Restore take an optional RetryPolicy: environmental
// failures (kIoError on either side, kTruncated/kBadCrc on restore — the
// signatures of reading a file mid-replacement) are retried under bounded
// backoff before the status is surfaced.  Structural rejections (bad magic,
// bad version, bad payload) are never retried — re-reading cannot fix them.
// The two-argument forms are fail-fast (single attempt), preserving the
// historical semantics for tests that probe damaged files.
#pragma once

#include <string>
#include <string_view>

#include "stream/monitor.hpp"
#include "util/retry.hpp"
#include "util/thread_annotations.hpp"

namespace astra::stream {

inline constexpr std::string_view kCheckpointMagic = "ASTRACKP";
inline constexpr std::uint32_t kCheckpointVersion = 3;

enum class CheckpointStatus {
  kOk,
  kIoError,     // cannot read/write the file
  kBadMagic,    // not a checkpoint file
  kBadVersion,  // produced by an incompatible format version
  kTruncated,   // shorter than the envelope or the declared payload
  kBadCrc,      // payload bytes do not match the stored checksum
  kBadPayload,  // envelope intact but the state inside failed to decode
};

[[nodiscard]] std::string_view CheckpointStatusMessage(CheckpointStatus status);

// Serialize `monitor` to `path` atomically and durably (tmp + fsync +
// rename + dir fsync), retrying each I/O step under `retry`.
[[nodiscard]] CheckpointStatus SaveMonitorCheckpoint(const StreamMonitor& monitor,
                                                     const std::string& path,
                                                     const RetryPolicy& retry,
                                                     const SleepFn& sleep = {})
    ASTRA_BLOCKING;

// Fail-fast save: single attempt per step, same durability protocol.
[[nodiscard]] CheckpointStatus SaveMonitorCheckpoint(const StreamMonitor& monitor,
                                                     const std::string& path)
    ASTRA_BLOCKING;

// Replace `monitor`'s state from `path`, retrying environmental failures
// (kIoError/kTruncated/kBadCrc) under `retry`.  On any non-kOk status the
// monitor is reset to a fresh start, never half-restored.
[[nodiscard]] CheckpointStatus RestoreMonitorCheckpoint(StreamMonitor& monitor,
                                                        const std::string& path,
                                                        const RetryPolicy& retry,
                                                        const SleepFn& sleep = {})
    ASTRA_BLOCKING;

// Fail-fast restore: single attempt.
[[nodiscard]] CheckpointStatus RestoreMonitorCheckpoint(StreamMonitor& monitor,
                                                        const std::string& path)
    ASTRA_BLOCKING;

// Sweep the `.tmp` sidecar a crashed save may have left next to `path`.
// Returns false only when a sidecar exists and cannot be removed; a missing
// sidecar is success.  Call once on startup before the first save.
[[nodiscard]] bool RemoveStaleCheckpointTmp(const std::string& path);

}  // namespace astra::stream
