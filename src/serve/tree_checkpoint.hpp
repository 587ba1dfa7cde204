// Tree checkpoints: the daemon's whole state as per-node ASTRACKP
// monitor checkpoints (stream/checkpoint.hpp, unchanged format) under ONE
// manifest that makes the set atomic.
//
// Save protocol for generation G:
//   1. every node monitor -> <dir>/node-XXXX.g<G>.ckp (each file is itself
//      tmp+fsync+rename atomic);
//   2. the manifest -> <dir>/manifest.ckp LAST, same durability protocol.
// The manifest names generation G's files, so a crash anywhere before step
// 2 completes leaves the previous manifest — and therefore the previous
// CONSISTENT generation — in force; the half-written G files are inert and
// swept by the next successful save.  Restore trusts only the manifest.
//
// Manifest envelope (all integers little-endian):
//   offset  size  field
//   0       8     magic "ASTRASRV"
//   8       4     format version (currently 1)
//   12      8     payload length in bytes
//   20      4     CRC-32 of the payload bytes
//   24      n     payload: u64 generation, u32 racks, u32 nodes_per_rack,
//                 u64 file count, then length-prefixed file names (relative
//                 to the manifest's directory, node index order)
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "serve/topology.hpp"
#include "stream/checkpoint.hpp"

namespace astra::serve {

inline constexpr std::string_view kManifestMagic = "ASTRASRV";
inline constexpr std::uint32_t kManifestVersion = 1;
inline constexpr std::string_view kManifestFileName = "manifest.ckp";

struct TreeManifest {
  std::uint64_t generation = 0;
  ServeTopology topology;
  std::vector<std::string> node_files;  // node index order, dir-relative
};

// "node-0007.g12.ckp" — node `node_index`'s checkpoint file in generation
// `generation`.
[[nodiscard]] std::string NodeCheckpointName(int node_index,
                                             std::uint64_t generation);

// Write `manifest` to `dir`/manifest.ckp atomically and durably (tmp +
// fsync + rename + dir fsync), retrying each I/O step under `retry`.
[[nodiscard]] stream::CheckpointStatus SaveTreeManifest(
    const TreeManifest& manifest, const std::string& dir,
    const RetryPolicy& retry, const SleepFn& sleep = {});

// Read and validate `dir`/manifest.ckp.  Statuses mirror the monitor
// checkpoint's: environmental failures (kIoError/kTruncated/kBadCrc) are
// retried, structural rejections are not.  On any non-kOk status `manifest`
// is reset to a default-constructed state.
[[nodiscard]] stream::CheckpointStatus LoadTreeManifest(
    TreeManifest& manifest, const std::string& dir, const RetryPolicy& retry,
    const SleepFn& sleep = {});

// Delete checkpoint files in `dir` that belong to generations other than
// `keep_generation` (the one the freshly durable manifest names).  Best
// effort: returns the number of files removed; files that cannot be listed
// or removed are left for the next sweep.
std::size_t SweepStaleGenerations(const std::string& dir,
                                  std::uint64_t keep_generation);

}  // namespace astra::serve
