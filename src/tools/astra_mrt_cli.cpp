// astra-mrt — command-line front end for the toolkit.
//
//   astra-mrt simulate --out=DIR [--nodes=N] [--seed=S] [--sensor-stride=MIN]
//                      [--live] [--live-batch=N] [--live-delay-ms=MS]
//       Run a campaign and write the full §2.4-format dataset to DIR.  With
//       --live the failure logs are appended in timestamp order, in batches
//       with a delay between them, so a `watch --follow` can tail them as
//       they grow.
//
//   astra-mrt analyze DIR [--strict|--lenient] [--threads=N]
//                     [--max-malformed=F] [--reorder-window=SECONDS]
//       Ingest a dataset directory (simulated or real) and print the
//       complete reliability report: fault modes, positional verdicts,
//       concentration, monthly series, DUE/FIT, predictor flags.  The node
//       span is the highest node id in the data plus one, so analyze and
//       watch refuse --nodes (exit 1) rather than ignore it.
//
//   astra-mrt watch DIR [--follow] [--poll-ms=MS] [--idle-exit-ms=MS]
//                   [--checkpoint=FILE] [--strict|--lenient]
//                   [--alert-window=SEC] [--alert-fleet-ces=N]
//                   [--alert-node-ces=N] [--retry-max=N] [--retry-base-ms=MS]
//       Stream the dataset through the incremental analyzers.  Without
//       --follow, one pass over the current file contents prints a report
//       byte-identical to `analyze`; with --follow the files are tailed as
//       they grow, alerts stream to stderr, and the final report is printed
//       on exit.  --checkpoint saves resumable pipeline state (crash-safe:
//       fsync + atomic rename; a stale .tmp from a killed run is swept on
//       startup).  Environmental I/O failures — unreadable logs, checkpoint
//       read/write errors, a primary log that has not appeared yet — are
//       retried under exponential backoff: --retry-max bounds the attempts
//       and --retry-base-ms sets the first delay (doubling, jittered,
//       capped at 2s).  Faults that outlive the budget follow the exit-code
//       contract below; degradable ones (e.g. a het_events stream that
//       never appears) are instead reported as data-quality caveats.
//
//   astra-mrt report [--nodes=N] [--seed=S] [--threads=N]
//       Simulate + analyze in memory (no files) and print the report.
//
//   astra-mrt campaign [--grid=FILE] [--trials=N] [--nodes=N] [--seed=S]
//                      [--threads=N] [--json]
//       Run a what-if scenario grid (ECC scheme x fault-rate multiplier x
//       mitigation policy x thermal profile), N seeded trials per cell,
//       entirely in memory, and print per-cell CE/DUE/SDC/FIT means with
//       bootstrap 95% intervals plus deltas against the Astra baseline
//       cell.  Without --grid the default 2x2x2 headline grid runs;
//       --trials/--nodes/--seed override the grid file's values.  Output is
//       byte-identical at any --threads value.
//
//   astra-mrt corrupt DIR --severity=S [--seed=N] [--modes=a,b,...]
//       Deterministically degrade a dataset directory the way field
//       collection does (truncation, duplicates, clock skew, schema
//       drift, ...).  Use it to exercise `analyze` against dirty data.
//
// Analyze/watch ingest policy: lenient by default (quarantine-and-continue,
// with repairs); --strict rejects the dataset once the malformed fraction
// exceeds --max-malformed (default 0.05).
//
// Exit codes: 0 success, 1 bad usage, 2 I/O failure (fatal: persists past
//             the bounded retry budget), 3 dataset rejected by the strict
//             ingest policy.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <thread>

#include "campaign/render.hpp"
#include "campaign/runner.hpp"
#include "core/dataset.hpp"
#include "core/report.hpp"
#include "util/file_io.hpp"
#include "logs/corruption.hpp"
#include "replace/replacement_sim.hpp"
#include "stream/checkpoint.hpp"
#include "stream/monitor.hpp"
#include "util/io_faults.hpp"
#include "util/retry.hpp"
#include "util/strings.hpp"

namespace astra {
namespace {

struct CliOptions {
  int nodes = 6 * kNodesPerRack;
  std::uint64_t seed = 20190120;
  int sensor_stride_minutes = 60;
  unsigned threads = 0;  // 0 = hardware concurrency, 1 = serial pipeline
  std::string out_dir;
  std::string positional;  // first non-flag argument after the command

  // analyze/watch ingest policy
  logs::IngestPolicy policy;
  // corrupt
  double severity = 0.25;
  std::string modes;  // comma-separated subset; empty = all modes
  // simulate --live
  bool live = false;
  int live_batch = 500;
  int live_delay_ms = 25;
  // watch
  bool follow = false;
  int poll_ms = 200;
  int idle_exit_ms = 0;  // 0 = follow forever
  std::string checkpoint;
  std::int64_t alert_window_seconds = 3600;
  std::uint64_t alert_fleet_ces = 0;
  std::uint64_t alert_node_ces = 0;
  // Bounded-backoff budget for environmental I/O failure (watch).  The
  // defaults give up after ~9s of waiting on a log that never appears —
  // generous enough to ride out a slow producer, bounded enough that a
  // wrong path fails loudly instead of hanging forever.
  int retry_max = 10;
  std::int64_t retry_base_ms = 50;
  // campaign
  std::string grid_file;
  bool json = false;
  int trials = 0;  // 0 = grid file / default
  // Flag-given markers: campaign grid files carry their own seed/nodes, and
  // an explicit flag must win over the file, not over the default.  analyze
  // and watch refuse an explicit --nodes.
  bool seed_set = false;
  bool nodes_set = false;

  // First flag whose value failed validation; commands refuse to run on it
  // rather than silently proceeding with a default.
  std::string bad_flag;
};

CliOptions ParseCommon(int argc, char** argv, int first) {
  CliOptions options;
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (StartsWith(arg, "--nodes=")) {
      if (const auto v = ParseInt64(arg.substr(8)); v && *v > 0 && *v <= kNumNodes) {
        options.nodes = static_cast<int>(*v);
        options.nodes_set = true;
      } else if (options.bad_flag.empty()) {
        options.bad_flag = "--nodes expects an integer in [1, " +
                           std::to_string(kNumNodes) + "]";
      }
    } else if (StartsWith(arg, "--seed=")) {
      if (const auto v = ParseUint64(arg.substr(7))) {
        options.seed = *v;
        options.seed_set = true;
      } else if (options.bad_flag.empty()) {
        options.bad_flag = "--seed expects an unsigned integer";
      }
    } else if (StartsWith(arg, "--sensor-stride=")) {
      if (const auto v = ParseInt64(arg.substr(16)); v && *v > 0) {
        options.sensor_stride_minutes = static_cast<int>(*v);
      } else if (options.bad_flag.empty()) {
        options.bad_flag = "--sensor-stride expects a positive minute count";
      }
    } else if (StartsWith(arg, "--threads=")) {
      if (const auto v = ParseInt64(arg.substr(10)); v && *v > 0 && *v <= 1024) {
        options.threads = static_cast<unsigned>(*v);
      } else if (options.bad_flag.empty()) {
        options.bad_flag = "--threads expects a positive thread count";
      }
    } else if (StartsWith(arg, "--out=")) {
      options.out_dir = std::string(arg.substr(6));
    } else if (arg == "--strict") {
      options.policy.mode = logs::IngestPolicy::Mode::kStrict;
    } else if (arg == "--lenient") {
      options.policy.mode = logs::IngestPolicy::Mode::kLenient;
    } else if (StartsWith(arg, "--max-malformed=")) {
      if (const auto v = ParseDouble(arg.substr(16)); v && *v >= 0.0 && *v <= 1.0) {
        options.policy.max_malformed_fraction = *v;
      } else if (options.bad_flag.empty()) {
        options.bad_flag = "--max-malformed expects a fraction in [0, 1]";
      }
    } else if (StartsWith(arg, "--reorder-window=")) {
      if (const auto v = ParseInt64(arg.substr(17)); v && *v >= 0) {
        options.policy.reorder_window_seconds = *v;
      } else if (options.bad_flag.empty()) {
        options.bad_flag = "--reorder-window expects a non-negative second count";
      }
    } else if (StartsWith(arg, "--severity=")) {
      if (const auto v = ParseDouble(arg.substr(11)); v && *v >= 0.0 && *v <= 1.0) {
        options.severity = *v;
      } else if (options.bad_flag.empty()) {
        options.bad_flag = "--severity expects a fraction in [0, 1]";
      }
    } else if (StartsWith(arg, "--modes=")) {
      options.modes = std::string(arg.substr(8));
    } else if (arg == "--live") {
      options.live = true;
    } else if (StartsWith(arg, "--live-batch=")) {
      if (const auto v = ParseInt64(arg.substr(13)); v && *v > 0) {
        options.live_batch = static_cast<int>(*v);
      } else if (options.bad_flag.empty()) {
        options.bad_flag = "--live-batch expects a positive record count";
      }
    } else if (StartsWith(arg, "--live-delay-ms=")) {
      if (const auto v = ParseInt64(arg.substr(16)); v && *v >= 0) {
        options.live_delay_ms = static_cast<int>(*v);
      } else if (options.bad_flag.empty()) {
        options.bad_flag = "--live-delay-ms expects a non-negative millisecond count";
      }
    } else if (arg == "--follow") {
      options.follow = true;
    } else if (StartsWith(arg, "--poll-ms=")) {
      if (const auto v = ParseInt64(arg.substr(10)); v && *v > 0) {
        options.poll_ms = static_cast<int>(*v);
      } else if (options.bad_flag.empty()) {
        options.bad_flag = "--poll-ms expects a positive millisecond count";
      }
    } else if (StartsWith(arg, "--idle-exit-ms=")) {
      if (const auto v = ParseInt64(arg.substr(15)); v && *v >= 0) {
        options.idle_exit_ms = static_cast<int>(*v);
      } else if (options.bad_flag.empty()) {
        options.bad_flag = "--idle-exit-ms expects a non-negative millisecond count";
      }
    } else if (StartsWith(arg, "--checkpoint=")) {
      options.checkpoint = std::string(arg.substr(13));
    } else if (StartsWith(arg, "--retry-max=")) {
      if (const auto v = ParseInt64(arg.substr(12)); v && *v > 0 && *v <= 100) {
        options.retry_max = static_cast<int>(*v);
      } else if (options.bad_flag.empty()) {
        options.bad_flag = "--retry-max expects an attempt count in [1, 100]";
      }
    } else if (StartsWith(arg, "--retry-base-ms=")) {
      if (const auto v = ParseInt64(arg.substr(16)); v && *v >= 0) {
        options.retry_base_ms = *v;
      } else if (options.bad_flag.empty()) {
        options.bad_flag = "--retry-base-ms expects a non-negative millisecond count";
      }
    } else if (StartsWith(arg, "--alert-window=")) {
      if (const auto v = ParseInt64(arg.substr(15)); v && *v > 0) {
        options.alert_window_seconds = *v;
      } else if (options.bad_flag.empty()) {
        options.bad_flag = "--alert-window expects a positive second count";
      }
    } else if (StartsWith(arg, "--alert-fleet-ces=")) {
      if (const auto v = ParseUint64(arg.substr(18)); v && *v > 0) {
        options.alert_fleet_ces = *v;
      } else if (options.bad_flag.empty()) {
        options.bad_flag = "--alert-fleet-ces expects a positive CE count";
      }
    } else if (StartsWith(arg, "--alert-node-ces=")) {
      if (const auto v = ParseUint64(arg.substr(17)); v && *v > 0) {
        options.alert_node_ces = *v;
      } else if (options.bad_flag.empty()) {
        options.bad_flag = "--alert-node-ces expects a positive CE count";
      }
    } else if (StartsWith(arg, "--grid=")) {
      options.grid_file = std::string(arg.substr(7));
    } else if (arg == "--json") {
      options.json = true;
    } else if (StartsWith(arg, "--trials=")) {
      if (const auto v = ParseInt64(arg.substr(9)); v && *v > 0 && *v <= 10'000) {
        options.trials = static_cast<int>(*v);
      } else if (options.bad_flag.empty()) {
        options.bad_flag = "--trials expects a trial count in [1, 10000]";
      }
    } else if (StartsWith(arg, "--")) {
      // A misspelled flag silently falling through to defaults is how a
      // what-if campaign quietly runs the wrong scenario; refuse instead.
      if (options.bad_flag.empty()) {
        options.bad_flag = "unknown flag '" + std::string(arg) +
                           "' (see `astra-mrt help`)";
      }
    } else if (options.positional.empty()) {
      options.positional = std::string(arg);
    }
  }
  return options;
}

void PrintUsage() {
  std::cout <<
      "astra-mrt — Astra Memory Reliability Toolkit\n"
      "\n"
      "usage:\n"
      "  astra-mrt simulate --out=DIR [--nodes=N] [--seed=S] [--sensor-stride=MIN]\n"
      "                     [--live] [--live-batch=N] [--live-delay-ms=MS]\n"
      "  astra-mrt analyze DIR [--strict|--lenient] [--threads=N]\n"
      "                    [--max-malformed=F] [--reorder-window=SECONDS]\n"
      "  astra-mrt watch DIR [--follow] [--poll-ms=MS] [--idle-exit-ms=MS]\n"
      "                  [--checkpoint=FILE] [--strict|--lenient]\n"
      "                  [--alert-window=SEC] [--alert-fleet-ces=N] [--alert-node-ces=N]\n"
      "                  [--retry-max=N] [--retry-base-ms=MS]\n"
      "  astra-mrt report [--nodes=N] [--seed=S] [--threads=N]\n"
      "  astra-mrt campaign [--grid=FILE] [--trials=N] [--nodes=N] [--seed=S]\n"
      "                     [--threads=N] [--json]\n"
      "  astra-mrt corrupt DIR --severity=S [--seed=N] [--modes=a,b,...]\n"
      "\n"
      "campaign grid file: key=value lines; axes `ecc` (secded, chipkill,\n"
      "  ondie), `rate` (positive multipliers), `policy` (astra, none,\n"
      "  aggressive), `thermal` (astra, cool, hot) as comma-separated lists;\n"
      "  scalars `trials`, `nodes`, `seed`.  `#` starts a comment.\n"
      "\n"
      "corruption modes: ";
  for (int m = 0; m < logs::kCorruptionModeCount; ++m) {
    std::cout << (m == 0 ? "" : ", ")
              << logs::CorruptionModeName(static_cast<logs::CorruptionMode>(m));
  }
  std::cout << "\n";
}

// Append the failure logs in timestamp order, a batch at a time with a flush
// and a pause between batches — a deterministic stand-in for a fleet's
// telemetry daemons, for exercising `watch --follow` against growing files.
int LiveAppendFailureData(const core::DatasetPaths& paths,
                          const faultsim::CampaignResult& campaign,
                          int batch_size, int delay_ms) {
  logs::LogFileWriter<logs::MemoryErrorRecord> errors(paths.memory_errors);
  logs::LogFileWriter<logs::HetRecord> het(paths.het_events);
  if (!errors.Ok() || !het.Ok()) return 2;

  const auto& memory = campaign.memory_errors;
  const auto& hets = campaign.het_records;
  std::size_t mi = 0;
  std::size_t hi = 0;
  int in_batch = 0;
  while (mi < memory.size() || hi < hets.size()) {
    const bool take_memory =
        hi >= hets.size() ||
        (mi < memory.size() && memory[mi].timestamp <= hets[hi].timestamp);
    if (take_memory) {
      errors.Append(memory[mi++]);
    } else {
      het.Append(hets[hi++]);
    }
    if (++in_batch >= batch_size) {
      in_batch = 0;
      errors.Flush();
      het.Flush();
      if (!errors.Ok() || !het.Ok()) return 2;
      if (delay_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      }
    }
  }
  return errors.Finish() && het.Finish() ? 0 : 2;
}

int CmdSimulate(const CliOptions& options) {
  if (options.out_dir.empty()) {
    std::cerr << "simulate: --out=DIR is required\n";
    return 1;
  }
  std::filesystem::create_directories(options.out_dir);
  const auto paths = core::DatasetPaths::InDirectory(options.out_dir);

  faultsim::CampaignConfig config;
  config.SeedFrom(options.seed);
  config.node_count = options.nodes;
  std::cerr << "simulating " << options.nodes << " nodes (seed " << options.seed
            << ") ...\n";
  const auto campaign = faultsim::FleetSimulator(config).Run();

  const sensors::Environment environment;
  auto replacement_config = replace::ReplacementSimConfig::AstraDefaults();
  replacement_config.seed = options.seed;
  replacement_config.node_count = options.nodes;
  const replace::ReplacementSimulator replacements(replacement_config);
  const auto replacement_campaign = replacements.Run();

  core::SensorDumpOptions sensor_options;
  sensor_options.stride_minutes = options.sensor_stride_minutes;
  sensor_options.node_limit = std::min(options.nodes, 64);
  // The slow-growing failure logs go last in live mode, so a watcher sees
  // the static streams complete before the tailed ones start growing.
  if (!core::WriteSensorData(paths, environment, config.window, options.nodes,
                             sensor_options) ||
      !core::WriteInventoryData(paths, replacements, replacement_campaign, 7)) {
    std::cerr << "simulate: failed writing dataset to " << options.out_dir << '\n';
    return 2;
  }
  if (options.live) {
    std::cerr << "appending failure logs live (batch " << options.live_batch
              << ", delay " << options.live_delay_ms << "ms) ...\n";
    if (LiveAppendFailureData(paths, campaign, options.live_batch,
                              options.live_delay_ms) != 0) {
      std::cerr << "simulate: failed writing dataset to " << options.out_dir << '\n';
      return 2;
    }
  } else if (!core::WriteFailureData(paths, campaign)) {
    std::cerr << "simulate: failed writing dataset to " << options.out_dir << '\n';
    return 2;
  }
  std::cerr << "wrote " << WithThousands(campaign.memory_errors.size())
            << " memory error records to " << options.out_dir << '\n';
  return 0;
}

int CmdAnalyze(const CliOptions& options) {
  if (options.positional.empty()) {
    std::cerr << "analyze: dataset directory required\n";
    return 1;
  }
  const auto paths = core::DatasetPaths::InDirectory(options.positional);
  const auto ingest = core::IngestFailureData(paths, options.policy, options.threads);
  if (ingest.status == core::DatasetStatus::kMissingPrimary) {
    std::cerr << "analyze: cannot read " << paths.memory_errors << '\n';
    return 2;
  }

  // Ingest accounting is printed before anything else, even when every line
  // parsed — "0 quarantined" is a claim the reader should get to see.
  core::RenderIngestReport(std::cout, options.policy, ingest.memory_report,
                           ingest.het_missing ? nullptr : &ingest.het_report);

  if (ingest.status == core::DatasetStatus::kRejected) {
    std::cerr << "analyze: dataset rejected by strict ingest policy "
                 "(malformed fraction exceeds "
              << FormatDouble(100.0 * options.policy.max_malformed_fraction, 1)
              << "% budget); rerun with --lenient to quarantine and continue\n";
    return 3;
  }

  if (ingest.memory_errors.empty()) {
    // Nothing usable survived (e.g. missing-data corruption at full severity).
    // An empty dataset is a degenerate but valid lenient outcome: report it
    // instead of inferring a time window from no records.
    core::RenderEmptyDatasetReport(std::cout, ingest.quality);
    return 0;
  }

  // Infer span and window from the data itself.
  NodeId max_node = 0;
  SimTime lo = ingest.memory_errors.front().timestamp;
  SimTime hi = lo;
  for (const auto& r : ingest.memory_errors) {
    max_node = std::max(max_node, r.node);
    lo = std::min(lo, r.timestamp);
    hi = std::max(hi, r.timestamp);
  }
  SimTime het_start = hi;
  for (const auto& r : ingest.het_events) {
    het_start = std::min(het_start, r.timestamp);
  }
  const auto artifacts = core::BuildAnalysisArtifacts(
      ingest.memory_errors, ingest.het_events, max_node + 1,
      {lo, hi.AddSeconds(1)}, het_start, &ingest.quality, options.threads);
  core::RenderAnalysisReport(std::cout, artifacts);
  return 0;
}

int CmdWatch(const CliOptions& options) {
  if (options.positional.empty()) {
    std::cerr << "watch: dataset directory required\n";
    return 1;
  }
  const auto paths = core::DatasetPaths::InDirectory(options.positional);

  // One backoff budget governs every environmental retry in this command:
  // in-poll map retries (back-to-back — the poll/probe cadence paces them),
  // checkpoint reads/writes, and waiting for the primary log to appear.
  RetryPolicy retry;
  retry.max_attempts = options.retry_max;
  retry.base_delay_ms = options.retry_base_ms;
  retry.seed = options.seed;

  stream::MonitorConfig config;
  config.policy = options.policy;
  config.alerts.window_seconds = options.alert_window_seconds;
  config.alerts.fleet_ce_threshold = options.alert_fleet_ces;
  config.alerts.node_ce_threshold = options.alert_node_ces;
  config.io_retry = retry;
  stream::StreamMonitor monitor(paths, config);

  if (!options.checkpoint.empty()) {
    // A crash mid-save can leave a torn `.tmp` sidecar; sweep it before the
    // first save would otherwise silently overwrite it.
    if (!stream::RemoveStaleCheckpointTmp(options.checkpoint)) {
      std::cerr << "watch: cannot remove stale checkpoint tmp "
                << options.checkpoint << ".tmp\n";
      return 2;
    }
    if (std::filesystem::exists(options.checkpoint)) {
      const auto status = stream::RestoreMonitorCheckpoint(
          monitor, options.checkpoint, retry, ThreadSleeper());
      if (status != stream::CheckpointStatus::kOk) {
        std::cerr << "watch: checkpoint rejected ("
                  << stream::CheckpointStatusMessage(status) << "): "
                  << options.checkpoint << '\n';
        return 2;
      }
      std::cerr << "watch: resumed from " << options.checkpoint << " ("
                << WithThousands(monitor.Delivered())
                << " records already seen)\n";
    }
  }

  // Alerts stream to stderr as they fire, so the report on stdout stays
  // byte-identical to `analyze` over the same records.
  const auto emit_alerts = [&monitor] {
    for (const auto& alert : monitor.DrainAlerts()) {
      std::cerr << alert.Message() << '\n';
    }
  };
  const auto save_checkpoint = [&]() -> bool {
    if (options.checkpoint.empty()) return true;
    const auto status = stream::SaveMonitorCheckpoint(
        monitor, options.checkpoint, retry, ThreadSleeper());
    if (status != stream::CheckpointStatus::kOk) {
      std::cerr << "watch: cannot write checkpoint " << options.checkpoint
                << '\n';
      return false;
    }
    return true;
  };

  if (options.follow) {
    // Tail the logs until nothing new arrives for --idle-exit-ms (or forever
    // when 0), checkpointing after every productive poll.  A primary log
    // that has never been readable is waited for under bounded backoff
    // instead of the fixed poll interval: the gaps grow until --retry-max
    // consecutive misses, then the watch gives up with the documented I/O
    // failure exit code rather than spinning forever on a wrong path.
    int idle_ms = 0;
    int missing_attempts = 0;
    const auto sleeper = ThreadSleeper();
    while (true) {
      const auto status = monitor.Poll();
      emit_alerts();
      if (status == stream::MonitorStatus::kRejected) break;
      if (status == stream::MonitorStatus::kMissingPrimary) {
        ++missing_attempts;
        if (missing_attempts >= options.retry_max) {
          std::cerr << "watch: cannot read " << paths.memory_errors << " after "
                    << missing_attempts << " attempts\n";
          return 2;
        }
        sleeper(BackoffDelayMs(retry, missing_attempts));
        continue;
      }
      missing_attempts = 0;
      if (status == stream::MonitorStatus::kAdvanced) {
        idle_ms = 0;
        if (!save_checkpoint()) return 2;
      } else {
        idle_ms += options.poll_ms;
        if (options.idle_exit_ms > 0 && idle_ms >= options.idle_exit_ms) break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(options.poll_ms));
    }
  } else {
    // Single pass: give a primary log that has not appeared yet (slow
    // producer, racing mount) the same bounded-backoff grace before the
    // final batch-equivalent sweep decides it is fatally unreadable.
    const auto sleeper = ThreadSleeper();
    for (int attempt = 1; attempt < options.retry_max &&
                          !io::Current().FileSize(paths.memory_errors).has_value();
         ++attempt) {
      sleeper(BackoffDelayMs(retry, attempt));
    }
  }

  const auto final_status = monitor.Finish();
  emit_alerts();
  if (final_status == stream::MonitorStatus::kMissingPrimary) {
    std::cerr << "watch: cannot read " << paths.memory_errors << '\n';
    return 2;
  }
  core::RenderIngestReport(std::cout, options.policy, monitor.MemoryReport(),
                           monitor.HetMissing() ? nullptr : &monitor.HetReport());
  if (final_status == stream::MonitorStatus::kRejected) {
    std::cerr << "watch: dataset rejected by strict ingest policy "
                 "(malformed fraction exceeds "
              << FormatDouble(100.0 * options.policy.max_malformed_fraction, 1)
              << "% budget); rerun with --lenient to quarantine and continue\n";
    return 3;
  }
  if (monitor.Delivered() == 0) {
    core::RenderEmptyDatasetReport(std::cout, monitor.Quality());
    return save_checkpoint() ? 0 : 2;
  }
  core::RenderAnalysisReport(std::cout, monitor.Artifacts());
  return save_checkpoint() ? 0 : 2;
}

int CmdCorrupt(const CliOptions& options) {
  if (options.positional.empty()) {
    std::cerr << "corrupt: dataset directory required\n";
    return 1;
  }
  if (!std::filesystem::is_directory(options.positional)) {
    std::cerr << "corrupt: not a directory: " << options.positional << '\n';
    return 2;
  }

  logs::CorruptionConfig config;
  config.seed = options.seed;
  if (options.modes.empty()) {
    config.SetAll(options.severity);
  } else {
    for (const auto name : SplitView(options.modes, ',')) {
      const auto mode = logs::CorruptionModeFromName(TrimView(name));
      if (!mode) {
        std::cerr << "corrupt: unknown mode '" << std::string(TrimView(name))
                  << "' (see `astra-mrt help` for the list)\n";
        return 1;
      }
      config.Set(*mode, options.severity);
    }
  }

  logs::CorruptionInjector injector(config);
  const auto report = injector.CorruptDirectory(options.positional);
  if (!report) {
    std::cerr << "corrupt: failed rewriting files in " << options.positional << '\n';
    return 2;
  }
  std::cout << "corrupted " << options.positional << " (seed " << options.seed
            << ", severity " << FormatDouble(options.severity, 2) << ")\n";
  for (int m = 0; m < logs::kCorruptionModeCount; ++m) {
    const auto mode = static_cast<logs::CorruptionMode>(m);
    if (report->AffectedBy(mode) == 0) continue;
    std::cout << "  " << logs::CorruptionModeName(mode) << ": "
              << WithThousands(report->AffectedBy(mode)) << " lines\n";
  }
  std::cout << "  files damaged: " << report->files_corrupted
            << "  files dropped: " << report->files_dropped
            << "  bytes chopped: " << WithThousands(report->bytes_chopped) << '\n';
  for (const auto& action : report->actions) {
    std::cout << "  " << action << '\n';
  }
  return 0;
}

int CmdReport(const CliOptions& options) {
  faultsim::CampaignConfig config;
  config.SeedFrom(options.seed);
  config.node_count = options.nodes;
  const auto campaign = faultsim::FleetSimulator(config).Run();
  const auto artifacts =
      core::AnalyzeCampaignResult(campaign, config, options.threads);
  core::RenderAnalysisReport(std::cout, artifacts);
  return 0;
}

int CmdCampaign(const CliOptions& options) {
  campaign::ScenarioGrid grid;
  if (!options.grid_file.empty()) {
    const auto bytes = ReadFileBytes(options.grid_file);
    if (!bytes) {
      std::cerr << "campaign: cannot read " << options.grid_file << '\n';
      return 2;
    }
    std::string error;
    auto parsed = campaign::ParseScenarioGrid(*bytes, &error);
    if (!parsed) {
      std::cerr << "campaign: " << options.grid_file << ": " << error << '\n';
      return 1;
    }
    grid = std::move(*parsed);
  }
  // Explicit flags override the grid file; defaults never do.
  if (options.trials > 0) grid.trials = options.trials;
  if (options.nodes_set) grid.node_count = options.nodes;
  if (options.seed_set) grid.seed = options.seed;

  std::cerr << "campaign: " << grid.CellCount() << " cells x " << grid.trials
            << " trials over " << grid.node_count << " nodes each ...\n";
  const campaign::CampaignTable table =
      campaign::RunCampaign(grid, options.threads);
  std::cout << (options.json ? campaign::RenderCampaignJson(table)
                             : campaign::RenderCampaignText(table));
  return 0;
}

}  // namespace
}  // namespace astra

int main(int argc, char** argv) {
  if (argc < 2) {
    astra::PrintUsage();
    return 1;
  }
  const std::string_view command = argv[1];
  astra::CliOptions options = astra::ParseCommon(argc, argv, 2);
  if ((command == "analyze" || command == "watch") && options.nodes_set &&
      options.bad_flag.empty()) {
    options.bad_flag =
        "--nodes is not accepted: the node span comes from the data "
        "(highest node id + 1)";
  }
  if (!options.bad_flag.empty()) {
    std::cerr << command << ": " << options.bad_flag << "\n";
    return 1;
  }
  if (command == "simulate") return astra::CmdSimulate(options);
  if (command == "analyze") return astra::CmdAnalyze(options);
  if (command == "watch") return astra::CmdWatch(options);
  if (command == "report") return astra::CmdReport(options);
  if (command == "campaign") return astra::CmdCampaign(options);
  if (command == "corrupt") return astra::CmdCorrupt(options);
  if (command == "help" || command == "--help") {
    astra::PrintUsage();
    return 0;
  }
  std::cerr << "unknown command: " << command << "\n\n";
  astra::PrintUsage();
  return 1;
}
