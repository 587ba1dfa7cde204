// ServeDaemon end to end in-process: init validation, drain parity against
// the one-stream oracle, report routing and bounds, stats, the HTTP handler
// surface, live serving to quiescence, and checkpoint/restore across
// daemon instances.
#include "serve/daemon.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/dataset.hpp"
#include "core/engine.hpp"
#include "core/report.hpp"
#include "faultsim/fleet.hpp"
#include "serve/fleet_dataset.hpp"
#include "util/file_io.hpp"

namespace astra::serve {
namespace {

// A small deterministic campaign shared by the suite: 8 simulated node ids
// folded onto a 2x2 serving topology.
const faultsim::CampaignResult& Campaign() {
  static const faultsim::CampaignResult result = [] {
    faultsim::CampaignConfig config;
    config.seed = 20190914;
    config.node_count = 8;
    config.SeedFrom(config.seed);
    return faultsim::FleetSimulator(config).Run();
  }();
  return result;
}

class ServeDaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = ::testing::TempDir() + "astra_serve_daemon_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(base_);
    std::filesystem::create_directories(base_);
    topology_ = ServeTopology{2, 2};
    root_ = base_ + "/fleet";
    ASSERT_TRUE(WriteFleetDataset(Campaign(), root_, topology_));
  }
  void TearDown() override { std::filesystem::remove_all(base_); }

  [[nodiscard]] ServeOptions BaseOptions() const {
    ServeOptions options;
    options.root = root_;
    options.topology = topology_;
    options.monitor.alerts.window_seconds = 3600;
    options.monitor.alerts.fleet_ce_threshold = 4;
    options.retry = RetryPolicy::None();
    return options;
  }

  // The parity oracle: one monitor over the concatenated logs, rendered
  // through the same merge-tree path the daemon uses.
  [[nodiscard]] std::string OracleReport(const ServeOptions& options) {
    const std::string dir = base_ + "/combined";
    EXPECT_TRUE(WriteCombinedDataset(Campaign(), dir));
    stream::StreamMonitor monitor(core::DatasetPaths::InDirectory(dir),
                                  options.monitor);
    EXPECT_NE(monitor.Finish(), stream::MonitorStatus::kMissingPrimary);
    std::vector<NodeSample> sample;
    sample.push_back(SampleMonitor(monitor));
    core::EngineSetConfig engine_config;
    engine_config.predictor = options.monitor.predictor;
    const auto view =
        MergeSamples(engine_config, options.monitor.alerts, sample);
    EXPECT_TRUE(view.has_value());
    std::ostringstream out;
    if (view) RenderMergedReport(out, options.monitor.policy, *view);
    return out.str();
  }

  std::string base_;
  std::string root_;
  ServeTopology topology_;
};

TEST_F(ServeDaemonTest, InitRejectsInvalidOptionsWithADiagnostic) {
  ServeOptions bad_topology = BaseOptions();
  bad_topology.topology = ServeTopology{0, 2};
  std::string error;
  EXPECT_FALSE(ServeDaemon(bad_topology).Init(&error));
  EXPECT_EQ(error, "invalid topology");

  ServeOptions no_root = BaseOptions();
  no_root.root.clear();
  EXPECT_FALSE(ServeDaemon(no_root).Init(&error));
  EXPECT_EQ(error, "serve root directory required");
}

TEST_F(ServeDaemonTest, DrainedFleetReportMatchesTheOneStreamOracle) {
  ServeDaemon daemon(BaseOptions());
  std::string error;
  ASSERT_TRUE(daemon.Init(&error)) << error;
  EXPECT_FALSE(daemon.Ready());
  EXPECT_EQ(daemon.Drain(), 0u);  // every node dir exists and is readable
  EXPECT_TRUE(daemon.Ready());
  EXPECT_TRUE(daemon.Quiesced());
  EXPECT_EQ(daemon.FleetReport(), OracleReport(BaseOptions()));
}

// `analyze DIR` at its defaults, rendered the way the CLI renders it.
std::string AnalyzeReport(const std::string& dir) {
  const logs::IngestPolicy policy;
  const auto ingest =
      core::IngestFailureData(core::DatasetPaths::InDirectory(dir), policy, 1);
  std::ostringstream out;
  core::RenderIngestReport(out, policy, ingest.memory_report,
                           ingest.het_missing ? nullptr : &ingest.het_report);
  EXPECT_FALSE(ingest.memory_errors.empty());
  if (ingest.memory_errors.empty()) return out.str();
  NodeId max_node = 0;
  SimTime lo = ingest.memory_errors.front().timestamp;
  SimTime hi = lo;
  for (const auto& r : ingest.memory_errors) {
    max_node = std::max(max_node, r.node);
    lo = std::min(lo, r.timestamp);
    hi = std::max(hi, r.timestamp);
  }
  SimTime het_start = hi;
  for (const auto& r : ingest.het_events) het_start = std::min(het_start, r.timestamp);
  core::RenderAnalysisReport(
      out, core::BuildAnalysisArtifacts(ingest.memory_errors, ingest.het_events,
                                        max_node + 1, {lo, hi.AddSeconds(1)},
                                        het_start, &ingest.quality, 1));
  return out.str();
}

TEST_F(ServeDaemonTest, DrainedFleetReportWithDuplicatesOnSeveralNodesMatchesAnalyze) {
  // Re-log the first record of every node as an exact duplicate, so several
  // node streams each drop duplicates.  The fleet report must sum them into
  // the one repair line `analyze` prints over the combined logs.
  faultsim::CampaignResult campaign = Campaign();
  std::vector<NodeId> duplicated_nodes;
  for (const auto& record : Campaign().memory_errors) {
    if (std::find(duplicated_nodes.begin(), duplicated_nodes.end(), record.node) ==
        duplicated_nodes.end()) {
      duplicated_nodes.push_back(record.node);
      campaign.memory_errors.push_back(record);
    }
  }
  ASSERT_GE(duplicated_nodes.size(), 2u);
  const std::string root = base_ + "/dup_fleet";
  const std::string combined = base_ + "/dup_combined";
  ASSERT_TRUE(WriteFleetDataset(campaign, root, topology_));
  ASSERT_TRUE(WriteCombinedDataset(campaign, combined));

  ServeOptions options = BaseOptions();
  options.root = root;
  ServeDaemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.Init(&error)) << error;
  EXPECT_EQ(daemon.Drain(), 0u);
  const std::string report = daemon.FleetReport();
  EXPECT_EQ(report, AnalyzeReport(combined));
  std::size_t dedup_lines = 0;
  for (std::size_t at = report.find("repair: dropped"); at != std::string::npos;
       at = report.find("repair: dropped", at + 1)) {
    ++dedup_lines;
  }
  EXPECT_EQ(dedup_lines, 1u) << report;
}

TEST_F(ServeDaemonTest, RackAndNodeReportsAreBoundsChecked) {
  ServeDaemon daemon(BaseOptions());
  std::string error;
  ASSERT_TRUE(daemon.Init(&error)) << error;
  daemon.PollAll();

  EXPECT_TRUE(daemon.RackReport(0).has_value());
  EXPECT_TRUE(daemon.RackReport(1).has_value());
  EXPECT_FALSE(daemon.RackReport(2).has_value());
  EXPECT_FALSE(daemon.RackReport(-1).has_value());
  EXPECT_TRUE(daemon.NodeReport(3).has_value());
  EXPECT_FALSE(daemon.NodeReport(4).has_value());
  EXPECT_FALSE(daemon.NodeReport(-1).has_value());
}

TEST_F(ServeDaemonTest, StatsJsonTracksReadinessAndDelivery) {
  ServeDaemon daemon(BaseOptions());
  std::string error;
  ASSERT_TRUE(daemon.Init(&error)) << error;

  std::string stats = daemon.StatsJson();
  EXPECT_NE(stats.find("\"nodes\": 4"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"racks\": 2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"ready\": false"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"quiesced\": false"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"delivered\": 0"), std::string::npos) << stats;

  EXPECT_EQ(daemon.Drain(), 0u);
  stats = daemon.StatsJson();
  EXPECT_NE(stats.find("\"ready\": true"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"quiesced\": true"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"missing_primary\": 0"), std::string::npos) << stats;
  EXPECT_EQ(stats.find("\"delivered\": 0"), std::string::npos) << stats;
  EXPECT_EQ(stats.back(), '\n');
}

TEST_F(ServeDaemonTest, HandlerRoutesTheWholeHttpSurface) {
  ServeDaemon daemon(BaseOptions());
  std::string error;
  ASSERT_TRUE(daemon.Init(&error)) << error;
  HttpServer server;
  ASSERT_TRUE(server.Start(MakeDaemonHandler(daemon)));
  const auto get = [&](const std::string& path) {
    auto result = HttpFetch("127.0.0.1", server.Port(), "GET", path);
    EXPECT_TRUE(result.has_value()) << path;
    return result.value_or(HttpResult{});
  };

  // Not ready yet: health says starting, with the conventional 503.
  auto health = get("/healthz");
  EXPECT_EQ(health.status, 503);
  EXPECT_EQ(health.body, "starting\n");

  daemon.Drain();
  health = get("/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  EXPECT_EQ(get("/fleet/report").body, daemon.FleetReport());
  EXPECT_EQ(get("/rack/1/report").body, daemon.RackReport(1).value());
  EXPECT_EQ(get("/node/2/report").body, daemon.NodeReport(2).value());

  auto missing_rack = get("/rack/9/report");
  EXPECT_EQ(missing_rack.status, 404);
  EXPECT_EQ(missing_rack.body, "no such rack\n");
  EXPECT_EQ(get("/node/99/report").status, 404);
  EXPECT_EQ(get("/rack/x/report").status, 404);  // non-numeric id
  auto unknown = get("/nonsense");
  EXPECT_EQ(unknown.status, 404);
  EXPECT_EQ(unknown.body, "unknown endpoint\n");

  EXPECT_NE(get("/alerts").body.find("\"published\":"), std::string::npos);
  EXPECT_NE(get("/stats").body.find("\"data_generation\":"),
            std::string::npos);

  const auto post = HttpFetch("127.0.0.1", server.Port(), "POST", "/healthz");
  ASSERT_TRUE(post.has_value());
  EXPECT_EQ(post->status, 405);

  server.Stop();
}

TEST_F(ServeDaemonTest, LiveServingQuiescesToTheBatchReport) {
  ServeOptions options = BaseOptions();
  options.poll_ms = 10;
  options.merge_ms = 20;
  options.quiesce_ms = 60;
  options.pollers = 2;
  options.checkpoint_dir = base_ + "/ckp";
  options.checkpoint_every_merges = 1;

  ServeDaemon daemon(options);
  std::string error;
  ASSERT_TRUE(daemon.Init(&error)) << error;
  ASSERT_TRUE(daemon.StartServing());
  // Bounded wait: once every stream has idled past quiesce_ms the merger
  // drains the fleet and reports turn final.
  for (int i = 0; i < 500 && !daemon.Quiesced(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(daemon.Quiesced());
  EXPECT_EQ(daemon.FleetReport(), OracleReport(options));
  daemon.StopServing();
  daemon.StopServing();  // idempotent

  // The merge cadence checkpointed at least once: the manifest exists and a
  // fresh daemon restores from it to the identical final report.
  ASSERT_TRUE(
      std::filesystem::exists(options.checkpoint_dir + "/manifest.ckp"));
  ServeDaemon restored(options);
  ASSERT_TRUE(restored.Init(&error)) << error;
  EXPECT_EQ(restored.Drain(), 0u);
  EXPECT_EQ(restored.FleetReport(), OracleReport(options));
}

TEST_F(ServeDaemonTest, CheckpointRoundTripsAcrossDaemonInstances) {
  ServeOptions options = BaseOptions();
  options.checkpoint_dir = base_ + "/ckp";

  ServeDaemon first(options);
  std::string error;
  ASSERT_TRUE(first.Init(&error)) << error;
  EXPECT_EQ(first.Drain(), 0u);
  const std::string report = first.FleetReport();
  ASSERT_TRUE(first.SaveCheckpoint());

  // The restored daemon reproduces the report WITHOUT the node logs: the
  // drained cursors make Finish a no-op that never reopens the files.
  std::filesystem::remove_all(root_);
  ServeDaemon second(options);
  ASSERT_TRUE(second.Init(&error)) << error;
  EXPECT_EQ(second.Drain(), 0u);
  EXPECT_EQ(second.FleetReport(), report);
}

TEST_F(ServeDaemonTest, DamagedManifestFailsInitLoudly) {
  ServeOptions options = BaseOptions();
  options.checkpoint_dir = base_ + "/ckp";
  {
    ServeDaemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.Init(&error)) << error;
    daemon.PollAll();
    ASSERT_TRUE(daemon.SaveCheckpoint());
  }
  const std::string manifest = options.checkpoint_dir + "/manifest.ckp";
  auto bytes = ReadFileBytes(manifest);
  ASSERT_TRUE(bytes.has_value());
  (*bytes)[30] = static_cast<char>((*bytes)[30] ^ 0x01);  // payload bit flip
  ASSERT_TRUE(WriteFileBytes(manifest, *bytes));

  ServeDaemon damaged(options);
  std::string error;
  EXPECT_FALSE(damaged.Init(&error));
  EXPECT_NE(error.find("checkpoint manifest rejected"), std::string::npos)
      << error;

  // A topology that disagrees with a HEALTHY manifest is refused too.
  std::filesystem::remove(manifest);  // clear the damage, re-save fresh
  {
    ServeDaemon daemon(options);
    ASSERT_TRUE(daemon.Init(&error)) << error;
    daemon.PollAll();
    ASSERT_TRUE(daemon.SaveCheckpoint());
  }
  ServeOptions reshaped = options;
  reshaped.topology = ServeTopology{4, 1};
  ServeDaemon mismatched(reshaped);
  EXPECT_FALSE(mismatched.Init(&error));
  EXPECT_NE(error.find("does not match the serving topology"),
            std::string::npos)
      << error;
}

}  // namespace
}  // namespace astra::serve
