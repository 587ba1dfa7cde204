// Tree checkpoint manifest: naming, roundtrip, every envelope rejection
// path byte-by-byte, and the stale-generation sweep.
#include "serve/tree_checkpoint.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "serve/daemon.hpp"
#include "util/file_io.hpp"

namespace astra::serve {
namespace {

using stream::CheckpointStatus;

class TreeCheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "astra_tree_checkpoint_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string ManifestPath() const {
    return dir_ + "/" + std::string(kManifestFileName);
  }

  [[nodiscard]] TreeManifest SmallManifest() const {
    TreeManifest manifest;
    manifest.generation = 12;
    manifest.topology = ServeTopology{2, 3};
    for (int node = 0; node < manifest.topology.NodeCount(); ++node) {
      manifest.node_files.push_back(NodeCheckpointName(node, 12));
    }
    return manifest;
  }

  // Save SmallManifest, then corrupt the file through `mutate` and reload.
  [[nodiscard]] CheckpointStatus ReloadAfter(
      const std::function<void(std::string&)>& mutate) {
    EXPECT_EQ(SaveTreeManifest(SmallManifest(), dir_, RetryPolicy::None()),
              CheckpointStatus::kOk);
    auto bytes = ReadFileBytes(ManifestPath());
    EXPECT_TRUE(bytes.has_value());
    mutate(*bytes);
    EXPECT_TRUE(WriteFileBytes(ManifestPath(), *bytes));
    TreeManifest loaded;
    return LoadTreeManifest(loaded, dir_, RetryPolicy::None());
  }

  std::string dir_;
};

TEST_F(TreeCheckpointTest, NodeCheckpointNamesCarryNodeAndGeneration) {
  EXPECT_EQ(NodeCheckpointName(7, 12), "node-0007.g12.ckp");
  EXPECT_EQ(NodeCheckpointName(0, 1), "node-0000.g1.ckp");
  EXPECT_EQ(NodeCheckpointName(2591, 100), "node-2591.g100.ckp");
}

TEST_F(TreeCheckpointTest, ManifestRoundTripsExactly) {
  const TreeManifest saved = SmallManifest();
  ASSERT_EQ(SaveTreeManifest(saved, dir_, RetryPolicy::None()),
            CheckpointStatus::kOk);

  TreeManifest loaded;
  ASSERT_EQ(LoadTreeManifest(loaded, dir_, RetryPolicy::None()),
            CheckpointStatus::kOk);
  EXPECT_EQ(loaded.generation, 12u);
  EXPECT_EQ(loaded.topology.racks, 2);
  EXPECT_EQ(loaded.topology.nodes_per_rack, 3);
  EXPECT_EQ(loaded.node_files, saved.node_files);
}

TEST_F(TreeCheckpointTest, MissingManifestIsAnIoError) {
  TreeManifest loaded;
  loaded.generation = 99;
  EXPECT_EQ(LoadTreeManifest(loaded, dir_, RetryPolicy::None()),
            CheckpointStatus::kIoError);
  EXPECT_EQ(loaded.generation, 0u);  // reset, not half-loaded
}

TEST_F(TreeCheckpointTest, WrongMagicIsRejected) {
  EXPECT_EQ(ReloadAfter([](std::string& bytes) { bytes[0] = 'X'; }),
            CheckpointStatus::kBadMagic);
}

TEST_F(TreeCheckpointTest, UnknownVersionIsRejected) {
  // The format version is the u32 at offset 8, right after the magic.
  EXPECT_EQ(ReloadAfter([](std::string& bytes) { bytes[8] = 99; }),
            CheckpointStatus::kBadVersion);
}

TEST_F(TreeCheckpointTest, RetiredNodeCheckpointVersionsAreRejected) {
  // A healthy manifest naming node files written by an older build: the
  // node envelopes are intact (the CRC covers only the payload) but carry
  // format version 1 or 2.  Restore refuses the tree with kBadVersion and
  // never decodes an old reader layout as the current one.
  ServeOptions options;
  options.root = dir_ + "/fleet";  // no logs: the readers report missing
  options.topology = ServeTopology{1, 2};
  options.checkpoint_dir = dir_ + "/ckp";
  options.retry = RetryPolicy::None();
  {
    ServeDaemon daemon(options);
    std::string error;
    ASSERT_TRUE(daemon.Init(&error)) << error;
    daemon.PollAll();
    ASSERT_TRUE(daemon.SaveCheckpoint());
  }
  TreeManifest manifest;
  ASSERT_EQ(LoadTreeManifest(manifest, options.checkpoint_dir, RetryPolicy::None()),
            CheckpointStatus::kOk);
  const std::string node_file = options.checkpoint_dir + "/" + manifest.node_files[1];
  const auto current = ReadFileBytes(node_file);
  ASSERT_TRUE(current.has_value());

  for (const char retired : {'\1', '\2'}) {
    std::string bytes = *current;
    bytes[8] = retired;  // the u32 format version, little-endian
    ASSERT_TRUE(WriteFileBytes(node_file, bytes));
    stream::StreamMonitor monitor(core::DatasetPaths::InDirectory(dir_),
                                  stream::MonitorConfig{});
    EXPECT_EQ(stream::RestoreMonitorCheckpoint(monitor, node_file),
              CheckpointStatus::kBadVersion);
    ServeDaemon restored(options);
    std::string error;
    EXPECT_FALSE(restored.Init(&error));
    EXPECT_NE(error.find("node checkpoint rejected (incompatible checkpoint version)"),
              std::string::npos)
        << error;
  }
}

TEST_F(TreeCheckpointTest, TruncationAnywhereIsDetected) {
  EXPECT_EQ(ReloadAfter([](std::string& bytes) { bytes.resize(4); }),
            CheckpointStatus::kTruncated);  // shorter than the magic
  EXPECT_EQ(ReloadAfter([](std::string& bytes) { bytes.resize(20); }),
            CheckpointStatus::kTruncated);  // header cut mid-field
  EXPECT_EQ(
      ReloadAfter([](std::string& bytes) { bytes.resize(bytes.size() - 3); }),
      CheckpointStatus::kTruncated);  // payload shorter than declared
}

TEST_F(TreeCheckpointTest, PayloadCorruptionFailsTheChecksum) {
  // Offset 24 is the first payload byte; the CRC covers all of them.
  EXPECT_EQ(
      ReloadAfter([](std::string& bytes) {
        bytes[30] = static_cast<char>(bytes[30] ^ 0x40);
      }),
      CheckpointStatus::kBadCrc);
}

TEST_F(TreeCheckpointTest, TrailingGarbageIsABadPayload) {
  EXPECT_EQ(ReloadAfter([](std::string& bytes) { bytes += "extra"; }),
            CheckpointStatus::kBadPayload);
}

TEST_F(TreeCheckpointTest, FileCountMustMatchTheTopology) {
  TreeManifest short_manifest = SmallManifest();
  short_manifest.node_files.pop_back();  // 5 files for a 6-node topology
  ASSERT_EQ(SaveTreeManifest(short_manifest, dir_, RetryPolicy::None()),
            CheckpointStatus::kOk);
  TreeManifest loaded;
  EXPECT_EQ(LoadTreeManifest(loaded, dir_, RetryPolicy::None()),
            CheckpointStatus::kBadPayload);
}

TEST_F(TreeCheckpointTest, PathTraversalInFileNamesIsRejected) {
  TreeManifest hostile = SmallManifest();
  hostile.node_files[0] = "../outside/node-0000.g12.ckp";
  ASSERT_EQ(SaveTreeManifest(hostile, dir_, RetryPolicy::None()),
            CheckpointStatus::kOk);
  TreeManifest loaded;
  EXPECT_EQ(LoadTreeManifest(loaded, dir_, RetryPolicy::None()),
            CheckpointStatus::kBadPayload);
}

TEST_F(TreeCheckpointTest, SweepRemovesOtherGenerationsAndEveryTmp) {
  const std::vector<std::string> keep = {
      "node-0000.g2.ckp", "node-0001.g2.ckp",
      "manifest.ckp",        // not a node file: never swept
      "memory_errors.tsv",   // unrelated file: never swept
  };
  const std::vector<std::string> sweep = {
      "node-0000.g1.ckp",      // stale generation
      "node-0001.g1.ckp",      //
      "node-0002.g2.ckp.tmp",  // crashed save sidecar, even for the kept gen
  };
  for (const auto& name : keep) ASSERT_TRUE(WriteFileBytes(dir_ + "/" + name, "x"));
  for (const auto& name : sweep) ASSERT_TRUE(WriteFileBytes(dir_ + "/" + name, "x"));

  EXPECT_EQ(SweepStaleGenerations(dir_, 2), sweep.size());
  for (const auto& name : keep) {
    EXPECT_TRUE(std::filesystem::exists(dir_ + "/" + name)) << name;
  }
  for (const auto& name : sweep) {
    EXPECT_FALSE(std::filesystem::exists(dir_ + "/" + name)) << name;
  }
}

TEST_F(TreeCheckpointTest, SweepOnAMissingDirectoryIsHarmless) {
  EXPECT_EQ(SweepStaleGenerations(dir_ + "/no_such_subdir", 1), 0u);
}

}  // namespace
}  // namespace astra::serve
