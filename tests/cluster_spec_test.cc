#include <gtest/gtest.h>

#include <string>

#include "src/hw/cluster.h"

namespace crius {
namespace {

TEST(ClusterSpecTest, ParsesSinglePart) {
  const Cluster c = ParseClusterSpec("A100:8x4");
  EXPECT_EQ(c.TotalGpus(GpuType::kA100), 32);
  EXPECT_EQ(c.GpusPerNode(GpuType::kA100), 4);
  EXPECT_FALSE(c.HasType(GpuType::kA40));
}

TEST(ClusterSpecTest, ParsesMultipleParts) {
  const Cluster c = ParseClusterSpec("A100:80x4,A40:160x2,A10:160x2,V100:20x16");
  EXPECT_EQ(c.TotalGpus(), 1280);
  EXPECT_EQ(c.GpusPerNode(GpuType::kV100), 16);
}

TEST(ClusterSpecTest, CaseInsensitiveTypeNames) {
  const Cluster c = ParseClusterSpec("v100:2x8");
  EXPECT_EQ(c.TotalGpus(GpuType::kV100), 16);
}

TEST(ClusterSpecTest, RoundTripThroughSpecString) {
  const Cluster original = MakeSimulatedCluster();
  const Cluster parsed = ParseClusterSpec(ClusterSpecString(original));
  for (GpuType type : AllGpuTypes()) {
    EXPECT_EQ(parsed.TotalGpus(type), original.TotalGpus(type));
    EXPECT_EQ(parsed.GpusPerNode(type), original.GpusPerNode(type));
  }
}

TEST(ClusterSpecTest, SpecStringFormat) {
  EXPECT_EQ(ClusterSpecString(MakePhysicalTestbed()), "A40:16x2,A10:16x2");
}

// The fallible form's error names the bad part, and leaves the output alone.
TEST(ClusterSpecTest, MalformedSpecsReturnError) {
  const struct {
    const char* spec;
    const char* error;
  } cases[] = {
      {"A100", "bad cluster spec part 'A100' (want TYPE:NODESxGPUS)"},
      {"A100:x4", "bad cluster spec part 'A100:x4' (want TYPE:NODESxGPUS)"},
      {"A100:8x", "bad GPUs-per-node in 'A100:8x'"},
      {"A100:0x4", "bad node count in 'A100:0x4'"},
      {"", "empty cluster spec"},
      {"H100:8x4", "unknown GPU type name: H100"},
      {"A100:8xZ", "bad GPUs-per-node in 'A100:8xZ'"},
      {"A40:4x2,A100:-1x4", "bad node count in 'A100:-1x4'"},
  };
  for (const auto& c : cases) {
    Cluster out = MakeMotivationCluster();
    std::string error;
    EXPECT_FALSE(ParseClusterSpec(c.spec, &out, &error)) << c.spec;
    EXPECT_EQ(error, c.error) << c.spec;
    EXPECT_EQ(out.TotalGpus(), 8) << c.spec;
    EXPECT_FALSE(MakeNamedCluster(c.spec, &out, &error)) << c.spec;
    EXPECT_EQ(error, c.error) << c.spec;
  }
}

TEST(ClusterSpecTest, FallibleFormsAcceptValidSpecs) {
  Cluster out;
  std::string error;
  ASSERT_TRUE(ParseClusterSpec("A100:8x4,V100:2x16", &out, &error)) << error;
  EXPECT_EQ(out.TotalGpus(GpuType::kA100), 32);
  EXPECT_EQ(out.TotalGpus(GpuType::kV100), 32);
  for (const char* name : {"testbed", "simulated", "motivation"}) {
    ASSERT_TRUE(MakeNamedCluster(name, &out, &error)) << name << ": " << error;
    EXPECT_EQ(ClusterSpecString(out), ClusterSpecString(MakeNamedCluster(name))) << name;
  }
  EXPECT_FALSE(ParseClusterSpec("testbed", &out, &error)) << "presets are MakeNamedCluster's";
}

// The aborting forms stop with the fallible form's message.
TEST(ClusterSpecDeathTest, MalformedSpecsAbort) {
  EXPECT_DEATH(ParseClusterSpec("A100:0x4"), "bad node count in 'A100:0x4'");
  EXPECT_DEATH(MakeNamedCluster("A100:8xZ"), "bad GPUs-per-node in 'A100:8xZ'");
}

}  // namespace
}  // namespace crius
