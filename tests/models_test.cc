#include "src/model/models.h"

#include <gtest/gtest.h>

#include "src/util/units.h"
#include "tests/param_print.h"

namespace crius {
namespace {

// ---------- Parameterized over every Table-2 configuration -------------------

class AllModelsTest : public ::testing::TestWithParam<ModelSpec> {};

TEST_P(AllModelsTest, BuildsFinalizedGraph) {
  const OpGraph g = BuildOpGraph(GetParam());
  EXPECT_TRUE(g.finalized());
  EXPECT_GE(g.size(), 3u);
}

TEST_P(AllModelsTest, ParameterCountNearNominal) {
  const ModelSpec spec = GetParam();
  const OpGraph& g = GetOpGraph(spec);
  const double params_b = g.TotalParamBytes() / 2.0 / kBillion;  // fp16 storage
  EXPECT_GT(params_b, spec.params_billion * 0.80)
      << spec.Name() << " built " << params_b << "B";
  EXPECT_LT(params_b, spec.params_billion * 1.25)
      << spec.Name() << " built " << params_b << "B";
}

TEST_P(AllModelsTest, AllOpsHaveNonNegativeQuantities) {
  const OpGraph& g = GetOpGraph(GetParam());
  for (const Operator& op : g.ops()) {
    EXPECT_GE(op.fwd_flops_per_sample, 0.0);
    EXPECT_GE(op.param_bytes, 0.0);
    EXPECT_GT(op.act_bytes_per_sample, 0.0);
    EXPECT_GE(op.act_mem_bytes_per_sample, op.act_bytes_per_sample);
    EXPECT_FALSE(op.name.empty());
  }
  EXPECT_GT(g.TotalFwdFlops(), 0.0);
}

TEST_P(AllModelsTest, CachedGraphIsStable) {
  const ModelSpec spec = GetParam();
  const OpGraph& a = GetOpGraph(spec);
  const OpGraph& b = GetOpGraph(spec);
  EXPECT_EQ(&a, &b);
}

INSTANTIATE_TEST_SUITE_P(Table2, AllModelsTest, ::testing::ValuesIn(AllModelConfigs()),
                         [](const ::testing::TestParamInfo<ModelSpec>& info) {
                           std::string name = info.param.Key();
                           for (char& c : name) {
                             if (!isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

// ---------- Family-specific structure ----------------------------------------

TEST(BertTest, LayerStructure) {
  const OpGraph g = BuildBert(2.6);
  // embedding + 32 x (attn, mlp) + head.
  EXPECT_EQ(g.size(), 1u + 2u * 32u + 1u);
  EXPECT_EQ(g.op(0).kind, OpKind::kEmbedding);
  EXPECT_EQ(g.op(1).kind, OpKind::kAttention);
  EXPECT_EQ(g.op(2).kind, OpKind::kMlp);
  EXPECT_EQ(g.op(g.size() - 1).kind, OpKind::kHead);
}

TEST(BertTest, MlpTwiceAttentionParams) {
  const OpGraph g = BuildBert(1.3);
  EXPECT_DOUBLE_EQ(g.op(2).param_bytes, 2.0 * g.op(1).param_bytes);
}

TEST(BertTest, NoAllToAllTraffic) {
  const OpGraph g = BuildBert(0.76);
  EXPECT_DOUBLE_EQ(g.A2aBytes(0, g.size()), 0.0);
}

TEST(MoeTest, AlternatingExpertLayers) {
  const OpGraph g = BuildMoe(2.4);
  int moe_layers = 0;
  int dense_layers = 0;
  for (const Operator& op : g.ops()) {
    if (op.kind == OpKind::kMoeLayer) {
      ++moe_layers;
      EXPECT_GT(op.a2a_bytes_per_sample, 0.0);
    } else if (op.kind == OpKind::kMlp) {
      ++dense_layers;
      EXPECT_DOUBLE_EQ(op.a2a_bytes_per_sample, 0.0);
    }
  }
  EXPECT_EQ(moe_layers, 8);
  EXPECT_EQ(dense_layers, 8);
}

TEST(MoeTest, ExpertParamsDominate) {
  const OpGraph g = BuildMoe(27.0);
  double moe_params = 0.0;
  for (const Operator& op : g.ops()) {
    if (op.kind == OpKind::kMoeLayer) {
      moe_params += op.param_bytes;
    }
  }
  EXPECT_GT(moe_params, 0.8 * g.TotalParamBytes());
}

TEST(MoeTest, HighParamsToFlopsRatioVsBert) {
  // MoE's signature: far more parameters per FLOP than a dense transformer.
  const OpGraph& moe = GetOpGraph(ModelSpec{ModelFamily::kMoe, 2.4, 256});
  const OpGraph& bert = GetOpGraph(ModelSpec{ModelFamily::kBert, 2.6, 256});
  const double moe_ratio = moe.TotalParamBytes() / moe.TotalFwdFlops();
  const double bert_ratio = bert.TotalParamBytes() / bert.TotalFwdFlops();
  EXPECT_GT(moe_ratio, 2.0 * bert_ratio);
}

TEST(WideResNetTest, BlockStructure) {
  const OpGraph g = BuildWideResNet(1.0);
  // stem + (3+4+6+3) blocks + head.
  EXPECT_EQ(g.size(), 1u + 16u + 1u);
  EXPECT_EQ(g.op(0).kind, OpKind::kConvBlock);
  EXPECT_EQ(g.op(g.size() - 1).kind, OpKind::kHead);
}

TEST(WideResNetTest, ActivationsShrinkThroughStages) {
  const OpGraph g = BuildWideResNet(2.0);
  // First conv block output is much larger than the last one's (spatial
  // shrinks 4x per group while channels only double).
  EXPECT_GT(g.op(1).act_bytes_per_sample, 4.0 * g.op(16).act_bytes_per_sample);
}

TEST(WideResNetTest, EarlyBlocksAreActivationHeavy) {
  const OpGraph g = BuildWideResNet(1.0);
  const Operator& early = g.op(1);
  EXPECT_GT(early.act_bytes_per_sample, early.param_bytes);
}

// ---------- Spec metadata -----------------------------------------------------

TEST(ModelSpecTest, Names) {
  EXPECT_EQ((ModelSpec{ModelFamily::kBert, 2.6, 128}).Name(), "BERT-2.6B");
  EXPECT_EQ((ModelSpec{ModelFamily::kBert, 0.76, 128}).Name(), "BERT-0.76B");
  EXPECT_EQ((ModelSpec{ModelFamily::kWideResNet, 6.8, 256}).Name(), "WRes-6.8B");
  EXPECT_EQ((ModelSpec{ModelFamily::kMoe, 27.0, 1024}).Name(), "MoE-27B");
  EXPECT_EQ((ModelSpec{ModelFamily::kMoe, 10.0, 256}).Name(), "MoE-10B");
}

TEST(ModelSpecTest, KeyIncludesBatch) {
  const ModelSpec a{ModelFamily::kBert, 1.3, 128};
  const ModelSpec b{ModelFamily::kBert, 1.3, 256};
  EXPECT_NE(a.Key(), b.Key());
  EXPECT_FALSE(a == b);
}

TEST(ModelSpecTest, AllConfigsCount) {
  // 5 WRes x 3 + 4 BERT x 3 + 5 MoE x 3 = 42 (Table 2).
  EXPECT_EQ(AllModelConfigs().size(), 42u);
}

TEST(ModelSpecTest, EfficiencyAndHalfPointPositive) {
  for (ModelFamily f :
       {ModelFamily::kWideResNet, ModelFamily::kBert, ModelFamily::kMoe}) {
    EXPECT_GT(ComputeEfficiency(f), 0.0);
    EXPECT_LT(ComputeEfficiency(f), 1.0);
    EXPECT_GT(BatchHalfPoint(f), 0.0);
  }
}

TEST(ModelSpecDeathTest, UnsupportedSizeAborts) {
  EXPECT_DEATH(BuildBert(3.14), "unsupported");
  EXPECT_DEATH(BuildMoe(1.0), "unsupported");
  EXPECT_DEATH(BuildWideResNet(3.0), "unsupported");
}

}  // namespace
}  // namespace crius
