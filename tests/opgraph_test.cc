#include "src/model/opgraph.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>

namespace crius {
namespace {

Operator MakeOp(double flops, double params, double act, double tp = 0.0, double a2a = 0.0) {
  Operator op;
  op.fwd_flops_per_sample = flops;
  op.param_bytes = params;
  op.act_bytes_per_sample = act;
  op.tp_comm_bytes_per_sample = tp;
  op.a2a_bytes_per_sample = a2a;
  return op;
}

OpGraph MakeGraph() {
  OpGraph g;
  g.Add(MakeOp(10.0, 100.0, 5.0, 1.0));
  g.Add(MakeOp(20.0, 200.0, 6.0, 2.0, 8.0));
  g.Add(MakeOp(30.0, 300.0, 7.0, 3.0));
  g.Finalize();
  return g;
}

TEST(OpGraphTest, SequentialIds) {
  const OpGraph g = MakeGraph();
  ASSERT_EQ(g.size(), 3u);
  for (size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(g.op(i).id, static_cast<int>(i));
  }
}

TEST(OpGraphTest, RangeAggregates) {
  const OpGraph g = MakeGraph();
  EXPECT_DOUBLE_EQ(g.FwdFlops(0, 3), 60.0);
  EXPECT_DOUBLE_EQ(g.FwdFlops(1, 2), 20.0);
  EXPECT_DOUBLE_EQ(g.FwdFlops(1, 1), 0.0);
  EXPECT_DOUBLE_EQ(g.ParamBytes(0, 2), 300.0);
  EXPECT_DOUBLE_EQ(g.ActBytes(1, 3), 13.0);
  EXPECT_DOUBLE_EQ(g.TpCommBytes(0, 3), 6.0);
  EXPECT_DOUBLE_EQ(g.A2aBytes(0, 3), 8.0);
  EXPECT_DOUBLE_EQ(g.A2aBytes(0, 1), 0.0);
}

TEST(OpGraphTest, TotalsMatchFullRange) {
  const OpGraph g = MakeGraph();
  EXPECT_DOUBLE_EQ(g.TotalFwdFlops(), g.FwdFlops(0, g.size()));
  EXPECT_DOUBLE_EQ(g.TotalParamBytes(), g.ParamBytes(0, g.size()));
}

TEST(OpGraphTest, BoundaryBytesIsProducerActivation) {
  const OpGraph g = MakeGraph();
  EXPECT_DOUBLE_EQ(g.BoundaryBytes(1), 5.0);
  EXPECT_DOUBLE_EQ(g.BoundaryBytes(2), 6.0);
}

TEST(OpGraphTest, ActMemDefaultsToActBytes) {
  OpGraph g;
  g.Add(MakeOp(1.0, 1.0, 9.0));
  Operator with_mem = MakeOp(1.0, 1.0, 4.0);
  with_mem.act_mem_bytes_per_sample = 10.0;
  g.Add(with_mem);
  g.Finalize();
  EXPECT_DOUBLE_EQ(g.ActMemBytes(0, 1), 9.0);   // defaulted
  EXPECT_DOUBLE_EQ(g.ActMemBytes(1, 2), 10.0);  // explicit
}

// The prefix sums are plain vectors, so a graph copies and moves with the
// defaults and a copy owns its own storage.
void ExpectSameQueries(const OpGraph& got, const OpGraph& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t b = 0; b <= want.size(); ++b) {
    for (size_t e = b; e <= want.size(); ++e) {
      EXPECT_EQ(got.FwdFlops(b, e), want.FwdFlops(b, e));
      EXPECT_EQ(got.ParamBytes(b, e), want.ParamBytes(b, e));
      EXPECT_EQ(got.ActBytes(b, e), want.ActBytes(b, e));
      EXPECT_EQ(got.ActMemBytes(b, e), want.ActMemBytes(b, e));
      EXPECT_EQ(got.TpCommBytes(b, e), want.TpCommBytes(b, e));
      EXPECT_EQ(got.A2aBytes(b, e), want.A2aBytes(b, e));
    }
  }
}

TEST(OpGraphTest, CopyAnswersTheSameQueries) {
  const OpGraph g = MakeGraph();
  const OpGraph copy = g;
  ExpectSameQueries(copy, g);
}

TEST(OpGraphTest, CopyOutlivesItsSource) {
  const OpGraph want = MakeGraph();
  auto source = std::make_unique<OpGraph>(MakeGraph());
  const OpGraph copy = *source;
  source.reset();
  ExpectSameQueries(copy, want);
}

TEST(OpGraphTest, MoveKeepsThePrefixSums) {
  const OpGraph want = MakeGraph();
  OpGraph source = MakeGraph();
  const OpGraph moved = std::move(source);
  ExpectSameQueries(moved, want);
}

TEST(OpGraphTest, CopyAssignmentTakesTheOtherGraphsSums) {
  const OpGraph want = MakeGraph();
  OpGraph g;
  g.Add(MakeOp(1.0, 1.0, 1.0));
  g.Finalize();
  g = want;
  ExpectSameQueries(g, want);
  EXPECT_DOUBLE_EQ(g.FwdFlops(0, 3), 60.0);
}

TEST(OpGraphDeathTest, QueriesRequireFinalize) {
  OpGraph g;
  g.Add(MakeOp(1.0, 1.0, 1.0));
  EXPECT_DEATH(g.FwdFlops(0, 1), "finalized");
}

TEST(OpGraphDeathTest, EmptyGraphCannotFinalize) {
  OpGraph g;
  EXPECT_DEATH(g.Finalize(), "at least one");
}

TEST(OpGraphDeathTest, DoubleFinalizeAborts) {
  OpGraph g;
  g.Add(MakeOp(1.0, 1.0, 1.0));
  g.Finalize();
  EXPECT_DEATH(g.Finalize(), "finalized");
}

TEST(OpGraphDeathTest, BoundaryBytesBounds) {
  const OpGraph g = MakeGraph();
  EXPECT_DEATH(g.BoundaryBytes(0), "");
  EXPECT_DEATH(g.BoundaryBytes(3), "");
}

}  // namespace
}  // namespace crius
