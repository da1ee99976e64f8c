// Property test for AssembleChain (DESIGN.md §14 "Chain assembly"): on
// seeded random chains whose values sit on a coarse grid, so that equal
// totals are common, the chain DP must return exactly the brute-force minimum
// and the first minimizing combination in depth-first order.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <thread>
#include <vector>

#include "src/core/estimator.h"
#include "src/util/rng.h"

namespace crius {
namespace {

// A StageChain with owned storage.
struct ChainData {
  std::vector<int> opt_count;
  std::vector<double> t_stage;
  std::vector<double> t_dp_sync;
  std::vector<double> boundary;
  int num_microbatches = 1;

  StageChain View() const {
    return StageChain{opt_count.size(), opt_count.data(), t_stage.data(),
                      t_dp_sync.data(), boundary.data(), num_microbatches};
  }
};

// Multiples of 0.25 in [lo, hi] quarters: exact in binary, so ties are exact.
double Grid(Rng& rng, int lo, int hi) { return 0.25 * static_cast<double>(rng.UniformInt(lo, hi)); }

ChainData RandomChain(Rng& rng) {
  ChainData c;
  const size_t ns = static_cast<size_t>(rng.UniformInt(1, 16));
  c.opt_count.resize(ns);
  c.t_stage.assign(2 * ns, 0.0);
  c.t_dp_sync.assign(2 * ns, 0.0);
  c.boundary.assign(4 * ns, 0.0);
  for (size_t s = 0; s < ns; ++s) {
    c.opt_count[s] = static_cast<int>(rng.UniformInt(1, 2));
    for (int o = 0; o < c.opt_count[s]; ++o) {
      c.t_stage[2 * s + o] = Grid(rng, 1, 8);
      // Half the options sync nothing, like tp-only stages.
      c.t_dp_sync[2 * s + o] = rng.UniformInt(0, 1) == 0 ? 0.0 : Grid(rng, 1, 4);
    }
    for (size_t k = 0; s > 0 && k < 4; ++k) {
      c.boundary[4 * s + k] = Grid(rng, 0, 4);
    }
  }
  c.num_microbatches = static_cast<int>(rng.UniformInt(1, 4 * static_cast<int64_t>(ns)));
  return c;
}

// Visits every combination in depth-first order (stage 0 outermost, highest
// option index first) and keeps the first strict minimum -- the assembly the
// chain DP replaces.
double BruteForce(const StageChain& c, std::vector<int>* best_choice) {
  size_t leaves = 1;
  for (size_t s = 0; s < c.num_stages; ++s) {
    leaves *= static_cast<size_t>(c.opt_count[s]);
  }
  double best = std::numeric_limits<double>::infinity();
  std::vector<int> choice(c.num_stages);
  for (size_t leaf = 0; leaf < leaves; ++leaf) {
    size_t idx = leaf;
    for (size_t s = c.num_stages; s-- > 0;) {
      const size_t n = static_cast<size_t>(c.opt_count[s]);
      choice[s] = static_cast<int>(n - 1 - idx % n);
      idx /= n;
    }
    double sum = 0.0;
    double max_stage = 0.0;
    double max_sync = 0.0;
    for (size_t s = 0; s < c.num_stages; ++s) {
      const size_t i = 2 * s + static_cast<size_t>(choice[s]);
      sum += c.t_stage[i];
      if (s > 0) {
        sum += c.boundary[4 * s + 2 * static_cast<size_t>(choice[s - 1]) +
                          static_cast<size_t>(choice[s])];
      }
      max_stage = std::max(max_stage, c.t_stage[i]);
      max_sync = std::max(max_sync, c.t_dp_sync[i]);
    }
    const double total = sum + static_cast<double>(c.num_microbatches - 1) * max_stage +
                         PerfModel::kDpSyncExposedFraction * max_sync +
                         PerfModel::kIterOverhead;
    if (total < best) {
      best = total;
      *best_choice = choice;
    }
  }
  return best;
}

TEST(ChainAssemblyTest, MatchesDepthFirstEnumerationOnTieHeavyChains) {
  constexpr uint64_t kSeed = 20260419;
  constexpr int kCases = 10000;
  Rng rng(kSeed, "chain_assembly_test");
  for (int it = 0; it < kCases; ++it) {
    const ChainData data = RandomChain(rng);
    const StageChain chain = data.View();
    std::vector<int> want_choice;
    const double want = BruteForce(chain, &want_choice);
    std::vector<int> got_choice(chain.num_stages, -1);
    const double got = AssembleChain(chain, got_choice.data());
    ASSERT_EQ(got, want) << "seed " << kSeed << " iteration " << it;
    ASSERT_EQ(got_choice, want_choice) << "seed " << kSeed << " iteration " << it;
  }
}

TEST(ChainAssemblyTest, AllEqualOptionsPickTheHighestIndexEverywhere) {
  ChainData data;
  data.opt_count = {2, 2, 2};
  data.t_stage.assign(6, 1.0);
  data.t_dp_sync.assign(6, 0.5);
  data.boundary.assign(12, 0.25);
  data.num_microbatches = 12;
  std::vector<int> choice(3, -1);
  const double best = AssembleChain(data.View(), choice.data());
  EXPECT_EQ(best, 3.5 + 11.0 + 0.25 + PerfModel::kIterOverhead);
  EXPECT_EQ(choice, (std::vector<int>{1, 1, 1}));
}

TEST(ChainAssemblyTest, SlowestStageCapBeatsTheSmallestSum) {
  // Option 1 of stage 0 has the smaller running sum but the larger stage
  // time, which the (B-1) pipeline term multiplies: option 0 must win.
  ChainData data;
  data.opt_count = {2, 1};
  data.t_stage = {2.0, 3.0, 2.0, 0.0};
  data.t_dp_sync = {0.0, 0.0, 0.0, 0.0};
  data.boundary = {0.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0};  // from option 0 only
  data.num_microbatches = 8;
  std::vector<int> choice(2, -1);
  const double best = AssembleChain(data.View(), choice.data());
  EXPECT_EQ(best, 6.0 + 7.0 * 2.0 + PerfModel::kIterOverhead);
  EXPECT_EQ(choice, (std::vector<int>{0, 0}));
}

TEST(ChainAssemblyTest, SingleOptionStageRunsTheWholePipelineAlone) {
  ChainData data;
  data.opt_count = {1};
  data.t_stage = {2.0, 0.0};
  data.t_dp_sync = {1.0, 0.0};
  data.boundary.assign(4, 0.0);
  data.num_microbatches = 4;
  std::vector<int> choice(1, -1);
  const double best = AssembleChain(data.View(), choice.data());
  EXPECT_EQ(best, (2.0 + 3.0 * 2.0) + PerfModel::kDpSyncExposedFraction * 1.0 +
                      PerfModel::kIterOverhead);
  EXPECT_EQ(choice, (std::vector<int>{0}));
}

// The scratch is reused across calls: a short chain assembled right after a
// long one with larger values must not see the long chain's leftover caps.
TEST(ChainAssemblyTest, ShortChainAfterALongOneIgnoresLeftoverScratch) {
  ChainData long_chain;
  const size_t ns = 16;
  long_chain.opt_count.assign(ns, 2);
  long_chain.t_stage.assign(2 * ns, 0.0);
  long_chain.t_dp_sync.assign(2 * ns, 0.0);
  long_chain.boundary.assign(4 * ns, 0.0);
  for (size_t i = 0; i < 2 * ns; ++i) {
    long_chain.t_stage[i] = 100.0 + static_cast<double>(i);
    long_chain.t_dp_sync[i] = 50.0 + static_cast<double>(i);
  }
  long_chain.num_microbatches = 32;
  std::vector<int> long_choice(ns, -1);
  (void)AssembleChain(long_chain.View(), long_choice.data());

  ChainData data;
  data.opt_count = {2, 1};
  data.t_stage = {2.0, 3.0, 2.0, 0.0};
  data.t_dp_sync = {0.0, 0.0, 0.0, 0.0};
  data.boundary = {0.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0};
  data.num_microbatches = 8;
  std::vector<int> want_choice;
  const double want = BruteForce(data.View(), &want_choice);
  std::vector<int> choice(2, -1);
  EXPECT_EQ(AssembleChain(data.View(), choice.data()), want);
  EXPECT_EQ(choice, want_choice);
}

// Each thread assembles with its own scratch, so concurrent calls agree with
// the depth-first enumeration just as serial ones do.
TEST(ChainAssemblyTest, ConcurrentCallsMatchDepthFirstEnumeration) {
  constexpr int kThreads = 4;
  constexpr int kCasesPerThread = 500;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &mismatches] {
      Rng rng(20260419 + static_cast<uint64_t>(t), "chain_assembly_threads");
      for (int it = 0; it < kCasesPerThread; ++it) {
        const ChainData data = RandomChain(rng);
        const StageChain chain = data.View();
        std::vector<int> want_choice;
        const double want = BruteForce(chain, &want_choice);
        std::vector<int> got_choice(chain.num_stages, -1);
        const double got = AssembleChain(chain, got_choice.data());
        if (got != want || got_choice != want_choice) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ChainAssemblyDeathTest, EmptyChainAborts) {
  const StageChain chain;
  int choice = -1;
  EXPECT_DEATH(AssembleChain(chain, &choice), "ns >= 1");
}

TEST(ChainAssemblyDeathTest, OptionCountMustBeOneOrTwo) {
  ChainData data;
  data.opt_count = {3};
  data.t_stage.assign(2, 1.0);
  data.t_dp_sync.assign(2, 0.0);
  data.boundary.assign(4, 0.0);
  std::vector<int> choice(1, -1);
  EXPECT_DEATH(AssembleChain(data.View(), choice.data()), "opt_count");
}

}  // namespace
}  // namespace crius
