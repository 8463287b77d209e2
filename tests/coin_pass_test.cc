// The coin pass of BFS Sharing's world fill and the threads that join it:
// CoinPass helpers next to a build, and the engine's HelperPool threads
// helping an inline prepare that refills its replica's generation in place.
// Whoever tosses the coins, the words must equal a fill on one thread. Every
// case runs under a watchdog, so a lost wake-up fails fast instead of hanging
// the suite, and a case that needs a helper inside a pass waits until the
// helper has claimed a block there instead of sleeping.

#include "common/coin_pass.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitvector.h"
#include "engine/helper_pool.h"
#include "graph/graph_builder.h"
#include "obs/metrics.h"
#include "reliability/bfs_sharing.h"
#include "test_util.h"

namespace relcomp {

class CoinPassTestPeer {
 public:
  static size_t ClaimedBlocks(const CoinPass& pass) {
    return pass.next_block_.load(std::memory_order_relaxed);
  }
  static bool Closed(const CoinPass& pass) {
    return (pass.published_.load(std::memory_order_relaxed) & 1) != 0;
  }
};

namespace {

using ::relcomp::testing::CounterValue;
using ::relcomp::testing::Watchdog;

/// Returns once `helpers` helpers have claimed a block of `pass`. A helper
/// claims its first block as it enters Help, before it waits for anything,
/// so after this the pass cannot finish without them: a block claimed
/// before the owner's Finish is filled by its claimer.
void AwaitHelpers(const CoinPass& pass, size_t helpers) {
  while (CoinPassTestPeer::ClaimedBlocks(pass) < helpers) {
    std::this_thread::yield();
  }
}

enum class Mix { kNoCoinEdges, kOnlyCoinEdges, kMixed };

const char* MixName(Mix mix) {
  switch (mix) {
    case Mix::kNoCoinEdges:
      return "no coin edges";
    case Mix::kOnlyCoinEdges:
      return "only coin edges";
    case Mix::kMixed:
      return "mixed";
  }
  return "?";
}

/// A cycle of `m` edges whose probabilities sweep a range: below 0.25 (all
/// geometric), in [0.25, 1) (all coin edges), or both alternating. 3,072
/// coin edges are a whole number of coin-pass blocks at L = 1500 (12 fills
/// per block), at L = 64 (256), and at L = 1500 narrowed to 1,024 worlds
/// (16) or to 128 (128), so the pass closes on a published count that ends
/// a block.
UncertainGraph CycleGraph(Mix mix) {
  constexpr uint32_t kEdges = 3072;
  const uint32_t m = mix == Mix::kMixed ? 2 * kEdges + 1 : kEdges;
  GraphBuilder builder(m);
  for (uint32_t e = 0; e < m; ++e) {
    const double frac = static_cast<double>(e % 97) / 97.0;
    const double geometric = 0.001 + 0.24 * frac;
    const double coin = 0.25 + 0.7499 * frac;
    double p = coin;
    if (mix == Mix::kNoCoinEdges || (mix == Mix::kMixed && e % 2 == 0)) {
      p = geometric;
    }
    builder.AddEdge(e, (e + 1) % m, p).CheckOK();
  }
  return builder.Build().MoveValue();
}

size_t CoinEdges(const UncertainGraph& graph) {
  size_t count = 0;
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    count += BitVector::FillDrawsEveryBit(graph.prob(e));
  }
  return count;
}

std::vector<uint64_t> Words(const BfsSharingIndex& index) {
  const uint64_t* begin = index.edge_words(0);
  return std::vector<uint64_t>(
      begin, begin + index.num_edges() * index.words_per_edge());
}

/// The first `words_per_edge` words of every edge of `index`, back to back.
std::vector<uint64_t> WordsAtWidth(const BfsSharingIndex& index,
                                   size_t words_per_edge) {
  std::vector<uint64_t> words;
  for (EdgeId e = 0; e < index.num_edges(); ++e) {
    words.insert(words.end(), index.edge_words(e),
                 index.edge_words(e) + words_per_edge);
  }
  return words;
}

/// A generation shape: L worlds, narrowed to a budget of `budget` worlds
/// when it is nonzero (BfsSharingIndex::Build's `num_worlds`).
struct Shape {
  uint32_t l;
  uint32_t budget;
  size_t words_per_edge() const {
    return (static_cast<size_t>(budget == 0 ? l : budget) + 63) / 64;
  }
};

constexpr Shape kShapes[] = {{1, 0}, {64, 0}, {1500, 0}, {1500, 1000},
                             {1500, 100}};
constexpr Mix kMixes[] = {Mix::kNoCoinEdges, Mix::kOnlyCoinEdges, Mix::kMixed};

/// A replica of L = `shape.l` worlds, with no generation yet, that
/// prepares generations as wide as `shape.budget`, as an engine's do.
std::unique_ptr<BfsSharingEstimator> MakeReplica(const UncertainGraph& graph,
                                                 const Shape& shape) {
  BfsSharingOptions options;
  options.index_samples = shape.l;
  return BfsSharingEstimator::CreateReplica(graph, options, shape.budget)
      .MoveValue();
}

/// The first shape.words_per_edge() words of every edge of the whole
/// L-world generation of `seed`: what every generation of `shape` must hold.
std::vector<uint64_t> PrefixOfWholeGeneration(const UncertainGraph& graph,
                                              const Shape& shape,
                                              uint64_t seed) {
  BfsSharingOptions options;
  options.index_samples = shape.l;
  const auto whole = BfsSharingIndex::Build(graph, options, seed).MoveValue();
  return WordsAtWidth(*whole, shape.words_per_edge());
}

TEST(CoinPassTest, HelpersFromBeforeTheBuildFillTheSameWords) {
  Watchdog watchdog(std::chrono::seconds(120));
  size_t helped_at_1500 = 0;
  for (const Mix mix : kMixes) {
    const UncertainGraph graph = CycleGraph(mix);
    for (const Shape& shape : kShapes) {
      const uint32_t l = shape.l;
      SCOPED_TRACE(::testing::Message() << MixName(mix) << ", L = " << l
                                        << ", budget " << shape.budget);
      BfsSharingOptions options;
      options.index_samples = l;
      const auto alone =
          BfsSharingIndex::Build(graph, options, 17, nullptr, shape.budget)
              .MoveValue();
      EXPECT_EQ(alone->words_per_edge(), shape.words_per_edge());
      EXPECT_EQ(Words(*alone), PrefixOfWholeGeneration(graph, shape, 17));
      // Two helpers wait for the first block before the build has begun the
      // pass; they return once it closes, also when it has no fill at all.
      CoinPass coins;
      std::vector<size_t> helped(2, 0);
      std::vector<std::thread> helpers;
      for (size_t& count : helped) {
        helpers.emplace_back([&coins, &count] { count = coins.Help(); });
      }
      AwaitHelpers(coins, helpers.size());
      const auto joined =
          BfsSharingIndex::Build(graph, options, 17, &coins, shape.budget)
              .MoveValue();
      for (std::thread& helper : helpers) helper.join();
      EXPECT_EQ(Words(*joined), Words(*alone));
      EXPECT_LE(helped[0] + helped[1], CoinEdges(graph));
      if (mix == Mix::kNoCoinEdges) {
        EXPECT_EQ(helped[0] + helped[1], 0u);
      }
      if (l == 1500) helped_at_1500 += helped[0] + helped[1];
      // A helper that arrives after the pass finished finds nothing to do.
      EXPECT_EQ(coins.Help(), 0u);
    }
  }
  // The helpers claimed the first blocks before the serial pass started, so
  // they took part of the coin pass.
  EXPECT_GT(helped_at_1500, 0u);
}

TEST(CoinPassTest, PassSizesAroundTheLaneWidthMatchPerEdgeFills) {
  // Passes of 1, 3, 4, 5, 13, 16 and 32 fills: none, one, or several
  // four-lane fills, with zero to three fills left over for the
  // one-at-a-time path; at L = 1500 (12 fills per block) 13 fills take two
  // blocks. A generation narrowed to W words per edge runs its pass at
  // num_bits = 64 W < L; at W = 16 a block holds 16 fills, so 16 and 32
  // fills close on a count that ends a block. With or without a helper,
  // each fill's words (the zeroed tail included: the output starts all
  // ones) must equal the first W words of its own whole FillBernoulliWords
  // call.
  Watchdog watchdog(std::chrono::seconds(60));
  RecordProperty("fill_coin_words4_avx2",
                 BitVector::FillCoinWords4UsesAvx2() ? "yes" : "no");
  struct PassShape {
    uint32_t l;
    size_t words_per_fill;
  };
  Rng rng(0xF111);
  for (const PassShape& shape : {PassShape{1, 1}, PassShape{65, 2},
                                 PassShape{1500, 24}, PassShape{1500, 1},
                                 PassShape{1500, 5}, PassShape{1500, 16}}) {
    const size_t w = shape.words_per_fill;
    const size_t num_bits = std::min<size_t>(64 * w, shape.l);
    for (const size_t n : {1u, 3u, 4u, 5u, 13u, 16u, 32u}) {
      for (const bool with_helper : {false, true}) {
        SCOPED_TRACE(::testing::Message() << "L = " << shape.l << ", W = "
                                          << w << ", " << n
                                          << " fills, helper "
                                          << with_helper);
        std::vector<double> p(n);
        std::vector<RngState> starts(n);
        for (size_t i = 0; i < n; ++i) {
          p[i] = 0.25 + 0.75 * rng.NextDouble();
          for (uint64_t& word : starts[i].s) word = rng.NextU64();
        }
        p[n / 2] = std::numeric_limits<double>::quiet_NaN();
        p[n - 1] = 0.25;
        std::vector<uint64_t> expected;
        for (size_t i = 0; i < n; ++i) {
          std::vector<uint64_t> whole((shape.l + 63) / 64, ~uint64_t{0});
          RngState state = starts[i];
          BitVector::FillBernoulliWords(whole.data(), shape.l, p[i], state);
          expected.insert(expected.end(), whole.begin(), whole.begin() + w);
        }
        std::vector<uint64_t> got(n * w, ~uint64_t{0});
        CoinPass coins;
        size_t helped = 0;
        std::thread helper;
        if (with_helper) {
          helper = std::thread([&coins, &helped] { helped = coins.Help(); });
        }
        coins.Begin(n, num_bits);
        for (size_t i = 0; i < n; ++i) {
          coins.Defer(&got[i * w], p[i], starts[i]);
        }
        coins.Finish();
        if (with_helper) helper.join();
        EXPECT_EQ(got, expected);
        EXPECT_LE(helped, n);
      }
    }
  }
}

TEST(CoinPassTest, CloseWithoutBeginReleasesWaitingHelpers) {
  Watchdog watchdog(std::chrono::seconds(60));
  CoinPass coins;
  size_t helped = 1;
  std::thread helper([&coins, &helped] { helped = coins.Help(); });
  AwaitHelpers(coins, 1);
  coins.Close();
  helper.join();
  EXPECT_EQ(helped, 0u);
  coins.Close();  // idempotent
  EXPECT_EQ(coins.Help(), 0u);
}

TEST(HelperPoolTest, HelpersHelpAnInlinePrepareRefillInPlace) {
  Watchdog watchdog(std::chrono::seconds(120));
  for (const Mix mix : kMixes) {
    const UncertainGraph graph = CycleGraph(mix);
    for (const Shape& shape : kShapes) {
      SCOPED_TRACE(::testing::Message() << MixName(mix) << ", L = " << shape.l
                                        << ", budget " << shape.budget);
      // A first prepare gives the replica a generation of its own, of its
      // budget's width, which it then refills in place.
      auto replica = MakeReplica(graph, shape);
      ASSERT_TRUE(replica->PrepareForNextQuery(0xF1257).ok());
      const void* identity = replica->SharedIndexIdentity();
      obs::MetricsRegistry metrics;
      HelperPool helpers(metrics, /*num_helpers=*/1);
      constexpr uint64_t kSeed = 0x1A7E;
      {
        HelperPool::InlinePass inline_pass(&helpers);
        ASSERT_NE(inline_pass.coins(), nullptr);
        // The gate: the prepare starts only once the helper has claimed the
        // pass's first block, so the helper fills that block.
        AwaitHelpers(*inline_pass.coins(), 1);
        ASSERT_TRUE(
            replica->PrepareForNextQuery(kSeed, inline_pass.coins()).ok());
      }
      // The helper counts its fills once its Help returns; joining it makes
      // the count final.
      helpers.Shutdown();

      EXPECT_EQ(Words(*replica->shared_index()),
                PrefixOfWholeGeneration(graph, shape, kSeed));
      EXPECT_EQ(replica->SharedIndexIdentity(), identity);

      const uint64_t helped =
          CounterValue(metrics, "coin_pass_helped_fills_total");
      EXPECT_LE(helped, CoinEdges(graph));
      if (mix == Mix::kNoCoinEdges) {
        EXPECT_EQ(helped, 0u);
      } else {
        EXPECT_GT(helped, 0u);
      }
    }
  }
}

TEST(HelperPoolTest, AnInlinePassClosedUnbegunReleasesItsHelper) {
  Watchdog watchdog(std::chrono::seconds(60));
  obs::MetricsRegistry metrics;
  HelperPool helpers(metrics, /*num_helpers=*/1);
  EXPECT_EQ(helpers.num_helpers(), 1u);
  // With no helpers, the handle opens no pass: the prepare fills alone.
  EXPECT_EQ(HelperPool::InlinePass(nullptr).coins(), nullptr);
  {
    HelperPool::InlinePass inline_pass(&helpers);
    ASSERT_NE(inline_pass.coins(), nullptr);
    EXPECT_FALSE(CoinPassTestPeer::Closed(*inline_pass.coins()));
    AwaitHelpers(*inline_pass.coins(), 1);
    // The helper waits in the pass; the prepare fails before Begin, and the
    // handle closes the pass as it goes.
  }
  helpers.Shutdown();  // returns: the helper left the pass
  EXPECT_EQ(CounterValue(metrics, "coin_pass_helped_fills_total"), 0u);
}

}  // namespace
}  // namespace relcomp
