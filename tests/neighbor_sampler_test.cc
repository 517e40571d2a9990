#include "urg/neighbor_sampler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <vector>

#include "baselines/registry.h"
#include "core/cmsf_detector.h"
#include "core/cmsf_model.h"
#include "eval/runner.h"
#include "obs/metrics.h"
#include "synth/city.h"
#include "test_helpers.h"
#include "util/buffer_pool.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace uv::urg {
namespace {

std::shared_ptr<const synth::City> TinyCity(uint64_t seed = 11) {
  return std::make_shared<const synth::City>(
      synth::GenerateCity(uv::testing::TinyCityConfig(seed)));
}

UrgOptions SmallOptions() {
  UrgOptions options;
  options.image_feature_dim = 32;
  return options;
}

UrbanRegionGraph Dense(const std::shared_ptr<const synth::City>& city) {
  return BuildUrg(*city, SmallOptions());
}

UrbanRegionGraph Sharded(const std::shared_ptr<const synth::City>& city,
                         int num_shards) {
  ShardOptions shard;
  shard.num_shards = num_shards;
  // Statistics over the whole tiny city so lazy features match eager ones.
  shard.feature_store.stats_sample = 1 << 20;
  return BuildShardedUrg(city, SmallOptions(), shard);
}

// All (dst -> sorted global sources) segments reconstructed from the
// sharded representation.
std::vector<std::vector<int>> ShardedSegments(const UrbanRegionGraph& urg) {
  const ShardedUrg& s = *urg.sharded;
  std::vector<std::vector<int>> segs(s.num_regions());
  for (const auto& shard : s.shards) {
    const auto& off = *shard.local.offsets();
    const auto& nbr = *shard.local.neighbors();
    for (int l = 0; l < shard.num_owned; ++l) {
      const int dst = shard.GlobalOf(s.grid, l);
      for (int e = off[l]; e < off[l + 1]; ++e) {
        segs[dst].push_back(shard.GlobalOf(s.grid, nbr[e]));
      }
    }
  }
  for (auto& v : segs) std::sort(v.begin(), v.end());
  return segs;
}

void ExpectSubgraphsIdentical(const SampledSubgraph& a,
                              const SampledSubgraph& b) {
  ASSERT_EQ(a.nodes, b.nodes);
  ASSERT_EQ(a.num_seeds, b.num_seeds);
  ASSERT_EQ(*a.offsets, *b.offsets);
  ASSERT_EQ(*a.src_ids, *b.src_ids);
  ASSERT_EQ(*a.dst_ids, *b.dst_ids);
  ASSERT_EQ(a.gcn_norm.rows(), b.gcn_norm.rows());
  ASSERT_EQ(0, std::memcmp(a.gcn_norm.data(), b.gcn_norm.data(),
                           sizeof(float) * a.gcn_norm.size()));
}

TEST(ShardedUrgTest, ReconstructsDenseAdjacencyExactly) {
  auto city = TinyCity();
  const UrbanRegionGraph dense = Dense(city);
  const int n = dense.num_regions();
  for (const int shards : {1, 4, 6}) {
    const UrbanRegionGraph sh = Sharded(city, shards);
    ASSERT_NE(sh.sharded, nullptr);
    EXPECT_GE(static_cast<int>(sh.sharded->shards.size()), 1);
    const auto segs = ShardedSegments(sh);
    for (int r = 0; r < n; ++r) {
      EXPECT_EQ(segs[r], dense.adjacency.InNeighbors(r))
          << "dst " << r << " shards " << shards;
      EXPECT_EQ(sh.sharded->global_degree[r], dense.adjacency.Degree(r));
    }
    EXPECT_EQ(sh.num_edges, dense.num_edges);
    EXPECT_EQ(sh.num_spatial_edges, dense.num_spatial_edges);
    EXPECT_EQ(sh.num_road_edges, dense.num_road_edges);
  }
}

TEST(ShardedUrgTest, HaloRegionsAreSortedNonOwnedSources) {
  auto city = TinyCity();
  const UrbanRegionGraph sh = Sharded(city, 4);
  const ShardedUrg& s = *sh.sharded;
  ASSERT_GT(static_cast<int>(s.shards.size()), 1);
  for (const auto& shard : s.shards) {
    // Sorted, unique, and outside the shard's owned tile.
    ASSERT_TRUE(std::is_sorted(shard.halo.begin(), shard.halo.end()));
    ASSERT_EQ(std::adjacent_find(shard.halo.begin(), shard.halo.end()),
              shard.halo.end());
    for (const int id : shard.halo) {
      const int r = s.grid.RowOf(id), c = s.grid.ColOf(id);
      EXPECT_FALSE(r >= shard.bounds[0] && r < shard.bounds[2] &&
                   c >= shard.bounds[1] && c < shard.bounds[3])
          << "halo id " << id << " is owned by shard " << shard.shard_id;
    }
    // Every halo slot is referenced by at least one in-edge.
    std::vector<char> used(shard.halo.size(), 0);
    for (const int src : *shard.local.neighbors()) {
      if (src >= shard.num_owned) used[src - shard.num_owned] = 1;
    }
    for (size_t i = 0; i < used.size(); ++i) {
      EXPECT_TRUE(used[i]) << "unreferenced halo entry " << shard.halo[i];
    }
  }
}

TEST(NeighborSamplerTest, KHopClosureMatchesBruteForce) {
  auto city = TinyCity();
  const UrbanRegionGraph dense = Dense(city);
  const NeighborView view(dense);
  const std::vector<int> seeds = {0, 37, 201, 514};
  MinibatchConfig cfg;
  cfg.fanout = 0;  // Exact closure.
  cfg.hops = 2;
  const SampledSubgraph sg = SampleKHop(view, seeds, cfg);
  ASSERT_EQ(sg.num_seeds, static_cast<int>(seeds.size()));

  // Brute-force level sets over the dense adjacency.
  std::set<int> level0(seeds.begin(), seeds.end());
  auto expand = [&](const std::set<int>& frontier) {
    std::set<int> out = frontier;
    for (const int id : frontier) {
      for (const int src : dense.adjacency.InNeighbors(id)) out.insert(src);
    }
    return out;
  };
  const std::set<int> level1 = expand(level0);
  const std::set<int> level2 = expand(level1);
  const std::set<int> got(sg.nodes.begin(), sg.nodes.end());
  EXPECT_EQ(got, level2);

  // Nodes below the last hop keep their full in-segments; frontier nodes
  // carry only a self loop.
  const auto& off = *sg.offsets;
  const auto& src = *sg.src_ids;
  for (int l = 0; l < sg.num_nodes(); ++l) {
    const int global = sg.nodes[l];
    std::vector<int> sources;
    for (int e = off[l]; e < off[l + 1]; ++e) {
      sources.push_back(sg.nodes[src[e]]);
    }
    std::sort(sources.begin(), sources.end());
    if (level1.count(global) > 0) {
      EXPECT_EQ(sources, dense.adjacency.InNeighbors(global))
          << "node " << global;
    } else {
      EXPECT_EQ(sources, std::vector<int>{global}) << "frontier " << global;
    }
  }
}

TEST(NeighborSamplerTest, FanoutSamplesAreValidAndBatchInvariant) {
  auto city = TinyCity();
  const UrbanRegionGraph dense = Dense(city);
  const NeighborView view(dense);
  MinibatchConfig cfg;
  cfg.fanout = 3;
  cfg.hops = 2;
  cfg.seed = 77;

  auto seed_sources = [&](const SampledSubgraph& sg) {
    std::vector<int> out;
    for (int e = (*sg.offsets)[0]; e < (*sg.offsets)[1]; ++e) {
      out.push_back(sg.nodes[(*sg.src_ids)[e]]);
    }
    std::sort(out.begin(), out.end());
    return out;
  };

  const SampledSubgraph alone = SampleKHop(view, {5}, cfg);
  const SampledSubgraph batched = SampleKHop(view, {5, 99, 340}, cfg);
  const std::vector<int> sources = seed_sources(alone);

  // Same node, same cfg.seed => identical draw regardless of the batch.
  EXPECT_EQ(sources, seed_sources(batched));
  // Valid: a subset of the dense segment, self loop included, exactly
  // min(fanout, deg - 1) sampled neighbors + self.
  const std::vector<int> full = dense.adjacency.InNeighbors(5);
  for (const int s : sources) {
    EXPECT_TRUE(std::binary_search(full.begin(), full.end(), s));
  }
  EXPECT_TRUE(std::binary_search(sources.begin(), sources.end(), 5));
  const int expected =
      std::min(cfg.fanout, static_cast<int>(full.size()) - 1) + 1;
  EXPECT_EQ(static_cast<int>(sources.size()), expected);

  // Re-sampling with the same config is bit-identical.
  ExpectSubgraphsIdentical(batched, SampleKHop(view, {5, 99, 340}, cfg));
  // A different seed changes the draw for a high-degree node.
  MinibatchConfig other = cfg;
  other.seed = 78;
  bool any_differs = false;
  for (const int id : {5, 99, 340}) {
    if (seed_sources(SampleKHop(view, {id}, cfg)) !=
        seed_sources(SampleKHop(view, {id}, other))) {
      any_differs = true;
    }
  }
  EXPECT_TRUE(any_differs);
}

TEST(NeighborSamplerTest, BitIdenticalAcrossThreadsPoolAndRepresentation) {
  const int original_threads = ThreadPool::Global().num_threads();
  const bool original_pool = BufferPool::Enabled();
  auto city = TinyCity();
  const std::vector<int> seeds = {3, 88, 212, 399, 555};
  MinibatchConfig cfg;
  cfg.fanout = 4;
  cfg.hops = 2;
  cfg.seed = 2023;

  const UrbanRegionGraph reference_urg = Dense(city);
  const SampledSubgraph reference =
      SampleKHop(NeighborView(reference_urg), seeds, cfg);

  for (const int threads : {1, 4}) {
    for (const bool pool : {true, false}) {
      ThreadPool::SetGlobalThreads(threads);
      BufferPool::SetEnabled(pool);
      const UrbanRegionGraph dense = Dense(city);
      const UrbanRegionGraph sharded = Sharded(city, 4);
      ExpectSubgraphsIdentical(reference,
                               SampleKHop(NeighborView(dense), seeds, cfg));
      ExpectSubgraphsIdentical(reference,
                               SampleKHop(NeighborView(sharded), seeds, cfg));
    }
  }
  ThreadPool::SetGlobalThreads(original_threads);
  BufferPool::SetEnabled(original_pool);
}

TEST(FeatureStoreTest, LazyRowsMatchEagerFeatures) {
  auto city = TinyCity();
  const UrbanRegionGraph dense = Dense(city);
  const UrbanRegionGraph sharded = Sharded(city, 2);
  ASSERT_EQ(sharded.PoiDim(), dense.poi_features.cols());
  ASSERT_EQ(sharded.ImageDim(), dense.image_features.cols());

  const std::vector<int> ids = {0, 5, 5, 123, 42, 575};
  Tensor poi, img;
  sharded.GatherPoiRows(ids, &poi);
  sharded.GatherImageRows(ids, &img);
  for (size_t i = 0; i < ids.size(); ++i) {
    for (int c = 0; c < poi.cols(); ++c) {
      EXPECT_FLOAT_EQ(poi.at(static_cast<int>(i), c),
                      dense.poi_features.at(ids[i], c));
    }
    for (int c = 0; c < img.cols(); ++c) {
      EXPECT_NEAR(img.at(static_cast<int>(i), c),
                  dense.image_features.at(ids[i], c), 1e-4)
          << "region " << ids[i] << " col " << c;
    }
  }

  // A second gather is served from the LRU cache and returns identical rows.
  auto store = std::dynamic_pointer_cast<LazyFeatureStore>(sharded.features);
  ASSERT_NE(store, nullptr);
  const uint64_t hits_before = store->cache_hits();
  Tensor again;
  sharded.GatherImageRows(ids, &again);
  EXPECT_GT(store->cache_hits(), hits_before);
  EXPECT_EQ(0, std::memcmp(img.data(), again.data(),
                           sizeof(float) * img.size()));
}

TEST(FeatureStoreTest, TilesRenderedCounterTracksOnDemandRenders) {
  auto city = TinyCity();
  auto& counter = obs::Registry::Global().GetCounter("synth.tiles_rendered");
  const uint64_t before = counter.Value();
  const UrbanRegionGraph sharded = Sharded(city, 2);
  // Construction encodes the statistics sample: the whole tiny city once.
  const uint64_t after_build = counter.Value();
  EXPECT_EQ(after_build - before,
            static_cast<uint64_t>(city->num_regions()));
  // A cold gather renders each unique requested region exactly once.
  Tensor img;
  sharded.GatherImageRows({7, 7, 19, 23}, &img);
  EXPECT_EQ(counter.Value() - after_build, 3u);
}

TEST(ParallelRenderTest, GenerateCityTilesDeterministicAcrossThreads) {
  const int original_threads = ThreadPool::Global().num_threads();
  synth::CityConfig config = uv::testing::TinyCityConfig();
  auto& counter = obs::Registry::Global().GetCounter("synth.tiles_rendered");

  ThreadPool::SetGlobalThreads(1);
  const uint64_t before = counter.Value();
  const synth::City serial = synth::GenerateCity(config);
  EXPECT_EQ(counter.Value() - before,
            static_cast<uint64_t>(serial.num_regions()));

  ThreadPool::SetGlobalThreads(4);
  const synth::City parallel = synth::GenerateCity(config);
  ThreadPool::SetGlobalThreads(original_threads);

  ASSERT_NE(serial.images, nullptr);
  ASSERT_NE(parallel.images, nullptr);
  ASSERT_EQ(serial.images->size(), parallel.images->size());
  EXPECT_EQ(0, std::memcmp(serial.images->data(), parallel.images->data(),
                           sizeof(float) * serial.images->size()));
}

TEST(GridTest, RegionCountIsInt64) {
  const graph::GridSpec grid{60000, 60000, 128.0};
  EXPECT_EQ(grid.num_regions(), 3600000000LL);
}

TEST(ParityTest, MasterPredictionsExactWithoutHierarchy) {
  auto city = TinyCity();
  const UrbanRegionGraph urg = Dense(city);
  core::CmsfConfig cfg;
  cfg.use_hierarchy = false;
  cfg.use_gate = false;
  Rng rng(3);
  const core::CmsfModel model(cfg, urg.PoiDim(), urg.ImageDim(), &rng);
  const core::CmsfInputs inputs = core::CmsfInputs::FromUrg(urg);

  std::vector<int> eval_ids;
  for (int i = 0; i < urg.num_regions(); i += 7) eval_ids.push_back(i);
  const auto full = core::PredictCmsf(model, inputs, nullptr, eval_ids);
  const auto chunked = core::PredictCmsf(
      model, core::BatchGraph{nullptr, &urg}, nullptr, eval_ids);
  ASSERT_EQ(full.size(), chunked.size());
  for (size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(full[i], chunked[i]) << "eval id " << eval_ids[i];
  }
}

// The sampled stage one freezes the assignment through exact fanout-0
// chunks; its rows must equal a whole-graph forward of the trained model.
TEST(ParityTest, MinibatchFreezeEqualsWholeGraphForward) {
  auto city = TinyCity();
  const UrbanRegionGraph urg = Dense(city);
  core::CmsfConfig cfg;
  cfg.master_epochs = 2;
  cfg.batch_size = 64;
  cfg.fanout = 4;
  cfg.num_clusters = 10;
  ASSERT_TRUE(cfg.use_hierarchy && cfg.use_gate);
  Rng rng(3);
  core::CmsfModel model(cfg, urg.PoiDim(), urg.ImageDim(), &rng);
  const std::vector<int> ids = urg.LabeledIds();
  std::vector<int> labels(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) labels[i] = urg.labels[ids[i]];
  const core::MasterTrainResult trained =
      core::TrainMasterMinibatch(&model, urg, ids, labels);

  const auto fwd = model.Forward(core::CmsfInputs::FromUrg(urg), nullptr);
  const Tensor& soft = fwd.assignment->value;
  ASSERT_TRUE(trained.frozen.soft.SameShape(soft));
  EXPECT_EQ(0, std::memcmp(trained.frozen.soft.data(), soft.data(),
                           sizeof(float) * soft.size()));
  EXPECT_EQ(trained.frozen.hard, fwd.hard_assignment);
}

TEST(ParityTest, FullAndMinibatchGcnMetricsMatch) {
  auto city = TinyCity();
  const UrbanRegionGraph urg = Dense(city);
  eval::RunnerOptions ropt;
  ropt.num_folds = 3;
  ropt.num_runs = 1;
  ropt.seed = 1234;

  auto factory = [&](int batch_size) {
    return [batch_size](uint64_t seed) {
      baselines::TrainOptions options;
      options.epochs = 12;
      options.seed = seed;
      options.batch_size = batch_size;  // One full-closure batch per epoch.
      options.fanout = 0;
      return baselines::MakeDetector("GCN", options, core::CmsfConfig{});
    };
  };
  const auto full = eval::RunCrossValidation(urg, factory(0), ropt);
  const auto mini = eval::RunCrossValidation(urg, factory(4096), ropt);
  // Identical splits, same loss on the seed rows; only float summation
  // order differs, so the metrics must agree tightly.
  EXPECT_NEAR(full.auc.mean, mini.auc.mean, 0.05);
  EXPECT_NEAR(full.recall3.mean, mini.recall3.mean, 0.15);
}

TEST(CmsfMinibatchTest, TrainsAndScoresOnShardedUrg) {
  auto city = TinyCity();
  const UrbanRegionGraph urg = Sharded(city, 2);
  core::CmsfConfig cfg;
  cfg.master_epochs = 3;
  cfg.slave_epochs = 2;
  cfg.batch_size = 64;
  cfg.fanout = 4;
  cfg.num_clusters = 10;
  cfg.seed = 5;
  core::CmsfDetector detector(cfg);

  const std::vector<int> labeled = urg.LabeledIds();
  ASSERT_GT(labeled.size(), 0u);
  std::vector<int> labels(labeled.size());
  for (size_t i = 0; i < labeled.size(); ++i) labels[i] = urg.labels[labeled[i]];
  detector.Train(urg, labeled, labels);

  EXPECT_EQ(static_cast<int>(detector.frozen().hard.size()),
            urg.num_regions());
  EXPECT_EQ(detector.frozen().soft.rows(), urg.num_regions());
  const auto scores = detector.Score(urg, labeled);
  ASSERT_EQ(scores.size(), labeled.size());
  for (const float p : scores) {
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
  }
}

}  // namespace
}  // namespace uv::urg
