#include "urg/feature_store.h"

#include <algorithm>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/tensor_ops.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace uv::urg {
namespace {

void GatherRowsInto(const Tensor& src, const std::vector<int>& ids,
                    Tensor* out) {
  out->ResizeUninit(static_cast<int>(ids.size()), src.cols());
  for (size_t i = 0; i < ids.size(); ++i) {
    const int id = ids[i];
    UV_CHECK_GE(id, 0);
    UV_CHECK_LT(id, src.rows());
    std::memcpy(out->row(static_cast<int>(i)), src.row(id),
                sizeof(float) * static_cast<size_t>(src.cols()));
  }
}

}  // namespace

ResidentFeatureStore::ResidentFeatureStore(Tensor poi_features,
                                           Tensor image_features)
    : poi_(std::move(poi_features)), image_(std::move(image_features)) {
  UV_CHECK_EQ(poi_.rows(), image_.rows());
}

void ResidentFeatureStore::GatherPoi(const std::vector<int>& ids,
                                     Tensor* out) {
  GatherRowsInto(poi_, ids, out);
}

void ResidentFeatureStore::GatherImage(const std::vector<int>& ids,
                                       Tensor* out) {
  GatherRowsInto(image_, ids, out);
}

LazyFeatureStore::LazyFeatureStore(std::shared_ptr<const synth::City> city,
                                   Tensor poi_features,
                                   const Options& options)
    : city_(std::move(city)),
      poi_(std::move(poi_features)),
      options_(options),
      encoder_([&] {
        features::ConvEncoder::Options enc;
        enc.image_size = city_->config.image_size;
        enc.out_dim = options.image_feature_dim;
        enc.seed = options.encoder_seed;
        return features::ConvEncoder(enc);
      }()) {
  UV_CHECK(city_ != nullptr);
  UV_CHECK_EQ(poi_.rows(), city_->num_regions());
  const int n = city_->num_regions();
  const int dim = encoder_.out_dim();

  // Column statistics from a deterministic evenly-spaced sample. With
  // stats_sample >= N this is the whole city in id order — exactly the
  // population the eager path standardizes over — so small-city lazy
  // features match eager features bit for bit.
  col_mean_ = Tensor(1, dim);
  col_std_ = Tensor(1, dim);
  col_std_.Fill(1.0f);
  if (options_.standardize) {
    const int sample = std::min(n, std::max(1, options_.stats_sample));
    std::vector<int> ids(sample);
    for (int i = 0; i < sample; ++i) {
      ids[i] = static_cast<int>(static_cast<int64_t>(i) * n / sample);
    }
    Tensor encoded;
    encoded.ResizeUninit(sample, dim);
    // Temporarily mark stats as identity so EncodeRegions is a no-op map.
    EncodeRegions(ids, &encoded);
    const Tensor mean = ColumnMean(encoded);
    const Tensor std = ColumnStd(encoded, mean);
    for (int c = 0; c < dim; ++c) {
      col_mean_.at(0, c) = mean.at(0, c);
      // Same floor as StandardizeColumnsInPlace: quiet columns divide by 1.
      col_std_.at(0, c) = std.at(0, c) > 1e-6f ? std.at(0, c) : 1.0f;
    }
    // Re-encoding from here on applies (x - mean) / std.
  }

  const int rows = std::max(1, options_.cache_rows);
  cache_ = Tensor::Uninit(rows, dim);
  region_of_slot_.assign(rows, -1);
  lru_pos_.assign(rows, lru_.end());
  for (int s = rows - 1; s >= 0; --s) {
    lru_.push_front(s);
    lru_pos_[s] = lru_.begin();
  }
}

void LazyFeatureStore::GatherPoi(const std::vector<int>& ids, Tensor* out) {
  GatherRowsInto(poi_, ids, out);
}

void LazyFeatureStore::EncodeRegions(const std::vector<int>& ids,
                                     Tensor* out) {
  const int s = city_->config.image_size;
  const int dim = encoder_.out_dim();
  const int count = static_cast<int>(ids.size());
  // A plain local, NOT thread_local: the render lambda below runs on pool
  // workers, and a lambda body never captures a thread_local — each worker
  // would resolve its own (empty) instance. The slab comes from BufferPool,
  // so a fresh tensor per call is allocation-free in steady state anyway.
  Tensor tiles;
  tiles.ResizeUninit(count, 3 * s * s);
  auto& tiles_rendered =
      obs::Registry::Global().GetCounter("synth.tiles_rendered");
  {
    obs::SpanGuard span("tile_render", obs::SpanLevel::kFine, "n", count);
    ParallelFor(0, count, 16, [&](int begin, int end) {
      for (int i = begin; i < end; ++i) {
        city_->RenderRegionTile(ids[i], tiles.row(i));
      }
      tiles_rendered.Inc(static_cast<uint64_t>(end - begin));
    });
  }
  const Tensor encoded = encoder_.Encode(tiles);
  for (int i = 0; i < count; ++i) {
    const float* in = encoded.row(i);
    float* dst = out->row(i);
    for (int c = 0; c < dim; ++c) {
      dst[c] = (in[c] - col_mean_.at(0, c)) / col_std_.at(0, c);
    }
  }
}

void LazyFeatureStore::GatherImage(const std::vector<int>& ids, Tensor* out) {
  const int dim = encoder_.out_dim();
  out->ResizeUninit(static_cast<int>(ids.size()), dim);
  std::lock_guard<std::mutex> lock(mu_);

  // Pass 1: find misses (deduplicated, first-seen order).
  std::vector<int> missing;
  std::unordered_map<int, int> fresh_row;  // region -> row in `fresh`.
  for (const int id : ids) {
    UV_CHECK_GE(id, 0);
    UV_CHECK_LT(id, num_regions());
    if (slot_of_region_.count(id) == 0 && fresh_row.count(id) == 0) {
      fresh_row.emplace(id, static_cast<int>(missing.size()));
      missing.push_back(id);
    }
  }

  thread_local Tensor fresh;
  if (!missing.empty()) {
    cache_misses_ += missing.size();
    fresh.ResizeUninit(static_cast<int>(missing.size()), dim);
    EncodeRegions(missing, &fresh);
  }

  // Pass 2: copy rows out — freshly encoded rows from `fresh`, the rest
  // from the cache (with an LRU touch).
  for (size_t i = 0; i < ids.size(); ++i) {
    const auto miss_it = fresh_row.find(ids[i]);
    if (miss_it != fresh_row.end()) {
      std::memcpy(out->row(static_cast<int>(i)), fresh.row(miss_it->second),
                  sizeof(float) * static_cast<size_t>(dim));
      continue;
    }
    const int slot = slot_of_region_.at(ids[i]);
    std::memcpy(out->row(static_cast<int>(i)), cache_.row(slot),
                sizeof(float) * static_cast<size_t>(dim));
    lru_.splice(lru_.begin(), lru_, lru_pos_[slot]);
    lru_pos_[slot] = lru_.begin();
  }
  cache_hits_ += ids.size() - missing.size();

  // Pass 3: admit the fresh rows, newest last, capped at capacity (a miss
  // batch larger than the cache keeps only its tail resident).
  const size_t capacity = region_of_slot_.size();
  const size_t first =
      missing.size() > capacity ? missing.size() - capacity : 0;
  for (size_t i = first; i < missing.size(); ++i) {
    const int slot = lru_.back();
    lru_.pop_back();
    if (region_of_slot_[slot] >= 0) {
      slot_of_region_.erase(region_of_slot_[slot]);
    }
    region_of_slot_[slot] = missing[i];
    slot_of_region_[missing[i]] = slot;
    std::memcpy(cache_.row(slot), fresh.row(static_cast<int>(i)),
                sizeof(float) * static_cast<size_t>(dim));
    lru_.push_front(slot);
    lru_pos_[slot] = lru_.begin();
  }
}

}  // namespace uv::urg
