// SlideAggregator implementations for the pipelined engine:
//  * OasrsSlideAggregator — the sampling operator the paper adds to Flink
//    (§4.2.2 "we created a sampling operator by implementing the algorithm
//    described in §3.2"): OASRS per slide, cells carry (C_i, Y_i, W_i).
//  * ExactSlideAggregator — the native (no-sampling) baseline: exact
//    per-stratum sums with zero variance.
//
// Both support an optional per-record "query work" loop so that the cost of
// the user query (parsing/feature extraction in the paper's case studies)
// scales with the number of records actually processed — the effect that
// lets sampling trade accuracy for throughput.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/pipelined/dataflow.h"
#include "engine/query_cost.h"
#include "estimation/estimators.h"
#include "sampling/oasrs.h"

namespace streamapprox::engine::pipelined {

/// Exact per-stratum aggregation (native Flink baseline). Every record is
/// fully processed; emitted cells have seen == sampled and weight 1, so the
/// estimators return exact results with zero variance.
class ExactSlideAggregator final : public SlideAggregator {
 public:
  /// `work` is the per-record query cost (see engine/query_cost.h).
  explicit ExactSlideAggregator(QueryCost work = {}) : work_(work) {}

  void offer(const Record& record) override {
    cells_.add(record.stratum, work_.charge(record.value));
  }

  std::vector<estimation::StratumSummary> take_slide() override {
    return cells_.take();
  }

 private:
  QueryCost work_;
  estimation::ExactCells cells_;
};

/// OASRS sampling + aggregation operator (Flink-based StreamApprox). Records
/// are offered to a per-worker OASRS sampler; at the slide boundary the
/// sample is aggregated (the query runs over Y_i items only) and reported as
/// cells with the Eq. 1 weights. Each take() ends the sampler's interval, so
/// every slide splits the budget over the strata it sees.
class OasrsSlideAggregator final : public SlideAggregator {
 public:
  /// `config` controls the per-slide sampling budget; `work` is the
  /// per-record query cost applied to SAMPLED records only.
  OasrsSlideAggregator(sampling::OasrsConfig config, QueryCost work = {})
      : sampler_(sampling::make_oasrs<Record>(config)), work_(work) {}

  void offer(const Record& record) override { sampler_.offer(record); }

  std::vector<estimation::StratumSummary> take_slide() override {
    return estimation::summarize(
        sampler_.take(),
        [this](const Record& record) { return work_.charge(record.value); });
  }

 private:
  decltype(sampling::make_oasrs<Record>({})) sampler_;
  QueryCost work_;
};

}  // namespace streamapprox::engine::pipelined
