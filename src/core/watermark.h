// The low-watermark policy. The repartitioning exchange (ingest/exchange.h)
// is its one implementation for both facade modes: it keeps the partition
// clocks, applies this rule once per round and stamps the resolved value on
// every batch, and the facade only closes behind that value. A slide closes
// only when every partition's high-water event time has passed its end,
// where
//
//   * a partition that has never delivered gates the watermark during the
//     idleness grace period, then stops gating (Kafka's idleness rule);
//   * a partition drained to a sealed end never gates;
//   * a partition with data gates by its high-water clock.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

namespace streamapprox::core {

/// Clock sentinel: the partition has not delivered a record yet.
inline constexpr std::int64_t kNoClock =
    std::numeric_limits<std::int64_t>::min();
/// Clock sentinel: the partition is sealed and fully consumed.
inline constexpr std::int64_t kPartitionDrained =
    std::numeric_limits<std::int64_t>::max();

/// The outcome of one watermark evaluation over per-partition clocks.
struct WatermarkView {
  /// Low watermark over the partitions that currently gate (meaningful only
  /// when any_active).
  std::int64_t watermark = std::numeric_limits<std::int64_t>::max();
  /// A silent partition is still within its grace period: close nothing.
  bool blocked = false;
  /// At least one partition gates with a real clock.
  bool any_active = false;

  /// True when slides up to `watermark` may close.
  bool can_close() const noexcept { return !blocked && any_active; }

  /// True when no partition gates at all — every one is drained or idle
  /// past grace. Buffered slides must flush now (bounded by what is open,
  /// not by a clock): otherwise a topic whose active partitions drained
  /// while an idle partition stays unsealed would strand its output
  /// forever, defeating the idleness rule's purpose. An idle partition
  /// that wakes later re-gates; its stale records are late-dropped.
  bool flush_all() const noexcept { return !blocked && !any_active; }
};

/// Applies the policy to a snapshot of per-partition clocks.
inline WatermarkView evaluate_watermark(const std::vector<std::int64_t>& clocks,
                                        bool idle_grace_over) {
  WatermarkView view;
  for (const std::int64_t clock : clocks) {
    if (clock == kPartitionDrained) continue;
    if (clock == kNoClock) {
      if (!idle_grace_over) view.blocked = true;
      continue;
    }
    view.watermark = std::min(view.watermark, clock);
    view.any_active = true;
  }
  return view;
}

/// Collapses a WatermarkView into one policy-complete clock value:
/// kNoClock while blocked (nothing may close), kPartitionDrained when no
/// partition gates at all (flush everything), the low watermark otherwise.
///
/// The sentinel choice is what makes resolved values min-combinable: the
/// exchange resolves its partitions with this function and stamps the value
/// on every batch, and each of the W worker channels republishes the value
/// of its contiguously absorbed prefix. Because kNoClock sorts below every
/// real clock and kPartitionDrained above, the merger's plain std::min over
/// the W channel clocks yields the most conservative of them, so a slide
/// closes only once every channel has absorbed the records its watermark
/// covers.
inline std::int64_t resolve_watermark(const WatermarkView& view) {
  if (view.blocked) return kNoClock;
  if (view.flush_all()) return kPartitionDrained;
  return view.watermark;
}

}  // namespace streamapprox::core
