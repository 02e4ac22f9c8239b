// CAIDA-like NetFlow workload for the network-traffic case study (§6.2).
//
// SUBSTITUTION (docs/architecture.md, "Scope and substitutions"): the paper
// replays 670 GB of CAIDA Chicago backbone traces converted to NetFlow.
// Those traces are not redistributable, so we synthesise flow records whose
// protocol mix matches the paper's reported dataset exactly (115,472,322
// TCP / 67,098,852 UDP / 2,801,002 ICMP flows => 62.3 % / 36.2 % / 1.5 %)
// and whose per-flow byte counts are heavy-tailed log-normals with
// per-protocol parameters in line with published backbone-traffic
// characterisations. The evaluated query — total traffic size per protocol
// per sliding window — is the paper's query and exercises the identical code
// path (stratify by protocol, weighted SUM).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload/synthetic.h"

namespace streamapprox::workload {

/// IP protocol of a flow record; doubles as the stratum id.
enum class Protocol : sampling::StratumId { kTcp = 0, kUdp = 1, kIcmp = 2 };

/// Human-readable protocol name ("TCP"/"UDP"/"ICMP").
std::string protocol_name(Protocol protocol);

/// Generator configuration.
struct NetFlowConfig {
  /// Flow-count shares, defaulting to the paper's dataset ratios.
  double tcp_share = 0.6229;
  double udp_share = 0.3620;
  double icmp_share = 0.0151;
  /// Flow size (bytes) distributions: heavy-tailed log-normals. Defaults:
  /// TCP median ~8 KB with long tail, UDP median ~300 B, ICMP ~90 B.
  LogNormal tcp_bytes{9.0, 1.8};
  LogNormal udp_bytes{5.7, 1.2};
  LogNormal icmp_bytes{4.5, 0.5};
  /// Aggregate flow arrival rate (flows/second of event time).
  double flows_per_sec = 100000.0;
};

/// Builds the sub-stream specs for a NetFlow stream (one stratum per
/// protocol with rate = share * flows_per_sec).
std::vector<SubStreamSpec> netflow_substreams(const NetFlowConfig& config);

/// Generates `count` flow records sorted by event time; Record.stratum is
/// the Protocol, Record.value the flow's byte count.
std::vector<engine::Record> generate_netflow(const NetFlowConfig& config,
                                             std::size_t count,
                                             std::uint64_t seed);

}  // namespace streamapprox::workload
