// NYC-taxi-like workload for the taxi-ride case study (§6.3).
//
// SUBSTITUTION (docs/architecture.md, "Scope and substitutions"): the paper
// replays the DEBS 2015 Grand Challenge dataset (all 2013 NYC taxi rides)
// with trip start coordinates mapped to the six NYC boroughs. We synthesise
// rides whose start-borough shares follow the real Manhattan-dominated skew
// and whose trip distances are per-borough gamma distributions
// (airport/outer-borough trips longer).
// The evaluated query — average trip distance per start borough per sliding
// window — is the paper's query verbatim.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workload/synthetic.h"

namespace streamapprox::workload {

/// NYC borough of a ride's start coordinate; doubles as the stratum id.
enum class Borough : sampling::StratumId {
  kManhattan = 0,
  kBrooklyn = 1,
  kQueens = 2,
  kBronx = 3,
  kStatenIsland = 4,
  kNewark = 5,  // EWR airport zone, as in the TLC zone map
};

/// Number of boroughs modelled.
inline constexpr std::size_t kBoroughCount = 6;

/// Human-readable borough name.
std::string borough_name(Borough borough);

/// Generator configuration: ride shares and trip-distance distributions
/// (miles) per start borough. Defaults reflect the strongly skewed real
/// distribution (Manhattan ~87 % of yellow-cab pickups in 2013) softened to
/// keep all strata active at bench scales, with realistic mean distances.
struct TaxiConfig {
  std::vector<double> shares{0.70, 0.14, 0.10, 0.04, 0.01, 0.01};
  std::vector<Gamma> distance_miles{
      Gamma{2.2, 0.9},   // Manhattan: short hops, ~2 mi
      Gamma{2.5, 1.3},   // Brooklyn
      Gamma{2.8, 2.0},   // Queens (JFK/LGA traffic), ~5.6 mi
      Gamma{2.3, 1.4},   // Bronx
      Gamma{3.0, 2.4},   // Staten Island, ~7 mi
      Gamma{6.0, 2.8},   // Newark airport, ~17 mi
  };
  /// Aggregate ride arrival rate (rides/second of event time).
  double rides_per_sec = 50000.0;
};

/// Builds the sub-stream specs for a taxi stream.
std::vector<SubStreamSpec> taxi_substreams(const TaxiConfig& config);

/// Generates `count` ride records sorted by event time; Record.stratum is
/// the start Borough, Record.value the trip distance in miles.
std::vector<engine::Record> generate_taxi_rides(const TaxiConfig& config,
                                                std::size_t count,
                                                std::uint64_t seed);

}  // namespace streamapprox::workload
