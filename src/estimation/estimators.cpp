#include "estimation/estimators.h"

#include <sstream>

namespace streamapprox::estimation {

std::string ApproxResult::to_string(double z) const {
  std::ostringstream out;
  out << estimate << " +/- " << error_bound(z);
  return out.str();
}

ApproxResult estimate_sum(const std::vector<StratumSummary>& strata) {
  ApproxResult result;
  for (const auto& s : strata) {
    result.population += s.seen;
    result.sample_size += s.sampled;
    // Eq. 2: SUM_i = (Σ_j I_ij) × W_i.
    result.estimate += s.sum * s.weight;
    // Eq. 6: Var(SUM) = Σ_i C_i (C_i − Y_i) s_i² / Y_i.
    if (s.sampled > 0 && s.seen > s.sampled) {
      const double ci = static_cast<double>(s.seen);
      const double yi = static_cast<double>(s.sampled);
      result.variance += ci * (ci - yi) * s.sample_variance() / yi;
    }
  }
  return result;
}

ApproxResult estimate_mean(const std::vector<StratumSummary>& strata) {
  ApproxResult result;
  std::uint64_t total_seen = 0;
  for (const auto& s : strata) total_seen += s.seen;
  if (total_seen == 0) return result;
  const double total = static_cast<double>(total_seen);

  for (const auto& s : strata) {
    result.population += s.seen;
    result.sample_size += s.sampled;
    const double omega = static_cast<double>(s.seen) / total;
    // Eq. 8: MEAN = Σ ω_i × MEAN_i.
    result.estimate += omega * s.mean();
    // Eq. 9: Var(MEAN) = Σ ω_i² × s_i²/Y_i × (C_i − Y_i)/C_i.
    if (s.sampled > 0 && s.seen > s.sampled) {
      const double ci = static_cast<double>(s.seen);
      const double yi = static_cast<double>(s.sampled);
      result.variance +=
          omega * omega * (s.sample_variance() / yi) * ((ci - yi) / ci);
    }
  }
  return result;
}

ApproxResult estimate_count(const std::vector<StratumSummary>& strata) {
  ApproxResult result;
  for (const auto& s : strata) {
    result.population += s.seen;
    result.sample_size += s.sampled;
    result.estimate += static_cast<double>(s.sampled) * s.weight;
    // A count is a SUM over the constant 1; within a stratum the sampled
    // "values" have zero variance, so Eq. 6 contributes nothing. The count
    // estimate is exact whenever weights follow Eq. 1.
  }
  return result;
}

}  // namespace streamapprox::estimation
