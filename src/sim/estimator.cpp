#include "sim/estimator.hpp"

#include <cmath>

#include "util/error.hpp"

namespace tomo::sim {

LogProbEstimate log_estimate(double prob) {
  TOMO_REQUIRE(prob >= 0.0 && prob <= 1.0 + 1e-12,
               "probability estimate outside [0,1]");
  LogProbEstimate out;
  if (prob > 0.0) {
    out.log_prob = std::log(prob);
    out.usable = true;
  }
  return out;
}

}  // namespace tomo::sim
