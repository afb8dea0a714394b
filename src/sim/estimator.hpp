// Log-probability estimates for the equation right-hand sides.
//
// The §4 algorithm works with y = log P(paths good). An estimated
// probability of zero (the paths were never simultaneously good during the
// experiment) has no usable logarithm; such equations are flagged unusable
// and dropped by the equation builder. For a count-based measurement a
// non-zero probability means at least one good snapshot backs it.
#pragma once

namespace tomo::sim {

struct LogProbEstimate {
  double log_prob = 0.0;  // log of the estimated probability
  bool usable = false;    // false when the probability is 0
};

/// Converts an estimated probability into a log estimate, usable iff
/// `prob` > 0.
LogProbEstimate log_estimate(double prob);

}  // namespace tomo::sim
