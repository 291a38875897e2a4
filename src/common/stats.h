#ifndef NETMAX_COMMON_STATS_H_
#define NETMAX_COMMON_STATS_H_

// Small statistics helpers used throughout the training and simulation stack:
//  - ExponentialMovingAverage: the EMA iteration-time tracker of Algorithm 2
//    (UPDATETIMEVECTOR, lines 19-22 of the paper).
//  - RunningStat: streaming mean/variance/min/max (Welford).
//  - Quantile: order statistics over a sample vector.

#include <cstdint>
#include <vector>

#include "common/serialize.h"

namespace netmax {

// Exponential moving average with smoothing factor beta in [0, 1):
//   value <- beta * value + (1 - beta) * sample
// A smaller beta forgets faster (shorter window), matching the paper's
// guidance to lower beta when link speeds change quickly.
class ExponentialMovingAverage {
 public:
  explicit ExponentialMovingAverage(double beta);

  // Folds `sample` into the average. The first sample initializes the average
  // directly so the estimate is not biased toward zero.
  void Add(double sample);

  // Current estimate; 0.0 if no samples were added yet.
  double value() const { return value_; }
  bool has_value() const { return count_ > 0; }
  int64_t count() const { return count_; }
  double beta() const { return beta_; }

  void Reset();

  // Checkpoint support: the running estimate and its sample count (beta
  // stays whatever this instance was constructed with).
  Status TransferState(StateIo& io) {
    NETMAX_RETURN_IF_ERROR(io(value_, count_));
    if (io.restoring() && count_ < 0) {
      return InvalidArgumentError("checkpointed EMA count is negative");
    }
    return Status::Ok();
  }

 private:
  double beta_;
  double value_ = 0.0;
  int64_t count_ = 0;
};

// Streaming mean / variance / extrema using Welford's algorithm.
class RunningStat {
 public:
  void Add(double sample);

  int64_t count() const { return count_; }
  double mean() const { return mean_; }
  // Sample variance (n - 1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

// Returns the q-quantile (q in [0,1]) of `samples` by linear interpolation.
// Fatal error on an empty vector. The input is copied, not mutated.
double Quantile(const std::vector<double>& samples, double q);

}  // namespace netmax

#endif  // NETMAX_COMMON_STATS_H_
