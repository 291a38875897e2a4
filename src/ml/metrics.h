#ifndef NETMAX_ML_METRICS_H_
#define NETMAX_ML_METRICS_H_

// Whole-dataset evaluation helpers and the (x, y) series type the experiment
// harness records (loss vs virtual time, loss vs epoch, accuracy vs time).

#include <optional>
#include <vector>

#include "ml/dataset.h"
#include "ml/mlp.h"
#include "ml/workspace.h"

namespace netmax::ml {

// Mean cross-entropy loss of `model` over all of `data`. Runs the whole
// dataset as ONE batch — unlike Accuracy it cannot chunk, because splitting
// would change the loss summation order and break bit-identity with the
// seed — so the workspace's activation buffers grow to
// O(dataset_size x widest layer). Use a dedicated workspace (not a
// per-worker training one) if that footprint matters.
double AverageLoss(const Mlp& model, const Dataset& data);
double AverageLoss(const Mlp& model, const Dataset& data,
                   TrainingWorkspace& workspace);

// Fraction of examples of `data` that `model` classifies correctly. The
// workspace overload evaluates through the batched forward pass in
// fixed-size chunks (the workspace-free one borrows the calling thread's
// workspace); both give identical results.
double Accuracy(const Mlp& model, const Dataset& data);
double Accuracy(const Mlp& model, const Dataset& data,
                TrainingWorkspace& workspace);

struct SeriesPoint {
  double x = 0.0;  // virtual time (s), epoch, or iteration
  double y = 0.0;  // loss or accuracy
};
using Series = std::vector<SeriesPoint>;

// First x at which the series reaches y <= threshold, linearly interpolating
// between points; nullopt if it never does. Series must be sorted by x.
// Used to compute "time to converge to loss L" speedups (Figures 8/9 etc.).
std::optional<double> TimeToThreshold(const Series& series, double threshold);

// First x at which the series reaches y >= threshold (for accuracy curves).
std::optional<double> TimeToThresholdAbove(const Series& series,
                                           double threshold);

// Final y value; fatal on empty series.
double FinalValue(const Series& series);

// Minimum y over the series; fatal on empty series.
double MinValue(const Series& series);

}  // namespace netmax::ml

#endif  // NETMAX_ML_METRICS_H_
