#include "ml/optimizer.h"

#include <limits>

#include "common/logging.h"

namespace netmax::ml {

SgdOptimizer::SgdOptimizer(int num_parameters, const SgdOptions& options)
    : options_(options),
      velocity_(static_cast<size_t>(num_parameters), 0.0) {
  NETMAX_CHECK_GT(num_parameters, 0);
  NETMAX_CHECK_GT(options.learning_rate, 0.0);
  NETMAX_CHECK_GE(options.momentum, 0.0);
  NETMAX_CHECK_LT(options.momentum, 1.0);
  NETMAX_CHECK_GE(options.weight_decay, 0.0);
}

void SgdOptimizer::Step(std::span<double> parameters,
                        std::span<const double> gradient) {
  NETMAX_CHECK_EQ(parameters.size(), velocity_.size());
  NETMAX_CHECK_EQ(gradient.size(), velocity_.size());
  const double mu = options_.momentum;
  const double wd = options_.weight_decay;
  const double lr = options_.learning_rate;
  for (size_t i = 0; i < velocity_.size(); ++i) {
    velocity_[i] = mu * velocity_[i] + gradient[i] + wd * parameters[i];
    parameters[i] -= lr * velocity_[i];
  }
}

Status SgdOptimizer::TransferState(StateIo& io) {
  const size_t num_parameters = velocity_.size();
  NETMAX_RETURN_IF_ERROR(io(velocity_));
  if (io.restoring() && velocity_.size() != num_parameters) {
    return InvalidArgumentError(
        "checkpointed velocity has " + std::to_string(velocity_.size()) +
        " entries, optimizer has " + std::to_string(num_parameters) +
        " parameters");
  }
  return io(options_.learning_rate);
}

StepDecayLr::StepDecayLr(double initial_lr, double factor,
                         std::vector<int64_t> milestones)
    : initial_lr_(initial_lr), factor_(factor),
      milestones_(std::move(milestones)), current_(initial_lr) {
  NETMAX_CHECK_GT(initial_lr, 0.0);
  NETMAX_CHECK_GT(factor, 0.0);
}

double StepDecayLr::OnEpochEnd(int64_t epoch, double /*epoch_loss*/) {
  for (int64_t milestone : milestones_) {
    if (epoch == milestone) current_ *= factor_;
  }
  return current_;
}

PlateauDecayLr::PlateauDecayLr(double initial_lr, double factor, int patience,
                               double min_delta)
    : initial_lr_(initial_lr), factor_(factor), patience_(patience),
      min_delta_(min_delta), current_(initial_lr),
      best_loss_(std::numeric_limits<double>::infinity()) {
  NETMAX_CHECK_GT(initial_lr, 0.0);
  NETMAX_CHECK_GT(factor, 0.0);
  NETMAX_CHECK_LT(factor, 1.0);
  NETMAX_CHECK_GE(patience, 1);
}

double PlateauDecayLr::OnEpochEnd(int64_t /*epoch*/, double epoch_loss) {
  if (epoch_loss < best_loss_ - min_delta_) {
    best_loss_ = epoch_loss;
    stale_epochs_ = 0;
  } else {
    ++stale_epochs_;
    if (stale_epochs_ >= patience_) {
      current_ *= factor_;
      stale_epochs_ = 0;
      // Require improvement relative to the plateau level from here on.
      best_loss_ = epoch_loss;
    }
  }
  return current_;
}

}  // namespace netmax::ml
