#ifndef NETMAX_ML_OPTIMIZER_H_
#define NETMAX_ML_OPTIMIZER_H_

// SGD with momentum and weight decay (the paper's configuration: momentum
// 0.9, weight decay 1e-4), plus the learning-rate schedules it uses:
// step decay at fixed epochs, and decay-on-plateau ("decays by a factor of 10
// once the loss does not decrease any more").

#include <cstdint>
#include <span>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"

namespace netmax::ml {

struct SgdOptions {
  double learning_rate = 0.1;
  double momentum = 0.9;
  double weight_decay = 1e-4;
};

// Momentum SGD:
//   v <- momentum * v + (grad + weight_decay * param)
//   param <- param - lr * v
class SgdOptimizer {
 public:
  SgdOptimizer(int num_parameters, const SgdOptions& options);

  // Applies one update step in place.
  void Step(std::span<double> parameters, std::span<const double> gradient);

  double learning_rate() const { return options_.learning_rate; }
  void set_learning_rate(double lr) { options_.learning_rate = lr; }
  const SgdOptions& options() const { return options_; }

  // Checkpoint support: the velocity buffer and the current learning rate.
  // A restore rejects a velocity vector whose length differs from this
  // optimizer's parameter count.
  Status TransferState(StateIo& io);

 private:
  SgdOptions options_;
  std::vector<double> velocity_;
};

// Learning-rate schedule interface: called once per finished epoch with that
// epoch's mean training loss; returns the learning rate for the next epoch.
class LrSchedule {
 public:
  virtual ~LrSchedule() = default;
  virtual double OnEpochEnd(int64_t epoch, double epoch_loss) = 0;
  virtual double initial_learning_rate() const = 0;

  // Checkpoint support: a schedule transfers its mutable fields (not its
  // construction parameters, which the harness rebuilds from the config).
  virtual Status TransferState(StateIo& io) = 0;
};

// Multiplies the rate by `factor` at each listed epoch (paper Section V-F:
// "decays by a factor of 10 at epoch 80").
class StepDecayLr : public LrSchedule {
 public:
  StepDecayLr(double initial_lr, double factor,
              std::vector<int64_t> milestones);
  double OnEpochEnd(int64_t epoch, double epoch_loss) override;
  double initial_learning_rate() const override { return initial_lr_; }
  Status TransferState(StateIo& io) override { return io(current_); }

 private:
  double initial_lr_;
  double factor_;
  std::vector<int64_t> milestones_;
  double current_;
};

// Multiplies the rate by `factor` when the loss has not improved by at least
// `min_delta` for `patience` consecutive epochs (paper Section V-A: "decays by
// a factor of 10 once the loss does not decrease any more").
class PlateauDecayLr : public LrSchedule {
 public:
  PlateauDecayLr(double initial_lr, double factor, int patience,
                 double min_delta = 1e-3);
  double OnEpochEnd(int64_t epoch, double epoch_loss) override;
  double initial_learning_rate() const override { return initial_lr_; }
  Status TransferState(StateIo& io) override {
    return io(current_, best_loss_, stale_epochs_);
  }

 private:
  double initial_lr_;
  double factor_;
  int patience_;
  double min_delta_;
  double current_;
  double best_loss_;
  int stale_epochs_ = 0;
};

}  // namespace netmax::ml

#endif  // NETMAX_ML_OPTIMIZER_H_
