#ifndef NETMAX_ML_MODEL_PROFILE_H_
#define NETMAX_ML_MODEL_PROFILE_H_

// Cost profiles of the paper's deep models.
//
// Time-domain results (Figures 3, 5-11, and the loss-vs-time curves) depend on
// the byte and FLOP budget of the trained model, not on its learned function.
// The profiles below carry the paper's own parameter counts (Section V-A:
// MobileNet 4.2M, ResNet18 11.7M, ResNet50 25.6M, VGG19 143.7M; Appendix G:
// GoogLeNet 6.8M) plus per-minibatch compute times at RTX-2080-Ti scale. The
// simulator derives transfer times from message_bytes() and iteration times
// from max{compute, communication} as in Section II-B.

#include <cstdint>
#include <string>

namespace netmax::ml {

// The minibatch size that ModelProfile::compute_seconds is measured at.
inline constexpr int kProfileBatch = 128;

struct ModelProfile {
  std::string name;
  // Parameter count as reported by the paper.
  int64_t num_parameters = 0;
  // Forward+backward wall time of one minibatch of kProfileBatch examples
  // on one GPU, in seconds.
  double compute_seconds = 0.0;

  // Bytes exchanged when a worker pulls this model from a peer (fp32).
  int64_t message_bytes() const { return num_parameters * 4; }
};

ModelProfile MobileNetProfile();
ModelProfile GoogLeNetProfile();
ModelProfile ResNet18Profile();
ModelProfile ResNet50Profile();
ModelProfile Vgg19Profile();

}  // namespace netmax::ml

#endif  // NETMAX_ML_MODEL_PROFILE_H_
