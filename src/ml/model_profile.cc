#include "ml/model_profile.h"

namespace netmax::ml {

ModelProfile MobileNetProfile() {
  return ModelProfile{"mobilenet", 4'200'000, 0.055};
}

ModelProfile GoogLeNetProfile() {
  return ModelProfile{"googlenet", 6'800'000, 0.095};
}

ModelProfile ResNet18Profile() {
  return ModelProfile{"resnet18", 11'700'000, 0.110};
}

ModelProfile ResNet50Profile() {
  return ModelProfile{"resnet50", 25'600'000, 0.260};
}

ModelProfile Vgg19Profile() {
  return ModelProfile{"vgg19", 143'700'000, 0.340};
}

}  // namespace netmax::ml
