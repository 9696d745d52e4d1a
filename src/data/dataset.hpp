// Labeled image datasets.
//
// The paper evaluates on MNIST, Fashion-MNIST, CIFAR-10 and SVHN. Those
// archives are not available offline, so src/data generates deterministic
// synthetic stand-ins with the same tensor shapes, class counts and a
// learnable class structure: per-class stroke/texture
// prototypes plus shift/amplitude/pixel-noise augmentation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace redcane::data {

struct Dataset {
  std::string name;  ///< e.g. "CIFAR-10(synthetic)".
  Tensor train_x;    ///< [N, H, W, C] in [0, 1].
  std::vector<std::int64_t> train_y;
  Tensor test_x;
  std::vector<std::int64_t> test_y;

  [[nodiscard]] std::int64_t num_classes() const;
  [[nodiscard]] std::string summary() const;
};

}  // namespace redcane::data
