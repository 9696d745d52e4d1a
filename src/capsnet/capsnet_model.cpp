#include "capsnet/capsnet_model.hpp"

namespace redcane::capsnet {

CapsNetConfig CapsNetConfig::paper() { return CapsNetConfig{}; }

CapsNetConfig CapsNetConfig::tiny() {
  CapsNetConfig c;
  c.conv1_channels = 8;
  c.primary_types = 4;
  c.primary_dim = 4;
  c.class_dim = 8;
  return c;
}

CapsNetModel::CapsNetModel(const CapsNetConfig& cfg, Rng& rng) : cfg_(cfg) {
  nn::Conv2DSpec c1;
  c1.in_channels = cfg.input_channels;
  c1.out_channels = cfg.conv1_channels;
  c1.kernel = cfg.conv1_kernel;
  c1.stride = 1;
  c1.pad = 0;
  conv1_ = std::make_unique<nn::Conv2D>("Conv1", c1, rng);
  relu1_ = std::make_unique<nn::ReLU>();

  PrimaryCapsSpec ps;
  ps.in_channels = cfg.conv1_channels;
  ps.types = cfg.primary_types;
  ps.dim = cfg.primary_dim;
  ps.kernel = cfg.primary_kernel;
  ps.stride = cfg.primary_stride;
  primary_ = std::make_unique<PrimaryCaps>("PrimaryCaps", ps, rng);

  const std::int64_t after_conv1 = cfg.input_hw - cfg.conv1_kernel + 1;
  const std::int64_t after_primary =
      (after_conv1 - cfg.primary_kernel) / cfg.primary_stride + 1;
  ClassCapsSpec cs;
  cs.in_caps = after_primary * after_primary * cfg.primary_types;
  cs.in_dim = cfg.primary_dim;
  cs.out_caps = cfg.num_classes;
  cs.out_dim = cfg.class_dim;
  cs.routing_iters = cfg.routing_iters;
  class_caps_ = std::make_unique<ClassCaps>("ClassCaps", cs, rng);
}

std::vector<Tensor> CapsNetModel::run_stage(int k, std::span<const Tensor> in, bool train,
                                            PerturbationHook* hook) {
  switch (k) {
    case 0: {
      Tensor t = conv1_->forward(in[0], train);
      emit(hook, "Conv1", OpKind::kMacOutput, t);
      return boundary(std::move(t));
    }
    case 1: {
      Tensor t = relu1_->forward(in[0], train);
      emit(hook, "Conv1", OpKind::kActivation, t);
      return boundary(std::move(t));
    }
    case 2:
      return boundary(primary_->forward_conv(in[0], train, hook));
    case 3:
      return boundary(primary_->forward_squash(in[0], hook));
    case 4:
      return boundary(class_caps_->forward_votes(in[0], train, hook));
    default:
      return boundary(class_caps_->forward_routing(in[0], train, hook));
  }
}

Tensor CapsNetModel::backward(const Tensor& grad_v) {
  Tensor g = class_caps_->backward(grad_v);
  g = primary_->backward(g);
  g = relu1_->backward(g);
  return conv1_->backward(g);
}

std::vector<nn::Param*> CapsNetModel::params() {
  std::vector<nn::Param*> out;
  for (nn::Param* p : conv1_->params()) out.push_back(p);
  for (nn::Param* p : primary_->params()) out.push_back(p);
  for (nn::Param* p : class_caps_->params()) out.push_back(p);
  return out;
}

std::vector<std::string> CapsNetModel::layer_names() const {
  return {"Conv1", "PrimaryCaps", "ClassCaps"};
}

}  // namespace redcane::capsnet
