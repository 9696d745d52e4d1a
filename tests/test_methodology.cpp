#include "core/methodology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>

#include "capsnet/capsnet_model.hpp"
#include "capsnet/trainer.hpp"
#include "core/report.hpp"
#include "data/synthetic.hpp"

namespace redcane::core {
namespace {

using capsnet::OpKind;

struct Flow {
  std::unique_ptr<capsnet::CapsNetModel> model;
  data::Dataset ds;
  MethodologyResult result;

  Flow() {
    capsnet::CapsNetConfig cfg;
    cfg.input_hw = 14;
    cfg.conv1_kernel = 5;
    cfg.conv1_channels = 8;
    cfg.primary_kernel = 5;
    cfg.primary_stride = 2;
    cfg.primary_types = 2;
    cfg.primary_dim = 4;
    cfg.class_dim = 4;
    Rng rng(2);
    model = std::make_unique<capsnet::CapsNetModel>(cfg, rng);

    data::SyntheticSpec s;
    s.kind = data::DatasetKind::kMnist;
    s.hw = 14;
    s.train_count = 300;
    s.test_count = 100;
    s.seed = 44;
    ds = data::make_synthetic(s);

    capsnet::TrainConfig tc;
    tc.epochs = 10;
    tc.batch_size = 20;
    tc.lr = 3e-3;
    capsnet::train(*model, ds.train_x, ds.train_y, tc);

    MethodologyConfig mc;
    mc.resilience.sweep.nms = {0.5, 0.05, 0.005, 0.0};
    mc.profile_samples = 5000;
    // The micro model's 100-image test set quantizes accuracy to 1%
    // steps; widen the marking/tolerance bands accordingly.
    mc.mark_threshold_pct = 5.0;
    mc.tolerance_pct = 2.0;
    result = run_redcane(*model, ds.test_x, ds.test_y, ds.name, mc);
  }
};

Flow& flow() {
  static Flow f;
  return f;
}

TEST(Methodology, Step1FindsAllSites) {
  const MethodologyResult& r = flow().result;
  EXPECT_FALSE(r.sites.empty());
  // Every group has at least one site in a routed CapsNet.
  for (OpKind kind : all_groups()) {
    EXPECT_FALSE(sites_of_group(r.sites, kind).empty())
        << capsnet::op_kind_name(kind);
  }
}

TEST(Methodology, Step2ProducesFourCurves) {
  const MethodologyResult& r = flow().result;
  ASSERT_EQ(r.group_curves.size(), 4U);
  for (const ResilienceCurve& c : r.group_curves) {
    EXPECT_EQ(c.nms.size(), 4U);
    EXPECT_EQ(c.drop_pct.size(), 4U);
  }
}

TEST(Methodology, Step3PartitionsGroups) {
  const MethodologyResult& r = flow().result;
  EXPECT_EQ(r.resilient_groups.size() + r.non_resilient_groups.size(), 4U);
  // Routing coefficients (softmax) must be marked resilient; MAC outputs
  // must not (the paper's core finding).
  EXPECT_NE(std::find(r.resilient_groups.begin(), r.resilient_groups.end(),
                      OpKind::kSoftmax),
            r.resilient_groups.end());
  EXPECT_NE(std::find(r.non_resilient_groups.begin(), r.non_resilient_groups.end(),
                      OpKind::kMacOutput),
            r.non_resilient_groups.end());
}

TEST(Methodology, Step4OnlyCoversNonResilientGroups) {
  const MethodologyResult& r = flow().result;
  for (const ResilienceCurve& c : r.layer_curves) {
    EXPECT_NE(std::find(r.non_resilient_groups.begin(), r.non_resilient_groups.end(), c.kind),
              r.non_resilient_groups.end())
        << "layer curve for resilient group " << capsnet::op_kind_name(c.kind);
  }
  EXPECT_GT(r.evaluations_saved_by_pruning, 0);
}

TEST(Methodology, Step6SelectsOneComponentPerSite) {
  const MethodologyResult& r = flow().result;
  EXPECT_EQ(r.selections.size(), r.sites.size());
  for (const SiteSelection& s : r.selections) {
    ASSERT_NE(s.component, nullptr);
    EXPECT_GE(s.tolerable_nm, 0.0);
  }
}

TEST(Methodology, ResilientSitesGetMoreAggressiveComponents) {
  const MethodologyResult& r = flow().result;
  double max_softmax_saving = 0.0;
  double max_conv1_saving = 0.0;
  for (const SiteSelection& s : r.selections) {
    if (s.site.kind == OpKind::kSoftmax) {
      max_softmax_saving = std::max(max_softmax_saving, s.power_saving());
    }
    if (s.site.kind == OpKind::kMacOutput && s.site.layer == "Conv1") {
      max_conv1_saving = std::max(max_conv1_saving, s.power_saving());
    }
  }
  EXPECT_GE(max_softmax_saving, max_conv1_saving);
  EXPECT_GT(max_softmax_saving, 0.3);  // Aggressive approximation tolerated.
}

TEST(Methodology, BaselineAccuracyRecorded) {
  const MethodologyResult& r = flow().result;
  EXPECT_GT(r.baseline_accuracy, 0.6);
  EXPECT_EQ(r.model_name, "CapsNet");
  EXPECT_EQ(r.dataset_name, "MNIST(synthetic)");
}

TEST(Methodology, ReportContainsAllSections) {
  const std::string report = render_report(flow().result);
  EXPECT_NE(report.find("Step 1"), std::string::npos);
  EXPECT_NE(report.find("Step 2"), std::string::npos);
  EXPECT_NE(report.find("Step 6"), std::string::npos);
  EXPECT_NE(report.find("MAC outputs"), std::string::npos);
  EXPECT_NE(report.find("axm_"), std::string::npos);
}

TEST(Methodology, RenderGroupsListsAllFour) {
  const std::string g = render_groups(flow().result.sites);
  EXPECT_NE(g.find("# 1"), std::string::npos);
  EXPECT_NE(g.find("# 4"), std::string::npos);
  EXPECT_NE(g.find("softmax"), std::string::npos);
}

TEST(Selection, ExactComponentForZeroTolerance) {
  const auto profiled =
      profile_library(approx::InputDistribution::uniform(), 9, 2000, 3);
  const approx::Multiplier* m = select_component(profiled, 0.0);
  EXPECT_EQ(m->info().name, "axm_exact");
}

TEST(Selection, LargeToleranceSelectsCheapComponent) {
  const auto profiled =
      profile_library(approx::InputDistribution::uniform(), 9, 2000, 3);
  const approx::Multiplier* m = select_component(profiled, 0.5);
  EXPECT_LT(m->info().power_uw, 200.0);
}

TEST(Selection, NonFiniteEntryIsSkipped) {
  // Every comparison with NaN is false, so an unguarded NM/NA filter would
  // accept this entry and pick the library's most aggressive component.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<ProfiledComponent> profiled = {
      {&approx::exact_multiplier(), 0.0, 0.0, true},
      {&approx::multiplier_by_name("axm_kulkarni_qkx"), nan, nan, true},
  };
  EXPECT_EQ(select_component(profiled, 0.0)->info().name, "axm_exact");
}

TEST(Selection, MonotoneInTolerance) {
  const auto profiled =
      profile_library(approx::InputDistribution::uniform(), 9, 2000, 3);
  double prev_power = 1e18;
  for (double tol : {0.0001, 0.001, 0.01, 0.1}) {
    const double p = select_component(profiled, tol)->info().power_uw;
    EXPECT_LE(p, prev_power + 1e-9) << "tolerance " << tol;
    prev_power = p;
  }
}

}  // namespace
}  // namespace redcane::core
