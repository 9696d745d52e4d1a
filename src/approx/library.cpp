#include "approx/library.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace redcane::approx {
namespace {

// Exact 8-bit multiplier operating point from the paper's Table IV
// (mul8u_1JFF row): 391 uW, 710 um^2 at 45 nm.
constexpr double kExactPowerUw = 391.0;
constexpr double kExactAreaUm2 = 710.0;

/// Power/area estimate for non-analog components: an 8x8 array multiplier
/// has 64 partial-product cells; families remove cells and adder columns.
/// `active` is the surviving fraction of the PP array; static overhead of
/// the reduction tree keeps even tiny components above ~6% of exact.
MultiplierInfo estimated(std::string name, std::string family, int param, double active) {
  MultiplierInfo info;
  info.name = std::move(name);
  info.family = std::move(family);
  info.param = param;
  const double frac = 0.06 + 0.94 * active;
  info.power_uw = kExactPowerUw * frac;
  info.area_um2 = kExactAreaUm2 * (0.08 + 0.92 * active);
  return info;
}

MultiplierInfo analog(std::string name, std::string family, int param, std::string paper_analog,
                      double power_uw, double area_um2) {
  MultiplierInfo info;
  info.name = std::move(name);
  info.family = std::move(family);
  info.param = param;
  info.paper_analog = std::move(paper_analog);
  info.power_uw = power_uw;
  info.area_um2 = area_um2;
  return info;
}

/// Surviving PP-array fraction for column-removal families (bam/loa/res):
/// column c of an 8x8 array holds min(c+1, 15-c, 8) cells, 64 total.
double column_fraction_kept(int k_removed) {
  int kept = 0;
  for (int c = 0; c < 15; ++c) {
    const int cells = std::min({c + 1, 15 - c, 8});
    if (c >= k_removed) kept += cells;
  }
  return static_cast<double>(kept) / 64.0;
}

double op_trunc_fraction_kept(int k) {
  const int live = 8 - k;
  return static_cast<double>(live * live) / 64.0;
}

struct Registry {
  std::vector<std::unique_ptr<Multiplier>> owned;
  std::vector<const Multiplier*> view;

  void put(std::unique_ptr<Multiplier> m) {
    view.push_back(m.get());
    owned.push_back(std::move(m));
  }
};

Registry build_registry() {
  Registry r;

  // --- Paper analogs (Table IV rows, published power/area) ------------
  // The mapping pairs each EvoApprox8B circuit with the behavioral family
  // whose error profile (NM scale, bias sign, Gaussianity) best matches
  // the published NM/NA columns.
  r.put(make_exact_multiplier(
      analog("axm_exact", "exact", 0, "mul8u_1JFF", 391.0, 710.0)));
  r.put(make_res_trunc_multiplier(
      analog("axm_res2_14vp", "res_trunc", 2, "mul8u_14VP", 364.0, 654.0)));
  r.put(make_bam_multiplier(
      analog("axm_bam5_gs2", "bam", 5, "mul8u_GS2", 356.0, 633.0)));
  r.put(make_res_trunc_multiplier(
      analog("axm_res4_ck5", "res_trunc", 4, "mul8u_CK5", 345.0, 604.0)));
  r.put(make_loa_multiplier(
      analog("axm_loa7_7c1", "loa", 7, "mul8u_7C1", 329.0, 607.0)));
  r.put(make_bam_multiplier(
      analog("axm_bam8_96d", "bam", 8, "mul8u_96D", 309.0, 605.0)));
  r.put(make_drum_multiplier(
      analog("axm_drum6_2hh", "drum", 6, "mul8u_2HH", 302.0, 542.0)));
  r.put(make_drum_multiplier(
      analog("axm_drum5_ngr", "drum", 5, "mul8u_NGR", 276.0, 512.0)));
  r.put(make_op_trunc_multiplier(
      analog("axm_op2_19db", "op_trunc", 2, "mul8u_19DB", 206.0, 396.0)));
  r.put(make_drum_multiplier(
      analog("axm_drum4_dm1", "drum", 4, "mul8u_DM1", 195.0, 402.0)));
  r.put(make_op_trunc_multiplier(
      analog("axm_op3_12n4", "op_trunc", 3, "mul8u_12N4", 142.0, 390.0)));
  r.put(make_loa_multiplier(
      analog("axm_loa10_1agv", "loa", 10, "mul8u_1AGV", 95.0, 228.0)));
  r.put(make_mitchell_multiplier(
      analog("axm_mitchell3_yx7", "mitchell", 3, "mul8u_YX7", 61.0, 221.0)));
  r.put(make_drum_multiplier(
      analog("axm_drum3_jv3", "drum", 3, "mul8u_JV3", 34.0, 111.0)));
  r.put(make_kulkarni_multiplier(
      analog("axm_kulkarni_qkx", "kulkarni", 0, "mul8u_QKX", 29.0, 112.0)));

  // --- Remaining library components (estimated power/area) ------------
  // res_trunc sweep.
  for (int k : {6, 8, 10}) {
    r.put(make_res_trunc_multiplier(
        estimated("axm_res" + std::to_string(k), "res_trunc", k, column_fraction_kept(k))));
  }
  // op_trunc sweep.
  for (int k : {1, 4}) {
    r.put(make_op_trunc_multiplier(
        estimated("axm_op" + std::to_string(k), "op_trunc", k, op_trunc_fraction_kept(k))));
  }
  // bam sweep.
  for (int k : {4, 6, 10}) {
    r.put(make_bam_multiplier(
        estimated("axm_bam" + std::to_string(k), "bam", k, column_fraction_kept(k))));
  }
  // loa sweep (OR compressors cost ~1/5 of an adder cell).
  for (int k : {4, 6, 8}) {
    const double kept = column_fraction_kept(k) + 0.2 * (1.0 - column_fraction_kept(k));
    r.put(make_loa_multiplier(estimated("axm_loa" + std::to_string(k), "loa", k, kept)));
  }
  // drum sweep (k leading bits -> roughly k^2/64 array + leading-one logic).
  for (int k : {7}) {
    r.put(make_drum_multiplier(estimated("axm_drum" + std::to_string(k), "drum", k,
                                         static_cast<double>(k * k) / 64.0 + 0.12)));
  }
  // Mitchell variants: full mantissa + truncated-mantissa versions.
  r.put(make_mitchell_multiplier(estimated("axm_mitchell", "mitchell", 0, 0.22)));
  for (int m : {4, 5}) {
    r.put(make_mitchell_multiplier(
        estimated("axm_mitchell" + std::to_string(m), "mitchell", m, 0.14 + 0.02 * m)));
  }
  // Kulkarni hybrid (exact high quadrant).
  r.put(make_kulkarni_multiplier(estimated("axm_kulkarni_hy", "kulkarni", 1, 0.42)));
  // Hybrid operand+result truncation combos: param = op_k * 16 + res_k.
  for (auto [op_k, res_k] : {std::pair{1, 4}, {2, 6}, {1, 8}, {3, 8}}) {
    const double kept = op_trunc_fraction_kept(op_k) * column_fraction_kept(res_k);
    r.put(make_hybrid_trunc_multiplier(estimated(
        "axm_hy_o" + std::to_string(op_k) + "r" + std::to_string(res_k), "hybrid_trunc",
        op_k * 16 + res_k, kept)));
  }

  return r;
}

Registry& registry() {
  static Registry r = build_registry();
  return r;
}

}  // namespace

const std::vector<const Multiplier*>& multiplier_library() { return registry().view; }

const Multiplier& multiplier_by_name(const std::string& name) {
  for (const Multiplier* m : registry().view) {
    if (m->info().name == name) return *m;
  }
  std::fprintf(stderr, "redcane::approx fatal: unknown multiplier '%s'\n", name.c_str());
  std::abort();
}

const Multiplier& multiplier_by_analog(const std::string& analog) {
  for (const Multiplier* m : registry().view) {
    if (m->info().paper_analog == analog) return *m;
  }
  std::fprintf(stderr, "redcane::approx fatal: unknown analog '%s'\n", analog.c_str());
  std::abort();
}

const Multiplier& exact_multiplier() { return *registry().view.front(); }

std::vector<const Multiplier*> paper_analog_multipliers() {
  std::vector<const Multiplier*> out;
  for (const Multiplier* m : registry().view) {
    if (!m->info().paper_analog.empty()) out.push_back(m);
  }
  return out;
}

}  // namespace redcane::approx
