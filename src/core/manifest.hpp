// Deployment manifest: the loadable artifact of a finished ReD-CaNe run.
//
// Step 6 ends with a per-operation choice of approximate component; this
// module packages that choice — together with how to rebuild the model and
// where its trained weights live — into a plain-text file the serving
// runtime (src/serve/) loads to instantiate the *deployed* approximate
// network next to the exact baseline. Each site line carries the selected
// component's profiled NM/NA, so the designed variant is executed exactly
// as the paper models it: component noise injected at the site.
//
// Format ("redcane-manifest v1"): `key value` header lines, then one
//   site <layer> <kind-token> <component> <nm> <na> <tolerable_nm>
// line per operation site. `#` starts a comment line. Doubles are written
// with 17 significant digits so parsed values round-trip bit-exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/methodology.hpp"

namespace redcane::core {

/// One deployed operation site: location, selected component, and the
/// component's profiled range-relative noise (both dimensionless).
struct ManifestSite {
  Site site;
  std::string component;      ///< Library name ("axm_..."); "" means exact.
  double nm = 0.0;            ///< Profiled noise magnitude, std(Δ)/(chain_length*255^2).
  double na = 0.0;            ///< Profiled noise average, mean(Δ)/(chain_length*255^2).
  double tolerable_nm = 0.0;  ///< NM budget the selection satisfied (Steps 3/5).
};

/// Everything the serving runtime needs to deploy a designed network.
struct DeploymentManifest {
  std::string model;             ///< Architecture: "CapsNet" or "DeepCaps".
  std::string profile = "tiny";  ///< Base config: "tiny" or "paper".
  std::int64_t input_hw = 0;     ///< Square input extent [pixels]; 0 = profile default.
  std::int64_t input_channels = 0;  ///< Input channels; 0 = profile default.
  std::int64_t num_classes = 0;     ///< Output classes; 0 = profile default.
  std::string checkpoint;        ///< save_params file, relative to the manifest.
  std::uint64_t noise_seed = 2020;  ///< Base seed of designed-variant noise streams.
  double baseline_accuracy = 0.0;   ///< Exact test accuracy at design time, in [0, 1].
  std::vector<ManifestSite> sites;  ///< One per Step-6 selection, execution order.
};

/// Stable one-word manifest token of an operation kind ("mac",
/// "activation", "softmax", "logits") — unlike op_kind_name, space-free.
[[nodiscard]] const char* op_kind_token(capsnet::OpKind kind);

/// Inverse of op_kind_token. Returns false on an unknown token.
[[nodiscard]] bool op_kind_from_token(const std::string& token, capsnet::OpKind& out);

/// Builds the manifest of a finished run: every Step-6 selection becomes a
/// site entry carrying its component's profiled NM/NA (looked up in
/// `profiled`, the same library profile Step 6 selected from).
[[nodiscard]] DeploymentManifest make_deployment_manifest(
    const MethodologyResult& r, const std::vector<ProfiledComponent>& profiled,
    const capsnet::CapsModel& model, const std::string& profile,
    const std::string& checkpoint_path, std::uint64_t noise_seed);

/// Renders a manifest as "redcane-manifest v1" text.
[[nodiscard]] std::string manifest_to_text(const DeploymentManifest& m);

/// Parses manifest text into `out`. Returns false (leaving `out`
/// unspecified) on a bad version line, unknown kind token, malformed
/// site/header line, non-finite noise/accuracy field, duplicate
/// (layer, kind) site entry, or an out-of-range geometry count — a bad
/// manifest must never construct a broken registry.
[[nodiscard]] bool manifest_from_text(const std::string& text, DeploymentManifest& out);

/// File wrappers over manifest_to_text / manifest_from_text.
bool save_manifest(const DeploymentManifest& m, const std::string& path);
bool load_manifest(const std::string& path, DeploymentManifest& out);

}  // namespace redcane::core
