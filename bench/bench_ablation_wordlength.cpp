// Ablation D4: fixed-point wordlength of the CapsNet datapath.
//
// The paper adopts 8-bit operands citing CapsAcc [17] ("it was shown to be
// enough accurate in the computational path of CapsNets"). We verify that
// on our benchmarks by emulating a b-bit datapath (Eq. 1 min-max
// quantization of every MAC output and activation) for b in {4..12}:
// accuracy must be intact at 8 bits and collapse somewhere below it.
#include <cstdio>

#include "bench_common.hpp"
#include "capsnet/trainer.hpp"
#include "noise/quantize_hook.hpp"

using namespace redcane;

int main() {
  bool ok = true;
  for (bench::BenchmarkId id :
       {bench::BenchmarkId::kCapsNetMnist, bench::BenchmarkId::kDeepCapsCifar10}) {
    bench::Benchmark b = bench::load_benchmark(id);
    bench::print_header(std::string("Ablation D4: datapath wordlength sweep, ") +
                        bench::benchmark_name(id));

    const double clean =
        capsnet::evaluate(*b.model, b.dataset.test_x, b.dataset.test_y) * 100.0;
    std::printf("float baseline: %.2f%%\n\n%-6s %10s %10s\n", "bits", "accuracy",
                "drop");

    double drop_at_8 = -100.0;
    double drop_at_4 = 0.0;
    for (int bits : {12, 10, 8, 6, 4, 3}) {
      noise::QuantizeHook hook(bits);
      const double acc =
          capsnet::evaluate(*b.model, b.dataset.test_x, b.dataset.test_y, &hook) * 100.0;
      std::printf("%-6d %9.2f%% %+9.2f%%\n", bits, acc, acc - clean);
      if (bits == 8) drop_at_8 = acc - clean;
      if (bits == 4) drop_at_4 = acc - clean;
    }

    std::printf("\n8-bit drop %+0.2f%% (paper: 8 bits is sufficient); 4-bit drop "
                "%+0.2f%%\n",
                drop_at_8, drop_at_4);
    ok = ok && drop_at_8 > -2.0 && drop_at_4 < drop_at_8 + 0.5;
  }

  std::printf("\nshape check (8-bit datapath within 2%% of float; accuracy degrades "
              "monotonically below): %s\n",
              ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
