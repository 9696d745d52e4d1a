// Reproduces paper Table II: clean classification accuracy of every
// benchmark (DeepCaps on CIFAR-10 / SVHN / MNIST, CapsNet on
// Fashion-MNIST / MNIST) using accurate arithmetic.
//
// Our models are the tiny profiles trained on the synthetic dataset
// stand-ins; the reproduction target is "every benchmark
// trains to high clean accuracy", not the paper's exact percentages.
#include <cstdio>

#include "bench_common.hpp"

using namespace redcane;

int main() {
  bench::print_header("Table II: clean accuracy with accurate multipliers");
  std::printf("%-14s %-16s %12s %14s\n", "Architecture", "Dataset", "ours [%]",
              "paper [%]");

  bool all_good = true;
  for (bench::BenchmarkId id : bench::all_benchmarks()) {
    bench::Benchmark b = bench::load_benchmark(id);
    const double acc =
        capsnet::evaluate(*b.model, b.dataset.test_x, b.dataset.test_y) * 100.0;
    std::printf("%-14s %-16s %11.2f %14.2f\n", bench::benchmark_model_name(id),
                bench::benchmark_dataset_name(id), acc, bench::paper_accuracy(id));
    all_good = all_good && acc > 75.0;
  }

  std::printf("\nshape check (every benchmark trains to > 75%% clean accuracy on its "
              "synthetic stand-in): %s\n",
              all_good ? "PASS" : "FAIL");
  return all_good ? 0 : 1;
}
