#include "approx/multiplier.hpp"

#include <bit>

namespace redcane::approx {
namespace {

std::uint32_t exact_mul(std::uint8_t a, std::uint8_t b) {
  return static_cast<std::uint32_t>(a) * static_cast<std::uint32_t>(b);
}

/// Exact 8x8 array multiplier (golden reference).
class ExactMultiplier final : public Multiplier {
 public:
  using Multiplier::Multiplier;
  explicit ExactMultiplier(MultiplierInfo info) : Multiplier(std::move(info)) {}
  std::uint32_t multiply(std::uint8_t a, std::uint8_t b) const override {
    return exact_mul(a, b);
  }
};

/// Result truncation: the k low output bits are tied to zero. Models a
/// multiplier whose final adder stage omits the low columns entirely.
/// Error is a deterministic negative bias in [-(2^k - 1), 0].
class ResTruncMultiplier final : public Multiplier {
 public:
  explicit ResTruncMultiplier(MultiplierInfo info)
      : Multiplier(std::move(info)), mask_(~((1U << this->info().param) - 1U)) {}
  std::uint32_t multiply(std::uint8_t a, std::uint8_t b) const override {
    return exact_mul(a, b) & mask_;
  }

 private:
  std::uint32_t mask_;
};

/// Operand truncation: the k low bits of each operand are gated off before
/// an exact multiplication. Saves the corresponding partial-product rows
/// and columns of the array.
class OpTruncMultiplier final : public Multiplier {
 public:
  explicit OpTruncMultiplier(MultiplierInfo info)
      : Multiplier(std::move(info)),
        mask_(static_cast<std::uint8_t>(0xFFU << this->info().param)) {}
  std::uint32_t multiply(std::uint8_t a, std::uint8_t b) const override {
    return exact_mul(a & mask_, b & mask_);
  }

 private:
  std::uint8_t mask_;
};

/// Broken-array multiplier (Mahdiani et al.): all partial-product bits
/// p(i,j) with i + j < k are removed from the carry-save array.
class BamMultiplier final : public Multiplier {
 public:
  explicit BamMultiplier(MultiplierInfo info) : Multiplier(std::move(info)) {}
  std::uint32_t multiply(std::uint8_t a, std::uint8_t b) const override {
    const int k = info().param;
    std::uint32_t acc = 0;
    for (int i = 0; i < 8; ++i) {
      if (((a >> i) & 1U) == 0U) continue;
      for (int j = 0; j < 8; ++j) {
        if (i + j < k) continue;
        if (((b >> j) & 1U) != 0U) acc += 1U << (i + j);
      }
    }
    return acc;
  }
};

/// Lower-part-OR multiplier: output columns below k are produced by OR-ing
/// the partial products of that column (a single-gate compressor) instead
/// of adding them; carries out of the low part are dropped. The high part
/// is exact given the (lost) low carries.
class LoaMultiplier final : public Multiplier {
 public:
  explicit LoaMultiplier(MultiplierInfo info) : Multiplier(std::move(info)) {}
  std::uint32_t multiply(std::uint8_t a, std::uint8_t b) const override {
    const int k = info().param;
    std::uint32_t high = 0;  // Exact sum of PP bits in columns >= k.
    std::uint32_t low = 0;   // OR-compressed columns < k.
    for (int i = 0; i < 8; ++i) {
      if (((a >> i) & 1U) == 0U) continue;
      for (int j = 0; j < 8; ++j) {
        if (((b >> j) & 1U) == 0U) continue;
        const int col = i + j;
        if (col >= k) {
          high += 1U << col;
        } else {
          low |= 1U << col;
        }
      }
    }
    return high + low;
  }
};

/// DRUM-k (Hashemi et al.): each operand is reduced to its k leading bits
/// starting at the most-significant one, with the segment LSB forced to 1
/// for unbiasing; the segments are multiplied exactly and shifted back.
class DrumMultiplier final : public Multiplier {
 public:
  explicit DrumMultiplier(MultiplierInfo info) : Multiplier(std::move(info)) {}

  static std::uint32_t segment(std::uint8_t x, int k, int& shift) {
    shift = 0;
    if (x == 0) return 0;
    const int top = 31 - std::countl_zero(static_cast<std::uint32_t>(x));  // MSB index.
    if (top < k) return x;  // Small values pass through exactly.
    shift = top - k + 1;
    return ((static_cast<std::uint32_t>(x) >> shift) | 1U);
  }

  std::uint32_t multiply(std::uint8_t a, std::uint8_t b) const override {
    const int k = info().param;
    int sa = 0;
    int sb = 0;
    const std::uint32_t va = segment(a, k, sa);
    const std::uint32_t vb = segment(b, k, sb);
    return (va * vb) << (sa + sb);
  }
};

/// Mitchell logarithmic multiplier: log2 of each operand approximated as
/// characteristic + linear mantissa; the antilog of the sum gives the
/// product. param > 0 additionally truncates the mantissa sum to that many
/// fractional bits (cheaper adder). Always underestimates (negative bias).
class MitchellMultiplier final : public Multiplier {
 public:
  explicit MitchellMultiplier(MultiplierInfo info) : Multiplier(std::move(info)) {}

  std::uint32_t multiply(std::uint8_t a, std::uint8_t b) const override {
    if (a == 0 || b == 0) return 0;
    // Fixed-point log with 16 fractional bits.
    constexpr int kFrac = 16;
    const int ka = 31 - std::countl_zero(static_cast<std::uint32_t>(a));
    const int kb = 31 - std::countl_zero(static_cast<std::uint32_t>(b));
    const std::uint32_t ma =
        ((static_cast<std::uint32_t>(a) << kFrac) >> ka) - (1U << kFrac);  // mantissa in [0,1)
    const std::uint32_t mb = ((static_cast<std::uint32_t>(b) << kFrac) >> kb) - (1U << kFrac);
    std::uint32_t msum = ma + mb;
    if (info().param > 0) {
      const int drop = kFrac - info().param;
      msum = (msum >> drop) << drop;
    }
    const int kchar = ka + kb;
    if (msum >= (1U << kFrac)) {
      // Mantissa sum s >= 1: log = (kchar + 1) + (s - 1), so the antilog is
      // 2^(kchar + 1) * s in fixed point.
      return static_cast<std::uint32_t>((static_cast<std::uint64_t>(msum) << (kchar + 1)) >>
                                        kFrac);
    }
    // antilog = 2^kchar * (1 + msum).
    const std::uint64_t mant = (1ULL << kFrac) + msum;
    return static_cast<std::uint32_t>((mant << kchar) >> kFrac);
  }
};

/// Kulkarni 2x2 underdesigned multiplier: the 2x2 building block computes
/// 3 * 3 = 7 (0b111 instead of 0b1001), saving one output line; larger
/// multipliers are built by exact recursive decomposition over the
/// approximate blocks. param = 1 keeps the high-quadrant 4x4 exact.
class KulkarniMultiplier final : public Multiplier {
 public:
  explicit KulkarniMultiplier(MultiplierInfo info) : Multiplier(std::move(info)) {}

  static std::uint32_t mul2x2(std::uint32_t a, std::uint32_t b) {
    return (a == 3 && b == 3) ? 7U : a * b;
  }

  static std::uint32_t mul4x4(std::uint32_t a, std::uint32_t b) {
    const std::uint32_t ah = a >> 2;
    const std::uint32_t al = a & 3U;
    const std::uint32_t bh = b >> 2;
    const std::uint32_t bl = b & 3U;
    return (mul2x2(ah, bh) << 4) + ((mul2x2(ah, bl) + mul2x2(al, bh)) << 2) + mul2x2(al, bl);
  }

  std::uint32_t multiply(std::uint8_t a, std::uint8_t b) const override {
    const std::uint32_t ah = a >> 4;
    const std::uint32_t al = a & 0xFU;
    const std::uint32_t bh = b >> 4;
    const std::uint32_t bl = b & 0xFU;
    const bool hybrid = info().param == 1;
    const std::uint32_t hh = hybrid ? ah * bh : mul4x4(ah, bh);
    return (hh << 8) + ((mul4x4(ah, bl) + mul4x4(al, bh)) << 4) + mul4x4(al, bl);
  }
};

/// Hybrid of operand and result truncation: param encodes op_k*16 + res_k.
class HybridTruncMultiplier final : public Multiplier {
 public:
  explicit HybridTruncMultiplier(MultiplierInfo info) : Multiplier(std::move(info)) {}
  std::uint32_t multiply(std::uint8_t a, std::uint8_t b) const override {
    const int op_k = info().param >> 4;
    const int res_k = info().param & 0xF;
    const auto mask = static_cast<std::uint8_t>(0xFFU << op_k);
    const std::uint32_t p = exact_mul(a & mask, b & mask);
    return p & ~((1U << res_k) - 1U);
  }
};

}  // namespace

void build_product_table(const Multiplier& mul, std::uint32_t* table) {
  for (int a = 0; a < 256; ++a) {
    for (int b = 0; b < 256; ++b) {
      table[(a << 8) | b] =
          mul.multiply(static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b));
    }
  }
}

std::unique_ptr<Multiplier> make_exact_multiplier(MultiplierInfo info) {
  return std::make_unique<ExactMultiplier>(std::move(info));
}
std::unique_ptr<Multiplier> make_res_trunc_multiplier(MultiplierInfo info) {
  return std::make_unique<ResTruncMultiplier>(std::move(info));
}
std::unique_ptr<Multiplier> make_op_trunc_multiplier(MultiplierInfo info) {
  return std::make_unique<OpTruncMultiplier>(std::move(info));
}
std::unique_ptr<Multiplier> make_bam_multiplier(MultiplierInfo info) {
  return std::make_unique<BamMultiplier>(std::move(info));
}
std::unique_ptr<Multiplier> make_loa_multiplier(MultiplierInfo info) {
  return std::make_unique<LoaMultiplier>(std::move(info));
}
std::unique_ptr<Multiplier> make_drum_multiplier(MultiplierInfo info) {
  return std::make_unique<DrumMultiplier>(std::move(info));
}
std::unique_ptr<Multiplier> make_mitchell_multiplier(MultiplierInfo info) {
  return std::make_unique<MitchellMultiplier>(std::move(info));
}
std::unique_ptr<Multiplier> make_kulkarni_multiplier(MultiplierInfo info) {
  return std::make_unique<KulkarniMultiplier>(std::move(info));
}
std::unique_ptr<Multiplier> make_hybrid_trunc_multiplier(MultiplierInfo info) {
  return std::make_unique<HybridTruncMultiplier>(std::move(info));
}

}  // namespace redcane::approx
