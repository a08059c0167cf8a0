#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace bng::crypto {

// Names the kernel in test output (found by argument-dependent lookup).
void PrintTo(Sha256Kernel kernel, std::ostream* os) { *os << sha256_kernel_name(kernel); }

namespace {

// FIPS 180-4 / NIST known-answer vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(sha256("").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(sha256("abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(h.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg = "the quick brown fox jumps over the lazy dog multiple times";
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 h;
    h.update(msg.substr(0, split));
    h.update(msg.substr(split));
    EXPECT_EQ(h.finalize(), sha256(msg)) << "split at " << split;
  }
}

TEST(Sha256, PaddingBoundaries) {
  // Lengths around the 55/56/64-byte padding edges must all be consistent
  // between incremental and one-shot paths.
  for (std::size_t len : {54u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    std::string msg(len, 'x');
    Sha256 h;
    for (char c : msg) h.update(std::string(1, c));
    EXPECT_EQ(h.finalize(), sha256(msg)) << "len " << len;
  }
}

TEST(Sha256, DifferentInputsDiffer) {
  EXPECT_NE(sha256("a"), sha256("b"));
  EXPECT_NE(sha256("abc"), sha256("abd"));
  EXPECT_NE(sha256(""), sha256(std::string(1, '\0')));
}

TEST(Sha256d, DoubleHashDiffersFromSingle) {
  std::vector<std::uint8_t> data{1, 2, 3};
  Hash256 once = sha256(data);
  Hash256 twice = sha256d(data);
  EXPECT_NE(once, twice);
  EXPECT_EQ(twice, sha256(std::span<const std::uint8_t>(once.bytes.data(), 32)));
}

TEST(Sha256, AvalancheEffect) {
  // Flipping one input bit should flip roughly half the output bits.
  std::vector<std::uint8_t> a(32, 0x5c), b = a;
  b[0] ^= 0x01;
  Hash256 ha = sha256(a), hb = sha256(b);
  int diff_bits = 0;
  for (int i = 0; i < 32; ++i) diff_bits += __builtin_popcount(ha.bytes[i] ^ hb.bytes[i]);
  EXPECT_GT(diff_bits, 80);
  EXPECT_LT(diff_bits, 176);
}

// --- The compression kernels, each run directly ----------------------------

std::string kernel_skip_reason(Sha256Kernel kernel) {
  return std::string("this CPU lacks the instructions of the ") + sha256_kernel_name(kernel) +
         " kernel (CPUID sha and sse4.1)";
}

class Sha256KernelTest : public ::testing::TestWithParam<Sha256Kernel> {
 protected:
  void SetUp() override {
    if (!sha256_kernel_supported(GetParam())) GTEST_SKIP() << kernel_skip_reason(GetParam());
  }

  [[nodiscard]] std::string hex(std::string_view msg) const {
    return Sha256(GetParam()).update(msg).finalize().to_hex();
  }
};

TEST_P(Sha256KernelTest, NistVectors) {
  EXPECT_EQ(hex(""), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex("abc"), "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(hex("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopq"
                "klmnopqrlmnopqrsmnopqrstnopqrstu"),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

TEST_P(Sha256KernelTest, MillionAs) {
  Sha256 h(GetParam());
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(h.finalize().to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

INSTANTIATE_TEST_SUITE_P(Kernels, Sha256KernelTest,
                         ::testing::Values(Sha256Kernel::kPortable, Sha256Kernel::kShaNi),
                         [](const ::testing::TestParamInfo<Sha256Kernel>& info) {
                           return info.param == Sha256Kernel::kShaNi ? "ShaNi" : "Portable";
                         });

TEST(Sha256Kernels, ProcessUsesTheFastestSupportedKernel) {
  EXPECT_TRUE(sha256_kernel_supported(Sha256Kernel::kPortable));
  EXPECT_EQ(sha256_kernel(), sha256_kernel_supported(Sha256Kernel::kShaNi)
                                 ? Sha256Kernel::kShaNi
                                 : Sha256Kernel::kPortable);
  EXPECT_STREQ(sha256_kernel_name(Sha256Kernel::kShaNi), "sha-ni");
  EXPECT_STREQ(sha256_kernel_name(Sha256Kernel::kPortable), "portable");
}

TEST(Sha256Kernels, ShaNiMatchesPortableOnRandomStreams) {
  if (!sha256_kernel_supported(Sha256Kernel::kShaNi))
    GTEST_SKIP() << kernel_skip_reason(Sha256Kernel::kShaNi);
  Rng rng(180);
  std::vector<std::uint8_t> msg;
  for (int n = 0; n < 10'000; ++n) {
    msg.resize(rng.next_below(1001));
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
    // Up to three random split points, so whole blocks go both through the
    // partial-block buffer and straight from the caller's bytes.
    std::vector<std::size_t> cuts{0, msg.size()};
    for (auto k = rng.next_below(4); k > 0; --k) cuts.push_back(rng.next_below(msg.size() + 1));
    std::sort(cuts.begin(), cuts.end());
    Sha256 portable(Sha256Kernel::kPortable);
    Sha256 shani(Sha256Kernel::kShaNi);
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      const auto piece = std::span(msg).subspan(cuts[i], cuts[i + 1] - cuts[i]);
      portable.update(piece);
      shani.update(piece);
    }
    const Hash256 expected = portable.finalize();
    ASSERT_EQ(shani.finalize(), expected) << "message " << n << ", " << msg.size() << " bytes";
    ASSERT_EQ(sha256(msg), expected) << "message " << n << ", " << msg.size() << " bytes";
  }
}

}  // namespace
}  // namespace bng::crypto
