// FIPS 180-4 SHA-256, implemented from scratch (no external crypto deps).
//
// The compression function has two kernels that compute the same bytes: a
// portable one, and one on the x86-64 SHA extensions (SHA-NI). Each process
// picks one once, by CPUID; no flag or setting overrides the choice, and
// only tests and benchmarks name a kernel (Sha256(Sha256Kernel)).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "common/types.hpp"

namespace bng::crypto {

enum class Sha256Kernel : std::uint8_t {
  kPortable,  ///< plain C++: runs on every CPU, and is the tests' oracle
  kShaNi,     ///< x86-64 SHA extensions (needs the `sha` and `sse4.1` CPUID bits)
};

/// Whether this CPU can run `kernel`.
[[nodiscard]] bool sha256_kernel_supported(Sha256Kernel kernel);

/// The kernel this process hashes with: kShaNi where the CPU supports it,
/// else kPortable. Decided on first use and fixed for the process.
[[nodiscard]] Sha256Kernel sha256_kernel();

/// "sha-ni" or "portable", the name `--stats-json` reports.
[[nodiscard]] const char* sha256_kernel_name(Sha256Kernel kernel);

class Sha256 {
 public:
  /// Hash with the process's kernel, sha256_kernel().
  Sha256();
  /// Hash with `kernel`, for tests and benchmarks that compare kernels.
  /// Throws std::invalid_argument if this CPU cannot run it.
  explicit Sha256(Sha256Kernel kernel);

  Sha256& update(std::span<const std::uint8_t> data);
  Sha256& update(std::string_view text);

  /// Finalize and return the digest. The object must not be reused afterwards.
  [[nodiscard]] Hash256 finalize();

 private:
  /// The kernel: compresses `n_blocks` consecutive 64-byte blocks into `state`.
  void (*compress_)(std::uint32_t state[8], const std::uint8_t* blocks, std::size_t n_blocks);
  std::uint32_t state_[8];
  std::uint8_t buffer_[64];
  std::size_t buffered_ = 0;
  std::uint64_t total_len_ = 0;
};

/// One-shot SHA-256.
[[nodiscard]] Hash256 sha256(std::span<const std::uint8_t> data);
[[nodiscard]] Hash256 sha256(std::string_view text);

/// Bitcoin's double SHA-256 (used for block ids and txids).
[[nodiscard]] Hash256 sha256d(std::span<const std::uint8_t> data);

}  // namespace bng::crypto
