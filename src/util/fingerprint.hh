/**
 * @file
 * Content hash for the derived-data caches (conv/weight_plans,
 * sparse/sparse_plan): they re-check the bytes they were built from on
 * every lookup, so an in-place mutation the owner never reported still
 * forces a rebuild.
 */

#ifndef SPG_UTIL_FINGERPRINT_HH
#define SPG_UTIL_FINGERPRINT_HH

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace spg {

/**
 * @return a 64-bit hash of @p n bytes at @p bytes.
 *
 * The hash runs on every cache lookup over tensors of up to megabytes,
 * so a byte-at-a-time multiply chain would cost more than many of the
 * rebuilds it saves. Four independent FNV-style lanes over 64-bit
 * words hide the multiply latency and run near load bandwidth; the
 * byte tail feeds lane 0. Every byte feeds the result, so any in-place
 * mutation changes the hash.
 */
inline std::uint64_t
fingerprintBytes(const unsigned char *bytes, std::size_t n)
{
    constexpr std::uint64_t kPrime = 1099511628211ull;
    std::uint64_t lane[4] = {14695981039346656037ull,
                             0x9ae16a3b2f90404full,
                             0xc949d7c7509e6557ull,
                             0xff51afd7ed558ccdull};
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        std::uint64_t word[4];
        std::memcpy(word, bytes + i, 32);
        for (int l = 0; l < 4; ++l) {
            lane[l] ^= word[l];
            lane[l] *= kPrime;
        }
    }
    for (; i < n; ++i) {
        lane[0] ^= bytes[i];
        lane[0] *= kPrime;
    }
    std::uint64_t h = lane[0];
    for (int l = 1; l < 4; ++l)
        h = (h ^ lane[l]) * kPrime + (h >> 29);
    return h;
}

} // namespace spg

#endif // SPG_UTIL_FINGERPRINT_HH
