/**
 * @file
 * The byte-wise FNV-1a step behind the coverage, path, plan, corpus
 * and session digests.
 *
 * Every digest folds 64-bit values one little-endian byte at a time,
 * so two hosts of either endianness agree on every value.
 * core::configHash and MainMemory's lane digest use their own layouts
 * and do not go through here.
 */

#ifndef PE_SUPPORT_FNV_HH
#define PE_SUPPORT_FNV_HH

#include <cstdint>
#include <string_view>

namespace pe
{

/** The standard 64-bit FNV-1a offset basis. */
inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/**
 * The basis the fleet's digests (plan, corpus, session word, seeds)
 * start from: the standard basis with its last decimal digit
 * dropped.  Tests and CI pin the plan and corpus digests, so it
 * stays.
 */
inline constexpr uint64_t kFnvFleetOffset = 1469598103934665603ull;

inline constexpr uint64_t kFnvPrime = 0x100000001b3ull;

/** Fold the eight little-endian bytes of @p v into @p h. */
constexpr uint64_t
fnvMix(uint64_t h, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        h = (h ^ ((v >> (8 * i)) & 0xff)) * kFnvPrime;
    return h;
}

/** Fold every byte of @p bytes into @p h. */
constexpr uint64_t
fnvBytes(uint64_t h, std::string_view bytes)
{
    for (char c : bytes)
        h = (h ^ static_cast<unsigned char>(c)) * kFnvPrime;
    return h;
}

} // namespace pe

#endif // PE_SUPPORT_FNV_HH
