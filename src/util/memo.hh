/**
 * @file
 * Small helpers for content-addressed memoization of pure evaluations
 * (see core/eval_memo.hh).
 *
 * Keys are built from the *raw bit patterns* of the inputs a model
 * actually reads, never from rounded or hashed values, so a cache hit
 * is guaranteed to return the exact double recomputation would have
 * produced — memoized results are bit-identical because the keys are
 * exact, not probabilistic.
 */

#ifndef ENA_UTIL_MEMO_HH
#define ENA_UTIL_MEMO_HH

#include <bit>
#include <cstdint>

namespace ena {

/** Raw IEEE-754 bit pattern of a double (exact, no rounding). */
inline std::uint64_t
bitsOf(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/** SplitMix64 finalizer: cheap, well-distributed 64-bit mixer. */
inline std::uint64_t
memoMix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Combine key words into one hash (order-sensitive). */
inline std::uint64_t
memoHash(std::uint64_t h, std::uint64_t w)
{
    return memoMix(h ^ memoMix(w));
}

} // namespace ena

#endif // ENA_UTIL_MEMO_HH
