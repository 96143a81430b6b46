/**
 * @file
 * InlineFn: a move-only void() callable stored in place, the
 * allocation-free counterpart of std::function<void()> for the event
 * kernel's pooled lambda events and buffered cross-domain messages.
 */

#ifndef ENA_UTIL_INLINE_FN_HH
#define ENA_UTIL_INLINE_FN_HH

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace ena {

/**
 * A move-only void() callable held in place; larger captures go to the
 * heap. Pooled lambda events and buffered cross-domain messages carry
 * their callbacks in one, so neither allocates per message.
 */
class InlineFn
{
  public:
    /** Fits the largest capture the models post: the detailed NoC's
     *  per-hop [this, Packet, 3 x uint32] of 72 bytes. */
    static constexpr std::size_t inlineBytes = 80;

    InlineFn() = default;
    InlineFn(InlineFn &&o) noexcept { emplace(std::move(o)); }
    InlineFn &operator=(InlineFn &&) = delete;
    ~InlineFn() { reset(); }

    void operator()() { call_(buf_); }

    /** Destroy the held callable, if any. */
    void
    reset()
    {
        if (manage_)
            std::exchange(manage_, nullptr)(buf_, nullptr);
    }

    /** Hold @p f (an InlineFn is moved in, not wrapped); must be empty. */
    template <typename F>
    void
    emplace(F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (std::is_same_v<Fn, InlineFn>) {
            static_assert(!std::is_lvalue_reference_v<F>,
                          "move an InlineFn in; it cannot be copied");
            if (f.manage_)
                f.manage_(buf_, f.buf_);
            call_ = f.call_;
            manage_ = std::exchange(f.manage_, nullptr);
        } else if constexpr (sizeof(Fn) > inlineBytes ||
                             alignof(Fn) > alignof(std::max_align_t) ||
                             !std::is_nothrow_move_constructible_v<Fn>) {
            emplace([p = std::make_unique<Fn>(std::forward<F>(f))] {
                (*p)();
            });
        } else {
            ::new (buf_) Fn(std::forward<F>(f));
            call_ = [](void *p) { (*std::launder(static_cast<Fn *>(p)))(); };
            manage_ = [](void *dst, void *src) {
                Fn *old = std::launder(static_cast<Fn *>(src ? src : dst));
                if (src)
                    ::new (dst) Fn(std::move(*old));
                old->~Fn();
            };
        }
    }

  private:
    alignas(std::max_align_t) unsigned char buf_[inlineBytes];
    void (*call_)(void *) = nullptr;
    /** Move-construct *src into dst and destroy *src, or with a null
     *  src destroy *dst; null when empty. */
    void (*manage_)(void *dst, void *src) = nullptr;
};

} // namespace ena

#endif // ENA_UTIL_INLINE_FN_HH
