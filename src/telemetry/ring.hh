/**
 * @file
 * Bounded single-writer span ring buffer.
 *
 * Each traced run appends spans to exactly one ring, owned by its
 * Tracer and written by one thread at a time. The record path
 * is therefore lock-free by construction: an index increment and a
 * 32-byte store, no atomics, no allocation after construction.
 *
 * When full, the ring overwrites its oldest entries (keeping the most
 * recent window, like a flight recorder) and counts the overwrites so
 * exports can report truncation honestly. snapshot() returns spans in
 * insertion order; callers must only snapshot after the writing
 * thread is done (ForkJoin::run returning is that barrier).
 */

#ifndef IDP_TELEMETRY_RING_HH
#define IDP_TELEMETRY_RING_HH

#include <cstdint>
#include <vector>

#include "telemetry/span.hh"

namespace idp {
namespace telemetry {

class SpanRing
{
  public:
    /** @param capacity maximum retained spans (>= 1). */
    explicit SpanRing(std::size_t capacity);

    /** Append one span, overwriting the oldest when full. */
    void
    push(const Span &span)
    {
        buf_[head_] = span;
        if (++head_ == buf_.size())
            head_ = 0;
        if (size_ < buf_.size())
            ++size_;
        else
            ++dropped_;
    }

    /** Retained span count. */
    std::size_t size() const { return size_; }

    /** Maximum retained spans. */
    std::size_t capacity() const { return buf_.size(); }

    /** Spans overwritten because the ring was full. */
    std::uint64_t dropped() const { return dropped_; }

    /** Retained spans, oldest first. */
    std::vector<Span> snapshot() const;

    /** Forget everything recorded so far (capacity retained). */
    void clear();

  private:
    std::vector<Span> buf_;
    std::size_t head_ = 0; ///< next write slot
    std::size_t size_ = 0;
    std::uint64_t dropped_ = 0;
};

} // namespace telemetry
} // namespace idp

#endif // IDP_TELEMETRY_RING_HH
