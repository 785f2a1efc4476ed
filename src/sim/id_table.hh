/**
 * @file
 * Open-addressing hash table keyed by 64-bit ids.
 *
 * The request path keeps several id ledgers: the array's outstanding
 * joins, and the invariant checker's joins and per-disk outstanding
 * sub-requests. Each sees one insert and one erase
 * per request, so a node-based hash map costs a heap allocation per
 * request per ledger. IdTable stores its entries by value in one
 * power-of-two slot array instead:
 *
 *  - linear probing from a Fibonacci (golden-ratio multiplicative)
 *    hash, which spreads runs of consecutive ids — join ids are
 *    issued monotonically — evenly over the slots;
 *  - backward-shift deletion: an erase pulls the rest of its cluster
 *    back into the gap, so there are no tombstones and probe lengths
 *    do not degrade with churn;
 *  - no storage until the first insert, then 16 slots that double
 *    whenever an insert would push the load past 3/4, and never
 *    shrink: a run allocates only while its peak population grows.
 *
 * Keys are arbitrary: every 64-bit value, 0 and UINT64_MAX included,
 * is a valid id (occupancy is a per-slot flag, not a reserved key).
 * Pointers and references into the table are invalidated by any
 * insert or erase. V must be default-constructible and movable;
 * empty slots hold a default V.
 */

#ifndef IDP_SIM_ID_TABLE_HH
#define IDP_SIM_ID_TABLE_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace idp {
namespace sim {

template <typename V>
class IdTable
{
  public:
    /** Slot count of the first allocation. */
    static constexpr std::size_t kInitialSlots = 16;

    /** Home slot of @p key in a table of @p slots (a power of two):
     *  the top log2(slots) bits of the key's golden-ratio product. */
    static std::size_t
    homeSlot(std::uint64_t key, std::size_t slots)
    {
        return hashTop(key, 64 - std::countr_zero(slots));
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /** Allocated slots (0 before the first insert). */
    std::size_t capacity() const { return slots_.size(); }

    /** The value stored under @p key, or null. */
    V *
    find(std::uint64_t key)
    {
        if (slots_.empty())
            return nullptr;
        Slot &s = slots_[probe(key)];
        return s.used ? &s.value : nullptr;
    }

    const V *
    find(std::uint64_t key) const
    {
        if (slots_.empty())
            return nullptr;
        const Slot &s = slots_[probe(key)];
        return s.used ? &s.value : nullptr;
    }

    /**
     * Store @p value under @p key unless the key is present.
     * @return the stored value and whether this call inserted it (an
     * existing entry is left untouched).
     */
    std::pair<V *, bool>
    insert(std::uint64_t key, V value)
    {
        if (!slots_.empty()) {
            const std::size_t i = probe(key);
            if (slots_[i].used)
                return {&slots_[i].value, false};
            if ((size_ + 1) * 4 <= slots_.size() * 3)
                return {place(i, key, std::move(value)), true};
        }
        grow();
        return {place(probe(key), key, std::move(value)), true};
    }

    /** The value under @p key, default-constructed if absent. */
    V &operator[](std::uint64_t key) { return *insert(key, V{}).first; }

    /** Remove @p key. @return false if it was absent. */
    bool
    erase(std::uint64_t key)
    {
        if (slots_.empty())
            return false;
        std::size_t hole = probe(key);
        if (!slots_[hole].used)
            return false;
        // Backward shift: walk the rest of the cluster and move every
        // entry whose home slot lies cyclically at or before the hole
        // into it, so each entry stays reachable from its home.
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t j = (hole + 1) & mask; slots_[j].used;
             j = (j + 1) & mask) {
            const std::size_t from_home =
                (j - home(slots_[j].key)) & mask;
            if (from_home >= ((j - hole) & mask)) {
                slots_[hole] = std::move(slots_[j]);
                hole = j;
            }
        }
        slots_[hole].used = false;
        slots_[hole].value = V{};
        --size_;
        return true;
    }

    /** Call @p fn(key, value) for every entry, in slot order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &s : slots_)
            if (s.used)
                fn(s.key, s.value);
    }

  private:
    struct Slot
    {
        std::uint64_t key = 0;
        bool used = false;
        V value{};
    };

    static std::size_t
    hashTop(std::uint64_t key, unsigned shift)
    {
        return static_cast<std::size_t>(
            (key * 0x9E3779B97F4A7C15ull) >> shift);
    }

    std::size_t home(std::uint64_t key) const { return hashTop(key, shift_); }

    /** Slot holding @p key, or the empty slot ending its probe run.
     *  The load cap keeps one slot empty, so the walk terminates. */
    std::size_t
    probe(std::uint64_t key) const
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = home(key);
        while (slots_[i].used && slots_[i].key != key)
            i = (i + 1) & mask;
        return i;
    }

    V *
    place(std::size_t i, std::uint64_t key, V &&value)
    {
        Slot &s = slots_[i];
        s.key = key;
        s.used = true;
        s.value = std::move(value);
        ++size_;
        return &s.value;
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        const std::size_t slots =
            old.empty() ? kInitialSlots : old.size() * 2;
        slots_ = std::vector<Slot>(slots);
        shift_ = 64 - std::countr_zero(slots);
        for (Slot &s : old)
            if (s.used)
                slots_[probe(s.key)] = std::move(s);
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    /** 64 - log2(slots): home() keeps the product's top bits. */
    unsigned shift_ = 64;
};

} // namespace sim
} // namespace idp

#endif // IDP_SIM_ID_TABLE_HH
