/**
 * @file
 * Bucketed cylinder index over pending-queue slots.
 *
 * The dispatch schedulers want the pending window ordered by cylinder
 * so candidates can be enumerated outward from an arm's position in
 * nondecreasing seek-distance order, letting a branch-and-bound scan
 * stop as soon as the admissible seek lower bound at a band's
 * distance exceeds the best exactly-priced candidate. A comparison
 * tree would give that ordering at O(log n) per update; pending
 * windows are small (tens to a few hundred slots), so a flat bucket
 * array wins: the cylinder space is divided into kBuckets equal
 * ranges, each holding an intrusive doubly-linked list of slots, with
 * a 256-bit occupancy bitmap for skipping empty buckets in O(1)
 * word scans. Insert and remove are O(1); an outward scan visits
 * occupied buckets in nondecreasing minimum-distance order by merging
 * a downward and an upward bitmap cursor.
 *
 * The index stores slot ids only — callers own the slot payloads and
 * any tie-break ordering (the drive keys ties on FIFO sequence
 * numbers). Distances are bucket *lower bounds*: every slot in a
 * bucket is at least minDistance() cylinders from the scan origin,
 * which is exactly the admissibility the pruned schedulers need.
 */

#ifndef IDP_DISK_CYL_INDEX_HH
#define IDP_DISK_CYL_INDEX_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace idp {
namespace disk {

class CylinderBuckets
{
  public:
    /** Sentinel for "no slot" / "no bucket". */
    static constexpr std::uint32_t kNil = 0xffffffffu;
    /** Bucket count (fixed; width adapts to the cylinder range). */
    static constexpr std::uint32_t kBuckets = 256;

    /** Cover cylinders [0, @p cylinders) and clear all members. */
    void configure(std::uint32_t cylinders);

    /** Grow per-slot link storage so slot ids < @p n are addressable. */
    void ensureSlots(std::size_t n);

    /** Add @p slot at @p cylinder. The slot must not be present. */
    void insert(std::uint32_t slot, std::uint32_t cylinder);

    /** Remove a present @p slot. */
    void remove(std::uint32_t slot);

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool contains(std::uint32_t slot) const
    {
        return slot < cyl_.size() && cyl_[slot] != kNil;
    }
    std::uint32_t cylinderOf(std::uint32_t slot) const
    {
        return cyl_[slot];
    }

    /** Bucket holding @p cylinder. */
    std::uint32_t
    bucketOf(std::uint32_t cylinder) const
    {
        const std::uint32_t b = cylinder / width_;
        return b < kBuckets ? b : kBuckets - 1;
    }

    /** First slot of @p bucket (kNil when empty); then next(). */
    std::uint32_t head(std::uint32_t bucket) const
    {
        return heads_[bucket];
    }
    std::uint32_t next(std::uint32_t slot) const { return next_[slot]; }

    /**
     * Minimum cylinder distance from @p origin_cyl to any cylinder in
     * @p bucket's range (0 when the origin lies inside the range).
     * A lower bound for every member: members can only sit deeper
     * inside the range than its nearest edge.
     */
    std::uint32_t minDistance(std::uint32_t bucket,
                              std::uint32_t origin_cyl) const;

    /** Outward-scan cursor; value-type so scans can nest. */
    struct Scan
    {
        std::uint32_t origin = 0; ///< origin cylinder
        std::int32_t down = -1;   ///< highest unvisited bucket at/below
        std::uint32_t up = 0;     ///< lowest unvisited bucket above
    };

    /** Start an outward scan from @p cylinder. */
    Scan beginScan(std::uint32_t cylinder) const;

    /**
     * Advance to the next occupied bucket in nondecreasing
     * minDistance order. @return false when all occupied buckets have
     * been visited.
     */
    bool nextBucket(Scan &scan, std::uint32_t &bucket,
                    std::uint32_t &min_dist) const;

    /** Lowest occupied bucket index >= @p bucket (kNil when none). */
    std::uint32_t firstOccupiedAtOrAbove(std::uint32_t bucket) const;

  private:
    std::uint32_t width_ = 1; ///< cylinders per bucket
    std::size_t size_ = 0;
    std::uint64_t occupied_[kBuckets / 64] = {};
    std::uint32_t heads_[kBuckets] = {};
    /** Per-slot links; cyl_[slot] == kNil marks "not present". */
    std::vector<std::uint32_t> next_;
    std::vector<std::uint32_t> prev_;
    std::vector<std::uint32_t> cyl_;
};

} // namespace disk
} // namespace idp

#endif // IDP_DISK_CYL_INDEX_HH
