/**
 * @file
 * Randomized model check for the bucketed cylinder index.
 *
 * The index underpins the pruned dispatch path, where a wrong band
 * order or a dropped slot silently changes scheduling decisions, so
 * it is checked against a trivially correct reference (a flat vector
 * of (slot, cylinder) pairs) over a long random insert/remove/query
 * history:
 *
 *  - an outward scan enumerates every present slot exactly once, in
 *    nondecreasing band min-distance order, and every band's
 *    min-distance really lower-bounds its members' distances;
 *  - minDistance() matches the closed-form bucket-edge distance;
 *  - firstOccupiedAtOrAbove() agrees with the reference's notion of
 *    the lowest qualifying occupied bucket.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "disk/cyl_index.hh"

namespace {

using idp::disk::CylinderBuckets;

constexpr std::uint32_t kAbsent = 0xffffffffu;

struct Model
{
    CylinderBuckets index;
    std::vector<std::uint32_t> cylOf; ///< kAbsent = slot not present
    std::vector<std::uint32_t> present;
    std::uint32_t cylinders = 0;

    explicit Model(std::uint32_t cyls, std::size_t slots)
        : cylOf(slots, kAbsent), cylinders(cyls)
    {
        index.configure(cyls);
        index.ensureSlots(slots);
    }

    void
    insert(std::uint32_t slot, std::uint32_t cyl)
    {
        index.insert(slot, cyl);
        cylOf[slot] = cyl;
        present.push_back(slot);
    }

    void
    remove(std::size_t pick)
    {
        const std::uint32_t slot = present[pick];
        index.remove(slot);
        cylOf[slot] = kAbsent;
        present[pick] = present.back();
        present.pop_back();
    }

    std::uint32_t
    refMinDistance(std::uint32_t bucket, std::uint32_t origin) const
    {
        // Nearest edge of the bucket's (uncapped) cylinder range.
        const std::uint32_t width =
            (cylinders + CylinderBuckets::kBuckets - 1) /
            CylinderBuckets::kBuckets;
        const std::uint32_t lo = bucket * width;
        const std::uint32_t hi = lo + width - 1;
        if (origin < lo)
            return lo - origin;
        if (origin > hi)
            return origin - hi;
        return 0;
    }

    std::uint32_t
    refFirstOccupiedAtOrAbove(std::uint32_t bucket) const
    {
        std::uint32_t best = CylinderBuckets::kNil;
        for (std::uint32_t slot : present) {
            const std::uint32_t b = index.bucketOf(cylOf[slot]);
            if (b >= bucket && (best == CylinderBuckets::kNil ||
                                b < best))
                best = b;
        }
        return best;
    }

    void
    checkScan(std::uint32_t origin) const
    {
        std::vector<bool> seen(cylOf.size(), false);
        std::size_t found = 0;
        std::uint32_t last_dist = 0;
        auto scan = index.beginScan(origin);
        std::uint32_t bucket = 0;
        std::uint32_t min_dist = 0;
        while (index.nextBucket(scan, bucket, min_dist)) {
            ASSERT_GE(min_dist, last_dist)
                << "bands must come in nondecreasing distance order";
            last_dist = min_dist;
            ASSERT_EQ(min_dist, refMinDistance(bucket, origin));
            for (std::uint32_t s = index.head(bucket);
                 s != CylinderBuckets::kNil; s = index.next(s)) {
                ASSERT_LT(s, seen.size());
                ASSERT_FALSE(seen[s])
                    << "slot " << s << " enumerated twice";
                ASSERT_NE(cylOf[s], kAbsent);
                seen[s] = true;
                ++found;
                const std::uint32_t cyl = cylOf[s];
                const std::uint32_t dist =
                    cyl > origin ? cyl - origin : origin - cyl;
                ASSERT_GE(dist, min_dist)
                    << "band min-distance must lower-bound members";
                ASSERT_EQ(index.bucketOf(cyl), bucket);
            }
        }
        ASSERT_EQ(found, present.size())
            << "scan must enumerate the whole index";
        ASSERT_EQ(index.size(), present.size());
    }
};

void
runModelCheck(std::uint32_t cylinders, std::size_t slots,
              std::size_t ops, std::uint64_t seed)
{
    Model m(cylinders, slots);
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<std::uint32_t> cylDist(
        0, cylinders - 1);

    std::vector<std::uint32_t> freeSlots(slots);
    for (std::size_t i = 0; i < slots; ++i)
        freeSlots[i] = static_cast<std::uint32_t>(i);

    for (std::size_t op = 0; op < ops; ++op) {
        const bool canInsert = !freeSlots.empty();
        const bool canRemove = !m.present.empty();
        const bool doInsert =
            canInsert && (!canRemove || (rng() & 1) == 0);
        if (doInsert) {
            const std::size_t pick = rng() % freeSlots.size();
            const std::uint32_t slot = freeSlots[pick];
            freeSlots[pick] = freeSlots.back();
            freeSlots.pop_back();
            m.insert(slot, cylDist(rng));
        } else if (canRemove) {
            const std::size_t pick = rng() % m.present.size();
            freeSlots.push_back(m.present[pick]);
            m.remove(pick);
        }

        if (op % 97 == 0) {
            m.checkScan(cylDist(rng));
            const std::uint32_t b =
                rng() % CylinderBuckets::kBuckets;
            ASSERT_EQ(m.index.firstOccupiedAtOrAbove(b),
                      m.refFirstOccupiedAtOrAbove(b));
            ASSERT_EQ(m.index.firstOccupiedAtOrAbove(0),
                      m.refFirstOccupiedAtOrAbove(0));
        }
    }
    // Drain to empty through the same removal path.
    while (!m.present.empty())
        m.remove(m.present.size() - 1);
    m.checkScan(cylDist(rng));
    ASSERT_TRUE(m.index.empty());
    ASSERT_EQ(m.index.firstOccupiedAtOrAbove(0), CylinderBuckets::kNil);
}

TEST(CylIndex, RandomizedModelCheckWideGeometry)
{
    // ~90k cylinders (the HC-SD class): many cylinders per bucket.
    runModelCheck(/*cylinders=*/90112, /*slots=*/128,
                  /*ops=*/10000, /*seed=*/0xC1DEC0DEULL);
}

TEST(CylIndex, RandomizedModelCheckNarrowGeometry)
{
    // Fewer cylinders than buckets: width clamps to 1 and the tail
    // buckets can never be hit -- the occupancy scan must cope.
    runModelCheck(/*cylinders=*/61, /*slots=*/48, /*ops=*/10000,
                  /*seed=*/0x5EEDULL);
}

TEST(CylIndex, SingleBucketEdgeCases)
{
    CylinderBuckets idx;
    idx.configure(1); // one cylinder: everything lands in bucket 0
    idx.ensureSlots(4);
    EXPECT_TRUE(idx.empty());
    idx.insert(2, 0);
    idx.insert(0, 0);
    EXPECT_EQ(idx.size(), 2u);
    EXPECT_TRUE(idx.contains(2));
    EXPECT_FALSE(idx.contains(1));
    EXPECT_EQ(idx.firstOccupiedAtOrAbove(0), 0u);

    auto scan = idx.beginScan(0);
    std::uint32_t bucket = 99, dist = 99;
    ASSERT_TRUE(idx.nextBucket(scan, bucket, dist));
    EXPECT_EQ(bucket, 0u);
    EXPECT_EQ(dist, 0u);
    EXPECT_FALSE(idx.nextBucket(scan, bucket, dist));

    idx.remove(0);
    idx.remove(2);
    EXPECT_TRUE(idx.empty());
    EXPECT_EQ(idx.firstOccupiedAtOrAbove(0), CylinderBuckets::kNil);
}

} // namespace
