/**
 * @file
 * IdTable (open addressing, linear probing, backward-shift erase)
 * against std::unordered_map: a randomized model check plus the
 * cluster shapes where probing bugs hide — clusters that wrap past
 * the last slot, growth while a cluster is long, erases from the
 * middle of a cluster, the extreme keys, and the array's own pattern
 * of monotone join ids completing out of order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/id_table.hh"
#include "sim/rng.hh"

using namespace idp;

namespace {

using Table = sim::IdTable<std::uint64_t>;
using Model = std::unordered_map<std::uint64_t, std::uint64_t>;

constexpr std::uint64_t kMaxKey =
    std::numeric_limits<std::uint64_t>::max();

/** The first @p count keys (scanning up from @p from) whose home slot
 *  in a table of @p slots is @p slot. */
std::vector<std::uint64_t>
keysHomedAt(std::size_t slot, std::size_t slots, std::size_t count,
            std::uint64_t from = 0)
{
    std::vector<std::uint64_t> keys;
    for (std::uint64_t k = from; keys.size() < count; ++k)
        if (Table::homeSlot(k, slots) == slot)
            keys.push_back(k);
    return keys;
}

/** Every model entry is found with its value, and nothing else is
 *  stored. */
void
expectSameContents(const Table &table, const Model &model)
{
    ASSERT_EQ(table.size(), model.size());
    for (const auto &[key, value] : model) {
        const std::uint64_t *got = table.find(key);
        ASSERT_NE(got, nullptr) << "key " << key << " lost";
        EXPECT_EQ(*got, value) << "key " << key;
    }
    std::size_t visited = 0;
    table.forEach([&](std::uint64_t key, const std::uint64_t &value) {
        ++visited;
        const auto it = model.find(key);
        ASSERT_NE(it, model.end()) << "stray key " << key;
        EXPECT_EQ(value, it->second);
    });
    EXPECT_EQ(visited, model.size());
}

} // namespace

TEST(IdTable, EmptyTableOwnsNoStorage)
{
    Table t;
    EXPECT_EQ(t.capacity(), 0u);
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.find(0), nullptr);
    EXPECT_EQ(t.find(kMaxKey), nullptr);
    EXPECT_FALSE(t.erase(7));
    EXPECT_EQ(t.capacity(), 0u);
    t.insert(7, 70);
    EXPECT_EQ(t.capacity(), Table::kInitialSlots);
}

TEST(IdTable, ExtremeKeysAreOrdinaryKeys)
{
    Table t;
    const std::uint64_t keys[] = {0, kMaxKey, 1, kMaxKey - 1,
                                  std::uint64_t(1) << 63};
    for (std::uint64_t k : keys)
        EXPECT_TRUE(t.insert(k, k ^ 0x5a5a).second);
    for (std::uint64_t k : keys) {
        ASSERT_NE(t.find(k), nullptr) << k;
        EXPECT_EQ(*t.find(k), k ^ 0x5a5a);
    }
    // Re-inserting leaves the stored value alone.
    const auto [v, inserted] = t.insert(0, 99);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(*v, 0x5a5au);
    EXPECT_TRUE(t.erase(0));
    EXPECT_EQ(t.find(0), nullptr);
    EXPECT_TRUE(t.erase(kMaxKey));
    EXPECT_EQ(t.find(kMaxKey), nullptr);
    EXPECT_EQ(t.size(), 3u);
    ASSERT_NE(t.find(1), nullptr);
    ASSERT_NE(t.find(kMaxKey - 1), nullptr);
}

TEST(IdTable, OperatorBracketDefaultConstructsOnce)
{
    Table t;
    EXPECT_EQ(t[42], 0u);
    t[42] += 5;
    t[42] += 5;
    EXPECT_EQ(t[42], 10u);
    EXPECT_EQ(t.size(), 1u);
}

TEST(IdTable, ClusterWrapsPastTheLastSlot)
{
    const std::size_t slots = Table::kInitialSlots;
    // Four keys homed at the last slot fill slots 15, 0, 1, 2; two
    // keys homed at slot 0 queue behind them at 3 and 4.
    const auto tail = keysHomedAt(slots - 1, slots, 4);
    const auto head = keysHomedAt(0, slots, 2);
    Table t;
    Model m;
    for (std::uint64_t k : tail) {
        t.insert(k, k + 1);
        m[k] = k + 1;
    }
    for (std::uint64_t k : head) {
        t.insert(k, k + 1);
        m[k] = k + 1;
    }
    ASSERT_EQ(t.capacity(), slots); // no growth: 6 of 16
    expectSameContents(t, m);

    // Erase the cluster's first entry (slot 15): the wrapped entries
    // shift back across the end, the slot-0 keys shift toward home.
    ASSERT_TRUE(t.erase(tail[0]));
    m.erase(tail[0]);
    expectSameContents(t, m);
    // And from its wrapped middle.
    ASSERT_TRUE(t.erase(tail[2]));
    m.erase(tail[2]);
    expectSameContents(t, m);
    // Refill across the wrap and drain completely.
    for (std::uint64_t k :
         keysHomedAt(slots - 1, slots, 3, tail.back() + 1)) {
        t.insert(k, 3 * k);
        m[k] = 3 * k;
    }
    expectSameContents(t, m);
    std::vector<std::uint64_t> live;
    for (const auto &entry : m)
        live.push_back(entry.first);
    for (std::uint64_t k : live) {
        ASSERT_TRUE(t.erase(k));
        m.erase(k);
        expectSameContents(t, m);
    }
    EXPECT_TRUE(t.empty());
}

TEST(IdTable, EraseFromTheMiddleOfAClusterShiftsBack)
{
    const std::size_t slots = Table::kInitialSlots;
    // Interleave three home slots into one long run: 5,5,5,6,6,7.
    auto at5 = keysHomedAt(5, slots, 3);
    auto at6 = keysHomedAt(6, slots, 2);
    auto at7 = keysHomedAt(7, slots, 1);
    std::vector<std::uint64_t> order = {at5[0], at6[0], at5[1],
                                        at7[0], at5[2], at6[1]};
    for (std::size_t victim = 0; victim < order.size(); ++victim) {
        Table t;
        Model m;
        for (std::uint64_t k : order) {
            t.insert(k, ~k);
            m[k] = ~k;
        }
        ASSERT_TRUE(t.erase(order[victim]));
        m.erase(order[victim]);
        expectSameContents(t, m);
        // The freed slot is reusable and absent keys stay absent.
        EXPECT_FALSE(t.erase(order[victim]));
        EXPECT_EQ(t.find(order[victim]), nullptr);
        t.insert(order[victim], 1);
        m[order[victim]] = 1;
        expectSameContents(t, m);
    }
}

TEST(IdTable, GrowsInTheMiddleOfACluster)
{
    const std::size_t slots = Table::kInitialSlots;
    // Twelve keys homed at slot 9 fill 3/4 of the table as one
    // cluster wrapping past the end; the thirteenth forces a doubling
    // that must re-home every entry of the cluster.
    const auto keys = keysHomedAt(9, slots, 13);
    Table t;
    Model m;
    for (std::size_t i = 0; i < 12; ++i) {
        t.insert(keys[i], i);
        m[keys[i]] = i;
    }
    ASSERT_EQ(t.capacity(), slots);
    // Erase from the middle first so growth sees a cluster with a
    // shifted-back entry, then refill to the threshold.
    ASSERT_TRUE(t.erase(keys[4]));
    m.erase(keys[4]);
    t.insert(keys[4], 44);
    m[keys[4]] = 44;
    expectSameContents(t, m);
    t.insert(keys[12], 12);
    m[keys[12]] = 12;
    EXPECT_EQ(t.capacity(), 2 * slots);
    expectSameContents(t, m);
    // Growth never shrinks back: draining keeps the storage.
    for (std::uint64_t k : keys)
        ASSERT_TRUE(t.erase(k));
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.capacity(), 2 * slots);
}

TEST(IdTable, MonotoneJoinIdsCompletingOutOfOrder)
{
    // The array's ledger: ids issued 1, 2, 3, ..., at most `window`
    // outstanding, completions in random order (deep SPTF queues
    // finish requests far from FIFO).
    const std::size_t window = 200;
    sim::Rng rng(11);
    Table t;
    Model m;
    std::vector<std::uint64_t> live;
    std::uint64_t next_id = 1;
    std::size_t peak = 0;
    for (int step = 0; step < 40000; ++step) {
        const bool issue = live.size() < window &&
            (live.empty() || rng.chance(0.5));
        if (issue) {
            const std::uint64_t id = next_id++;
            ASSERT_TRUE(t.insert(id, id * 3).second);
            m[id] = id * 3;
            live.push_back(id);
        } else {
            const std::size_t pick = static_cast<std::size_t>(
                rng.uniformInt(live.size()));
            const std::uint64_t id = live[pick];
            live[pick] = live.back();
            live.pop_back();
            const std::uint64_t *v = t.find(id);
            ASSERT_NE(v, nullptr) << "join " << id;
            EXPECT_EQ(*v, id * 3);
            ASSERT_TRUE(t.erase(id));
            m.erase(id);
        }
        peak = std::max(peak, live.size());
        if (step % 997 == 0)
            expectSameContents(t, m);
    }
    expectSameContents(t, m);
    // Storage tracks the peak population, not the ids ever issued.
    std::size_t need = Table::kInitialSlots;
    while (peak * 4 > need * 3)
        need *= 2;
    EXPECT_EQ(t.capacity(), need);
    EXPECT_GT(next_id, 10 * window);
}

TEST(IdTable, RandomizedModelCheckAgainstUnorderedMap)
{
    // A key universe small enough that inserts collide with live
    // keys and erases hit, with the extreme keys and one crowded
    // home slot mixed in.
    std::vector<std::uint64_t> universe = {0, kMaxKey, kMaxKey - 1, 1};
    for (std::uint64_t k : keysHomedAt(3, Table::kInitialSlots, 24))
        universe.push_back(k);
    sim::Rng rng(2024);
    while (universe.size() < 160)
        universe.push_back(rng.next());

    Table t;
    Model m;
    std::uint64_t finds = 0, hits = 0, erases = 0, inserts = 0;
    for (int op = 0; op < 30000; ++op) {
        const std::uint64_t key = universe[static_cast<std::size_t>(
            rng.uniformInt(universe.size()))];
        const double r = rng.uniform();
        if (r < 0.4) {
            const std::uint64_t value = rng.next();
            const auto [v, inserted] = t.insert(key, value);
            const auto [it, model_inserted] = m.emplace(key, value);
            ASSERT_EQ(inserted, model_inserted) << "op " << op;
            ASSERT_EQ(*v, it->second) << "op " << op;
            ++inserts;
        } else if (r < 0.75) {
            const bool erased = t.erase(key);
            ASSERT_EQ(erased, m.erase(key) == 1) << "op " << op;
            erases += erased;
        } else if (r < 0.95) {
            const std::uint64_t *v = t.find(key);
            const auto it = m.find(key);
            ASSERT_EQ(v != nullptr, it != m.end()) << "op " << op;
            if (v != nullptr) {
                EXPECT_EQ(*v, it->second);
                ++hits;
            }
            ++finds;
        } else {
            t[key] += 1;
            m[key] += 1;
        }
        ASSERT_EQ(t.size(), m.size()) << "op " << op;
        if (op % 1009 == 0)
            expectSameContents(t, m);
    }
    expectSameContents(t, m);
    // The mix really exercised every path.
    EXPECT_GT(inserts, 5000u);
    EXPECT_GT(erases, 3000u);
    EXPECT_GT(hits, 1000u);
    EXPECT_GT(finds, hits);
}

TEST(IdTable, NonTrivialValuesMoveWithTheirEntries)
{
    // Values that own storage survive backward shifts and growth,
    // and an erase releases the value it held.
    sim::IdTable<std::vector<int>> t;
    const auto keys = keysHomedAt(2, Table::kInitialSlots, 10);
    for (std::size_t i = 0; i < keys.size(); ++i)
        t.insert(keys[i], std::vector<int>(i + 1, static_cast<int>(i)));
    ASSERT_TRUE(t.erase(keys[0]));
    ASSERT_TRUE(t.erase(keys[5]));
    for (std::size_t i = 0; i < 20; ++i)
        t.insert(1000 + i, std::vector<int>{static_cast<int>(i)});
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const std::vector<int> *v = t.find(keys[i]);
        if (i == 0 || i == 5) {
            EXPECT_EQ(v, nullptr);
            continue;
        }
        ASSERT_NE(v, nullptr);
        EXPECT_EQ(v->size(), i + 1);
        EXPECT_EQ(v->front(), static_cast<int>(i));
    }
    EXPECT_EQ(t.size(), keys.size() - 2 + 20);
}

TEST(IdTable, ErasedValuesAreReleased)
{
    // An erased slot must not keep its value's resources alive,
    // whether the erase shifted the cluster back or not.
    const auto token = std::make_shared<int>(7);
    sim::IdTable<std::shared_ptr<int>> t;
    const auto keys = keysHomedAt(2, Table::kInitialSlots, 5);
    for (std::uint64_t k : keys)
        t.insert(k, token);
    EXPECT_EQ(token.use_count(), 6);
    ASSERT_TRUE(t.erase(keys[4])); // cluster tail: nothing to shift
    EXPECT_EQ(token.use_count(), 5);
    ASSERT_TRUE(t.erase(keys[1])); // mid-cluster: backward shift
    EXPECT_EQ(token.use_count(), 4);
}
