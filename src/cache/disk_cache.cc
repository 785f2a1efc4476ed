#include "cache/disk_cache.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace idp {
namespace cache {

namespace {

bool
overlaps(geom::Lba a_lba, std::uint32_t a_n, geom::Lba b_lba,
         std::uint32_t b_n)
{
    return a_lba < b_lba + b_n && b_lba < a_lba + a_n;
}

} // namespace

DiskCache::DiskCache(const CacheParams &params) : params_(params)
{
    sim::simAssert(params.segments > 0, "cache: segments must be > 0");
    sim::simAssert(params.cacheBytes >= params.segments *
                       static_cast<std::uint64_t>(geom::kSectorBytes),
                   "cache: capacity smaller than one sector/segment");
    segmentSectors_ = static_cast<std::uint32_t>(
        params.cacheBytes / params.segments / geom::kSectorBytes);
    segments_.resize(params.segments);
}

DiskCache::Segment *
DiskCache::findContaining(geom::Lba lba, std::uint32_t sectors)
{
    for (auto &seg : segments_) {
        if (seg.valid && lba >= seg.lba &&
            lba + sectors <= seg.lba + seg.sectors)
            return &seg;
    }
    return nullptr;
}

const DiskCache::Segment *
DiskCache::findContaining(geom::Lba lba, std::uint32_t sectors) const
{
    return const_cast<DiskCache *>(this)->findContaining(lba, sectors);
}

DiskCache::Segment &
DiskCache::victim()
{
    // Prefer an invalid segment; else evict the clean LRU; else the
    // dirty LRU (caller is responsible for having destaged — in the
    // simulator losing modelled dirty data is harmless, but we keep
    // the preference so write-back behaves sensibly).
    Segment *best = nullptr;
    for (auto &seg : segments_) {
        if (!seg.valid)
            return seg;
        if (best == nullptr)
            best = &seg;
        else if (seg.dirty != best->dirty
                     ? !seg.dirty // clean preferred over dirty
                     : seg.lastUse < best->lastUse)
            best = &seg;
    }
    return *best;
}

void
DiskCache::invalidateOverlap(geom::Lba lba, std::uint32_t sectors)
{
    for (auto &seg : segments_) {
        if (seg.valid && overlaps(lba, sectors, seg.lba, seg.sectors)) {
            seg.valid = false;
            seg.dirty = false;
        }
    }
}

bool
DiskCache::readLookup(geom::Lba lba, std::uint32_t sectors)
{
    Segment *seg = findContaining(lba, sectors);
    if (seg != nullptr) {
        seg->lastUse = ++useClock_;
        ++stats_.readHits;
        return true;
    }
    ++stats_.readMisses;
    return false;
}

void
DiskCache::installRead(geom::Lba lba, std::uint32_t sectors)
{
    const std::uint32_t staged = std::min(
        segmentSectors_, sectors + params_.readAheadSectors);
    // Avoid duplicate coverage: drop overlapping stale segments first.
    invalidateOverlap(lba, staged);
    Segment &seg = victim();
    seg.valid = true;
    seg.dirty = false;
    seg.lba = lba;
    seg.sectors = staged;
    seg.lastUse = ++useClock_;
}

bool
DiskCache::write(geom::Lba lba, std::uint32_t sectors)
{
    if (!params_.writeBack) {
        invalidateOverlap(lba, sectors);
        ++stats_.writeMisses;
        return false;
    }
    if (sectors > segmentSectors_) {
        // Larger than a segment: bypass the cache entirely.
        invalidateOverlap(lba, sectors);
        ++stats_.writeMisses;
        return false;
    }
    invalidateOverlap(lba, sectors);
    // Absorb only into an invalid or clean segment: dirty data is a
    // destage obligation, never silently recycled. When every
    // segment is dirty the write falls through to the media, which
    // bounds write-back absorption at the cache size under sustained
    // load (destage pressure becomes visible, as on real drives).
    Segment *slot = nullptr;
    for (auto &seg : segments_) {
        if (!seg.valid) {
            slot = &seg;
            break;
        }
        if (!seg.dirty &&
            (slot == nullptr || seg.lastUse < slot->lastUse))
            slot = &seg; // clean LRU
    }
    if (slot == nullptr) {
        ++stats_.writeMisses;
        return false;
    }
    Segment &seg = *slot;
    seg.valid = true;
    seg.dirty = true;
    seg.lba = lba;
    seg.sectors = sectors;
    seg.lastUse = ++useClock_;
    ++stats_.writeHits;
    return true;
}

std::optional<DirtyRun>
DiskCache::popDirty()
{
    Segment *oldest = nullptr;
    for (auto &seg : segments_) {
        if (seg.valid && seg.dirty &&
            (oldest == nullptr || seg.lastUse < oldest->lastUse))
            oldest = &seg;
    }
    if (oldest == nullptr)
        return std::nullopt;
    oldest->dirty = false; // stays valid as clean read data
    return DirtyRun{oldest->lba, oldest->sectors};
}

std::uint32_t
DiskCache::dirtyCount() const
{
    std::uint32_t n = 0;
    for (const auto &seg : segments_)
        if (seg.valid && seg.dirty)
            ++n;
    return n;
}

bool
DiskCache::contains(geom::Lba lba, std::uint32_t sectors) const
{
    return findContaining(lba, sectors) != nullptr;
}

void
DiskCache::clear()
{
    for (auto &seg : segments_)
        seg = Segment{};
}

} // namespace cache
} // namespace idp
