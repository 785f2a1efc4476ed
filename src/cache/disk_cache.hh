/**
 * @file
 * Segmented on-board disk buffer cache.
 *
 * Models the 8 MB Barracuda ES cache the paper's HC-SD uses (and the
 * 64 MB variant of the limit study). The cache is divided into a fixed
 * number of segments, each holding one contiguous LBA run; segments
 * are recycled LRU. Reads that are fully contained in a segment hit;
 * misses install the requested run plus a read-ahead window. Writes
 * are write-through by default (they invalidate overlapping read data)
 * with an optional write-back mode where dirty segments absorb writes
 * and are destaged by the drive when convenient.
 */

#ifndef IDP_CACHE_DISK_CACHE_HH
#define IDP_CACHE_DISK_CACHE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "geom/geometry.hh"

namespace idp {
namespace cache {

/** Cache configuration. */
struct CacheParams
{
    std::uint64_t cacheBytes = 8ULL * 1024 * 1024;
    std::uint32_t segments = 16;
    /** Extra sectors staged past the end of a read miss. */
    std::uint32_t readAheadSectors = 256;
    /** When false, writes complete only after reaching the media. */
    bool writeBack = false;
};

/** A dirty run that must be destaged to the media (write-back mode). */
struct DirtyRun
{
    geom::Lba lba = 0;
    std::uint32_t sectors = 0;
};

/** Cache statistics. */
struct CacheStats
{
    std::uint64_t readHits = 0;
    std::uint64_t readMisses = 0;
    std::uint64_t writeHits = 0;   ///< absorbed by write-back
    std::uint64_t writeMisses = 0; ///< had to go to the media

    double
    readHitRate() const
    {
        const std::uint64_t n = readHits + readMisses;
        return n ? static_cast<double>(readHits) /
                static_cast<double>(n)
                 : 0.0;
    }
};

/**
 * Segmented LRU disk cache.
 *
 * All sizes are in sectors. The cache never spans requests across
 * segments: a read hit requires full containment within one segment.
 */
class DiskCache
{
  public:
    explicit DiskCache(const CacheParams &params);

    /**
     * Look up a read. On hit, recency is updated and true returned.
     */
    bool readLookup(geom::Lba lba, std::uint32_t sectors);

    /**
     * Install data after a media read: the requested run plus
     * read-ahead, truncated to the segment capacity.
     */
    void installRead(geom::Lba lba, std::uint32_t sectors);

    /**
     * Offer a write. In write-through mode overlapping cached data is
     * invalidated and false is returned (caller must write the media).
     * In write-back mode the write is absorbed into a dirty segment
     * and true is returned (caller may complete immediately).
     */
    bool write(geom::Lba lba, std::uint32_t sectors);

    /**
     * Pop the oldest dirty run for destaging, if any (write-back).
     * The segment becomes clean once popped.
     */
    std::optional<DirtyRun> popDirty();

    /** Number of dirty segments pending destage. */
    std::uint32_t dirtyCount() const;

    /** True if any segment fully contains [lba, lba+sectors). */
    bool contains(geom::Lba lba, std::uint32_t sectors) const;

    const CacheStats &stats() const { return stats_; }
    const CacheParams &params() const { return params_; }

    /** Segment capacity in sectors. */
    std::uint32_t segmentSectors() const { return segmentSectors_; }

    /** Drop all cached data (clean and dirty). */
    void clear();

  private:
    struct Segment
    {
        bool valid = false;
        bool dirty = false;
        geom::Lba lba = 0;
        std::uint32_t sectors = 0;
        std::uint64_t lastUse = 0;
    };

    CacheParams params_;
    std::uint32_t segmentSectors_;
    std::vector<Segment> segments_;
    std::uint64_t useClock_ = 0;
    CacheStats stats_;

    Segment *findContaining(geom::Lba lba, std::uint32_t sectors);
    const Segment *findContaining(geom::Lba lba,
                                  std::uint32_t sectors) const;
    Segment &victim();
    void invalidateOverlap(geom::Lba lba, std::uint32_t sectors);
};

} // namespace cache
} // namespace idp

#endif // IDP_CACHE_DISK_CACHE_HH
