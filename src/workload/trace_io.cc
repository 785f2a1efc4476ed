#include "workload/trace_io.hh"

#include <charconv>
#include <fstream>
#include <limits>
#include <sstream>

#include "sim/logging.hh"

namespace idp {
namespace workload {

namespace {
constexpr const char *kHeaderV1 = "# idp-trace v1";
constexpr const char *kHeaderV2 = "# idp-trace v2";

/** One input line being parsed; every error names it. */
struct Line
{
    std::uint64_t no;
    const std::string &text;

    [[noreturn]] void
    fail(const std::string &why) const
    {
        std::ostringstream msg;
        msg << "malformed trace line " << no << ": " << why << ": "
            << text;
        sim::fatal(msg.str());
    }

    /** An unsigned decimal column: digits only, within T's range. */
    template <typename T>
    T
    column(const std::string &field, const char *name) const
    {
        T value = 0;
        const char *end = field.data() + field.size();
        const auto [ptr, ec] = std::from_chars(field.data(), end, value);
        if (ec == std::errc::result_out_of_range)
            fail(name + (" " + field) + " is out of range (max " +
                 std::to_string(std::numeric_limits<T>::max()) + ")");
        if (ec != std::errc() || ptr != end)
            fail(name + (" \"" + field) +
                 "\" is not an unsigned decimal number");
        return value;
    }
};

} // namespace

void
writeTrace(std::ostream &os, const Trace &trace)
{
    os << kHeaderV2 << '\n';
    for (const auto &req : trace) {
        os << req.id << ' ' << req.arrival << ' ' << req.device << ' '
           << req.lba << ' ' << req.sectors << ' '
           << (req.isRead ? 'R' : 'W');
        if (req.background)
            os << 'B';
        os << '\n';
    }
}

void
writeTraceFile(const std::string &path, const Trace &trace)
{
    std::ofstream os(path);
    if (!os)
        sim::fatal("cannot open trace file for writing: " + path);
    writeTrace(os, trace);
    if (!os)
        sim::fatal("error writing trace file: " + path);
}

Trace
readTrace(std::istream &is)
{
    std::string text;
    Trace trace;
    std::uint64_t line_no = 0;
    std::uint64_t next_id = 0; // v1: ids are reassigned on load
    int version = 1;           // headerless input = v1
    while (std::getline(is, text)) {
        ++line_no;
        if (text.empty() || text[0] == '#') {
            if (text == kHeaderV2)
                version = 2;
            else if (text == kHeaderV1)
                version = 1;
            continue;
        }
        const Line line{line_no, text};
        std::istringstream ls(text);
        std::string f[7]; // one spare field catches extra columns
        std::size_t fields = 0;
        while (fields < 7 && ls >> f[fields])
            ++fields;
        if (fields != (version >= 2 ? 6u : 5u))
            line.fail(version >= 2
                          ? "expected 6 fields: id arrival_ticks device "
                            "lba sectors R|W[B]"
                          : "expected 5 fields: arrival_us device lba "
                            "sectors R|W[B]");
        IoRequest req;
        std::size_t k = 0;
        if (version >= 2) {
            req.id = line.column<std::uint64_t>(f[k++], "id");
            req.arrival = line.column<sim::Tick>(f[k++], "arrival");
        } else {
            const auto us =
                line.column<std::uint64_t>(f[k++], "arrival");
            if (us > std::numeric_limits<sim::Tick>::max() /
                         sim::kTicksPerUs)
                line.fail("arrival " + f[0] + " us is out of range");
            req.arrival = us * sim::kTicksPerUs;
            req.id = next_id++;
        }
        req.device = line.column<std::uint16_t>(f[k++], "device");
        req.lba = line.column<geom::Lba>(f[k++], "lba");
        req.sectors = line.column<std::uint32_t>(f[k++], "sectors");
        const std::string &rw = f[k];
        if (rw == "R" || rw == "RB")
            req.isRead = true;
        else if (rw == "W" || rw == "WB")
            req.isRead = false;
        else
            line.fail("flag \"" + rw + "\" is not R, W, RB or WB");
        req.background = rw.size() == 2 && rw[1] == 'B';
        if (req.sectors == 0)
            line.fail("zero-sector request");
        if (!trace.empty() && req.arrival < trace.back().arrival)
            line.fail("arrival is earlier than the previous line's");
        trace.push_back(req);
    }
    return trace;
}

Trace
readTraceFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        sim::fatal("cannot open trace file: " + path);
    return readTrace(is);
}

} // namespace workload
} // namespace idp
