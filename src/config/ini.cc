#include "config/ini.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>

#include "sim/logging.hh"

namespace idp {
namespace config {

namespace {

/** Every count fits the 32-bit fields it lands in. */
constexpr double kCountMax = 4294967295.0;

std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

[[noreturn]] void
parseError(std::size_t line_no, const std::string &line,
           const std::string &why)
{
    std::ostringstream msg;
    msg << "config line " << line_no << ": " << why << ": " << line;
    sim::fatal(msg.str());
}

} // namespace

IniFile
IniFile::parse(std::istream &is)
{
    IniFile ini;
    std::string line;
    std::string section;
    std::size_t line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        // Strip comments (full-line or trailing).
        const std::size_t hash = line.find_first_of("#;");
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        const std::string text = trim(line);
        if (text.empty())
            continue;
        if (text.front() == '[') {
            if (text.back() != ']' || text.size() < 3)
                parseError(line_no, text, "malformed section header");
            section = trim(text.substr(1, text.size() - 2));
            // "[ ]" would name the section "", which the serialized
            // form "[]" cannot represent — reject it at the source.
            if (section.empty())
                parseError(line_no, text, "empty section name");
            if (ini.sections_.find(section) == ini.sections_.end())
                ini.sectionOrder_.push_back(section);
            ini.sections_[section]; // create
            continue;
        }
        const std::size_t eq = text.find('=');
        if (eq == std::string::npos)
            parseError(line_no, text, "expected key = value");
        if (section.empty())
            parseError(line_no, text, "key before any [section]");
        const std::string key = trim(text.substr(0, eq));
        const std::string value = trim(text.substr(eq + 1));
        if (key.empty())
            parseError(line_no, text, "empty key");
        Section &sec = ini.sections_[section];
        if (sec.values.count(key))
            parseError(line_no, text, "duplicate key '" + key + "'");
        sec.values[key] = value;
        sec.keyOrder.push_back(key);
    }
    return ini;
}

IniFile
IniFile::parseFile(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        sim::fatal("cannot open config file: " + path);
    return parse(is);
}

IniFile
IniFile::parseString(const std::string &text)
{
    std::istringstream is(text);
    return parse(is);
}

bool
IniFile::has(const std::string &section, const std::string &key) const
{
    const auto it = sections_.find(section);
    return it != sections_.end() && it->second.values.count(key) > 0;
}

std::string
IniFile::get(const std::string &section, const std::string &key,
             const std::string &fallback) const
{
    const auto it = sections_.find(section);
    if (it == sections_.end())
        return fallback;
    const auto kit = it->second.values.find(key);
    return kit == it->second.values.end() ? fallback : kit->second;
}

std::optional<double>
parseDouble(const std::string &text)
{
    try {
        std::size_t used = 0;
        const double v = std::stod(text, &used);
        if (used == text.size())
            return v;
    } catch (const std::exception &) {
    }
    return std::nullopt;
}

std::optional<std::int64_t>
parseInt(const std::string &text)
{
    try {
        std::size_t used = 0;
        const std::int64_t v = std::stoll(text, &used);
        if (used == text.size())
            return v;
    } catch (const std::exception &) {
    }
    return std::nullopt;
}

std::optional<bool>
parseBool(const std::string &text)
{
    std::string raw = text;
    std::transform(raw.begin(), raw.end(), raw.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (raw == "true" || raw == "yes" || raw == "on" || raw == "1")
        return true;
    if (raw == "false" || raw == "no" || raw == "off" || raw == "0")
        return false;
    return std::nullopt;
}

std::optional<double>
parseValue(ValueKind kind, ValueDomain domain, const std::string &text)
{
    if (kind == ValueKind::Switch) {
        const std::optional<bool> b = parseBool(text);
        return b ? std::optional<double>(*b) : std::nullopt;
    }
    if (kind == ValueKind::Count) {
        const bool digits =
            std::all_of(text.begin(), text.end(), [](unsigned char c) {
                return c >= '0' && c <= '9';
            });
        const std::optional<std::int64_t> n =
            digits ? parseInt(text) : std::nullopt;
        const double v = n ? static_cast<double>(*n) : -1.0;
        const double lo = domain == ValueDomain::Positive ? 1.0 : 0.0;
        return v >= lo && v <= kCountMax ? std::optional<double>(v)
                                         : std::nullopt;
    }
    if (kind != ValueKind::Real)
        return std::nullopt;
    const std::optional<double> r = parseDouble(text);
    if (!r || !std::isfinite(*r))
        return std::nullopt;
    const bool ok = domain == ValueDomain::Positive ? *r > 0.0
        : domain == ValueDomain::Fraction ? *r >= 0.0 && *r <= 1.0
                                          : *r >= 0.0;
    return ok ? r : std::nullopt;
}

std::string
acceptedForm(ValueKind kind, ValueDomain domain, const char *names)
{
    switch (kind) {
      case ValueKind::Switch:
        return "1|0|true|false|yes|no|on|off";
      case ValueKind::Count:
        return std::string("a whole number from ") +
            (domain == ValueDomain::Positive ? "1" : "0") +
            " to 4294967295";
      case ValueKind::Real:
        if (domain == ValueDomain::Fraction)
            return "a finite number in [0, 1]";
        return domain == ValueDomain::Positive ? "a finite number > 0"
                                               : "a finite number >= 0";
      case ValueKind::Name:
        return std::string("one of ") + names;
      case ValueKind::Text:
        break;
    }
    return "any text";
}

std::uint32_t
IniFile::getCount(const std::string &section, const std::string &key,
                  ValueDomain domain, std::uint32_t fallback) const
{
    return static_cast<std::uint32_t>(
        checked(section, key, ValueKind::Count, domain, fallback));
}

double
IniFile::getReal(const std::string &section, const std::string &key,
                 ValueDomain domain, double fallback) const
{
    return checked(section, key, ValueKind::Real, domain, fallback);
}

double
IniFile::checked(const std::string &section, const std::string &key,
                 ValueKind kind, ValueDomain domain,
                 double fallback) const
{
    if (!has(section, key))
        return fallback;
    const std::string raw = get(section, key);
    if (const std::optional<double> v = parseValue(kind, domain, raw))
        return *v;
    sim::fatal("config [" + section + "] " + key + ": expected " +
               acceptedForm(kind, domain) + ", got \"" + raw + "\"");
}

double
IniFile::getDouble(const std::string &section, const std::string &key,
                   double fallback) const
{
    if (!has(section, key))
        return fallback;
    const std::string raw = get(section, key);
    if (const std::optional<double> v = parseDouble(raw))
        return *v;
    sim::fatal("config [" + section + "] " + key +
               ": not a number: " + raw);
}

std::int64_t
IniFile::getInt(const std::string &section, const std::string &key,
                std::int64_t fallback) const
{
    if (!has(section, key))
        return fallback;
    const std::string raw = get(section, key);
    if (const std::optional<std::int64_t> v = parseInt(raw))
        return *v;
    sim::fatal("config [" + section + "] " + key +
               ": not an integer: " + raw);
}

bool
IniFile::getBool(const std::string &section, const std::string &key,
                 bool fallback) const
{
    if (!has(section, key))
        return fallback;
    const std::string raw = get(section, key);
    if (const std::optional<bool> v = parseBool(raw))
        return *v;
    sim::fatal("config [" + section + "] " + key +
               ": not a boolean: " + raw);
}

std::string
IniFile::require(const std::string &section,
                 const std::string &key) const
{
    if (!has(section, key))
        sim::fatal("config: missing required [" + section + "] " +
                   key);
    return get(section, key);
}

std::vector<std::string>
IniFile::keys(const std::string &section) const
{
    const auto it = sections_.find(section);
    if (it == sections_.end())
        return {};
    return it->second.keyOrder;
}

void
IniFile::write(std::ostream &os) const
{
    bool first = true;
    for (const auto &name : sectionOrder_) {
        if (!first)
            os << '\n';
        first = false;
        os << '[' << name << "]\n";
        const Section &sec = sections_.at(name);
        for (const auto &key : sec.keyOrder)
            os << key << " = " << sec.values.at(key) << '\n';
    }
}

std::string
IniFile::str() const
{
    std::ostringstream os;
    write(os);
    return os.str();
}

namespace {

/**
 * A token the "[section]\nkey = value" grammar can reproduce: no
 * comment markers or newlines (no escaping exists), no surrounding
 * whitespace (parsing trims it away), and section/key-specific
 * structural characters rejected by the caller.
 */
void
checkRepresentable(const std::string &what, const std::string &token,
                   const std::string &forbidden)
{
    if (token.find_first_of(forbidden + "#;\r\n") != std::string::npos)
        sim::fatal("IniFile::set: " + what + " '" + token +
                   "' contains a character the INI grammar cannot "
                   "represent");
    if (trim(token) != token)
        sim::fatal("IniFile::set: " + what + " '" + token +
                   "' has surrounding whitespace, which parsing "
                   "would trim");
}

} // namespace

void
IniFile::set(const std::string &section, const std::string &key,
             const std::string &value)
{
    if (section.empty())
        sim::fatal("IniFile::set: empty section name");
    if (key.empty())
        sim::fatal("IniFile::set: empty key");
    checkRepresentable("section", section, "]");
    checkRepresentable("key", key, "=");
    if (!key.empty() && key.front() == '[')
        sim::fatal("IniFile::set: key '" + key +
                   "' would parse as a section header");
    checkRepresentable("value", value, "");

    if (sections_.find(section) == sections_.end())
        sectionOrder_.push_back(section);
    Section &sec = sections_[section];
    if (sec.values.find(key) == sec.values.end())
        sec.keyOrder.push_back(key);
    sec.values[key] = value;
}

} // namespace config
} // namespace idp
