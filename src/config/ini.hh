/**
 * @file
 * Minimal INI configuration parser for the idpsim front end.
 *
 * Grammar (a strict subset of common INI dialects):
 *
 *   # comment            ; both comment markers accepted
 *   [section]
 *   key = value          ; whitespace around tokens is trimmed
 *
 * Keys are unique within a section (later duplicates are fatal, to
 * catch config typos loudly, in the spirit of fatal() for user
 * errors). Lookups are case-sensitive.
 */

#ifndef IDP_CONFIG_INI_HH
#define IDP_CONFIG_INI_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace idp {
namespace config {

/**
 * Strict whole-string converters, shared by IniFile's accessors and
 * the environment table (config/env.hh); nullopt unless all of
 * @p text is one value of the kind. Booleans accept
 * true/yes/on/1 and false/no/off/0 in any case.
 */
std::optional<double> parseDouble(const std::string &text);
std::optional<std::int64_t> parseInt(const std::string &text);
std::optional<bool> parseBool(const std::string &text);

/**
 * What a configuration value must parse as — one policy for the
 * environment table and the INI front end:
 *
 *   switch  1|0|true|false|yes|no|on|off, any case
 *   count   whole decimal digits, 0 or 1 up to 2^32 - 1
 *   real    a finite number: > 0, >= 0, or within [0, 1]
 *   name    one of a list of names
 *   text    any string
 */
enum class ValueKind
{
    Switch,
    Count,
    Real,
    Name,
    Text,
};

/** Accepted range of a Count or Real value. */
enum class ValueDomain
{
    Any,         ///< switch, name and text values
    Positive,    ///< count >= 1; real > 0
    NonNegative, ///< count >= 0; real >= 0
    Fraction,    ///< real in [0, 1]
};

/** @p text as a switch (0/1), count or real of @p domain; nullopt
 *  when it is not one. */
std::optional<double> parseValue(ValueKind kind, ValueDomain domain,
                                 const std::string &text);

/** The accepted form of @p kind and @p domain, for bad-value
 *  messages; a Name kind lists @p names ('|'-separated). */
std::string acceptedForm(ValueKind kind, ValueDomain domain,
                         const char *names = nullptr);

/** Parsed INI document. */
class IniFile
{
  public:
    /** Parse from a stream. Fatal on malformed input. */
    static IniFile parse(std::istream &is);

    /** Parse a file by path. Fatal on I/O errors. */
    static IniFile parseFile(const std::string &path);

    /** Parse from a string (tests, inline configs). */
    static IniFile parseString(const std::string &text);

    /**
     * Serialize to the canonical "[section]\nkey = value" form, in
     * first-seen order. parseString(str()) reproduces this document
     * exactly (serialization is a fix point: str() of the reparse is
     * byte-identical). Any parsed document is serializable; set()
     * rejects tokens the grammar cannot represent (comment markers,
     * newlines, surrounding whitespace — there is no escaping).
     */
    void write(std::ostream &os) const;
    std::string str() const;

    /** Set (or overwrite) one value, creating the section if new.
     *  Fatal if a token is unrepresentable in the INI grammar. */
    void set(const std::string &section, const std::string &key,
             const std::string &value);

    /** True if [section] key exists. */
    bool has(const std::string &section,
             const std::string &key) const;

    /** Raw string value; @p fallback when absent. */
    std::string get(const std::string &section, const std::string &key,
                    const std::string &fallback = "") const;

    /** Numeric/boolean accessors; fatal on unparseable values. */
    double getDouble(const std::string &section,
                     const std::string &key, double fallback) const;
    std::int64_t getInt(const std::string &section,
                        const std::string &key,
                        std::int64_t fallback) const;
    bool getBool(const std::string &section, const std::string &key,
                 bool fallback) const;

    /** A count or real of @p domain (see parseValue); fatal naming
     *  [section] key and the accepted form otherwise. */
    std::uint32_t getCount(const std::string &section,
                           const std::string &key, ValueDomain domain,
                           std::uint32_t fallback) const;
    double getReal(const std::string &section, const std::string &key,
                   ValueDomain domain, double fallback) const;

    /** Value that must exist; fatal otherwise. */
    std::string require(const std::string &section,
                        const std::string &key) const;

    /** Section names, in first-seen order. */
    const std::vector<std::string> &sections() const
    {
        return sectionOrder_;
    }

    /** Keys of one section, in first-seen order. */
    std::vector<std::string> keys(const std::string &section) const;

  private:
    /** getCount/getReal: the value as a number of @p kind and
     *  @p domain, @p fallback when absent. */
    double checked(const std::string &section, const std::string &key,
                   ValueKind kind, ValueDomain domain,
                   double fallback) const;

    struct Section
    {
        std::map<std::string, std::string> values;
        std::vector<std::string> keyOrder;
    };

    std::map<std::string, Section> sections_;
    std::vector<std::string> sectionOrder_;
};

} // namespace config
} // namespace idp

#endif // IDP_CONFIG_INI_HH
