/**
 * @file
 * A small typed key-value configuration store.
 *
 * Keys are dotted strings ("ehp.cus", "extmem.nvm_fraction"); values are
 * stored as strings and converted on access. Supports parsing from
 * "key = value" text (one per line, '#' comments) so examples and benches
 * can be driven from config files, and merging/overriding for sweeps.
 *
 * Errors are values: the try* entry points return ena::Status /
 * ena::Expected with precise source:line/key diagnostics, so a sweep
 * can quarantine one bad config instead of dying. Parsing tracks each
 * key's origin ("file.ini:12") and warns once per key on duplicates
 * (last occurrence wins); typed numeric accessors reject NaN/inf,
 * out-of-range integers and trailing garbage ("3.0x"). set(double)
 * writes a form that reads back to the same bits.
 *
 * Struct-level readers and writers are declared once per struct
 * through the field codec in util/config_fields.hh.
 */

#ifndef ENA_UTIL_CONFIG_HH
#define ENA_UTIL_CONFIG_HH

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hh"

namespace ena {

class Config
{
  public:
    Config() = default;

    /**
     * Parse "key = value" lines. @p source names the text in
     * diagnostics and key origins (defaults to "<string>").
     */
    static Expected<Config> tryFromString(
        std::string_view text, const std::string &source = "<string>");

    /** Load from a file; IoError if unreadable, ParseError if bad. */
    static Expected<Config> tryFromFile(const std::string &path);

    /** Parse "key = value" lines; fatal() on malformed input. */
    static Config fromString(std::string_view text);

    /** Load from a file; fatal() if unreadable or malformed. */
    static Config fromFile(const std::string &path);

    /**
     * Set (or overwrite) a key. Doubles are written with 15 significant
     * digits when that is exact ("0.1" stays "0.1"), otherwise in the
     * shortest form that reads back to the same bits.
     */
    void set(const std::string &key, const std::string &value);
    void set(const std::string &key, double value);
    void set(const std::string &key, long long value);
    void set(const std::string &key, int value);
    void set(const std::string &key, bool value);

    /** True if the key exists. */
    bool has(std::string_view key) const;

    /**
     * Typed accessors, recoverable flavor. The no-default forms return
     * NotFound when the key is missing and ParseError/OutOfRange when
     * the value is malformed (non-finite numbers and trailing garbage
     * are malformed); the defaulted forms return the default when the
     * key is absent but still report a present-but-bad value.
     * Diagnostics carry the key and its source:line origin.
     */
    Expected<std::string> tryGetString(std::string_view key) const;
    Expected<std::string> tryGetString(std::string_view key,
                                       const std::string &dflt) const;
    Expected<double> tryGetDouble(std::string_view key) const;
    Expected<double> tryGetDouble(std::string_view key, double dflt) const;
    Expected<long long> tryGetInt(std::string_view key) const;
    Expected<long long> tryGetInt(std::string_view key,
                                  long long dflt) const;
    Expected<bool> tryGetBool(std::string_view key) const;
    Expected<bool> tryGetBool(std::string_view key, bool dflt) const;

    /**
     * Call @p f(key) for each key with the given prefix (e.g.
     * "extmem."), in sorted order, stopping at (and returning) the
     * first error it returns.
     */
    template <class F>
    Status
    forEachKey(std::string_view prefix, F &&f) const
    {
        for (auto it = values_.lower_bound(prefix);
             it != values_.end() &&
             std::string_view(it->first).substr(0, prefix.size()) ==
                 prefix;
             ++it)
            ENA_TRY(f(std::string_view(it->first)));
        return Status();
    }

    /** Merge @p other into this config; other's values win. */
    void merge(const Config &other);

    /** Serialize back to "key = value" lines in sorted key order. */
    std::string toString() const;

    /**
     * Where a key was parsed from ("cfg.ini:12"); empty for keys added
     * via set()/merge or when unknown. Used in diagnostics.
     */
    std::string origin(std::string_view key) const;

    /** "'key'" or "'key' (cfg.ini:12)" for diagnostics. */
    std::string describeKey(std::string_view key) const;

    size_t size() const { return values_.size(); }

  private:
    struct Entry
    {
        std::string value;
        std::string origin;   ///< "source:line" when parsed from text
    };

    const Entry *lookup(std::string_view key) const;

    std::map<std::string, Entry, std::less<>> values_;
};

} // namespace ena

#endif // ENA_UTIL_CONFIG_HH
