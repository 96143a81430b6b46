#include "util/config.hh"

#include <charconv>
#include <cmath>
#include <fstream>
#include <set>
#include <sstream>

#include "util/logging.hh"
#include "util/string_utils.hh"

namespace ena {

Expected<Config>
Config::tryFromString(std::string_view text, const std::string &source)
{
    Config cfg;
    std::istringstream in{std::string(text)};
    std::string line;
    int lineno = 0;
    std::set<std::string> warned;
    while (std::getline(in, line)) {
        ++lineno;
        size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        std::string t = trim(line);
        if (t.empty())
            continue;
        size_t eq = t.find('=');
        if (eq == std::string::npos) {
            return Status::parseError(source, ":", lineno,
                                      ": missing '=' in '", t, "'");
        }
        std::string key = trim(t.substr(0, eq));
        std::string value = trim(t.substr(eq + 1));
        if (key.empty())
            return Status::parseError(source, ":", lineno, ": empty key");
        auto it = cfg.values_.find(key);
        if (it != cfg.values_.end() && warned.insert(key).second) {
            // Duplicates are almost always a typo; keep the legacy
            // last-write-wins behavior but say so (once per key).
            warn(source, ":", lineno, ": duplicate key '", key,
                 "' overrides earlier value from ", it->second.origin);
        }
        cfg.values_[key] = Entry{value, source + ":" +
                                            std::to_string(lineno)};
    }
    return cfg;
}

Expected<Config>
Config::tryFromFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Status::ioError("cannot open config file '", path, "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    return tryFromString(buf.str(), path);
}

Config
Config::fromString(std::string_view text)
{
    return unwrapOrFatal(tryFromString(text));
}

Config
Config::fromFile(const std::string &path)
{
    return unwrapOrFatal(tryFromFile(path));
}

void
Config::set(const std::string &key, const std::string &value)
{
    values_[key] = Entry{value, ""};
}

void
Config::set(const std::string &key, double value)
{
    // 15 digits is the historical form; keep it wherever it is exact so
    // config text that was already lossless does not change.
    char buf[32];
    auto r = std::to_chars(buf, buf + sizeof buf, value,
                           std::chars_format::general, 15);
    double back = 0.0;
    std::from_chars(buf, r.ptr, back);
    if (back != value)
        r = std::to_chars(buf, buf + sizeof buf, value);
    values_[key] = Entry{std::string(buf, r.ptr), ""};
}

void
Config::set(const std::string &key, long long value)
{
    values_[key] = Entry{std::to_string(value), ""};
}

void
Config::set(const std::string &key, int value)
{
    values_[key] = Entry{std::to_string(value), ""};
}

void
Config::set(const std::string &key, bool value)
{
    values_[key] = Entry{value ? "true" : "false", ""};
}

bool
Config::has(std::string_view key) const
{
    return lookup(key) != nullptr;
}

const Config::Entry *
Config::lookup(std::string_view key) const
{
    auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
}

std::string
Config::describeKey(std::string_view key) const
{
    const Entry *e = lookup(key);
    std::string out = "'" + std::string(key) + "'";
    if (e && !e->origin.empty())
        out += " (" + e->origin + ")";
    return out;
}

std::string
Config::origin(std::string_view key) const
{
    const Entry *e = lookup(key);
    return e ? e->origin : "";
}

Expected<std::string>
Config::tryGetString(std::string_view key) const
{
    const Entry *e = lookup(key);
    if (!e)
        return Status::notFound("missing config key '", key, "'");
    return e->value;
}

Expected<std::string>
Config::tryGetString(std::string_view key,
                     const std::string &dflt) const
{
    const Entry *e = lookup(key);
    return e ? e->value : dflt;
}

Expected<double>
Config::tryGetDouble(std::string_view key) const
{
    const Entry *e = lookup(key);
    if (!e)
        return Status::notFound("missing config key '", key, "'");
    auto d = parseDouble(e->value);
    if (!d) {
        return Status::parseError("config key ", describeKey(key), ": '",
                                  e->value, "' is not a number");
    }
    if (!std::isfinite(*d)) {
        // NaN/inf parse but poison every downstream model; reject.
        return Status::outOfRange("config key ", describeKey(key), ": '",
                                  e->value, "' is not a finite number");
    }
    return *d;
}

Expected<double>
Config::tryGetDouble(std::string_view key, double dflt) const
{
    if (!lookup(key))
        return dflt;
    return tryGetDouble(key);
}

Expected<long long>
Config::tryGetInt(std::string_view key) const
{
    const Entry *e = lookup(key);
    if (!e)
        return Status::notFound("missing config key '", key, "'");
    auto d = parseInt(e->value);
    if (!d) {
        return Status::parseError("config key ", describeKey(key), ": '",
                                  e->value, "' is not an integer");
    }
    return *d;
}

Expected<long long>
Config::tryGetInt(std::string_view key, long long dflt) const
{
    if (!lookup(key))
        return dflt;
    return tryGetInt(key);
}

Expected<bool>
Config::tryGetBool(std::string_view key) const
{
    const Entry *e = lookup(key);
    if (!e)
        return Status::notFound("missing config key '", key, "'");
    auto b = parseBool(e->value);
    if (!b) {
        return Status::parseError("config key ", describeKey(key), ": '",
                                  e->value, "' is not a boolean");
    }
    return *b;
}

Expected<bool>
Config::tryGetBool(std::string_view key, bool dflt) const
{
    if (!lookup(key))
        return dflt;
    return tryGetBool(key);
}

void
Config::merge(const Config &other)
{
    for (const auto &[k, v] : other.values_)
        values_[k] = v;
}

std::string
Config::toString() const
{
    std::ostringstream os;
    for (const auto &[k, v] : values_)
        os << k << " = " << v.value << "\n";
    return os.str();
}

} // namespace ena
