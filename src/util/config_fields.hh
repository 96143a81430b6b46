/**
 * @file
 * The field codec: one reader and one writer for every config struct
 * that lists its fields once, as (key, member) pairs, through an
 * ADL-visible binding next to the struct's loader:
 *
 *   template <class F>
 *   void bindFields(S &s, F &&f)
 *   {
 *       f("prefix.key", s.member);
 *       ...
 *   }
 *
 * Members are read by their C++ type: an int must fit int (else
 * out_of_range), a std::uint64_t must be non-negative, a double must
 * be finite, a bool reads "true"/"false"/"1"/"0"/"yes"/"no"/"on"/"off",
 * and an enum reads through its name table (util/enum_names.hh).
 * Absent keys keep the struct's defaults. Diagnostics name the key and
 * its source:line origin.
 */

#ifndef ENA_UTIL_CONFIG_FIELDS_HH
#define ENA_UTIL_CONFIG_FIELDS_HH

#include <climits>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>

#include "util/config.hh"
#include "util/enum_names.hh"
#include "util/status.hh"
#include "util/string_utils.hh"

namespace ena {

namespace detail {

template <class T>
Status
readField(const Config &cfg, std::string_view key, T &out)
{
    if constexpr (std::is_same_v<T, int>) {
        ENA_ASSIGN_OR_RETURN(long long v, cfg.tryGetInt(key));
        if (v < INT_MIN || v > INT_MAX) {
            return Status::outOfRange("config key ", cfg.describeKey(key),
                                      ": ", v, " does not fit in an int");
        }
        out = static_cast<int>(v);
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
        ENA_ASSIGN_OR_RETURN(std::string text, cfg.tryGetString(key));
        if (auto v = parseUint(text)) {
            out = *v;
        } else if (auto neg = parseInt(text); neg && *neg < 0) {
            return Status::outOfRange("config key ", cfg.describeKey(key),
                                      ": must be non-negative, got ",
                                      *neg);
        } else {
            return Status::parseError("config key ", cfg.describeKey(key),
                                      ": '", text,
                                      "' is not an unsigned 64-bit integer");
        }
    } else if constexpr (std::is_same_v<T, double>) {
        ENA_ASSIGN_OR_RETURN(out, cfg.tryGetDouble(key));
    } else if constexpr (std::is_same_v<T, bool>) {
        ENA_ASSIGN_OR_RETURN(out, cfg.tryGetBool(key));
    } else {
        static_assert(std::is_enum_v<T>, "unsupported config field type");
        ENA_ASSIGN_OR_RETURN(std::string name, cfg.tryGetString(key));
        ENA_ASSIGN_OR_RETURN(out, enumNames(out).tryParse(name));
    }
    return Status();
}

template <class T>
void
writeField(Config &cfg, const char *key, const T &v)
{
    if constexpr (std::is_enum_v<T>)
        cfg.set(key, std::string(enumNames(v).name(v)));
    else if constexpr (std::is_same_v<T, std::uint64_t>)
        cfg.set(key, std::to_string(v));
    else
        cfg.set(key, v);
}

} // namespace detail

/**
 * Read an @p S from @p cfg through its binding, then tryValidate() it.
 * Keys under @p prefix that the binding does not list are rejected as
 * "unknown <what> key '<k>' (<origin>)", except those under one of the
 * @p foreign sub-prefixes, which other readers own.
 */
template <class S>
Expected<S>
tryFieldsFromConfig(const Config &cfg, std::string_view what,
                    std::string_view prefix,
                    std::initializer_list<std::string_view> foreign = {})
{
    S s;
    ENA_TRY(cfg.forEachKey(prefix, [&](std::string_view key) -> Status {
        for (std::string_view other : foreign) {
            if (startsWith(key, other))
                return Status();
        }
        bool known = false;
        bindFields(s, [&](std::string_view k, const auto &) {
            known = known || k == key;
        });
        if (known)
            return Status();
        std::string where = cfg.origin(key);
        return Status::invalidArgument(
            "unknown ", what, " key '", key, "'",
            where.empty() ? "" : " (" + where + ")");
    }));

    Status status;
    bindFields(s, [&](std::string_view key, auto &member) {
        if (status.ok() && cfg.has(key))
            status = detail::readField(cfg, key, member);
    });
    ENA_TRY(status);
    ENA_TRY(s.tryValidate());
    return s;
}

/** Write every bound field of @p s (taken by value: the binding
 *  names mutable members). */
template <class S>
Config
fieldsToConfig(S s)
{
    Config cfg;
    bindFields(s, [&](const char *key, const auto &member) {
        detail::writeField(cfg, key, member);
    });
    return cfg;
}

} // namespace ena

#endif // ENA_UTIL_CONFIG_FIELDS_HH
