/**
 * @file
 * One name table per enum: each enumerator's canonical display name
 * and the aliases its parser also accepts, declared once. The table
 * serves name(), the case-insensitive parse (whose "(want ...)" list
 * is generated from the canonical names), and all() in table order.
 *
 * An enum E exposes its table through an ADL-visible function
 * `const EnumNames<E> &enumNames(E)` next to its declaration, which is
 * how the config codec (util/config_fields.hh) reads enum-valued keys.
 */

#ifndef ENA_UTIL_ENUM_NAMES_HH
#define ENA_UTIL_ENUM_NAMES_HH

#include <cctype>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "util/logging.hh"
#include "util/status.hh"

namespace ena {

template <class E>
class EnumNames
{
  public:
    struct Entry
    {
        // A constructor, not a defaulted member initializer: GCC 12
        // crashes on the latter in a nested struct of a class template.
        Entry(E v, std::string_view n,
              std::initializer_list<std::string_view> a = {})
            : value(v), name(n), aliases(a)
        {
        }

        E value;
        std::string_view name;                  ///< canonical
        std::vector<std::string_view> aliases;  ///< also parsed
    };

    /** @p what names the enum in diagnostics ("cluster topology"). */
    EnumNames(std::string_view what, std::vector<Entry> entries)
        : what_(what), entries_(std::move(entries))
    {
        for (const Entry &e : entries_)
            all_.push_back(e.value);
    }

    /** The canonical display name of @p e. */
    std::string_view
    name(E e) const
    {
        for (const Entry &x : entries_) {
            if (x.value == e)
                return x.name;
        }
        ENA_FATAL("unknown ", what_, " ", static_cast<int>(e));
    }

    /** Parse a canonical name or alias, ignoring ASCII case. */
    Expected<E>
    tryParse(std::string_view s) const
    {
        for (const Entry &x : entries_) {
            if (equalsIgnoreCase(s, x.name))
                return x.value;
            for (std::string_view alias : x.aliases) {
                if (equalsIgnoreCase(s, alias))
                    return x.value;
            }
        }
        std::string want;
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            if (i > 0)
                want += entries_.size() > 2 ? ", " : " ";
            if (i > 0 && i + 1 == entries_.size())
                want += "or ";
            want += entries_[i].name;
        }
        return Status::invalidArgument("unknown ", what_, " '", s,
                                       "' (want ", want, ")");
    }

    /** Every enumerator, in table order. */
    const std::vector<E> &all() const { return all_; }

  private:
    static bool
    equalsIgnoreCase(std::string_view a, std::string_view b)
    {
        if (a.size() != b.size())
            return false;
        for (std::size_t i = 0; i < a.size(); ++i) {
            if (std::tolower(static_cast<unsigned char>(a[i])) !=
                std::tolower(static_cast<unsigned char>(b[i])))
                return false;
        }
        return true;
    }

    std::string_view what_;
    std::vector<Entry> entries_;
    std::vector<E> all_;
};

} // namespace ena

#endif // ENA_UTIL_ENUM_NAMES_HH
