/**
 * @file
 * Typed parameter registry: the declarative configuration spine.
 *
 * Every tunable of a config struct is declared exactly once — name,
 * type, default (the struct's initializer), valid range or choice
 * set, and a doc string — together with an accessor binding it to the
 * struct field. The registry then provides, for free:
 *
 *   - strict `key=value` assignment with typed parsing, range
 *     checking, and unknown-key rejection (with a near-miss
 *     suggestion, so `measrue=5` tells you about `measure`);
 *   - layered resolution from JSON config files (see applyJson) under
 *     compiled defaults, with the same validation;
 *   - a deterministic JSON dump of the fully-resolved config, used
 *     both for `--dump-config` (loadable back as a config file) and
 *     for the resolved-config block embedded in every run manifest;
 *   - a human-readable help listing of every parameter.
 *
 * The registry itself is struct-agnostic (template on the owner); the
 * LADDER experiment bindings live in sim/config_resolve.
 */

#ifndef LADDER_COMMON_PARAM_REGISTRY_HH
#define LADDER_COMMON_PARAM_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "common/log.hh"

namespace ladder
{

namespace param_detail
{

/** Strict full-token parses; return false on any trailing garbage. */
bool parseInt64(const std::string &text, std::int64_t &out);
/**
 * Unsigned parse that *rejects* negative input instead of letting
 * strtoull wrap it around (so `measure=-1` is an error, not ~1.8e19).
 */
bool parseUint64(const std::string &text, std::uint64_t &out,
                 bool &negative);
bool parseDoubleStrict(const std::string &text, double &out);
bool parseBoolStrict(const std::string &text, bool &out);

/** %.17g (round-trip exact), matching the JSON writer's formatting. */
std::string formatDouble(double v);

/** Edit distance for near-miss suggestions. */
unsigned editDistance(const std::string &a, const std::string &b);

/**
 * ` (did you mean 'x'?)` for the closest candidate within a sane
 * edit distance, or "" when nothing is close enough to suggest.
 */
std::string suggestNearest(const std::string &key,
                           const std::vector<std::string> &candidates);

/** Fatal diagnostics shared by every typed setter. */
[[noreturn]] void unknownKeyError(
    const std::string &source, const std::string &key,
    const std::vector<std::string> &candidates);
[[noreturn]] void valueError(const std::string &source,
                             const std::string &key,
                             const std::string &value,
                             const std::string &problem,
                             const std::string &doc);

} // namespace param_detail

/**
 * A registry of typed, documented, range-checked parameters bound to
 * the fields of one config struct of type @p Owner. Declared once
 * (usually behind a function-local static), then used for parsing,
 * dumping, and validation everywhere a config crosses a boundary.
 */
template <typename Owner>
class ParamRegistry
{
  public:
    /** Which parameters a JSON dump includes. */
    enum class Scope
    {
        All,      //!< everything, including output-path/volatile knobs
        Manifest, //!< only parameters that affect simulation results
    };

    /** One declared parameter. */
    struct Param
    {
        std::string name;
        std::string typeName;  //!< "bool", "int", "uint", "double", ...
        std::string doc;
        std::string rangeText; //!< "[lo, hi]" / "{a|b|c}" / ""
        /**
         * Output-location and volatile knobs (stats-json=, jobs=, ...)
         * are excluded from Scope::Manifest dumps so run manifests
         * stay byte-identical across output directories and sweep
         * parallelism.
         */
        bool inManifest = true;
        /** Parse @p value and assign; fatal() with source on error. */
        std::function<void(Owner &, const std::string &value,
                           const std::string &source)>
            set;
        /** Current value rendered as a string (help listing). */
        std::function<std::string(const Owner &)> get;
        /** Current value as a typed JSON value. */
        std::function<void(JsonWriter &, const Owner &)> emit;
    };

    /**
     * Declare an integral parameter. @p ref maps Owner& to the bound
     * field reference; the valid range defaults to the field type's
     * full range, so negative values can never wrap into unsigned
     * fields.
     */
    template <typename T, typename RefFn>
    Param &
    addInt(const std::string &name, RefFn ref, const std::string &doc,
           T lo = std::numeric_limits<T>::min(),
           T hi = std::numeric_limits<T>::max())
    {
        static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>,
                      "addInt needs a non-bool integral field");
        Param p;
        p.name = name;
        p.doc = doc;
        p.typeName = std::is_signed_v<T> ? "int" : "uint";
        p.rangeText = "[" + std::to_string(lo) + ", " +
                      std::to_string(hi) + "]";
        p.set = [name, doc, ref, lo, hi](Owner &owner,
                                         const std::string &value,
                                         const std::string &source) {
            if constexpr (std::is_signed_v<T>) {
                std::int64_t parsed = 0;
                if (!param_detail::parseInt64(value, parsed)) {
                    param_detail::valueError(source, name, value,
                                             "is not an integer", doc);
                }
                if (parsed < static_cast<std::int64_t>(lo) ||
                    parsed > static_cast<std::int64_t>(hi)) {
                    param_detail::valueError(
                        source, name, value,
                        "is out of range [" + std::to_string(lo) +
                            ", " + std::to_string(hi) + "]",
                        doc);
                }
                ref(owner) = static_cast<T>(parsed);
            } else {
                std::uint64_t parsed = 0;
                bool negative = false;
                if (!param_detail::parseUint64(value, parsed,
                                               negative)) {
                    param_detail::valueError(
                        source, name, value,
                        negative ? "is negative but the parameter is "
                                   "unsigned (range [" +
                                       std::to_string(lo) + ", " +
                                       std::to_string(hi) + "])"
                                 : std::string(
                                       "is not an unsigned integer"),
                        doc);
                }
                if (parsed < static_cast<std::uint64_t>(lo) ||
                    parsed > static_cast<std::uint64_t>(hi)) {
                    param_detail::valueError(
                        source, name, value,
                        "is out of range [" + std::to_string(lo) +
                            ", " + std::to_string(hi) + "]",
                        doc);
                }
                ref(owner) = static_cast<T>(parsed);
            }
        };
        p.get = [ref](const Owner &owner) {
            return std::to_string(ref(const_cast<Owner &>(owner)));
        };
        p.emit = [ref](JsonWriter &json, const Owner &owner) {
            if constexpr (std::is_signed_v<T>) {
                json.value(static_cast<std::int64_t>(
                    ref(const_cast<Owner &>(owner))));
            } else {
                json.value(static_cast<std::uint64_t>(
                    ref(const_cast<Owner &>(owner))));
            }
        };
        return insert(std::move(p));
    }

    /** Declare a floating-point parameter with an inclusive range. */
    template <typename RefFn>
    Param &
    addDouble(const std::string &name, RefFn ref,
              const std::string &doc,
              double lo = std::numeric_limits<double>::lowest(),
              double hi = std::numeric_limits<double>::max())
    {
        Param p;
        p.name = name;
        p.doc = doc;
        p.typeName = "double";
        p.rangeText = "[" + param_detail::formatDouble(lo) + ", " +
                      param_detail::formatDouble(hi) + "]";
        p.set = [name, doc, ref, lo, hi](Owner &owner,
                                         const std::string &value,
                                         const std::string &source) {
            double parsed = 0.0;
            if (!param_detail::parseDoubleStrict(value, parsed)) {
                param_detail::valueError(source, name, value,
                                         "is not a number", doc);
            }
            if (!(parsed >= lo && parsed <= hi)) {
                param_detail::valueError(
                    source, name, value,
                    "is out of range [" +
                        param_detail::formatDouble(lo) + ", " +
                        param_detail::formatDouble(hi) + "]",
                    doc);
            }
            ref(owner) = parsed;
        };
        p.get = [ref](const Owner &owner) {
            return param_detail::formatDouble(
                ref(const_cast<Owner &>(owner)));
        };
        p.emit = [ref](JsonWriter &json, const Owner &owner) {
            json.value(
                static_cast<double>(ref(const_cast<Owner &>(owner))));
        };
        return insert(std::move(p));
    }

    /** Declare a boolean parameter (true/false/1/0/yes/no). */
    template <typename RefFn>
    Param &
    addBool(const std::string &name, RefFn ref, const std::string &doc)
    {
        Param p;
        p.name = name;
        p.doc = doc;
        p.typeName = "bool";
        p.set = [name, doc, ref](Owner &owner,
                                 const std::string &value,
                                 const std::string &source) {
            bool parsed = false;
            if (!param_detail::parseBoolStrict(value, parsed)) {
                param_detail::valueError(
                    source, name, value,
                    "is not a boolean (true/false/1/0/yes/no)", doc);
            }
            ref(owner) = parsed;
        };
        p.get = [ref](const Owner &owner) {
            return ref(const_cast<Owner &>(owner)) ? "true" : "false";
        };
        p.emit = [ref](JsonWriter &json, const Owner &owner) {
            json.value(
                static_cast<bool>(ref(const_cast<Owner &>(owner))));
        };
        return insert(std::move(p));
    }

    /** Declare a free-form string parameter. */
    template <typename RefFn>
    Param &
    addString(const std::string &name, RefFn ref,
              const std::string &doc)
    {
        Param p;
        p.name = name;
        p.doc = doc;
        p.typeName = "string";
        p.set = [ref](Owner &owner, const std::string &value,
                      const std::string &) { ref(owner) = value; };
        p.get = [ref](const Owner &owner) {
            return ref(const_cast<Owner &>(owner));
        };
        p.emit = [ref](JsonWriter &json, const Owner &owner) {
            json.value(ref(const_cast<Owner &>(owner)));
        };
        return insert(std::move(p));
    }

    /** Declare a string parameter restricted to a fixed choice set. */
    template <typename RefFn>
    Param &
    addChoice(const std::string &name, RefFn ref,
              const std::string &doc,
              std::vector<std::string> choices)
    {
        Param p;
        p.name = name;
        p.doc = doc;
        p.typeName = "string";
        p.rangeText = choiceText(choices);
        p.set = [name, doc, ref,
                 choices](Owner &owner, const std::string &value,
                          const std::string &source) {
            for (const auto &choice : choices) {
                if (choice == value) {
                    ref(owner) = value;
                    return;
                }
            }
            param_detail::valueError(
                source, name, value,
                "must be one of " + choiceText(choices) +
                    param_detail::suggestNearest(value, choices),
                doc);
        };
        p.get = [ref](const Owner &owner) {
            return ref(const_cast<Owner &>(owner));
        };
        p.emit = [ref](JsonWriter &json, const Owner &owner) {
            json.value(ref(const_cast<Owner &>(owner)));
        };
        return insert(std::move(p));
    }

    /**
     * Declare an enum-typed parameter via an explicit name<->value
     * mapping (the first entry's name is used when the current value
     * has no mapping, which the registration should make impossible).
     */
    template <typename E, typename RefFn>
    Param &
    addEnum(const std::string &name, RefFn ref, const std::string &doc,
            std::vector<std::pair<std::string, E>> mapping)
    {
        std::vector<std::string> names;
        for (const auto &entry : mapping)
            names.push_back(entry.first);
        Param p;
        p.name = name;
        p.doc = doc;
        p.typeName = "string";
        p.rangeText = choiceText(names);
        p.set = [name, doc, mapping,
                 names, ref](Owner &owner, const std::string &value,
                             const std::string &source) {
            for (const auto &entry : mapping) {
                if (entry.first == value) {
                    ref(owner) = entry.second;
                    return;
                }
            }
            param_detail::valueError(
                source, name, value,
                "must be one of " + choiceText(names) +
                    param_detail::suggestNearest(value, names),
                doc);
        };
        auto render = [mapping](const Owner &owner, RefFn r) {
            E current = r(const_cast<Owner &>(owner));
            for (const auto &entry : mapping) {
                if (entry.second == current)
                    return entry.first;
            }
            return mapping.front().first;
        };
        p.get = [render, ref](const Owner &owner) {
            return render(owner, ref);
        };
        p.emit = [render, ref](JsonWriter &json, const Owner &owner) {
            json.value(render(owner, ref));
        };
        return insert(std::move(p));
    }

    /** Whether @p key is a declared parameter. */
    bool has(const std::string &key) const
    {
        return params_.count(key) != 0;
    }

    /** All declared names in sorted order. */
    std::vector<std::string>
    names() const
    {
        std::vector<std::string> out;
        out.reserve(params_.size());
        for (const auto &entry : params_)
            out.push_back(entry.first);
        return out;
    }

    /**
     * Parse and assign one `key=value`; fatal() on unknown key (with
     * a near-miss suggestion), bad type, or out-of-range value. The
     * @p source string names where the assignment came from (command
     * line, a config file path) for the diagnostic.
     */
    void
    set(Owner &owner, const std::string &key, const std::string &value,
        const std::string &source) const
    {
        auto it = params_.find(key);
        if (it == params_.end())
            param_detail::unknownKeyError(source, key, names());
        it->second.set(owner, value, source);
    }

    /**
     * Apply every `key=value` argument of argv[1..argc) in order
     * through set() (source "command line"), and return the other
     * arguments — positional ones — in order. For tools whose whole
     * command line is one registry plus positional operands.
     */
    std::vector<std::string>
    applyArgs(Owner &owner, int argc, const char *const *argv) const
    {
        std::vector<std::string> positional;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const auto eq = arg.find('=');
            if (eq == std::string::npos || eq == 0)
                positional.push_back(arg);
            else
                set(owner, arg.substr(0, eq), arg.substr(eq + 1),
                    "command line");
        }
        return positional;
    }

    /**
     * Apply a flat JSON object of key -> scalar assignments (the
     * `config=` file format and the `--dump-config` output). Values
     * may be numbers, strings, or booleans; string values go through
     * the same parser as the command line, so quoting a large integer
     * keeps it exact.
     */
    void
    applyJson(Owner &owner, const JsonValue &object,
              const std::string &source) const
    {
        if (!object.isObject()) {
            fatal("%s: a config file must be one flat JSON object of "
                  "\"key\": value pairs",
                  source.c_str());
        }
        for (const auto &member : object.object) {
            const JsonValue &v = member.second;
            std::string text;
            switch (v.type) {
            case JsonValue::Type::String:
                text = v.string;
                break;
            case JsonValue::Type::Number:
                text = param_detail::formatDouble(v.number);
                break;
            case JsonValue::Type::Bool:
                text = v.boolean ? "true" : "false";
                break;
            default:
                fatal("%s: key '%s' must be a scalar (number, string, "
                      "or boolean)",
                      source.c_str(), member.first.c_str());
            }
            set(owner, member.first, text, source);
        }
    }

    /**
     * Emit the resolved config as one flat JSON object in sorted key
     * order. Scope::All output is loadable back via applyJson;
     * Scope::Manifest omits output-path/volatile parameters so run
     * manifests stay deterministic.
     */
    void
    dumpJson(const Owner &owner, JsonWriter &json, Scope scope) const
    {
        json.beginObject();
        for (const auto &entry : params_) {
            if (scope == Scope::Manifest && !entry.second.inManifest)
                continue;
            json.key(entry.first);
            entry.second.emit(json, owner);
        }
        json.endObject();
    }

    /**
     * Human-readable listing: name, type, current value, doc, in
     * columns padded to a fixed width with at least one space after a
     * value that overflows its column.
     */
    void
    help(std::ostream &os, const Owner &current) const
    {
        auto column = [&os](const std::string &text, std::size_t width) {
            os << text
               << std::string(
                      text.size() < width ? width - text.size() : 1, ' ');
        };
        for (const auto &entry : params_) {
            const Param &p = entry.second;
            os << "  ";
            column(p.name, 26);
            column(p.typeName, 8);
            column(p.get(current), 17);
            os << p.doc;
            if (!p.rangeText.empty())
                os << ' ' << p.rangeText;
            os << '\n';
        }
    }

    /**
     * The same listing as a GitHub-flavored markdown table — the
     * source of the generated parameter section in EXPERIMENTS.md
     * (scripts/update_experiments_params.py splices the output of
     * `--help-config=md` between its markers, and CI fails when the
     * committed table goes stale). @p current supplies the defaults
     * column, so pass the compiled-default config.
     */
    void
    helpMarkdown(std::ostream &os, const Owner &current) const
    {
        os << "| parameter | type | default | range | description "
              "|\n";
        os << "|---|---|---|---|---|\n";
        for (const auto &entry : params_) {
            const Param &p = entry.second;
            std::string value = p.get(current);
            os << "| `" << p.name << "` | " << p.typeName << " | `"
               << (value.empty() ? "''" : value) << "` | "
               << mdEscape(p.rangeText) << " | " << mdEscape(p.doc)
               << " |\n";
        }
    }

  private:
    std::map<std::string, Param> params_;

    /** Escape '|' so range/doc text cannot break the table row. */
    static std::string
    mdEscape(const std::string &text)
    {
        std::string out;
        out.reserve(text.size());
        for (char c : text) {
            if (c == '|')
                out += "\\|";
            else
                out.push_back(c);
        }
        return out;
    }

    static std::string
    choiceText(const std::vector<std::string> &choices)
    {
        std::string out = "{";
        for (std::size_t i = 0; i < choices.size(); ++i) {
            if (i)
                out += "|";
            out += choices[i];
        }
        out += "}";
        return out;
    }

    Param &
    insert(Param p)
    {
        ladder_assert(params_.count(p.name) == 0,
                      "parameter '%s' registered twice",
                      p.name.c_str());
        std::string name = p.name;
        return params_.emplace(name, std::move(p)).first->second;
    }
};

} // namespace ladder

#endif // LADDER_COMMON_PARAM_REGISTRY_HH
