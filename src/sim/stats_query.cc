#include "stats_query.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <set>
#include <sstream>

#include "ctrl/controller.hh"
#include "ctrl/trace_reader.hh"

namespace ladder
{

namespace
{

/**
 * Generic recursive flatten: objects extend the dotted prefix,
 * arrays use the element index, numbers and bools become rows.
 */
void
flattenValue(const std::string &prefix, const JsonValue &v,
             std::map<std::string, double> &out)
{
    switch (v.type) {
    case JsonValue::Type::Number:
        out[prefix] = v.number;
        break;
    case JsonValue::Type::Bool:
        out[prefix] = v.boolean ? 1.0 : 0.0;
        break;
    case JsonValue::Type::Object:
        for (const auto &[k, child] : v.object)
            flattenValue(prefix.empty() ? k : prefix + "." + k,
                         child, out);
        break;
    case JsonValue::Type::Array:
        for (std::size_t i = 0; i < v.array.size(); ++i)
            flattenValue(prefix + "." + std::to_string(i),
                         v.array[i], out);
        break;
    default:
        break;
    }
}

/**
 * Flatten one StatGroup JSON node under its own group name
 * (matching StatGroup::visit's naming), recursing into children.
 * Histogram bucket-count arrays are omitted — per-bucket rows drown
 * the table without being useful to diff.
 */
void
flattenStatGroup(const JsonValue &group,
                 std::map<std::string, double> &out)
{
    if (!group.isObject() || !group.has("name"))
        return;
    const std::string &name = group.at("name").string;
    if (group.has("scalars"))
        flattenValue(name, group.at("scalars"), out);
    if (group.has("averages"))
        flattenValue(name, group.at("averages"), out);
    if (group.has("histograms") &&
        group.at("histograms").isObject()) {
        for (const auto &[hname, hist] :
             group.at("histograms").object) {
            if (!hist.isObject())
                continue;
            for (const auto &[field, fv] : hist.object) {
                if (field == "counts")
                    continue;
                flattenValue(name + "." + hname + "." + field, fv,
                             out);
            }
        }
    }
    if (group.has("children") && group.at("children").isArray())
        for (const JsonValue &child : group.at("children").array)
            flattenStatGroup(child, out);
}

std::map<std::string, double>
flattenStatsJson(const JsonValue &doc)
{
    std::map<std::string, double> out;
    if (doc.has("result"))
        flattenValue("result", doc.at("result"), out);
    if (doc.has("resolved_config"))
        flattenValue("resolved_config", doc.at("resolved_config"),
                     out);
    if (doc.has("solver"))
        flattenValue("solver", doc.at("solver"), out);
    if (doc.has("stats") && doc.at("stats").isArray())
        for (const JsonValue &group : doc.at("stats").array)
            flattenStatGroup(group, out);
    return out;
}

std::map<std::string, double>
flattenSweepJson(const JsonValue &doc)
{
    std::map<std::string, double> out;
    for (const JsonValue &cell : doc.at("cells").array) {
        if (!cell.isObject() || !cell.has("run") ||
            !cell.has("result"))
            continue;
        flattenValue(cell.at("run").string, cell.at("result"), out);
    }
    return out;
}

/**
 * Nearest-rank percentile of sorted per-write ticks, in ns —
 * deterministic, no interpolation, matching the histogram exports.
 */
double
percentileNs(const std::vector<std::int32_t> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    auto index = static_cast<std::size_t>(
        std::llround(q * static_cast<double>(sorted.size() - 1)));
    return static_cast<double>(sorted[index]) / 1000.0;
}

/**
 * Reduce the attribution trace @p file to its per-write blame
 * profile, adding blame.writes and
 * blame.<component>.{p50_ns,p99_ns,max_ns,mean_ns,share_pct} under
 * @p prefix. A trace without the attribution block is an error: the
 * caller asked a blame question of a blame-free run.
 */
bool
flattenBlameTrace(const std::string &file, const std::string &prefix,
                  std::map<std::string, double> &out,
                  std::string &error)
{
    TraceReader reader;
    if (!reader.open(file)) {
        error = file + ": " + reader.error();
        return false;
    }
    if (!reader.attribution()) {
        error = file +
                ": trace has no attribution block (rerun the sweep "
                "with trace.attribution=1)";
        return false;
    }
    std::vector<std::int32_t> ticks[blameComponentCount];
    double sums[blameComponentCount] = {};
    CtrlTraceRecord rec;
    while (reader.next(rec)) {
        if (rec.kind != CtrlTraceRecord::Kind::Write)
            continue;
        const std::int32_t components[blameComponentCount] = {
            rec.attr.depTicks,     rec.attr.queueTicks,
            rec.attr.bankTicks,    rec.attr.rcdTicks,
            rec.attr.baseTicks,    rec.attr.locationTicks,
            rec.attr.contentTicks, rec.attr.schemeTicks};
        for (unsigned c = 0; c < blameComponentCount; ++c) {
            ticks[c].push_back(components[c]);
            sums[c] += static_cast<double>(components[c]) / 1000.0;
        }
    }
    if (!reader.ok()) {
        error = file + ": " + reader.error();
        return false;
    }
    const double writes = static_cast<double>(ticks[0].size());
    double totalBlame = 0.0;
    for (double sum : sums)
        totalBlame += sum;
    out[prefix + "blame.writes"] = writes;
    for (unsigned c = 0; c < blameComponentCount; ++c) {
        std::vector<std::int32_t> &sorted = ticks[c];
        std::sort(sorted.begin(), sorted.end());
        const std::string name =
            prefix + "blame." + blameComponentNames()[c] + ".";
        out[name + "p50_ns"] = percentileNs(sorted, 0.50);
        out[name + "p99_ns"] = percentileNs(sorted, 0.99);
        out[name + "max_ns"] =
            sorted.empty() ? 0.0
                           : static_cast<double>(sorted.back()) / 1000.0;
        out[name + "mean_ns"] = writes == 0.0 ? 0.0 : sums[c] / writes;
        out[name + "share_pct"] =
            totalBlame == 0.0 ? 0.0 : sums[c] / totalBlame * 100.0;
    }
    return true;
}

/** trace.csv / trace.bin inside @p dir, or empty when absent. */
std::string
traceFileIn(const std::filesystem::path &dir)
{
    for (const char *name : {"trace.csv", "trace.bin"}) {
        std::filesystem::path candidate = dir / name;
        std::error_code ec;
        if (std::filesystem::is_regular_file(candidate, ec))
            return candidate.string();
    }
    return {};
}

/**
 * Flatten one file: a JSON object is a sweep.json/stats.json
 * document, anything else an attribution trace.
 */
bool
flattenFile(const std::string &file, std::map<std::string, double> &out,
            std::string &error)
{
    std::ifstream is(file);
    if (!is.good()) {
        error = file + ": cannot open";
        return false;
    }
    if ((is >> std::ws).peek() != '{')
        return flattenBlameTrace(file, "", out, error);
    std::ostringstream text;
    text << is.rdbuf();
    out = flattenStatsDocument(parseJson(text.str()));
    if (out.empty()) {
        error = file + ": no numeric stats found "
                       "(not a sweep.json/stats.json?)";
        return false;
    }
    return true;
}

/**
 * Flatten a directory: its sweep.json or stats.json when it holds
 * one, else its own trace (a run directory), else the traces of its
 * run subdirectories (a trace-out sweep), each under a "<run>." prefix.
 */
bool
flattenDirectory(const std::string &path,
                 std::map<std::string, double> &out, std::string &error)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    for (const char *name : {"sweep.json", "stats.json"}) {
        fs::path candidate = fs::path(path) / name;
        if (fs::is_regular_file(candidate, ec))
            return flattenFile(candidate.string(), out, error);
    }
    const std::string trace = traceFileIn(path);
    if (!trace.empty())
        return flattenBlameTrace(trace, "", out, error);
    // Deterministic order regardless of directory enumeration.
    std::vector<fs::path> runs;
    for (const auto &entry : fs::directory_iterator(path, ec))
        if (entry.is_directory() && !traceFileIn(entry.path()).empty())
            runs.push_back(entry.path());
    std::sort(runs.begin(), runs.end());
    if (runs.empty()) {
        error = path + ": no sweep.json, stats.json or trace inside";
        return false;
    }
    for (const fs::path &run : runs)
        if (!flattenBlameTrace(traceFileIn(run),
                               run.filename().string() + ".", out,
                               error))
            return false;
    return true;
}

std::string
formatValue(double v)
{
    std::ostringstream os;
    os << std::setprecision(9) << v;
    return os.str();
}

/** Output encodings of the merge table / diff report. */
enum class OutputFormat
{
    Table,
    Csv,
    Json,
};

/** CSV field, quoted only when it contains a delimiter or quote. */
std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

/** Minimal JSON string escape (names/labels are plain paths). */
std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    out += '"';
    return out;
}

void
printMergeCsv(std::ostream &out,
              const std::vector<StatSource> &sources,
              const std::set<std::string> &names)
{
    out << "stat";
    for (const StatSource &src : sources)
        out << "," << csvField(src.label);
    out << "\n";
    for (const std::string &name : names) {
        out << csvField(name);
        for (const StatSource &src : sources) {
            auto it = src.values.find(name);
            out << ",";
            if (it != src.values.end())
                out << formatValue(it->second);
        }
        out << "\n";
    }
}

void
printMergeJson(std::ostream &out,
               const std::vector<StatSource> &sources,
               const std::set<std::string> &names)
{
    out << "{\n  \"runs\": [";
    for (std::size_t i = 0; i < sources.size(); ++i)
        out << (i ? ", " : "") << jsonString(sources[i].label);
    out << "],\n  \"stats\": {";
    bool firstName = true;
    for (const std::string &name : names) {
        out << (firstName ? "\n" : ",\n") << "    "
            << jsonString(name) << ": [";
        firstName = false;
        for (std::size_t i = 0; i < sources.size(); ++i) {
            auto it = sources[i].values.find(name);
            out << (i ? ", " : "")
                << (it != sources[i].values.end()
                        ? formatValue(it->second)
                        : std::string("null"));
        }
        out << "]";
    }
    out << "\n  }\n}\n";
}

void
printDiffCsv(std::ostream &out, const std::vector<StatDiff> &diffs)
{
    out << "stat,base,other,rel_delta,flagged\n";
    for (const StatDiff &d : diffs)
        out << csvField(d.name) << "," << formatValue(d.base) << ","
            << formatValue(d.other) << "," << formatValue(d.relDelta)
            << "," << (d.flagged ? 1 : 0) << "\n";
}

void
printDiffJson(std::ostream &out, const StatSource &base,
              const StatSource &other,
              const std::vector<StatDiff> &diffs, double threshold,
              std::size_t flagged)
{
    out << "{\n  \"base\": " << jsonString(base.label)
        << ",\n  \"other\": " << jsonString(other.label)
        << ",\n  \"threshold\": " << formatValue(threshold)
        << ",\n  \"flagged\": " << flagged << ",\n  \"diffs\": [";
    for (std::size_t i = 0; i < diffs.size(); ++i) {
        const StatDiff &d = diffs[i];
        out << (i ? ",\n" : "\n") << "    {\"stat\": "
            << jsonString(d.name) << ", \"base\": "
            << formatValue(d.base) << ", \"other\": "
            << formatValue(d.other) << ", \"rel_delta\": "
            << formatValue(d.relDelta) << ", \"flagged\": "
            << (d.flagged ? "true" : "false") << "}";
    }
    out << "\n  ]\n}\n";
}

/** Union of glob-selected stat names across all sources. */
std::set<std::string>
selectNames(const std::vector<StatSource> &sources,
            const std::string &glob)
{
    std::set<std::string> names;
    for (const StatSource &src : sources)
        for (const auto &[name, value] : src.values)
            if (statGlobMatch(glob, name))
                names.insert(name);
    return names;
}

void
printTable(std::ostream &out,
           const std::vector<StatSource> &sources,
           const std::set<std::string> &names)
{
    std::size_t nameWidth = 4;
    for (const std::string &name : names)
        nameWidth = std::max(nameWidth, name.size());
    std::vector<std::size_t> widths;
    for (const StatSource &src : sources)
        widths.push_back(std::max<std::size_t>(src.label.size(), 8));

    out << std::left << std::setw(static_cast<int>(nameWidth))
        << "stat";
    for (std::size_t i = 0; i < sources.size(); ++i)
        out << "  " << std::right
            << std::setw(static_cast<int>(widths[i]))
            << sources[i].label;
    out << "\n";
    for (const std::string &name : names) {
        out << std::left << std::setw(static_cast<int>(nameWidth))
            << name;
        for (std::size_t i = 0; i < sources.size(); ++i) {
            auto it = sources[i].values.find(name);
            out << "  " << std::right
                << std::setw(static_cast<int>(widths[i]))
                << (it != sources[i].values.end()
                        ? formatValue(it->second)
                        : "-");
        }
        out << "\n";
    }
    out << "(" << names.size() << " stats x " << sources.size()
        << " runs)\n";
}

int
usage(std::ostream &err)
{
    err << "usage: ladder_query [GLOB] PATH... [format=FMT] "
           "[--list-stats]\n"
           "       ladder_query diff [GLOB] BASE OTHER "
           "[threshold=REL] [format=FMT]\n"
           "PATH: a sweep.json/stats.json file or a directory "
           "holding one, or an\nattribution trace "
           "(trace.attribution=1): a trace file, a run directory\n"
           "holding one, or a trace-out directory of run "
           "directories.\n"
           "GLOB: stat-name filter with * and ? (quote it). diff "
           "exits 1\n"
           "when any selected stat moves by more than REL (default "
           "0.02)\nrelative to BASE, and 2 when no selected stat is "
           "in both.\n"
           "FMT: table (default), csv, or json.\n"
           "--list-stats: print the glob-selected stat names of the "
           "merged\ntable, one per line (discover names for GLOB "
           "selection).\n";
    return 2;
}

} // namespace

bool
statGlobMatch(const std::string &pattern, const std::string &name)
{
    if (pattern.empty())
        return true;
    // Iterative wildcard match with the classic star-backtrack.
    std::size_t p = 0, n = 0;
    std::size_t starP = std::string::npos, starN = 0;
    while (n < name.size()) {
        if (p < pattern.size() &&
            (pattern[p] == '?' || pattern[p] == name[n])) {
            ++p;
            ++n;
        } else if (p < pattern.size() && pattern[p] == '*') {
            starP = p++;
            starN = n;
        } else if (starP != std::string::npos) {
            p = starP + 1;
            n = ++starN;
        } else {
            return false;
        }
    }
    while (p < pattern.size() && pattern[p] == '*')
        ++p;
    return p == pattern.size();
}

std::map<std::string, double>
flattenStatsDocument(const JsonValue &doc)
{
    if (!doc.isObject())
        return {};
    if (doc.has("cells") && doc.at("cells").isArray())
        return flattenSweepJson(doc);
    return flattenStatsJson(doc);
}

bool
loadStatSource(const std::string &path, StatSource &out,
               std::string &error)
{
    out.label = path;
    while (out.label.size() > 1 && out.label.back() == '/')
        out.label.pop_back();
    std::error_code ec;
    if (std::filesystem::is_directory(path, ec))
        return flattenDirectory(path, out.values, error);
    if (std::filesystem::is_regular_file(path, ec))
        return flattenFile(path, out.values, error);
    error = path + ": no such file or directory";
    return false;
}

std::vector<StatDiff>
diffStatSources(const StatSource &base, const StatSource &other,
                const std::string &glob, double threshold)
{
    std::vector<StatDiff> diffs;
    for (const auto &[name, baseValue] : base.values) {
        if (!statGlobMatch(glob, name))
            continue;
        auto it = other.values.find(name);
        if (it == other.values.end())
            continue;
        StatDiff d;
        d.name = name;
        d.base = baseValue;
        d.other = it->second;
        if (baseValue != 0.0)
            d.relDelta = (d.other - d.base) / std::abs(d.base);
        else
            d.relDelta = d.other == 0.0 ? 0.0 : std::abs(d.other);
        d.flagged = std::abs(d.relDelta) > threshold;
        diffs.push_back(std::move(d));
    }
    return diffs;
}

int
ladderQueryMain(const std::vector<std::string> &args,
                std::ostream &out, std::ostream &err)
{
    std::vector<std::string> positional;
    double threshold = 0.02;
    bool diffMode = false;
    bool listStats = false;
    OutputFormat format = OutputFormat::Table;
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (i == 0 && arg == "diff") {
            diffMode = true;
        } else if (arg == "--list-stats") {
            listStats = true;
        } else if (arg.rfind("format=", 0) == 0) {
            const std::string text = arg.substr(7);
            if (text == "table") {
                format = OutputFormat::Table;
            } else if (text == "csv") {
                format = OutputFormat::Csv;
            } else if (text == "json") {
                format = OutputFormat::Json;
            } else {
                err << "ladder_query: bad format '" << text
                    << "' (table, csv, or json)\n";
                return 2;
            }
        } else if (arg.rfind("threshold=", 0) == 0) {
            char *end = nullptr;
            const std::string text = arg.substr(10);
            threshold = std::strtod(text.c_str(), &end);
            if (end == text.c_str() || *end != '\0' ||
                threshold < 0.0) {
                err << "ladder_query: bad threshold '" << text
                    << "'\n";
                return 2;
            }
        } else if (arg == "--help" || arg == "-h") {
            usage(err);
            return 0;
        } else {
            positional.push_back(arg);
        }
    }

    // A leading positional that exists on disk is a PATH; anything
    // else is the stat-name glob.
    std::string glob;
    if (!positional.empty()) {
        std::error_code ec;
        if (!std::filesystem::exists(positional.front(), ec)) {
            glob = positional.front();
            positional.erase(positional.begin());
        }
    }

    if (positional.empty() || (diffMode && positional.size() != 2))
        return usage(err);
    if (diffMode && listStats)
        return usage(err);

    std::vector<StatSource> sources;
    for (const std::string &path : positional) {
        StatSource src;
        std::string error;
        if (!loadStatSource(path, src, error)) {
            err << "ladder_query: " << error << "\n";
            return 2;
        }
        sources.push_back(std::move(src));
    }

    if (!diffMode) {
        std::set<std::string> names = selectNames(sources, glob);
        if (listStats) {
            for (const std::string &name : names)
                out << name << "\n";
            return 0;
        }
        switch (format) {
        case OutputFormat::Table:
            printTable(out, sources, names);
            break;
        case OutputFormat::Csv:
            printMergeCsv(out, sources, names);
            break;
        case OutputFormat::Json:
            printMergeJson(out, sources, names);
            break;
        }
        return 0;
    }

    std::vector<StatDiff> diffs =
        diffStatSources(sources[0], sources[1], glob, threshold);
    // A glob typo or disjoint inputs must not pass the gate vacuously.
    if (diffs.empty()) {
        err << "ladder_query: no stats in common between '"
            << sources[0].label << "' and '" << sources[1].label
            << "'" << (glob.empty() ? "" : " matching '" + glob + "'")
            << "\n";
        return 2;
    }
    std::size_t flagged = 0;
    for (const StatDiff &d : diffs)
        if (d.flagged)
            ++flagged;
    if (format == OutputFormat::Csv) {
        printDiffCsv(out, diffs);
        return flagged == 0 ? 0 : 1;
    }
    if (format == OutputFormat::Json) {
        printDiffJson(out, sources[0], sources[1], diffs, threshold,
                      flagged);
        return flagged == 0 ? 0 : 1;
    }
    std::size_t nameWidth = 4;
    for (const StatDiff &d : diffs)
        nameWidth = std::max(nameWidth, d.name.size());
    out << std::left << std::setw(static_cast<int>(nameWidth))
        << "stat"
        << "  " << std::right << std::setw(14) << sources[0].label
        << "  " << std::setw(14) << sources[1].label << "  "
        << std::setw(9) << "rel" << "\n";
    for (const StatDiff &d : diffs) {
        out << std::left << std::setw(static_cast<int>(nameWidth))
            << d.name << "  " << std::right << std::setw(14)
            << formatValue(d.base) << "  " << std::setw(14)
            << formatValue(d.other) << "  " << std::setw(8)
            << std::fixed << std::setprecision(2)
            << d.relDelta * 100.0 << "%";
        out.unsetf(std::ios::floatfield);
        if (d.flagged)
            out << "  REGRESSION";
        out << "\n";
    }
    out << "(" << diffs.size() << " stats compared, " << flagged
        << " beyond " << threshold * 100.0 << "% threshold)\n";
    return flagged == 0 ? 0 : 1;
}

} // namespace ladder
