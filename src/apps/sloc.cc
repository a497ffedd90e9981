#include "core/sloc.hh"

#include <algorithm>
#include <set>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "core/workload.hh"
#include "kernelir/captable.hh"

namespace hetsim::core
{

std::vector<std::string>
codeLines(const std::string &source)
{
    std::vector<std::string> lines;
    bool in_block_comment = false;
    size_t pos = 0;
    const size_t len = source.size();

    while (pos <= len) {
        size_t eol = source.find('\n', pos);
        if (eol == std::string::npos)
            eol = len;
        std::string_view line(source.data() + pos, eol - pos);

        std::string code;
        for (size_t i = 0; i < line.size(); ++i) {
            if (in_block_comment) {
                if (i + 1 < line.size() && line[i] == '*' &&
                    line[i + 1] == '/') {
                    in_block_comment = false;
                    ++i;
                }
                continue;
            }
            char c = line[i];
            if (c == '/' && i + 1 < line.size()) {
                if (line[i + 1] == '/')
                    break; // rest of line is a comment
                if (line[i + 1] == '*') {
                    in_block_comment = true;
                    ++i;
                    continue;
                }
            }
            if (std::isspace(static_cast<unsigned char>(c))) {
                if (!code.empty() && code.back() != ' ')
                    code.push_back(' ');
            } else {
                code.push_back(c);
            }
        }
        while (!code.empty() && code.back() == ' ')
            code.pop_back();
        if (!code.empty())
            lines.push_back(std::move(code));

        if (eol == len)
            break;
        pos = eol + 1;
    }
    return lines;
}

int
slocOfSource(const std::string &source)
{
    return static_cast<int>(codeLines(source).size());
}

namespace
{

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("sloc: cannot open %s", path.c_str());
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

} // namespace

int
slocOfFile(const std::string &path)
{
    return slocOfSource(readFile(path));
}

std::string
SlocManifest::repoRoot()
{
#ifdef HETSIM_SOURCE_DIR
    return HETSIM_SOURCE_DIR;
#else
    return ".";
#endif
}

std::vector<std::string>
SlocManifest::applications()
{
    std::vector<std::string> names;
    for (const AppEntry &row : appTable())
        names.push_back(row.display);
    return names;
}

std::vector<std::string>
SlocManifest::files(const std::string &app, ir::ModelKind model)
{
    for (const AppEntry &row : appTable()) {
        if (app != row.display)
            continue;
        const std::string stem = row.alias;
        return {"src/apps/" + stem + "/" + stem + "_" +
                ir::capsFor(model).fileSuffix + ".cc"};
    }
    fatal("sloc: unknown application %s", app.c_str());
}

int
SlocManifest::sloc(const std::string &app, ir::ModelKind model)
{
    int total = 0;
    for (const std::string &rel : files(app, model))
        total += slocOfFile(repoRoot() + "/" + rel);
    return total;
}

namespace
{

std::vector<std::string>
linesOf(const std::string &app, ir::ModelKind model)
{
    std::vector<std::string> all;
    for (const std::string &rel : SlocManifest::files(app, model)) {
        auto lines =
            codeLines(readFile(SlocManifest::repoRoot() + "/" + rel));
        all.insert(all.end(), lines.begin(), lines.end());
    }
    return all;
}

} // namespace

int
SlocManifest::linesChanged(const std::string &app, ir::ModelKind model)
{
    if (model == ir::ModelKind::Serial)
        return sloc(app, model);
    // Multiset diff against the serial implementation: lines of the
    // variant that do not appear in the serial file are "changed".
    std::multiset<std::string> serial_lines;
    for (auto &line : linesOf(app, ir::ModelKind::Serial))
        serial_lines.insert(std::move(line));
    int changed = 0;
    for (const auto &line : linesOf(app, model)) {
        auto it = serial_lines.find(line);
        if (it != serial_lines.end())
            serial_lines.erase(it);
        else
            ++changed;
    }
    return std::max(changed, 1);
}

} // namespace hetsim::core
