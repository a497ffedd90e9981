#include "tenant.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "common/logging.hh"

namespace hetsim::serve
{

namespace
{

/**
 * Split a "name:value,name:value" spec into (name, value-text) pairs.
 * @return false and set @p error on empty names/entries or a missing
 * ':' separator.
 */
bool
splitSpec(const std::string &spec,
          std::vector<std::pair<std::string, std::string>> &out,
          std::string &error)
{
    size_t pos = 0;
    while (pos <= spec.size()) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string entry = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (entry.empty()) {
            error = csprintf("--tenants: empty entry in '%s'",
                             spec.c_str());
            return false;
        }
        const size_t colon = entry.find(':');
        if (colon == std::string::npos || colon == 0 ||
            colon + 1 == entry.size()) {
            error = csprintf(
                "--tenants: entry '%s' is not of the form name:value",
                entry.c_str());
            return false;
        }
        out.emplace_back(entry.substr(0, colon),
                         entry.substr(colon + 1));
    }
    return true;
}

} // namespace

bool
TenantTable::applyWeights(const std::string &spec, std::string &error)
{
    std::vector<std::pair<std::string, std::string>> entries;
    if (!splitSpec(spec, entries, error))
        return false;
    std::map<std::string, TenantPolicy> merged = policies;
    for (const auto &[name, text] : entries) {
        errno = 0;
        char *end = nullptr;
        const double w = std::strtod(text.c_str(), &end);
        if (errno != 0 || end == text.c_str() || *end != '\0' ||
            !std::isfinite(w) || w <= 0.0) {
            error = csprintf(
                "--tenants: weight '%s' for tenant '%s' is not a "
                "finite number > 0",
                text.c_str(), name.c_str());
            return false;
        }
        merged[name].weight = w;
    }
    policies = std::move(merged);
    return true;
}

TenantPolicy
TenantTable::policy(const std::string &tenant) const
{
    auto it = policies.find(tenant);
    return it != policies.end() ? it->second : TenantPolicy{};
}

} // namespace hetsim::serve
