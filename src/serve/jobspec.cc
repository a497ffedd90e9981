#include "jobspec.hh"

#include <cctype>
#include <cstdio>
#include <istream>
#include <ostream>
#include <set>

#include "common/flatjson.hh"
#include "common/numparse.hh"
#include "core/workload.hh"
#include "kernelir/captable.hh"

namespace hetsim::serve
{

const char *
toString(JobStatus status)
{
    switch (status) {
      case JobStatus::Ok:
        return "ok";
      case JobStatus::Error:
        return "error";
      case JobStatus::Expired:
        return "expired";
    }
    return "?";
}

std::optional<ir::ModelKind>
backendByName(const std::string &name)
{
    // A backend always names a device model: "omp" is OpenMP target
    // offload here, not the --model alias for the host-CPU baseline.
    if (name == "omp")
        return ir::ModelKind::OmpTarget;
    auto kind = core::modelByName(name);
    if (kind == ir::ModelKind::Serial || kind == ir::ModelKind::OpenMp)
        return std::nullopt;
    return kind;
}

std::string
backendNames(const char *sep)
{
    std::string names;
    for (const ir::BackendCaps &model : ir::backendTable()) {
        for (const ir::BackendCaps &row : ir::backendTable()) {
            for (const char *spelling : {row.name, row.alias}) {
                if (*spelling == '\0' ||
                    backendByName(spelling) != model.kind)
                    continue;
                if (!names.empty())
                    names += sep;
                names += spelling;
            }
        }
    }
    return names;
}

std::optional<sim::FreqDomain>
parseFreqPair(const std::string &text)
{
    size_t colon = text.find(':');
    if (colon == std::string::npos)
        return std::nullopt;
    auto core = parseFinite(text.substr(0, colon));
    auto mem = parseFinite(text.substr(colon + 1));
    if (!core || !mem || *core <= 0.0 || *mem <= 0.0)
        return std::nullopt;
    return sim::FreqDomain{*core, *mem};
}

std::string
formatG17(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

std::optional<JobSpec>
parseJobLine(const std::string &line, size_t lineno, std::string &error)
{
    auto fail = [&](const std::string &why) {
        error = "line " + std::to_string(lineno) + ": " + why;
        return std::nullopt;
    };

    std::string parse_error;
    auto object = json::parseFlatObject(line, parse_error);
    if (!object)
        return fail(parse_error);

    JobSpec spec;
    bool idGiven = false;
    for (const auto &[key, value] : *object) {
        auto wantString = [&](std::string &dst) {
            if (value.kind != json::Value::Kind::String)
                return false;
            dst = value.text;
            return true;
        };
        auto wantBool = [&](bool &dst) {
            if (value.kind != json::Value::Kind::Boolean)
                return false;
            dst = value.boolean;
            return true;
        };
        bool ok = true;
        if (key == "id") {
            auto v = value.kind == json::Value::Kind::Number
                         ? json::parseU64(value.text)
                         : std::nullopt;
            if (!v)
                return fail("\"id\" wants a non-negative integer");
            spec.id = *v;
            idGiven = true;
        } else if (key == "app") {
            ok = wantString(spec.app);
        } else if (key == "model") {
            ok = wantString(spec.model);
        } else if (key == "device") {
            ok = wantString(spec.device);
        } else if (key == "devices") {
            ok = wantString(spec.devices);
        } else if (key == "backend") {
            std::string text;
            if (!wantString(text))
                return fail("\"backend\" wants a string");
            if (!backendByName(text))
                return fail("\"backend\" wants a device backend (" +
                            backendNames(", ") + "), got '" + text +
                            "'");
            spec.backend = text;
        } else if (key == "policy") {
            ok = wantString(spec.policy);
        } else if (key == "scale") {
            if (value.kind != json::Value::Kind::Number ||
                value.number <= 0.0)
                return fail("\"scale\" wants a positive number");
            spec.scale = value.number;
        } else if (key == "dp") {
            ok = wantBool(spec.doublePrecision);
        } else if (key == "functional") {
            ok = wantBool(spec.functional);
        } else if (key == "timing_cache") {
            ok = wantBool(spec.timingCache);
        } else if (key == "freq") {
            std::string text;
            if (!wantString(text))
                return fail("\"freq\" wants a \"core:mem\" string");
            auto freq = parseFreqPair(text);
            if (!freq)
                return fail("\"freq\" wants positive core:mem MHz, "
                            "got '" + text + "'");
            spec.freq = *freq;
        } else if (key == "faults") {
            std::string text;
            if (!wantString(text))
                return fail("\"faults\" wants a kind:rate spec string");
            auto cfg = fault::parseFaultSpec(text);
            if (!cfg)
                return fail("\"faults\" wants kind:rate pairs "
                            "(transfer|launch|stall, rate in [0,1]), "
                            "got '" + text + "'");
            spec.faultConfig.transferFailRate = cfg->transferFailRate;
            spec.faultConfig.launchFailRate = cfg->launchFailRate;
            spec.faultConfig.stallRate = cfg->stallRate;
            spec.faultsGiven = true;
        } else if (key == "fault_seed") {
            auto v = value.kind == json::Value::Kind::Number
                         ? json::parseU64(value.text)
                         : std::nullopt;
            if (!v)
                return fail("\"fault_seed\" wants a non-negative "
                            "integer");
            spec.faultConfig.seed = *v;
        } else if (key == "retry_max") {
            auto v = value.kind == json::Value::Kind::Number
                         ? json::parseU64(value.text)
                         : std::nullopt;
            if (!v || *v > 64)
                return fail("\"retry_max\" wants an integer in "
                            "[0, 64]");
            spec.faultConfig.retryMax = static_cast<u32>(*v);
        } else if (key == "fail_device") {
            std::string text;
            if (!wantString(text) || text.empty())
                return fail("\"fail_device\" wants a device alias");
            spec.faultConfig.failDevice = text;
            spec.faultsGiven = true;
        } else if (key == "service_deadline_ms") {
            if (value.kind != json::Value::Kind::Number ||
                value.number < 0.0)
                return fail("\"service_deadline_ms\" wants a "
                            "non-negative number");
            spec.serviceDeadlineMs = value.number;
            spec.serviceDeadlineGiven = true;
        } else if (key == "tenant") {
            ok = wantString(spec.tenant);
        } else {
            return fail("unknown key \"" + key + "\"");
        }
        if (!ok)
            return fail("wrong value type for \"" + key + "\"");
    }
    if (!idGiven)
        spec.id = lineno;
    return spec;
}

std::optional<std::vector<JobSpec>>
parseJobs(std::istream &is, std::string &error)
{
    std::vector<JobSpec> jobs;
    std::set<u64> ids;
    std::string line;
    size_t lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        bool blank = true;
        for (char c : line) {
            if (!std::isspace(static_cast<unsigned char>(c))) {
                blank = false;
                break;
            }
        }
        if (blank)
            continue;
        auto spec = parseJobLine(line, lineno, error);
        if (!spec)
            return std::nullopt;
        if (!ids.insert(spec->id).second) {
            error = "line " + std::to_string(lineno) +
                    ": duplicate job id " + std::to_string(spec->id);
            return std::nullopt;
        }
        jobs.push_back(std::move(*spec));
    }
    return jobs;
}

void
writeResultLine(std::ostream &os, const JobResult &res)
{
    os << "{\"id\":" << res.id << ",\"status\":\""
       << toString(res.status) << "\"";
    auto field = [&os](const char *key, const std::string &value) {
        os << ",\"" << key << "\":";
        json::writeString(os, value);
    };
    if (!res.error.empty())
        field("error", res.error);
    field("app", res.app);
    if (!res.devices.empty()) {
        field("devices", res.devices);
        field("policy", res.policy);
    } else {
        field("model", res.model);
        field("device", res.device);
    }
    if (!res.tenant.empty())
        field("tenant", res.tenant);
    if (res.status == JobStatus::Ok) {
        os << ",\"seconds\":" << formatG17(res.simSeconds)
           << ",\"kernel_seconds\":" << formatG17(res.kernelSeconds)
           << ",\"transfer_seconds\":"
           << formatG17(res.transferSeconds);
        if (res.functionalRun) {
            os << ",\"checksum\":" << formatG17(res.checksum)
               << ",\"validated\":"
               << (res.validated ? "true" : "false");
        }
        os << ",\"energy_j\":" << formatG17(res.energyJoules)
           << ",\"faults_injected\":" << res.faultsInjected
           << ",\"fault_schedule_hash\":\"0x" << std::hex
           << res.faultScheduleHash << std::dec << "\"";
    }
    // Preemption survival count is simulated-time-derived, hence
    // deterministic; emitted for preempted Ok *and* Expired jobs.
    if (res.preemptions > 0)
        os << ",\"preemptions\":" << res.preemptions;
    os << "}\n";
}

void
writeResultsJsonl(std::ostream &os, const std::vector<JobResult> &results)
{
    for (const auto &res : results)
        writeResultLine(os, res);
}

} // namespace hetsim::serve
