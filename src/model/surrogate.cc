#include "model/surrogate.hh"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <iomanip>
#include <sstream>

#include "common/flatjson.hh"
#include "sim/timing_cache.hh"

namespace hetsim::model
{

namespace
{

constexpr const char *kSchema = "hetsim.model.v1";

std::string hexDigest(u64 digest)
{
    std::ostringstream os;
    os << "0x" << std::hex << std::setw(16) << std::setfill('0')
       << digest;
    return os.str();
}

struct TermRef
{
    const char *name;
    const TermFit *fit;
};

struct TermMut
{
    const char *name;
    TermFit *fit;
};

// Digests cover the predictive content (forms + coefficients), not
// per-term selection diagnostics, which are not serialized: a loaded
// model must digest identically to the fit that produced it.
void mixTerm(sim::HashMix &mix, const TermFit &fit)
{
    mix.mix(static_cast<u64>(fit.hypothesis));
    for (int j = 0; j < kBasisTerms; ++j)
        mix.mixDouble(fit.coef[j]);
}

/** Line-scoped accessors over one parsed flat object. */
class Fields
{
  public:
    Fields(const json::Object &obj, const std::string &name, u64 line,
           std::string &error)
        : obj(obj), name(name), line(line), error(error)
    {
    }

    bool fail(const std::string &what)
    {
        error = name + " line " + std::to_string(line) + ": " + what;
        return false;
    }

    bool str(const char *key, std::string &out)
    {
        const json::Value *v = find(key);
        if (v == nullptr)
            return fail(std::string("missing key \"") + key + "\"");
        if (v->kind != json::Value::Kind::String)
            return fail(std::string("key \"") + key +
                        "\" wants a string");
        out = v->text;
        return true;
    }

    bool num(const char *key, double &out)
    {
        const json::Value *v = find(key);
        if (v == nullptr)
            return fail(std::string("missing key \"") + key + "\"");
        if (v->kind != json::Value::Kind::Number)
            return fail(std::string("key \"") + key +
                        "\" wants a number");
        out = v->number;
        return true;
    }

    bool uint(const char *key, u64 &out)
    {
        const json::Value *v = find(key);
        if (v == nullptr)
            return fail(std::string("missing key \"") + key + "\"");
        if (v->kind != json::Value::Kind::Number)
            return fail(std::string("key \"") + key +
                        "\" wants a number");
        const auto parsed = json::parseU64(v->text);
        if (!parsed)
            return fail(std::string("key \"") + key +
                        "\" wants a non-negative integer, got '" +
                        v->text + "'");
        out = *parsed;
        return true;
    }

    bool optionalNum(const char *key, double &out)
    {
        const json::Value *v = find(key);
        if (v == nullptr)
            return true;
        if (v->kind != json::Value::Kind::Number)
            return fail(std::string("key \"") + key +
                        "\" wants a number");
        out = v->number;
        return true;
    }

    bool has(const char *key) const { return find(key) != nullptr; }

  private:
    const json::Value *find(const char *key) const
    {
        const auto it = obj.find(key);
        return it == obj.end() ? nullptr : &it->second;
    }

    const json::Object &obj;
    const std::string &name;
    u64 line;
    std::string &error;
};

bool groupKeyFields(Fields &f, GroupKey &key)
{
    u64 precision = 0;
    u64 workgroup = 0;
    if (!f.str("kernel", key.kernel) || !f.str("device", key.device) ||
        !f.str("model", key.model) ||
        !f.uint("precision_bits", precision) ||
        !f.uint("workgroup", workgroup))
        return false;
    key.precisionBits = static_cast<u32>(precision);
    key.workgroup = static_cast<u32>(workgroup);
    return true;
}

bool termFields(Fields &f, std::initializer_list<TermMut> terms)
{
    for (const TermMut &t : terms) {
        std::string hypName;
        if (!f.str((std::string(t.name) + "_hyp").c_str(), hypName))
            return false;
        const int idx = hypothesisIndexByName(hypName);
        if (idx < 0)
            return f.fail("unknown hypothesis \"" + hypName + "\"");
        t.fit->hypothesis = idx;
        const char suffix[] = {'a', 'b', 'c', 'd'};
        for (int j = 0; j < kBasisTerms; ++j)
            if (!f.num((std::string(t.name) + '_' + suffix[j]).c_str(),
                       t.fit->coef[j]))
                return false;
    }
    return true;
}

} // namespace

Prediction KernelModel::predict(double items, double coreMhz,
                                double memMhz) const
{
    Prediction p;
    // Inside the refined items range, evaluate the two bracketing
    // per-items clock fits at the query clocks (each at its own item
    // count, where the fit is valid) and interpolate the term values
    // linearly in items.  Outside the range the global closed forms
    // extrapolate.
    const ItemsFit *lo = nullptr;
    const ItemsFit *hi = nullptr;
    if (!refined.empty() && items >= refined.front().items &&
        items <= refined.back().items) {
        const auto it = std::lower_bound(
            refined.begin(), refined.end(), items,
            [](const ItemsFit &f, double n) { return f.items < n; });
        hi = &*it;
        lo = it == refined.begin() ? hi : &*(it - 1);
    }
    if (lo != nullptr) {
        const double span = hi->items - lo->items;
        const double w = span > 0.0 ? (items - lo->items) / span : 0.0;
        const auto blend = [&](const TermFit &a, const TermFit &b) {
            const double va = a.eval(lo->items, coreMhz, memMhz);
            if (w == 0.0)
                return va;
            return (1.0 - w) * va + w * b.eval(hi->items, coreMhz, memMhz);
        };
        p.issueSeconds = blend(lo->issue, hi->issue);
        p.memSeconds = blend(lo->mem, hi->mem);
        p.ldsSeconds = blend(lo->lds, hi->lds);
        p.latencySeconds = blend(lo->latency, hi->latency);
        p.launchSeconds = blend(lo->launch, hi->launch);
    } else {
        p.issueSeconds = issue.eval(items, coreMhz, memMhz);
        p.memSeconds = mem.eval(items, coreMhz, memMhz);
        p.ldsSeconds = lds.eval(items, coreMhz, memMhz);
        p.latencySeconds = latency.eval(items, coreMhz, memMhz);
        p.launchSeconds = launch.eval(items, coreMhz, memMhz);
    }
    const double body = std::max(
        {p.issueSeconds, p.memSeconds, p.ldsSeconds, p.latencySeconds});
    p.seconds = p.launchSeconds + body;

    p.bound = obs::dominantTerm(p.issueSeconds, p.memSeconds,
                                p.ldsSeconds, p.latencySeconds,
                                p.launchSeconds);
    return p;
}

u64 Surrogate::fitFromObservations(
    const std::vector<obs::ObsRecord> &observations)
{
    struct GroupData
    {
        std::vector<FitPoint> issue, mem, lds, latency, launch;
        std::vector<Anchor> anchors;
        std::vector<double> totals; ///< per-launch mean totals
        u64 launches = 0;
    };

    std::map<GroupKey, GroupData> grouped;
    for (const obs::ObsRecord &rec : observations) {
        if (rec.launches == 0)
            continue;
        GroupKey key{rec.kernel, rec.device, rec.model,
                     rec.precisionBits, rec.workgroup};
        GroupData &data = grouped[key];
        const double inv = 1.0 / static_cast<double>(rec.launches);
        const double weight = static_cast<double>(rec.launches);
        FitPoint base;
        base.items = static_cast<double>(rec.items);
        base.coreMhz = rec.coreMhz;
        base.memMhz = rec.memMhz;
        base.weight = weight;
        FitPoint p = base;
        p.value = rec.issueSeconds * inv;
        data.issue.push_back(p);
        p.value = rec.memSeconds * inv;
        data.mem.push_back(p);
        p.value = rec.ldsSeconds * inv;
        data.lds.push_back(p);
        p.value = rec.latencySeconds * inv;
        data.latency.push_back(p);
        p.value = rec.launchSeconds * inv;
        data.launch.push_back(p);

        const double mean = rec.meanSeconds > 0.0 || rec.seconds == 0.0
                                ? rec.meanSeconds
                                : rec.seconds * inv;
        Anchor anchor;
        anchor.items = rec.items;
        anchor.coreMhz = rec.coreMhz;
        anchor.memMhz = rec.memMhz;
        anchor.launches = rec.launches;
        anchor.seconds = mean;
        anchor.varSeconds =
            rec.launches > 0
                ? rec.m2Seconds / static_cast<double>(rec.launches)
                : 0.0;
        data.anchors.push_back(anchor);
        data.totals.push_back(mean);
        data.launches += rec.launches;
    }

    u64 fittedGroups = 0;
    for (auto &[key, data] : grouped) {
        KernelModel m;
        m.issue = fitTerm(data.issue);
        m.mem = fitTerm(data.mem);
        m.lds = fitTerm(data.lds);
        m.latency = fitTerm(data.latency);
        m.launch = fitTerm(data.launch);
        m.points = data.issue.size();
        m.launches = data.launches;
        m.cvRelErr = std::max({m.issue.cvRelErr, m.mem.cvRelErr,
                               m.lds.cvRelErr, m.latency.cvRelErr,
                               m.launch.cvRelErr});

        // Piecewise refinement: refit every term over the points that
        // share one item count, where each term is exactly
        // clock-separable.  Ordered map keeps the vector sorted.
        std::map<double, std::vector<size_t>> byItems;
        for (size_t i = 0; i < data.issue.size(); ++i)
            byItems[data.issue[i].items].push_back(i);
        if (byItems.size() > 1) {
            m.refined.reserve(byItems.size());
            std::vector<FitPoint> sub;
            for (const auto &[n, idx] : byItems) {
                ItemsFit f;
                f.items = n;
                f.points = idx.size();
                const auto refit =
                    [&](const std::vector<FitPoint> &all) {
                        sub.clear();
                        for (const size_t i : idx)
                            sub.push_back(all[i]);
                        return fitTerm(sub);
                    };
                f.issue = refit(data.issue);
                f.mem = refit(data.mem);
                f.lds = refit(data.lds);
                f.latency = refit(data.latency);
                f.launch = refit(data.launch);
                m.refined.push_back(std::move(f));
            }
        }
        double composedMax = 0.0;
        for (size_t i = 0; i < data.issue.size(); ++i) {
            const FitPoint &at = data.issue[i];
            const Prediction p =
                m.predict(at.items, at.coreMhz, at.memMhz);
            const double actual = data.totals[i];
            const double denom = std::max(std::fabs(actual), 1e-18);
            composedMax = std::max(
                composedMax, std::fabs(p.seconds - actual) / denom);
        }
        m.trainRelErr = composedMax;

        std::sort(data.anchors.begin(), data.anchors.end(),
                  [](const Anchor &a, const Anchor &b) {
                      return std::tie(a.items, a.coreMhz, a.memMhz) <
                             std::tie(b.items, b.coreMhz, b.memMhz);
                  });
        fitted[key] = m;
        anchors[key] = std::move(data.anchors);
        ++fittedGroups;
    }
    return fittedGroups;
}

const KernelModel *Surrogate::group(const GroupKey &key) const
{
    const auto it = fitted.find(key);
    return it == fitted.end() ? nullptr : &it->second;
}

const KernelModel *Surrogate::findGroup(const std::string &kernel,
                                        const std::string &device,
                                        u32 precisionBits,
                                        const std::string &model,
                                        GroupKey *keyOut) const
{
    const KernelModel *best = nullptr;
    const GroupKey *bestKey = nullptr;
    for (const auto &[key, m] : fitted) {
        if (key.kernel != kernel || key.device != device ||
            key.precisionBits != precisionBits)
            continue;
        if (!model.empty() && key.model != model)
            continue;
        if (best == nullptr || m.launches > best->launches) {
            best = &m;
            bestKey = &key;
        }
    }
    if (best != nullptr && keyOut != nullptr)
        *keyOut = *bestKey;
    return best;
}

std::optional<Prediction> Surrogate::predict(const GroupKey &key,
                                             double items,
                                             double coreMhz,
                                             double memMhz) const
{
    const KernelModel *m = group(key);
    if (m == nullptr)
        return std::nullopt;
    return m->predict(items, coreMhz, memMhz);
}

std::optional<double> Surrogate::anchorSeconds(const GroupKey &key,
                                               u64 items, double coreMhz,
                                               double memMhz) const
{
    const auto it = anchors.find(key);
    if (it == anchors.end())
        return std::nullopt;
    for (const Anchor &a : it->second)
        if (a.items == items && a.coreMhz == coreMhz &&
            a.memMhz == memMhz)
            return a.seconds;
    return std::nullopt;
}

const std::vector<Anchor> *Surrogate::anchorsOf(const GroupKey &key) const
{
    const auto it = anchors.find(key);
    return it == anchors.end() ? nullptr : &it->second;
}

std::optional<Split> Surrogate::splitRatio(const GroupKey &first,
                                           double coreA, double memA,
                                           const GroupKey &second,
                                           double coreB, double memB,
                                           double items) const
{
    const KernelModel *a = group(first);
    const KernelModel *b = group(second);
    if (a == nullptr || b == nullptr || items <= 0.0)
        return std::nullopt;

    // firstSeconds(x*n) grows with x while secondSeconds((1-x)*n)
    // shrinks, so the minimax sits where the difference crosses zero.
    double lo = 0.0;
    double hi = 1.0;
    for (int iter = 0; iter < 64; ++iter) {
        const double mid = 0.5 * (lo + hi);
        const double ta =
            a->predict(mid * items, coreA, memA).seconds;
        const double tb =
            b->predict((1.0 - mid) * items, coreB, memB).seconds;
        if (ta < tb)
            lo = mid;
        else
            hi = mid;
    }

    Split out;
    out.firstShare = 0.5 * (lo + hi);
    out.first = a->predict(out.firstShare * items, coreA, memA);
    out.second =
        b->predict((1.0 - out.firstShare) * items, coreB, memB);
    out.seconds = std::max(out.first.seconds, out.second.seconds);
    return out;
}

void Surrogate::setJobCost(const std::string &jobClass,
                           const std::string &device, double seconds)
{
    jobCosts[{jobClass, device}] = seconds;
}

std::optional<double> Surrogate::jobCost(const std::string &jobClass,
                                         const std::string &device) const
{
    const auto it = jobCosts.find({jobClass, device});
    if (it == jobCosts.end())
        return std::nullopt;
    return it->second;
}

u64 Surrogate::anchorCount() const
{
    u64 n = 0;
    for (const auto &[key, list] : anchors)
        n += list.size();
    return n;
}

u64 Surrogate::refineCount() const
{
    u64 n = 0;
    for (const auto &[key, m] : fitted)
        n += m.refined.size();
    return n;
}

u64 Surrogate::fitDigest() const
{
    sim::HashMix mix;
    mix.mix(fitted.size());
    for (const auto &[key, m] : fitted) {
        mix.mixString(key.kernel);
        mix.mixString(key.device);
        mix.mixString(key.model);
        mix.mix(key.precisionBits);
        mix.mix(key.workgroup);
        mixTerm(mix, m.issue);
        mixTerm(mix, m.mem);
        mixTerm(mix, m.lds);
        mixTerm(mix, m.latency);
        mixTerm(mix, m.launch);
        mix.mix(m.refined.size());
        for (const ItemsFit &f : m.refined) {
            mix.mixDouble(f.items);
            mix.mix(f.points);
            mixTerm(mix, f.issue);
            mixTerm(mix, f.mem);
            mixTerm(mix, f.lds);
            mixTerm(mix, f.latency);
            mixTerm(mix, f.launch);
        }
        mix.mix(m.points);
        mix.mix(m.launches);
    }
    mix.mix(anchorCount());
    for (const auto &[key, list] : anchors) {
        mix.mixString(key.kernel);
        for (const Anchor &a : list) {
            mix.mix(a.items);
            mix.mixDouble(a.coreMhz);
            mix.mixDouble(a.memMhz);
            mix.mix(a.launches);
            mix.mixDouble(a.seconds);
            mix.mixDouble(a.varSeconds);
        }
    }
    mix.mix(jobCosts.size());
    for (const auto &[key, seconds] : jobCosts) {
        mix.mixString(key.first);
        mix.mixString(key.second);
        mix.mixDouble(seconds);
    }
    return mix.digest();
}

void Surrogate::save(std::ostream &os) const
{
    os << std::setprecision(17);
    os << "{\"schema\":\"" << kSchema << "\",\"groups\":" << fitted.size()
       << ",\"refines\":" << refineCount()
       << ",\"anchors\":" << anchorCount()
       << ",\"job_costs\":" << jobCosts.size() << ",\"fit_digest\":\""
       << hexDigest(fitDigest()) << "\"}\n";

    const auto &grid = hypothesisGrid();
    const auto putKey = [&os](const GroupKey &key) {
        os << ",\"kernel\":";
        json::writeString(os, key.kernel);
        os << ",\"device\":";
        json::writeString(os, key.device);
        os << ",\"model\":";
        json::writeString(os, key.model);
        os << ",\"precision_bits\":" << key.precisionBits
           << ",\"workgroup\":" << key.workgroup;
    };
    const auto putTerms = [&os, &grid](std::initializer_list<TermRef> terms) {
        for (const TermRef &t : terms) {
            os << ",\"" << t.name << "_hyp\":\""
               << grid[static_cast<size_t>(t.fit->hypothesis)].name
               << "\"";
            const char suffix[] = {'a', 'b', 'c', 'd'};
            for (int j = 0; j < kBasisTerms; ++j)
                os << ",\"" << t.name << '_' << suffix[j]
                   << "\":" << t.fit->coef[j];
        }
    };
    for (const auto &[key, m] : fitted) {
        os << "{\"record\":\"group\"";
        putKey(key);
        os << ",\"points\":" << m.points << ",\"launches\":" << m.launches
           << ",\"cv_rel_err\":" << m.cvRelErr
           << ",\"train_rel_err\":" << m.trainRelErr;
        putTerms({{"issue", &m.issue},
                  {"mem", &m.mem},
                  {"lds", &m.lds},
                  {"latency", &m.latency},
                  {"launch", &m.launch}});
        os << "}\n";
        for (const ItemsFit &f : m.refined) {
            os << "{\"record\":\"refine\"";
            putKey(key);
            os << ",\"items\":" << f.items << ",\"points\":" << f.points;
            putTerms({{"issue", &f.issue},
                      {"mem", &f.mem},
                      {"lds", &f.lds},
                      {"latency", &f.latency},
                      {"launch", &f.launch}});
            os << "}\n";
        }
    }

    for (const auto &[key, list] : anchors) {
        for (const Anchor &a : list) {
            os << "{\"record\":\"anchor\",\"kernel\":";
            json::writeString(os, key.kernel);
            os << ",\"device\":";
            json::writeString(os, key.device);
            os << ",\"model\":";
            json::writeString(os, key.model);
            os << ",\"precision_bits\":" << key.precisionBits
               << ",\"workgroup\":" << key.workgroup
               << ",\"items\":" << a.items
               << ",\"core_mhz\":" << a.coreMhz
               << ",\"mem_mhz\":" << a.memMhz
               << ",\"launches\":" << a.launches
               << ",\"seconds\":" << a.seconds
               << ",\"var_seconds\":" << a.varSeconds << "}\n";
        }
    }

    for (const auto &[key, seconds] : jobCosts) {
        os << "{\"record\":\"job_cost\",\"class\":";
        json::writeString(os, key.first);
        os << ",\"device\":";
        json::writeString(os, key.second);
        os << ",\"seconds\":" << seconds << "}\n";
    }
}

bool Surrogate::load(std::istream &is, const std::string &name,
                     std::string &error)
{
    fitted.clear();
    anchors.clear();
    jobCosts.clear();

    std::string line;
    u64 lineNo = 0;
    bool sawHeader = false;
    while (std::getline(is, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        std::string parseError;
        const auto obj = json::parseFlatObject(line, parseError);
        if (!obj) {
            error = name + " line " + std::to_string(lineNo) + ": " +
                    parseError;
            fitted.clear();
            anchors.clear();
            jobCosts.clear();
            return false;
        }
        Fields f(*obj, name, lineNo, error);

        if (!sawHeader) {
            std::string schema;
            if (!f.str("schema", schema))
                break;
            if (schema != kSchema) {
                f.fail("unsupported schema \"" + schema +
                       "\" (want \"" + std::string(kSchema) + "\")");
                break;
            }
            sawHeader = true;
            continue;
        }

        std::string record;
        if (!f.str("record", record))
            break;

        if (record == "group") {
            GroupKey key;
            if (!groupKeyFields(f, key))
                break;
            KernelModel m;
            if (!f.uint("points", m.points) ||
                !f.uint("launches", m.launches) ||
                !f.num("cv_rel_err", m.cvRelErr) ||
                !f.num("train_rel_err", m.trainRelErr))
                break;
            if (!termFields(f, {{"issue", &m.issue},
                                {"mem", &m.mem},
                                {"lds", &m.lds},
                                {"latency", &m.latency},
                                {"launch", &m.launch}}))
                break;
            if (fitted.count(key) != 0) {
                f.fail("duplicate group for kernel \"" + key.kernel +
                       "\"");
                break;
            }
            fitted[key] = m;
            continue;
        }

        if (record == "refine") {
            GroupKey key;
            if (!groupKeyFields(f, key))
                break;
            const auto it = fitted.find(key);
            if (it == fitted.end()) {
                f.fail("refine record before its group (kernel \"" +
                       key.kernel + "\")");
                break;
            }
            ItemsFit fit;
            if (!f.num("items", fit.items) ||
                !f.uint("points", fit.points))
                break;
            if (!termFields(f, {{"issue", &fit.issue},
                                {"mem", &fit.mem},
                                {"lds", &fit.lds},
                                {"latency", &fit.latency},
                                {"launch", &fit.launch}}))
                break;
            it->second.refined.push_back(std::move(fit));
            continue;
        }

        if (record == "anchor") {
            GroupKey key;
            if (!groupKeyFields(f, key))
                break;
            Anchor a;
            if (!f.uint("items", a.items) ||
                !f.num("core_mhz", a.coreMhz) ||
                !f.num("mem_mhz", a.memMhz) ||
                !f.uint("launches", a.launches) ||
                !f.num("seconds", a.seconds) ||
                !f.num("var_seconds", a.varSeconds))
                break;
            anchors[key].push_back(a);
            continue;
        }

        if (record == "job_cost") {
            std::string cls;
            std::string device;
            double seconds = 0.0;
            if (!f.str("class", cls) || !f.str("device", device) ||
                !f.num("seconds", seconds))
                break;
            jobCosts[{cls, device}] = seconds;
            continue;
        }

        f.fail("unknown record kind \"" + record + "\"");
        break;
    }

    if (error.empty() && !sawHeader)
        error = name + ": empty model file (missing header line)";
    if (!error.empty()) {
        fitted.clear();
        anchors.clear();
        jobCosts.clear();
        return false;
    }
    // predict() bisects refinements by items; saved files are already
    // ordered, this tolerates hand-edited ones.
    for (auto &[key, m] : fitted)
        std::stable_sort(m.refined.begin(), m.refined.end(),
                         [](const ItemsFit &a, const ItemsFit &b) {
                             return a.items < b.items;
                         });
    return true;
}

std::optional<std::vector<obs::ObsRecord>>
loadObservations(std::istream &is, const std::string &name,
                 std::string &error)
{
    std::vector<obs::ObsRecord> records;
    std::string line;
    u64 lineNo = 0;
    while (std::getline(is, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        std::string parseError;
        const auto obj = json::parseFlatObject(line, parseError);
        if (!obj) {
            error = name + " line " + std::to_string(lineNo) + ": " +
                    parseError;
            return std::nullopt;
        }
        Fields f(*obj, name, lineNo, error);
        obs::ObsRecord rec;
        u64 precision = 0;
        u64 workgroup = 0;
        if (!f.str("kernel", rec.kernel) ||
            !f.str("device", rec.device) ||
            !f.str("model", rec.model) ||
            !f.uint("precision_bits", precision) ||
            !f.uint("items", rec.items) ||
            !f.num("core_mhz", rec.coreMhz) ||
            !f.num("mem_mhz", rec.memMhz) ||
            !f.uint("workgroup", workgroup) ||
            !f.uint("launches", rec.launches) ||
            !f.num("seconds", rec.seconds) ||
            !f.num("issue_seconds", rec.issueSeconds) ||
            !f.num("mem_seconds", rec.memSeconds) ||
            !f.num("lds_seconds", rec.ldsSeconds) ||
            !f.num("latency_seconds", rec.latencySeconds) ||
            !f.num("launch_seconds", rec.launchSeconds))
            return std::nullopt;
        rec.precisionBits = static_cast<u32>(precision);
        rec.workgroup = static_cast<u32>(workgroup);
        rec.meanSeconds =
            rec.launches > 0
                ? rec.seconds / static_cast<double>(rec.launches)
                : 0.0;
        double varSeconds = 0.0;
        if (!f.optionalNum("mean_seconds", rec.meanSeconds) ||
            !f.optionalNum("var_seconds", varSeconds))
            return std::nullopt;
        rec.m2Seconds = varSeconds * static_cast<double>(rec.launches);
        if (f.has("bound") && !f.str("bound", rec.bound))
            return std::nullopt;
        records.push_back(std::move(rec));
    }
    return records;
}

} // namespace hetsim::model
