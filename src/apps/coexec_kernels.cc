#include "coexec_kernels.hh"

#include <memory>

#include "apps/appsupport.hh"
#include "apps/minife/minife_core.hh"
#include "apps/readmem/readmem_core.hh"
#include "apps/xsbench/xsbench_core.hh"
#include "core/workload.hh"

namespace hetsim::apps::coex
{

namespace
{

template <typename Real>
coexec::CoKernel
makeReadmemImpl(double scale)
{
    auto prob = std::make_shared<readmem::Problem<Real>>(scale);

    coexec::CoKernel ck;
    ck.name = "readmem";
    ck.desc = prob->descriptor();
    ck.items = prob->items();
    // Each work-item streams one 64-element input block and writes
    // one output element.
    ck.h2dBytesPerItem =
        static_cast<double>(readmem::blockSize * sizeof(Real));
    ck.d2hBytesPerItem = static_cast<double>(sizeof(Real));
    ck.body = [prob](u64 begin, u64 end) {
        for (u64 i = begin; i < end; ++i) {
            Real sum = Real(0);
            const u64 base = i * readmem::blockSize;
            for (u64 j = 0; j < readmem::blockSize; ++j)
                sum += prob->in[base + j];
            prob->out[i] = sum;
        }
    };
    ck.validate = [prob] { return prob->out == prob->reference(); };
    ck.checksum = [prob] { return prob->checksum(); };
    return ck;
}

template <typename Real>
coexec::CoKernel
makeXsbenchImpl(double scale)
{
    auto prob = std::make_shared<xsbench::Problem<Real>>(
        xsbench::scaledGridpoints(scale),
        xsbench::scaledLookups(scale));

    coexec::CoKernel ck;
    ck.name = "xsbench";
    ck.desc = prob->descriptor();
    ck.items = prob->lookups;
    // Every device needs the whole unionized table: it is not
    // partitionable by lookup, so it stages once per discrete device
    // regardless of that device's share.
    ck.h2dBytesFixed = static_cast<double>(prob->tableBytes());
    ck.d2hBytesPerItem = static_cast<double>(sizeof(Real));
    ck.body = [prob](u64 begin, u64 end) {
        prob->macroXsLookup(begin, end);
    };
    ck.validate = [prob] {
        xsbench::Problem<Real> ref(prob->gridpointsPerNuclide,
                                   prob->lookups);
        xsbench::runReference(ref);
        return prob->results == ref.results;
    };
    ck.checksum = [prob] { return prob->checksum(); };
    return ck;
}

template <typename Real>
coexec::CoKernel
makeMinifeSpmvImpl(double scale)
{
    auto prob = std::make_shared<minife::Problem<Real>>(
        minife::scaledEdge(scale), 1);

    coexec::CoKernel ck;
    ck.name = "minife-spmv";
    ck.desc = prob->spmvDescriptor(minife::SpmvStyle::CsrAdaptive);
    ck.hints.useLds = true;
    ck.hints.tiled = true;
    ck.hints.hoistedInvariants = true;
    ck.items = prob->rows;
    // One work-item = one matrix row: its share of the CSR arrays is
    // partitionable, while the gathered p vector must be resident in
    // full on every discrete device.
    const double matrix_bytes =
        static_cast<double>(prob->vals.size() * sizeof(Real) +
                            prob->cols.size() * 4 +
                            prob->rowStart.size() * 4);
    ck.h2dBytesPerItem = matrix_bytes /
                         static_cast<double>(prob->rows);
    ck.h2dBytesFixed =
        static_cast<double>(prob->rows * sizeof(Real));
    ck.d2hBytesPerItem = static_cast<double>(sizeof(Real));
    ck.body = [prob](u64 begin, u64 end) { prob->spmv(begin, end); };
    ck.validate = [prob] {
        minife::Problem<Real> ref(prob->edge, prob->iterations);
        ref.spmv(0, ref.rows);
        return prob->ap == ref.ap;
    };
    ck.checksum = [prob] {
        double sum = 0.0;
        for (Real v : prob->ap)
            sum += static_cast<double>(v);
        return sum;
    };
    return ck;
}

} // namespace

coexec::CoKernel
makeReadmemCoKernel(double scale, Precision prec)
{
    return prec == Precision::Single ? makeReadmemImpl<float>(scale)
                                     : makeReadmemImpl<double>(scale);
}

coexec::CoKernel
makeXsbenchCoKernel(double scale, Precision prec)
{
    return prec == Precision::Single ? makeXsbenchImpl<float>(scale)
                                     : makeXsbenchImpl<double>(scale);
}

coexec::CoKernel
makeMinifeSpmvCoKernel(double scale, Precision prec)
{
    return prec == Precision::Single
               ? makeMinifeSpmvImpl<float>(scale)
               : makeMinifeSpmvImpl<double>(scale);
}

std::optional<coexec::CoKernel>
coKernelByName(const std::string &app, double scale, Precision prec)
{
    const core::AppEntry *row = core::appByName(app);
    if (!row || !row->coKernel)
        return std::nullopt;
    return row->coKernel(scale, prec);
}

} // namespace hetsim::apps::coex
