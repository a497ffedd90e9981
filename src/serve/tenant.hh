/**
 * @file
 * hetsim::serve - multi-tenant policy table.
 *
 * Tenancy is a label on the JobSpec (`tenant`, default "" = the
 * anonymous tenant).  The TenantTable maps tenant names to scheduling
 * policy: a fair-share *weight* (how big a slice of dequeue bandwidth
 * the tenant gets under contention).  Tenants that never appear in the
 * table run with weight 1, so single-tenant workloads dequeue in plain
 * submit order.
 *
 * The server dequeues by weighted virtual time: each tenant accrues
 * served/weight "virtual service" per dispatched job and the tenant
 * with the smallest accrual (ties: lexicographically first name) goes
 * next.  Within a tenant, the oldest job goes first.  The rule depends
 * only on dispatch counts - never on host timing - so scheduling
 * decisions are deterministic.
 */

#ifndef HETSIM_SERVE_TENANT_HH
#define HETSIM_SERVE_TENANT_HH

#include <map>
#include <string>

#include "common/types.hh"

namespace hetsim::serve
{

/** Scheduling policy of one tenant. */
struct TenantPolicy
{
    /** Fair-share weight (> 0); dequeue bandwidth is proportional. */
    double weight = 1.0;
};

/** Tenant name -> policy, with defaults for unlisted tenants. */
class TenantTable
{
  public:
    /**
     * Merge a `--tenants` weight spec, e.g. "acme:3,hooli:1".
     * Weights must be finite and > 0.  @return false and set
     * @p error on a malformed spec (table left unchanged).
     */
    bool applyWeights(const std::string &spec, std::string &error);

    /** @return the policy for @p tenant (defaults when unlisted). */
    TenantPolicy policy(const std::string &tenant) const;

  private:
    std::map<std::string, TenantPolicy> policies;
};

} // namespace hetsim::serve

#endif // HETSIM_SERVE_TENANT_HH
