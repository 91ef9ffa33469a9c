#include "server/admission.hpp"

#include <algorithm>

#include "common/clock.hpp"
#include "telemetry/telemetry.hpp"

namespace laminar::server {
namespace {

std::string TenantLabel(const std::string& tenant) {
  return "tenant=\"" + tenant + '"';
}

telemetry::Counter& RequestCounter(const std::string& tenant) {
  return telemetry::MetricsRegistry::Global().GetCounter(
      "laminar_tenant_requests_total", TenantLabel(tenant));
}

telemetry::Counter& ThrottledCounter(const std::string& tenant) {
  return telemetry::MetricsRegistry::Global().GetCounter(
      "laminar_tenant_throttled_total", TenantLabel(tenant));
}

}  // namespace

bool ValidTenantName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

AdmissionController::AdmissionController(
    TenantQuotas defaults, std::map<std::string, TenantQuotas> overrides)
    : defaults_(defaults), overrides_(std::move(overrides)) {}

const TenantQuotas& AdmissionController::QuotasFor(
    const std::string& tenant) const {
  auto it = overrides_.find(tenant);
  return it != overrides_.end() ? it->second : defaults_;
}

Status AdmissionController::AdmitRequest(const std::string& tenant,
                                         double* retry_after_ms) {
  const TenantQuotas& quotas = QuotasFor(tenant);
  {
    std::scoped_lock lock(mu_);
    TenantCounters& c = tenants_[tenant];
    ++c.requests;
    if (quotas.requests_per_sec > 0.0) {
      const double capacity = quotas.burst > 0.0 ? quotas.burst
                                                 : quotas.requests_per_sec;
      int64_t now_us = NowMicros();
      if (!c.bucket_primed) {
        c.tokens = capacity;
        c.bucket_primed = true;
      } else {
        double elapsed_s =
            static_cast<double>(now_us - c.last_refill_us) / 1e6;
        c.tokens = std::min(capacity,
                            c.tokens + elapsed_s * quotas.requests_per_sec);
      }
      c.last_refill_us = now_us;
      if (c.tokens < 1.0) {
        ++c.throttled;
        if (retry_after_ms != nullptr) {
          *retry_after_ms =
              (1.0 - c.tokens) / quotas.requests_per_sec * 1000.0;
        }
        ThrottledCounter(tenant).Inc();
        RequestCounter(tenant).Inc();
        return Status::ResourceExhausted("tenant '" + tenant +
                                         "' request rate limit exceeded");
      }
      c.tokens -= 1.0;
    }
  }
  RequestCounter(tenant).Inc();
  return Status::Ok();
}

Status AdmissionController::AdmitPes(const std::string& tenant,
                                     int64_t current,
                                     int64_t additional) const {
  const TenantQuotas& quotas = QuotasFor(tenant);
  if (quotas.max_pes <= 0 || current + additional <= quotas.max_pes) {
    return Status::Ok();
  }
  return Status::ResourceExhausted(
      "tenant '" + tenant + "' PE quota exceeded (" + std::to_string(current) +
      "/" + std::to_string(quotas.max_pes) + ")");
}

Status AdmissionController::AdmitWorkflows(const std::string& tenant,
                                           int64_t current,
                                           int64_t additional) const {
  const TenantQuotas& quotas = QuotasFor(tenant);
  if (quotas.max_workflows <= 0 ||
      current + additional <= quotas.max_workflows) {
    return Status::Ok();
  }
  return Status::ResourceExhausted(
      "tenant '" + tenant + "' workflow quota exceeded (" +
      std::to_string(current) + "/" + std::to_string(quotas.max_workflows) +
      ")");
}

void AdmissionController::RecordRunOutcome(const std::string& tenant,
                                           bool ok) {
  {
    std::scoped_lock lock(mu_);
    TenantCounters& c = tenants_[tenant];
    if (ok) {
      ++c.runs_succeeded;
    } else {
      ++c.runs_failed;
    }
  }
  telemetry::MetricsRegistry::Global()
      .GetCounter("laminar_tenant_exec_total",
                  TenantLabel(tenant) + ",outcome=\"" +
                      (ok ? "ok" : "error") + '"')
      .Inc();
}

Value AdmissionController::StatsJson(
    const std::map<std::string, registry::TenantRows>& rows) const {
  std::map<std::string, TenantCounters> all;
  {
    std::scoped_lock lock(mu_);
    all = tenants_;
  }
  for (const auto& entry : rows) all[entry.first];  // rows, no requests
  Value out = Value::MakeObject();
  for (const auto& [tenant, c] : all) {
    auto owned = rows.find(tenant);
    Value t = Value::MakeObject();
    t["requests"] = static_cast<int64_t>(c.requests);
    t["throttled"] = static_cast<int64_t>(c.throttled);
    t["pes"] = owned != rows.end() ? owned->second.pes : 0;
    t["workflows"] = owned != rows.end() ? owned->second.workflows : 0;
    t["runsSucceeded"] = static_cast<int64_t>(c.runs_succeeded);
    t["runsFailed"] = static_cast<int64_t>(c.runs_failed);
    out[tenant] = std::move(t);
  }
  return out;
}

}  // namespace laminar::server
