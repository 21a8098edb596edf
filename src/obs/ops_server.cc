#include "obs/ops_server.h"

#include <chrono>

#include "common/clock.h"
#include "common/thread_pool.h"
#include "obs/health.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/run_report.h"
#include "obs/trace.h"

namespace maroon {
namespace obs {

namespace {

constexpr char kPrometheusContentType[] =
    "text/plain; version=0.0.4; charset=utf-8";
constexpr char kJsonContentType[] = "application/json; charset=utf-8";

void WriteHealthJson(JsonWriter* w) {
  HealthRegistry& health = HealthRegistry::Global();
  w->Key("overall").String(HealthStateName(health.Overall()));
  w->Key("ready").Bool(health.ready());
  w->Key("components").BeginObject();
  for (const auto& [name, component] : health.Components()) {
    w->Key(name).BeginObject();
    w->Key("state").String(HealthStateName(component.state));
    w->Key("detail").String(component.detail);
    w->Key("age_s").Number(component.age_s);
    w->EndObject();
  }
  w->EndObject();
}

}  // namespace

Result<std::unique_ptr<OpsServer>> OpsServer::Start(OpsServerOptions options) {
  RegisterBuildMetrics();
  std::unique_ptr<OpsServer> ops(new OpsServer(std::move(options)));
  auto server = net::HttpServer::Start(
      ops->options_.http,
      // The ops server outlives the HTTP server (it owns it and Stop()
      // joins every worker), so the raw pointer capture is safe.
      [raw = ops.get()](const net::HttpRequest& request) {
        return raw->Handle(request);
      });
  if (!server.ok()) return server.status();
  ops->server_ = std::move(server.value());
  return ops;
}

OpsServer::OpsServer(OpsServerOptions options)
    : options_(std::move(options)), started_at_(Iso8601UtcNow()) {}

OpsServer::~OpsServer() { Stop(); }

void OpsServer::Stop() {
  if (server_ != nullptr) server_->Stop();
}

net::HttpResponse OpsServer::Handle(const net::HttpRequest& request) const {
  MAROON_TRACE_SPAN("ops.request");
  if (request.path == "/metrics") return Metrics();
  if (request.path == "/varz") return Varz();
  if (request.path == "/healthz") return Healthz();
  if (request.path == "/readyz") return Readyz();
  if (request.path == "/statusz") return Statusz();
  if (request.path == "/tracez") return Tracez();
  if (request.path == "/") return Index();
  net::HttpResponse response;
  response.status = 404;
  response.body = "no route '" + request.path + "'; see / for the index\n";
  return response;
}

net::HttpResponse OpsServer::Metrics() const {
  Counter* scrapes = MAROON_COUNTER("maroon.ops.scrapes");
  Histogram* latency = MAROON_HISTOGRAM("maroon.ops.scrape_seconds");
  const auto start = std::chrono::steady_clock::now();
  net::HttpResponse response;
  response.content_type = kPrometheusContentType;
  response.body = PrometheusTextFromGlobal();
  scrapes->Add(1);
  latency->Record(SecondsSince(start));
  return response;
}

net::HttpResponse OpsServer::Varz() const {
  net::HttpResponse response;
  response.content_type = kJsonContentType;
  response.body = MetricsRegistry::Global().SnapshotJson();
  return response;
}

net::HttpResponse OpsServer::Healthz() const {
  JsonWriter w;
  w.BeginObject();
  WriteHealthJson(&w);
  w.EndObject();
  net::HttpResponse response;
  // DEGRADED still serves 200: the process is doing useful work and a
  // restart would not improve it. Only a latched UNHEALTHY flips the probe.
  response.status =
      HealthRegistry::Global().Overall() == HealthState::kUnhealthy ? 503
                                                                    : 200;
  response.content_type = kJsonContentType;
  response.body = w.text();
  return response;
}

net::HttpResponse OpsServer::Readyz() const {
  HealthRegistry& health = HealthRegistry::Global();
  const bool ready =
      health.ready() && health.Overall() == HealthState::kOk;
  net::HttpResponse response;
  response.status = ready ? 200 : 503;
  response.body = ready ? "ready\n" : "not ready\n";
  return response;
}

net::HttpResponse OpsServer::Statusz() const {
  const net::HttpServerStats stats =
      server_ == nullptr ? net::HttpServerStats{} : server_->stats();
  JsonWriter w;
  w.BeginObject();
  w.Key("version").String(BuildVersion());
  w.Key("revision").String(BuildRevision());
  w.Key("started_at").String(started_at_);
  w.Key("uptime_s").Number(ProcessUptimeSeconds());
  w.Key("threads").Int(ThreadPool::DefaultThreadCount());
  w.Key("config").BeginObject();
  for (const auto& [key, value] : options_.statusz_config) {
    w.Key(key).String(value);
  }
  w.EndObject();
  w.Key("http").BeginObject();
  w.Key("accepted").Int(stats.accepted);
  w.Key("served").Int(stats.served);
  w.Key("rejected_overload").Int(stats.rejected_overload);
  w.Key("timeouts").Int(stats.timeouts);
  w.Key("bad_requests").Int(stats.bad_requests);
  w.EndObject();
  WriteHealthJson(&w);
  w.EndObject();
  net::HttpResponse response;
  response.content_type = kJsonContentType;
  response.body = w.text();
  return response;
}

net::HttpResponse OpsServer::Tracez() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("ring_enabled").Bool(Tracer::RingEnabled());
  w.Key("span_count").Int(static_cast<int64_t>(Tracer::RingSpanCount()));
  w.Key("capacity").Int(static_cast<int64_t>(Tracer::kRingCapacity));
  w.Key("spans").BeginArray();
  for (const SpanRecord& span : Tracer::RingSnapshot()) {
    w.BeginObject();
    w.Key("name").String(span.name);
    w.Key("start_us").Number(span.start_us);
    w.Key("duration_us").Number(span.duration_us);
    w.Key("tid").Int(span.tid);
    w.Key("depth").Int(span.depth);
    w.Key("pool_worker").Bool(span.pool_worker);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  net::HttpResponse response;
  response.content_type = kJsonContentType;
  response.body = w.text();
  return response;
}

net::HttpResponse OpsServer::Index() const {
  net::HttpResponse response;
  response.body =
      "maroon ops plane\n"
      "  /metrics   Prometheus 0.0.4 exposition\n"
      "  /varz      metrics snapshot as JSON\n"
      "  /healthz   component health (503 when UNHEALTHY)\n"
      "  /readyz    readiness probe (503 until ready)\n"
      "  /statusz   build, uptime, config, server stats\n"
      "  /tracez    recent completed spans\n";
  return response;
}

}  // namespace obs
}  // namespace maroon
