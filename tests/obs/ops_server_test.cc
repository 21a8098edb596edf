#include "obs/ops_server.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "net/http_client.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/trace.h"

namespace maroon {
namespace obs {
namespace {

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

class OpsServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::SetEnabled(true);
    MetricsRegistry::Global().ResetAll();
    HealthRegistry::Global().Clear();
    Tracer::SetRingEnabled(false);
  }
  void TearDown() override {
    Tracer::SetRingEnabled(false);
    HealthRegistry::Global().Clear();
    MetricsRegistry::Global().ResetAll();
  }

  std::unique_ptr<OpsServer> StartServer() {
    OpsServerOptions options;
    options.http.port = 0;
    options.statusz_config = {{"command", "test"}, {"data", "/tmp/x"}};
    auto server = OpsServer::Start(std::move(options));
    EXPECT_TRUE(server.ok()) << server.status();
    return server.ok() ? std::move(server.value()) : nullptr;
  }

  static net::HttpRequest Get(const std::string& path) {
    net::HttpRequest request;
    request.method = "GET";
    request.target = path;
    request.path = path;
    return request;
  }
};

TEST_F(OpsServerTest, MetricsRouteRendersPrometheusAndLintsClean) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  MAROON_COUNTER("maroon.test.ops_counter")->Add(3);
  MAROON_HISTOGRAM("maroon.test.ops_seconds")->Record(0.002);
  const net::HttpResponse response = server->Handle(Get("/metrics"));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type,
            "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_TRUE(Contains(response.body, "maroon_test_ops_counter 3\n"))
      << response.body;
  // Start() registered the build metrics.
  EXPECT_TRUE(Contains(response.body, "maroon_build_info{version="))
      << response.body;
  EXPECT_TRUE(Contains(response.body, "maroon_uptime_seconds"))
      << response.body;
  // The exposition passes the exporter lint — the same check CI's
  // ops-smoke job runs against a live scrape.
  const auto problems = PrometheusLint(response.body);
  EXPECT_TRUE(problems.empty())
      << problems.size() << " problems, first: " << problems.front();
}

TEST_F(OpsServerTest, MetricsRouteCountsScrapes) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  (void)server->Handle(Get("/metrics"));
  const net::HttpResponse second = server->Handle(Get("/metrics"));
  // The first scrape's counter increment is visible by the second scrape.
  EXPECT_TRUE(Contains(second.body, "maroon_ops_scrapes 1\n")) << second.body;
}

TEST_F(OpsServerTest, VarzRendersTheJsonSnapshot) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  MAROON_COUNTER("maroon.test.varz_counter")->Add(9);
  const net::HttpResponse response = server->Handle(Get("/varz"));
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(response.content_type, "application/json; charset=utf-8");
  EXPECT_TRUE(Contains(response.body, "\"maroon.test.varz_counter\": 9"))
      << response.body;
}

TEST_F(OpsServerTest, HealthzReflectsTheRegistry) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  HealthRegistry::Global().Set("wal", HealthState::kOk);
  net::HttpResponse response = server->Handle(Get("/healthz"));
  EXPECT_EQ(response.status, 200);
  EXPECT_TRUE(Contains(response.body, "\"overall\": \"OK\"")) << response.body;

  // DEGRADED still answers 200: restarting would not help.
  HealthRegistry::Global().Set("memory", HealthState::kDegraded, "at bound");
  response = server->Handle(Get("/healthz"));
  EXPECT_EQ(response.status, 200);
  EXPECT_TRUE(Contains(response.body, "\"overall\": \"DEGRADED\""))
      << response.body;
  EXPECT_TRUE(Contains(response.body, "\"detail\": \"at bound\""))
      << response.body;

  HealthRegistry::Global().Set("wal", HealthState::kUnhealthy,
                               "latched: IOError");
  response = server->Handle(Get("/healthz"));
  EXPECT_EQ(response.status, 503);
  EXPECT_TRUE(Contains(response.body, "\"overall\": \"UNHEALTHY\""))
      << response.body;
}

TEST_F(OpsServerTest, ReadyzDemandsReadyAndFullyHealthy) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->Handle(Get("/readyz")).status, 503);  // not marked ready
  HealthRegistry::Global().SetReady(true);
  EXPECT_EQ(server->Handle(Get("/readyz")).status, 200);
  // DEGRADED fails readiness even though /healthz still answers 200.
  HealthRegistry::Global().Set("memory", HealthState::kDegraded, "at bound");
  EXPECT_EQ(server->Handle(Get("/readyz")).status, 503);
}

TEST_F(OpsServerTest, StatuszCarriesBuildConfigAndServerStats) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  const net::HttpResponse response = server->Handle(Get("/statusz"));
  EXPECT_EQ(response.status, 200);
  EXPECT_TRUE(Contains(response.body, "\"version\": \"")) << response.body;
  EXPECT_TRUE(Contains(response.body, "\"revision\": \"")) << response.body;
  EXPECT_TRUE(Contains(response.body, "\"uptime_s\": ")) << response.body;
  EXPECT_TRUE(Contains(response.body, "\"command\": \"test\""))
      << response.body;
  EXPECT_TRUE(Contains(response.body, "\"data\": \"/tmp/x\""))
      << response.body;
  EXPECT_TRUE(Contains(response.body, "\"accepted\": ")) << response.body;
}

TEST_F(OpsServerTest, TracezRendersTheRing) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  net::HttpResponse response = server->Handle(Get("/tracez"));
  EXPECT_TRUE(Contains(response.body, "\"ring_enabled\": false"))
      << response.body;

  Tracer::SetRingEnabled(true);
  { MAROON_TRACE_SPAN("test.tracez_span"); }
  response = server->Handle(Get("/tracez"));
  EXPECT_TRUE(Contains(response.body, "\"ring_enabled\": true"))
      << response.body;
  EXPECT_TRUE(Contains(response.body, "\"name\": \"test.tracez_span\""))
      << response.body;
  // Handle() itself opens an "ops.request" span, which lands in the ring.
  response = server->Handle(Get("/tracez"));
  EXPECT_TRUE(Contains(response.body, "\"name\": \"ops.request\""))
      << response.body;
}

TEST_F(OpsServerTest, UnknownRouteIs404AndIndexListsRoutes) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->Handle(Get("/nope")).status, 404);
  const net::HttpResponse index = server->Handle(Get("/"));
  EXPECT_EQ(index.status, 200);
  EXPECT_TRUE(Contains(index.body, "/metrics")) << index.body;
  EXPECT_TRUE(Contains(index.body, "/healthz")) << index.body;
  EXPECT_TRUE(Contains(index.body, "/tracez")) << index.body;
}

TEST_F(OpsServerTest, EndToEndOverARealSocket) {
  auto server = StartServer();
  ASSERT_NE(server, nullptr);
  ASSERT_GT(server->port(), 0);
  MAROON_COUNTER("maroon.test.e2e_counter")->Add(5);
  auto response = net::HttpGet("127.0.0.1", server->port(), "/metrics");
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->status, 200);
  EXPECT_TRUE(Contains(response->body, "maroon_test_e2e_counter 5\n"))
      << response->body;
  auto healthz = net::HttpGet("127.0.0.1", server->port(), "/healthz");
  ASSERT_TRUE(healthz.ok()) << healthz.status();
  EXPECT_EQ(healthz->status, 200);
  server->Stop();
  EXPECT_GE(server->http_stats().served, 2);
}

}  // namespace
}  // namespace obs
}  // namespace maroon
