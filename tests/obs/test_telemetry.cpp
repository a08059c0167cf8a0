// The `--stats-json` report must stay valid JSON whatever the scenario and
// worker names hold: both are escaped like the sweep artifacts escape them,
// and neither is cut short by a fixed-size format buffer.
#include <gtest/gtest.h>

#include <string>

#include "crypto/sha256.hpp"
#include "obs/telemetry.hpp"

namespace bng::obs {
namespace {

/// The raw value of the first `"key": value` pair in `json`, up to the next
/// ',', '}' or newline: enough to read a scalar of the report.
std::string field(const std::string& json, const std::string& key) {
  const std::string tag = "\"" + key + "\": ";
  const std::size_t at = json.find(tag);
  if (at == std::string::npos) return "";
  const std::size_t from = at + tag.size();
  return json.substr(from, json.find_first_of(",}\n", from) - from);
}

TEST(SweepTelemetry, ReportsTheWorkloadBuildAndTheSha256Kernel) {
  SweepTelemetry telemetry;
  telemetry.start(2);
  telemetry.add_workload_ms(12.5);  // two pools, each built once
  telemetry.add_workload_ms(0.25);
  telemetry.add_phase_ms(30.0, 1.0);
  telemetry.add_phase_ms(31.0, 2.0);
  const std::string json = telemetry.to_json("s", /*wall_s=*/1.0);

  const std::size_t phases = json.find("\"phases\": {");
  ASSERT_NE(phases, std::string::npos) << json;
  const std::string phase_json = json.substr(phases, json.find('}', phases) - phases);
  EXPECT_DOUBLE_EQ(std::stod(field(phase_json, "workload_ms")), 12.75) << json;
  EXPECT_DOUBLE_EQ(std::stod(field(phase_json, "simulate_ms")), 61.0) << json;
  EXPECT_DOUBLE_EQ(std::stod(field(phase_json, "metrics_ms")), 3.0) << json;

  const std::string kernel = field(json, "sha256");
  EXPECT_EQ(kernel,
            std::string("\"") + crypto::sha256_kernel_name(crypto::sha256_kernel()) + "\"")
      << json;
  EXPECT_TRUE(kernel == "\"sha-ni\"" || kernel == "\"portable\"") << kernel;
}

TEST(SweepTelemetry, ScenarioNameAndEndpointsAreJsonEscaped) {
  SweepTelemetry telemetry;
  telemetry.init_workers({"we\"ird\\host:9700"});
  const std::string tail(1000, 'n');  // longer than any format buffer
  const std::string json = telemetry.to_json("q\"uote\\x" + tail, /*wall_s=*/1.0);
  EXPECT_NE(json.find("\"scenario\": \"q\\\"uote\\\\x" + tail + "\",\n"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("{\"endpoint\": \"we\\\"ird\\\\host:9700\", \"alive\": false"),
            std::string::npos)
      << json;
}

}  // namespace
}  // namespace bng::obs
