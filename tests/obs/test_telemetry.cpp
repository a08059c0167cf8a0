// The `--stats-json` report must stay valid JSON whatever the scenario and
// worker names hold: both are escaped like the sweep artifacts escape them,
// and neither is cut short by a fixed-size format buffer.
#include <gtest/gtest.h>

#include <string>

#include "obs/telemetry.hpp"

namespace bng::obs {
namespace {

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
