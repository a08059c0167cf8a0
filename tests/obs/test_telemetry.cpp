// The `--stats-json` report must stay valid JSON whatever the scenario and
// worker names hold: both are escaped like the sweep artifacts escape them,
// and neither is cut short by a fixed-size format buffer. Its peak RSS is
// the reporting program's own.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
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
  telemetry.add_phase_ms(30.0, 4.0, 1.0);
  telemetry.add_phase_ms(31.0, 5.5, 2.0);
  telemetry.add_pool(8560, 2375);
  telemetry.add_pool(1240, 164);
  const std::string json = telemetry.to_json("s", /*wall_s=*/1.0);

  const std::size_t phases = json.find("\"phases\": {");
  ASSERT_NE(phases, std::string::npos) << json;
  const std::string phase_json = json.substr(phases, json.find('}', phases) - phases);
  EXPECT_DOUBLE_EQ(std::stod(field(phase_json, "workload_ms")), 12.75) << json;
  EXPECT_DOUBLE_EQ(std::stod(field(phase_json, "simulate_ms")), 61.0) << json;
  EXPECT_DOUBLE_EQ(std::stod(field(phase_json, "metrics_ms")), 3.0) << json;
  EXPECT_DOUBLE_EQ(std::stod(field(phase_json, "build_ms")), 9.5) << json;
  EXPECT_NE(json.find("\"pool\": {\"txs\": 9800, \"built\": 2539}"), std::string::npos)
      << json;

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

TEST(SweepTelemetry, PeakRssIsTheProgramsOwnNotItsParentsBeforeExec) {
  // A parent holding kHeld resident bytes execs ngsim on a tiny scenario.
  // getrusage's ru_maxrss would keep the pre-exec image's high-water mark
  // and report at least kHeld; the program's own peak is a few MB.
  constexpr std::size_t kHeld = std::size_t{96} << 20;
  if (!std::filesystem::exists("/proc/self/status"))
    GTEST_SKIP() << "no /proc/self/status: the ru_maxrss fallback keeps the pre-exec image";
  const std::filesystem::path dir = std::filesystem::temp_directory_path() /
                                    ("bng_peak_rss_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string stats = (dir / "stats.json").string();
  const std::string out = (dir / "out").string();
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    char* held = static_cast<char*>(std::malloc(kHeld));
    if (held == nullptr) ::_exit(101);
    std::memset(held, 1, kHeld);
    asm volatile("" : : "r"(held) : "memory");  // keep the pages touched
    if (std::freopen("/dev/null", "w", stdout) == nullptr) ::_exit(102);
    ::execl(BNG_NGSIM_PATH, "ngsim", "--scenario", "smoke", "--nodes", "8", "--blocks", "1",
            "--seeds", "1", "--jobs", "1", "--no-table", "--out", out.c_str(),
            "--stats-json", stats.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << status;
  ASSERT_EQ(WEXITSTATUS(status), 0);
  std::ifstream in(stats);
  std::stringstream json;
  json << in.rdbuf();
  const std::string peak = field(json.str(), "rss_peak_mb");
  std::filesystem::remove_all(dir);
  ASSERT_FALSE(peak.empty()) << json.str();
  EXPECT_GT(std::stod(peak), 0.0);
  EXPECT_LT(std::stod(peak), 32.0) << "a parent's " << (kHeld >> 20)
                                   << " MB counted as ngsim's own peak";
}

}  // namespace
}  // namespace bng::obs
