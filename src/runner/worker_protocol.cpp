#include "runner/worker_protocol.hpp"

#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <stdexcept>

#include "runner/executor.hpp"
#include "sim/experiment.hpp"

namespace bng::runner {

using wire::put_u16;
using wire::put_u32;

std::string handshake_payload(const ScenarioSource& source, bool share_workload,
                              WorkerHooks hooks, std::uint32_t heartbeat_ms) {
  std::string p;
  p.push_back(static_cast<char>(FrameKind::kHandshake));
  put_u16(p, kRecordCodecVersion);
  p.push_back(source.kind == ScenarioSource::Kind::kBuiltin ? 0 : 1);
  put_u32(p, static_cast<std::uint32_t>(source.ref.size()));
  p += source.ref;
  put_u32(p, source.knobs.nodes);
  put_u32(p, source.knobs.blocks);
  p.push_back(share_workload ? 1 : 0);
  put_u32(p, hooks.kill_after);
  put_u32(p, hooks.hang_after);
  put_u32(p, heartbeat_ms);
  return p;
}

std::string job_payload(std::uint32_t point, std::uint32_t ordinal) {
  std::string p;
  p.push_back(static_cast<char>(FrameKind::kJob));
  put_u32(p, point);
  put_u32(p, ordinal);
  return p;
}

std::string error_payload(std::string_view message) {
  std::string p;
  p.push_back(static_cast<char>(FrameKind::kError));
  p += message;
  return p;
}

std::string heartbeat_payload() {
  return std::string(1, static_cast<char>(FrameKind::kHeartbeat));
}

std::string heartbeat_payload(const obs::WorkerStatsFrame& stats) {
  std::string p;
  p.push_back(static_cast<char>(FrameKind::kHeartbeat));
  put_u32(p, stats.jobs_done);
  put_u32(p, stats.pool_rebuilds);
  wire::put_u64(p, stats.busy_ms);
  return p;
}

std::optional<obs::WorkerStatsFrame> parse_heartbeat_stats(wire::Reader& in) {
  if (in.pos >= in.data.size()) return std::nullopt;  // bare beacon
  obs::WorkerStatsFrame f;
  f.jobs_done = in.u32();
  f.pool_rebuilds = in.u32();
  f.busy_ms = in.u64();
  return f;
}

obs::WorkerStatsFrame WorkerState::stats_frame() const {
  obs::WorkerStatsFrame f;
  f.jobs_done = jobs_done.load(std::memory_order_relaxed);
  f.pool_rebuilds = pool_rebuilds.load(std::memory_order_relaxed);
  f.busy_ms = busy_ms.load(std::memory_order_relaxed);
  return f;
}

void worker_handshake(WorkerState& st, wire::Reader& in) {
  const std::uint16_t version = in.u16();
  if (version != kRecordCodecVersion)
    throw CodecError("worker speaks codec version " +
                     std::to_string(kRecordCodecVersion) + ", dispatcher sent " +
                     std::to_string(version));
  const std::uint8_t kind = in.u8();
  const std::uint32_t ref_len = in.u32();
  const std::string ref = in.str(ref_len);
  RunKnobs knobs;
  knobs.nodes = in.u32();
  knobs.blocks = in.u32();
  st.share_workload = in.u8() != 0;
  st.hooks.kill_after = in.u32();
  st.hooks.hang_after = in.u32();
  st.heartbeat_ms = in.u32();
  if (kind == 0) {
    st.scenario = make_scenario(ref, knobs);
    if (!st.scenario)
      throw std::runtime_error("worker: unknown scenario '" + ref + "'");
  } else {
    st.scenario = load_scenario_string(ref, "<inline>", knobs);
  }
  st.points = expand(*st.scenario);
}

bool worker_job(WorkerState& st, wire::Reader& in, const SendPayload& send) {
  if (!st.scenario) throw std::runtime_error("worker: job before handshake");
  const std::uint32_t point = in.u32();
  const std::uint32_t ordinal = in.u32();
  if (point >= st.points.size())
    throw std::runtime_error("worker: job point out of range");
  if (st.hooks.kill_after != kHookDisabled && st.jobs_done >= st.hooks.kill_after)
    ::raise(SIGKILL);  // test hook: die mid-job, record unsent
  if (st.hooks.hang_after != kHookDisabled && st.jobs_done >= st.hooks.hang_after) {
    // Test hook: hang, not die — the heartbeat thread (if any) keeps
    // beating, so only a per-job deadline can catch this worker.
    for (;;) ::usleep(50'000);
  }
  const auto t0 = std::chrono::steady_clock::now();
  if (st.share_workload) {
    // Keyed by workload digest, not point index: consecutive jobs whose
    // points share workload inputs reuse the pool. Seed-independent pure
    // function of those inputs (see the thread executor): rebuilt pools are
    // bit-identical across workers.
    const std::uint64_t digest = sim::workload_digest(st.points[point].config);
    if (!st.pool || st.pool_digest != digest) {
      st.pool = sim::build_shared_workload(st.points[point].config);
      st.pool_digest = digest;
      st.pool_rebuilds.fetch_add(1, std::memory_order_relaxed);
    }
  }
  RunRecord rec = run_job(*st.scenario, st.points[point], point, ordinal,
                          st.share_workload ? st.pool : nullptr);
  st.jobs_done.fetch_add(1, std::memory_order_relaxed);
  st.busy_ms.fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()),
      std::memory_order_relaxed);
  std::string payload;
  payload.push_back(static_cast<char>(FrameKind::kRecord));
  payload += encode_record(rec);
  return send(payload);
}

}  // namespace bng::runner
