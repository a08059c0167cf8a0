// Simulated mining (paper §7 "Simulated Mining").
//
// "We replace the proof of work mechanism with a scheduler that triggers
// block generation at different miners with exponentially distributed
// intervals" — the regtest + in-situ-controller design. A global Poisson
// process at the target rate assigns each win to miner i with probability
// m(i)/Σm, which is statistically identical to independent per-miner
// exponential races.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "chain/difficulty.hpp"
#include "common/rng.hpp"
#include "net/event_queue.hpp"
#include "protocol/base_node.hpp"

namespace bng::sim {

class MiningScheduler {
 public:
  /// `miners[i]` wins with probability powers[i]/Σ. `mean_interval` is the
  /// target expected time between PoW blocks. Throws std::invalid_argument
  /// on a negative power (naming the miner) or a total that is not positive.
  MiningScheduler(net::EventQueue& queue, std::vector<protocol::BaseNode*> miners,
                  std::vector<double> powers, Seconds mean_interval, Rng rng);

  /// Begin scheduling wins. Idempotent.
  void start();

  /// Stop: no further wins are generated (pending win events still fire).
  void stop() { stopped_ = true; }

  /// Change a miner's power (churn experiments, §5.2). Takes effect for
  /// subsequent wins; in difficulty mode the win *rate* adapts too.
  void set_power(std::uint32_t miner, double power);

  /// Enable difficulty dynamics: the effective interval becomes
  /// difficulty / hash_rate, where hash_rate = Σ powers * hash_rate_scale,
  /// and difficulty retargets per `rule` on block generation timestamps.
  /// Initial difficulty is chosen so the starting interval equals
  /// `mean_interval`.
  void enable_difficulty(chain::RetargetRule rule);

  [[nodiscard]] std::uint64_t wins() const { return wins_; }
  [[nodiscard]] double total_power() const { return total_power_; }
  [[nodiscard]] double current_difficulty() const;
  [[nodiscard]] Seconds current_mean_interval() const;

  /// Invoked after every win (miner index, time).
  std::function<void(std::uint32_t, Seconds)> on_win;

 private:
  void schedule_next();
  std::uint32_t pick_miner();

  net::EventQueue& queue_;
  std::vector<protocol::BaseNode*> miners_;
  std::vector<double> powers_;
  double total_power_ = 0;
  Seconds mean_interval_;
  Rng rng_;
  bool started_ = false;
  bool stopped_ = false;
  std::uint64_t wins_ = 0;
  std::optional<chain::DifficultyTracker> difficulty_;
  double initial_total_power_ = 0;
};

}  // namespace bng::sim
