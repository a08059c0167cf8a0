#include "sim/mining_scheduler.hpp"

#include <numeric>
#include <stdexcept>
#include <string>

namespace bng::sim {

MiningScheduler::MiningScheduler(net::EventQueue& queue,
                                 std::vector<protocol::BaseNode*> miners,
                                 std::vector<double> powers, Seconds mean_interval, Rng rng)
    : queue_(queue),
      miners_(std::move(miners)),
      powers_(std::move(powers)),
      mean_interval_(mean_interval),
      rng_(rng) {
  if (miners_.size() != powers_.size())
    throw std::invalid_argument("MiningScheduler: miners/powers size mismatch");
  if (miners_.empty()) throw std::invalid_argument("MiningScheduler: no miners");
  if (mean_interval_ <= 0) throw std::invalid_argument("MiningScheduler: bad interval");
  for (std::size_t i = 0; i < powers_.size(); ++i)
    if (powers_[i] < 0)
      throw std::invalid_argument("MiningScheduler: negative power for miner " +
                                  std::to_string(i));
  total_power_ = std::accumulate(powers_.begin(), powers_.end(), 0.0);
  if (total_power_ <= 0) throw std::invalid_argument("MiningScheduler: zero total power");
  initial_total_power_ = total_power_;
}

void MiningScheduler::start() {
  if (started_) return;
  started_ = true;
  schedule_next();
}

void MiningScheduler::set_power(std::uint32_t miner, double power) {
  if (miner >= powers_.size()) throw std::out_of_range("MiningScheduler: bad miner");
  if (power < 0) throw std::invalid_argument("MiningScheduler: negative power");
  total_power_ += power - powers_[miner];
  powers_[miner] = power;
}

void MiningScheduler::enable_difficulty(chain::RetargetRule rule) {
  // Difficulty in units of (power * seconds): initial value makes the
  // starting interval exactly mean_interval_.
  difficulty_.emplace(total_power_ * mean_interval_, rule);
}

double MiningScheduler::current_difficulty() const {
  return difficulty_ ? difficulty_->difficulty() : total_power_ * mean_interval_;
}

Seconds MiningScheduler::current_mean_interval() const {
  if (!difficulty_) return mean_interval_;
  return difficulty_->difficulty() / total_power_;
}

std::uint32_t MiningScheduler::pick_miner() {
  double u = rng_.uniform() * total_power_;
  double acc = 0;
  for (std::uint32_t i = 0; i < powers_.size(); ++i) {
    acc += powers_[i];
    if (u < acc) return i;
  }
  return static_cast<std::uint32_t>(powers_.size() - 1);  // rounding tail
}

void MiningScheduler::schedule_next() {
  if (stopped_) return;
  const Seconds wait = rng_.exponential(current_mean_interval());
  queue_.schedule_in(wait, [this] {
    if (stopped_) return;
    const std::uint32_t miner = pick_miner();
    ++wins_;
    if (difficulty_) difficulty_->on_block(queue_.now());
    // Work in difficulty units; 1.0 per block when difficulty is static.
    const double work = difficulty_
                            ? difficulty_->difficulty() / (initial_total_power_ * mean_interval_)
                            : 1.0;
    miners_[miner]->on_mining_win(work);
    if (on_win) on_win(miner, queue_.now());
    schedule_next();
  });
}

}  // namespace bng::sim
