#include "protocol/withholding.hpp"

#include <algorithm>
#include <utility>

#include "obs/trace_ring.hpp"

namespace bng::protocol {

namespace {
void trace_decision(obs::TraceRing* ring, obs::TraceKind kind, NodeId self, BlockId id) {
  if (ring != nullptr && ring->wants(obs::kTraceAdversary))
    ring->record(obs::kTraceAdversary, kind, self, id);
}
}  // namespace

WithholdingStrategy::WithholdingStrategy(const chain::BlockTree& tree,
                                         std::function<void(BlockId)> publish, Mode mode)
    : tree_(tree), publish_(std::move(publish)), mode_(mode) {}

bool WithholdingStrategy::is_private(BlockId id) const {
  return std::find(private_blocks_.begin(), private_blocks_.end(), id) !=
         private_blocks_.end();
}

void WithholdingStrategy::begin_own_win() { processing_own_win_ = true; }

void WithholdingStrategy::end_own_win() {
  processing_own_win_ = false;
  private_blocks_.push_back(tree_.best_tip());
  trace_decision(trace_ring_, obs::TraceKind::kWithhold, self_, private_blocks_.back());

  // State 0' -> win: we were racing head-to-head and just mined on our own
  // branch. SM1 publishes and takes both blocks' rewards; the stubborn
  // variant keeps the fresh lead private and goes on withholding.
  if (racing_ && private_work() > race_work_) {
    if (mode_ == Mode::kSm1) publish_all();
    racing_ = false;
  }
}

bool WithholdingStrategy::extends_private_tip(BlockId id) const {
  if (private_blocks_.empty()) return false;
  const BlockId last_private = private_blocks_.back();
  return tree_.contains_id(last_private) && tree_.is_ancestor(last_private, id);
}

bool WithholdingStrategy::suppress_relay(BlockId id, bool own) const {
  if (processing_own_win_) return true;  // own block being mined right now
  if (is_private(id)) return true;
  // An own block extending the private tip is private-to-be: on_accept will
  // register it, but the relay decision happens first (see the header).
  return own && extends_private_tip(id);
}

void WithholdingStrategy::on_accept(BlockId id, bool own) {
  if (processing_own_win_) return;  // our own freshly-withheld block
  if (is_private(id)) return;

  if (own && extends_private_tip(id)) {
    // A zero-weight block we built on our own private chain (an NG
    // microblock during a withheld epoch): it stays private, publishing
    // together with its key block. PoW protocols never reach this branch —
    // own wins only arrive inside the begin/end_own_win bracket.
    private_blocks_.push_back(id);
    trace_decision(trace_ring_, obs::TraceKind::kWithhold, self_, id);
    return;
  }

  // A public block arrived (honest, or one we published ourselves).
  public_best_work_ = std::max(public_best_work_, tree_.facts(id).chain_work);
  if (racing_ && public_best_work_ > race_work_) racing_ = false;  // race resolved
  if (private_blocks_.empty()) return;

  const double lead = private_work() - public_best_work_;
  if (lead < 0) {
    // The public chain overtook us: our withheld blocks are worthless.
    abandon_private_chain();
  } else if (lead == 0) {
    // They caught up: reveal everything; the network splits (gamma under the
    // honest nodes' tie-break rule) and the race is on.
    race_work_ = private_work();
    publish_all();
    racing_ = true;
  } else if (lead == 1 && mode_ == Mode::kSm1) {
    // We lead by exactly one after their find: reveal all and win outright.
    publish_all();
  } else if (lead == 1) {
    // Lead-stubborn: refuse the safe cash-out. Reveal only the block that
    // matches the public height and race at that level with the newest block
    // still withheld.
    race_work_ = public_best_work_;
    publish_until(public_best_work_);
    racing_ = true;
  } else {
    // Comfortable lead: reveal just enough to match the public height and
    // keep the honest network wasting work on a losing branch.
    publish_until(public_best_work_);
  }
}

void WithholdingStrategy::publish_until(double target_work) {
  while (!private_blocks_.empty()) {
    const BlockId id = private_blocks_.front();
    if (!tree_.contains_id(id)) {
      private_blocks_.pop_front();
      continue;
    }
    if (tree_.facts(id).chain_work > target_work) break;
    private_blocks_.pop_front();
    ++blocks_published_;
    trace_decision(trace_ring_, obs::TraceKind::kRelease, self_, id);
    publish_(id);
  }
}

void WithholdingStrategy::publish_all() {
  while (!private_blocks_.empty()) {
    const BlockId id = private_blocks_.front();
    private_blocks_.pop_front();
    if (tree_.contains_id(id)) {
      ++blocks_published_;
      trace_decision(trace_ring_, obs::TraceKind::kRelease, self_, id);
      publish_(id);
    }
  }
}

void WithholdingStrategy::abandon_private_chain() {
  if (!private_blocks_.empty()) {
    ++branches_abandoned_;
    trace_decision(trace_ring_, obs::TraceKind::kAbandon, self_, private_blocks_.front());
  }
  private_blocks_.clear();
}

}  // namespace bng::protocol
