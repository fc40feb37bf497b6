#include "core/sampler.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/shutdown.h"

namespace agsc::core {

namespace {
// Stream ids for Rng(seed).Split(): worker w > 0 draws its sampling stream
// from id 2w and its environment stream from id 2w+1. Worker 0 uses the
// primary streams and owns no split ids.
uint64_t SampleStreamId(int w) { return 2 * static_cast<uint64_t>(w); }
uint64_t EnvStreamId(int w) { return 2 * static_cast<uint64_t>(w) + 1; }
}  // namespace

Sampler::CollectState::CollectState(int num_workers, int num_agents)
    : metrics(static_cast<size_t>(num_workers)),
      cur(static_cast<size_t>(num_workers)),
      nxt(static_cast<size_t>(num_workers)),
      he(static_cast<size_t>(num_workers),
         std::vector<std::vector<int>>(static_cast<size_t>(num_agents))),
      ho(static_cast<size_t>(num_workers),
         std::vector<std::vector<int>>(static_cast<size_t>(num_agents))),
      raw(static_cast<size_t>(num_workers),
          std::vector<std::array<float, 2>>(static_cast<size_t>(num_agents))),
      logps(static_cast<size_t>(num_workers),
            std::vector<float>(static_cast<size_t>(num_agents))),
      actions(static_cast<size_t>(num_workers),
              std::vector<env::UvAction>(static_cast<size_t>(num_agents))) {
  buffers.reserve(static_cast<size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) buffers.emplace_back(num_agents);
}

Sampler::Sampler(env::ScEnv& primary_env, util::Rng& primary_rng,
                 int num_workers, uint64_t seed)
    : primary_env_(primary_env),
      primary_rng_(primary_rng),
      num_workers_(num_workers),
      seed_(seed) {
  if (num_workers < 1) {
    throw std::invalid_argument("sampler: num_workers must be >= 1, got " +
                                std::to_string(num_workers));
  }
  const util::Rng base(seed);
  sample_rngs_.reserve(static_cast<size_t>(num_workers - 1));
  for (int w = 1; w < num_workers; ++w) {
    sample_rngs_.push_back(base.Split(SampleStreamId(w)));
  }
}

Sampler::~Sampler() = default;

util::Rng Sampler::InitialEnvStream(int w) const {
  return util::Rng(seed_).Split(EnvStreamId(w));
}

util::Rng& Sampler::sample_rng(int w) {
  return w == 0 ? primary_rng_ : sample_rngs_[static_cast<size_t>(w - 1)];
}

std::vector<util::Rng*> Sampler::SplitRngs() {
  std::vector<util::Rng*> rngs;
  rngs.reserve(2 * sample_rngs_.size());
  for (int w = 1; w < num_workers_; ++w) {
    rngs.push_back(&sample_rng(w));
    rngs.push_back(&env_stream(w));
  }
  return rngs;
}

void Sampler::AddFallbacks(Fallbacks bits) {
  fallbacks_ |= bits;
  ApplyEnvFallbacks(bits, primary_env_);
}

void Sampler::CheckStop(int round, int timeslot) const {
  if (stop_check_ && stop_check_()) {
    std::ostringstream msg;
    msg << "rollout interrupted by stop request (round " << round
        << ", timeslot " << timeslot << "); partial episodes discarded";
    throw util::InterruptedError(msg.str());
  }
}

void Sampler::CommitStep(CollectState& st, int w) {
  const size_t i = static_cast<size_t>(w);
  const env::StepResult& cur = st.cur[i];
  const env::StepResult& next = st.nxt[i];
  MultiAgentBuffer& b = st.buffers[i];
  for (size_t k = 0; k < b.agents.size(); ++k) {
    AgentRollout& ar = b.agents[k];
    ar.obs.push_back(cur.observations[k]);
    ar.next_obs.push_back(next.observations[k]);
    ar.action_dir.push_back(st.raw[i][k][0]);
    ar.action_speed.push_back(st.raw[i][k][1]);
    ar.logp_old.push_back(st.logps[i][k]);
    ar.reward_ext.push_back(static_cast<float>(next.rewards[k]));
    ar.he_neighbors.push_back(std::move(st.he[i][k]));
    ar.ho_neighbors.push_back(std::move(st.ho[i][k]));
    ar.done.push_back(next.done ? 1 : 0);
  }
  b.states.push_back(cur.state);
  b.next_states.push_back(next.state);
  b.done.push_back(next.done ? 1 : 0);
  if (next.done) st.running[i] = 0;
  std::swap(st.cur[i], st.nxt[i]);
}

void Sampler::Collect(int episodes, const BatchActFn& act,
                      MultiAgentBuffer& buffer,
                      std::vector<env::Metrics>& metrics) {
  if (episodes <= 0) return;
  const int num_agents = primary_env_.num_agents();
  const int w_count = num_workers_;
  auto st = std::make_shared<CollectState>(w_count, num_agents);

  // Reusable scratch for the batched action call — caller-thread only, so
  // it can stay on the stack.
  std::vector<const std::vector<std::vector<float>>*> obs;
  std::vector<util::Rng*> rngs;
  std::vector<std::vector<std::array<float, 2>>> batch_actions(
      static_cast<size_t>(num_agents));
  std::vector<std::vector<float>> batch_logps(static_cast<size_t>(num_agents));

  const int rounds = (episodes + w_count - 1) / w_count;
  for (int r = 0; r < rounds; ++r) {
    CheckStop(r, 0);
    const int active = std::min(w_count, episodes - r * w_count);
    ResetWorkers(st, active, r);
    st->running.assign(static_cast<size_t>(active), 1);
    for (int timeslot = 0;; ++timeslot) {
      st->run_ids.clear();
      for (int w = 0; w < active; ++w) {
        if (st->running[static_cast<size_t>(w)]) st->run_ids.push_back(w);
      }
      if (st->run_ids.empty()) break;
      CheckStop(r, timeslot);

      // One action call for every agent covering all running workers, each
      // row sampled from its own worker stream in ascending worker order.
      obs.clear();
      rngs.clear();
      for (int w : st->run_ids) {
        obs.push_back(&st->cur[static_cast<size_t>(w)].observations);
        rngs.push_back(&sample_rng(w));
      }
      for (int k = 0; k < num_agents; ++k) {
        batch_actions[static_cast<size_t>(k)].assign(st->run_ids.size(), {});
        batch_logps[static_cast<size_t>(k)].assign(st->run_ids.size(), 0.0f);
      }
      act(obs, rngs, batch_actions, batch_logps);
      for (int k = 0; k < num_agents; ++k) {
        const size_t ki = static_cast<size_t>(k);
        for (size_t i = 0; i < st->run_ids.size(); ++i) {
          const size_t w = static_cast<size_t>(st->run_ids[i]);
          const std::array<float, 2>& a = batch_actions[ki][i];
          st->raw[w][ki] = a;
          st->logps[w][ki] = batch_logps[ki][i];
          st->actions[w][ki] = {a[0], a[1]};
        }
      }
      StepWorkers(st, r, timeslot);
    }
  }

  // Every transport call has returned, so no task writes st any more and
  // the worker buffers can hand over their rows.
  for (int w = 0; w < w_count; ++w) {
    const size_t i = static_cast<size_t>(w);
    buffer.Append(std::move(st->buffers[i]));
    metrics.insert(metrics.end(), st->metrics[i].begin(),
                   st->metrics[i].end());
  }
}

}  // namespace agsc::core
