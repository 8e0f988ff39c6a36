#include "core/fairshare.hpp"

#include <stdexcept>

namespace psched {

FairshareTracker::FairshareTracker(double decay_factor, Time decay_period, Time start_time)
    : decay_factor_(decay_factor), decay_period_(decay_period), now_(start_time) {
  if (!(decay_factor > 0.0) || decay_factor > 1.0)
    throw std::invalid_argument("FairshareTracker: decay_factor must be in (0, 1]");
  if (decay_period <= 0) throw std::invalid_argument("FairshareTracker: decay_period must be > 0");
  // First boundary strictly after start_time, aligned to the period grid.
  next_decay_ = (util::floor_div(start_time, decay_period) + 1) * decay_period;
}

FairshareTracker::UserState& FairshareTracker::state(UserId user) {
  if (user < 0) throw std::invalid_argument("FairshareTracker: negative user id");
  const auto index = static_cast<std::size_t>(user);
  if (index >= users_.size()) users_.resize(index + 1);
  return users_[index];
}

void FairshareTracker::accrue(Time dt) {
  if (dt <= 0 || total_running_ == 0) return;
  const auto seconds = static_cast<double>(dt);
  for (UserState& u : users_)
    if (u.running > 0) u.usage += static_cast<double>(u.running) * seconds;
}

void FairshareTracker::advance(Time to) {
  if (to < now_) throw std::logic_error("FairshareTracker::advance: time went backwards");
  while (next_decay_ <= to) {
    accrue(next_decay_ - now_);
    now_ = next_decay_;
    double total = 0.0;  // mean over positive users, in user-index order
    std::size_t positive = 0;
    for (UserState& u : users_) {
      if (decay_factor_ < 1.0) u.usage *= decay_factor_;
      u.published = u.usage;  // boundary = priority refresh point
      if (u.published > 0.0) {
        total += u.published;
        ++positive;
      }
    }
    published_mean_ = positive == 0 ? 0.0 : total / static_cast<double>(positive);
    ++epoch_;
    next_decay_ += decay_period_;
  }
  accrue(to - now_);
  now_ = to;
}

void FairshareTracker::on_job_start(UserId user, NodeCount nodes) {
  if (nodes <= 0) throw std::invalid_argument("FairshareTracker: nodes must be positive");
  state(user).running += nodes;
  total_running_ += nodes;
}

void FairshareTracker::on_job_stop(UserId user, NodeCount nodes) {
  UserState& u = state(user);
  if (nodes <= 0 || u.running < nodes)
    throw std::logic_error("FairshareTracker::on_job_stop: releasing more than running");
  u.running -= nodes;
  total_running_ -= nodes;
}

double FairshareTracker::usage(UserId user) const {
  if (user < 0) return 0.0;
  const auto index = static_cast<std::size_t>(user);
  return index < users_.size() ? users_[index].published : 0.0;
}

}  // namespace psched
