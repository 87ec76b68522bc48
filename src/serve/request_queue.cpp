#include "serve/request_queue.hpp"

namespace safenn::serve {

const char* to_string(ServeOutcome outcome) {
  switch (outcome) {
    case ServeOutcome::kServed: return "served";
    case ServeOutcome::kClamped: return "clamped";
    case ServeOutcome::kDegraded: return "degraded";
    case ServeOutcome::kRejected: return "rejected";
  }
  return "?";
}

RequestQueue::RequestQueue(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

bool RequestQueue::try_push(ServeRequest&& request) {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_ || items_.size() >= capacity_) return false;
  items_.push_back(std::move(request));
  return true;
}

bool RequestQueue::push(ServeRequest&& request) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!closed_ && items_.size() >= capacity_) {
    ++waiting_pushers_;
    not_full_.wait(lock,
                   [this] { return closed_ || items_.size() < capacity_; });
    --waiting_pushers_;
  }
  if (closed_) return false;
  items_.push_back(std::move(request));
  return true;
}

std::size_t RequestQueue::try_pop_batch(std::vector<ServeRequest>& out,
                                        std::size_t max_batch) {
  if (max_batch == 0) max_batch = 1;
  std::size_t taken = 0;
  bool had_waiters = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    while (taken < max_batch && !items_.empty()) {
      out.push_back(std::move(items_.front()));
      items_.pop_front();
      ++taken;
    }
    had_waiters = waiting_pushers_ > 0;
  }
  if (taken == 0 || !had_waiters) return taken;
  // One freed slot admits one blocked producer; a multi-slot drain wakes
  // them all (each rechecks capacity under the lock).
  if (taken == 1) {
    not_full_.notify_one();
  } else {
    not_full_.notify_all();
  }
  return taken;
}

void RequestQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  not_full_.notify_all();
}

bool RequestQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

std::size_t RequestQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return items_.size();
}

}  // namespace safenn::serve
