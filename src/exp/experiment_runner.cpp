#include "exp/experiment_runner.hpp"

#include "util/rng.hpp"

namespace pcs {

ExperimentGrid& ExperimentGrid::add_config(const SystemConfig& cfg) {
  configs_.push_back(cfg);
  return *this;
}

ExperimentGrid& ExperimentGrid::add_workload(const std::string& name) {
  workloads_.push_back(name);
  return *this;
}

ExperimentGrid& ExperimentGrid::add_workloads(
    const std::vector<std::string>& names) {
  workloads_.insert(workloads_.end(), names.begin(), names.end());
  return *this;
}

ExperimentGrid& ExperimentGrid::add_policy(PolicyKind kind) {
  policies_.push_back(kind);
  return *this;
}

ExperimentGrid& ExperimentGrid::seeds(u64 chip_seed, u64 trace_seed) {
  chip_seed_ = chip_seed;
  trace_seed_ = trace_seed;
  return *this;
}

ExperimentGrid& ExperimentGrid::params(const RunParams& rp) {
  params_ = rp;
  return *this;
}

ExperimentGrid& ExperimentGrid::replicates(u32 n) {
  replicates_ = n < 1 ? 1 : n;
  return *this;
}

ExperimentGrid& ExperimentGrid::seed_scheme(SeedScheme scheme) {
  scheme_ = scheme;
  return *this;
}

u64 ExperimentGrid::size() const noexcept {
  return static_cast<u64>(configs_.size()) * workloads_.size() *
         policies_.size() * replicates_;
}

std::vector<ExperimentPoint> ExperimentGrid::expand() const {
  std::vector<ExperimentPoint> points;
  points.reserve(size());
  u64 index = 0;
  for (const auto& cfg : configs_) {
    for (const auto& wl : workloads_) {
      for (const auto kind : policies_) {
        for (u32 rep = 0; rep < replicates_; ++rep) {
          ExperimentPoint p;
          p.index = index;
          p.config = cfg;
          p.workload = wl;
          p.policy = kind;
          if (scheme_ == SeedScheme::kShared) {
            p.chip_seed = chip_seed_;
            p.trace_seed = trace_seed_;
          } else {
            p.chip_seed = derive_seed(chip_seed_, trace_seed_, index);
            p.trace_seed = derive_seed(trace_seed_, chip_seed_, index);
          }
          p.params = params_;
          points.push_back(std::move(p));
          ++index;
        }
      }
    }
  }
  return points;
}

RunAggregator::RunAggregator(u64 num_tasks)
    : rows_(num_tasks), errors_(num_tasks) {}

void RunAggregator::put(u64 index, SimReport report) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    rows_[index] = std::move(report);
    ++filled_;
  }
  cv_.notify_one();
}

void RunAggregator::put_error(u64 index, std::exception_ptr error) noexcept {
  {
    std::lock_guard<std::mutex> lk(mu_);
    errors_[index] = std::move(error);
    ++filled_;
  }
  cv_.notify_one();
}

std::vector<SimReport> RunAggregator::wait() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait(lk, [this] { return filled_ == rows_.size(); });
  for (const auto& e : errors_) {
    if (e) std::rethrow_exception(e);
  }
  return std::move(rows_);
}

}  // namespace pcs
