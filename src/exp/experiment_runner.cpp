#include "exp/experiment_runner.hpp"

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

u64 ExperimentGrid::size() const noexcept {
  return static_cast<u64>(configs_.size()) * workloads_.size() *
         policies_.size();
}

std::vector<ExperimentPoint> ExperimentGrid::expand() const {
  std::vector<ExperimentPoint> points;
  points.reserve(size());
  for (const auto& cfg : configs_) {
    for (const auto& wl : workloads_) {
      for (const auto kind : policies_) {
        ExperimentPoint p;
        p.index = points.size();
        p.config = cfg;
        p.workload = wl;
        p.policy = kind;
        p.chip_seed = chip_seed_;
        p.trace_seed = trace_seed_;
        p.params = params_;
        points.push_back(std::move(p));
      }
    }
  }
  return points;
}

}  // namespace pcs
