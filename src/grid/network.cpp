#include "grid/network.hpp"

#include <queue>

#include "util/error.hpp"

namespace gridse::grid {

BusIndex Network::add_bus(Bus bus) {
  const auto idx = static_cast<BusIndex>(buses_.size());
  const auto [it, inserted] = external_index_.emplace(bus.external_id, idx);
  if (!inserted) {
    throw InvalidInput("duplicate external bus id " +
                       std::to_string(bus.external_id));
  }
  buses_.push_back(std::move(bus));
  incident_.emplace_back();
  return idx;
}

void Network::add_branch(Branch branch) {
  if (branch.from < 0 || branch.from >= num_buses() || branch.to < 0 ||
      branch.to >= num_buses()) {
    throw InvalidInput("branch endpoint out of range");
  }
  if (branch.from == branch.to) {
    throw InvalidInput("branch endpoints must differ");
  }
  if (branch.r == 0.0 && branch.x == 0.0) {
    throw InvalidInput("branch has zero series impedance");
  }
  if (branch.tap <= 0.0) {
    throw InvalidInput("branch tap ratio must be positive");
  }
  const auto idx = branches_.size();
  branches_.push_back(branch);
  incident_[static_cast<std::size_t>(branch.from)].push_back(idx);
  incident_[static_cast<std::size_t>(branch.to)].push_back(idx);
}

void Network::add_generation(BusIndex i, double p_gen, double q_gen) {
  GRIDSE_CHECK(i >= 0 && i < num_buses());
  buses_[static_cast<std::size_t>(i)].p_gen += p_gen;
  buses_[static_cast<std::size_t>(i)].q_gen += q_gen;
}

void Network::set_bus_type(BusIndex i, BusType type, double v_setpoint) {
  GRIDSE_CHECK(i >= 0 && i < num_buses());
  GRIDSE_CHECK_MSG(v_setpoint > 0.0, "voltage setpoint must be positive");
  buses_[static_cast<std::size_t>(i)].type = type;
  buses_[static_cast<std::size_t>(i)].v_setpoint = v_setpoint;
}

void Network::scale_loads(double factor) {
  GRIDSE_CHECK_MSG(factor > 0.0, "load scale factor must be positive");
  for (Bus& b : buses_) {
    b.p_load *= factor;
    b.q_load *= factor;
    b.p_gen *= factor;
    b.q_gen *= factor;
  }
}

void Network::set_branch_in_service(std::size_t i, bool in_service) {
  GRIDSE_CHECK(i < branches_.size());
  branches_[i].in_service = in_service;
}

const Bus& Network::bus(BusIndex i) const {
  GRIDSE_CHECK(i >= 0 && i < num_buses());
  return buses_[static_cast<std::size_t>(i)];
}

const Branch& Network::branch(std::size_t i) const {
  GRIDSE_CHECK(i < branches_.size());
  return branches_[i];
}

BusIndex Network::index_of(int external_id) const {
  const auto it = external_index_.find(external_id);
  if (it == external_index_.end()) {
    throw InvalidInput("unknown external bus id " +
                       std::to_string(external_id));
  }
  return it->second;
}

BusIndex Network::slack_bus() const {
  BusIndex slack = -1;
  for (BusIndex i = 0; i < num_buses(); ++i) {
    if (buses_[static_cast<std::size_t>(i)].type == BusType::kSlack) {
      if (slack >= 0) {
        throw InvalidInput("network has more than one slack bus");
      }
      slack = i;
    }
  }
  if (slack < 0) {
    throw InvalidInput("network has no slack bus");
  }
  return slack;
}

const std::vector<std::size_t>& Network::branches_at(BusIndex i) const {
  GRIDSE_CHECK(i >= 0 && i < num_buses());
  return incident_[static_cast<std::size_t>(i)];
}

std::pair<double, double> Network::scheduled_injection(BusIndex i) const {
  const Bus& b = bus(i);
  return {b.p_gen - b.p_load, b.q_gen - b.q_load};
}

bool Network::connected() const {
  const BusIndex n = num_buses();
  if (n <= 1) return true;
  std::vector<bool> seen(static_cast<std::size_t>(n), false);
  std::queue<BusIndex> q;
  q.push(0);
  seen[0] = true;
  BusIndex count = 1;
  while (!q.empty()) {
    const BusIndex u = q.front();
    q.pop();
    for (const std::size_t bi : branches_at(u)) {
      const Branch& br = branches_[bi];
      const BusIndex v = (br.from == u) ? br.to : br.from;
      if (!seen[static_cast<std::size_t>(v)]) {
        seen[static_cast<std::size_t>(v)] = true;
        ++count;
        q.push(v);
      }
    }
  }
  return count == n;
}

void Network::validate() const {
  if (num_buses() == 0) {
    throw InvalidInput("network has no buses");
  }
  (void)slack_bus();  // throws unless exactly one
  if (!connected()) {
    throw InvalidInput("network is not connected");
  }
}

}  // namespace gridse::grid
