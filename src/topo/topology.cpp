#include "topo/topology.hpp"

#include "util/error.hpp"
#include "util/table.hpp"

namespace bitio::topo {

Cluster Cluster::flat() {
  Cluster c;
  c.name = "flat";
  c.ranks_per_node = 0;
  c.numa_per_node = 1;
  c.nics_per_node = 1;
  return c;
}

Cluster Cluster::dardel_like() {
  Cluster c;
  c.name = "dardel";
  c.ranks_per_node = 128;
  c.numa_per_node = 8;
  c.nics_per_node = 1;
  return c;
}

namespace {

/// The built-in presets, in preset_names() order.  Each factory spells its
/// own name (Cluster::name), so the names exist exactly once.
constexpr Cluster (*kPresets[])() = {Cluster::flat, Cluster::dardel_like};

}  // namespace

Cluster Cluster::preset(const std::string& name) {
  for (const auto make : kPresets)
    if (Cluster cluster = make(); cluster.name == name) return cluster;
  throw UsageError("topo::Cluster::preset: unknown topology \"" + name +
                   "\" (presets: " + quoted_list(preset_names()) + ")");
}

void Cluster::validate() const {
  if (ranks_per_node < 0)
    throw UsageError("topo::Cluster: ranks_per_node must be >= 0 (0 = flat)");
  if (numa_per_node < 1)
    throw UsageError("topo::Cluster: numa_per_node must be >= 1");
  if (nics_per_node < 1)
    throw UsageError("topo::Cluster: nics_per_node must be >= 1");
  if (ranks_per_node > 0 && numa_per_node > ranks_per_node)
    throw UsageError(
        "topo::Cluster: numa_per_node exceeds ranks_per_node — a NUMA "
        "domain would hold no ranks");
  if (ranks_per_node > 0 && ranks_per_node % numa_per_node != 0)
    throw UsageError(
        "topo::Cluster: numa_per_node must divide ranks_per_node evenly");
}

std::vector<std::string> preset_names() {
  std::vector<std::string> names;
  for (const auto make : kPresets) names.push_back(make().name);
  return names;
}

Mapper::Mapper(Cluster cluster, int nranks)
    : cluster_(std::move(cluster)), nranks_(nranks) {
  if (nranks_ <= 0) throw UsageError("topo::Mapper: nranks must be > 0");
  cluster_.validate();
  ranks_per_node_ =
      cluster_.ranks_per_node > 0 ? cluster_.ranks_per_node : nranks_;
  nodes_ = (nranks_ + ranks_per_node_ - 1) / ranks_per_node_;
}

void Mapper::require_rank(int rank) const {
  if (rank < 0 || rank >= nranks_)
    throw UsageError("topo::Mapper: rank out of range");
}

void Mapper::require_node(int node) const {
  if (node < 0 || node >= nodes_)
    throw UsageError("topo::Mapper: node out of range");
}

int Mapper::ranks_on_node(int node) const {
  require_node(node);
  const int first = node * ranks_per_node_;
  const int remaining = nranks_ - first;
  return remaining < ranks_per_node_ ? remaining : ranks_per_node_;
}

int Mapper::node_of(int rank) const {
  require_rank(rank);
  return rank / ranks_per_node_;
}

int Mapper::numa_of(int rank) const {
  require_rank(rank);
  const int within = rank % ranks_per_node_;
  const int per_numa =
      ranks_per_node_ / cluster_.numa_per_node > 0
          ? ranks_per_node_ / cluster_.numa_per_node
          : 1;
  const int numa = within / per_numa;
  // Remainder ranks of an uneven split fold into the last domain.
  return numa < cluster_.numa_per_node ? numa : cluster_.numa_per_node - 1;
}

int Mapper::nic_of(int rank) const {
  require_rank(rank);
  return (rank % ranks_per_node_) % cluster_.nics_per_node;
}

int Mapper::node_leader(int node) const {
  require_node(node);
  return node * ranks_per_node_;
}

}  // namespace bitio::topo
