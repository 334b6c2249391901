#pragma once
// Declarative cluster-topology model for the two-level aggregation path.
//
// The paper's Fig 6 aggregator sweep treats all ranks as a flat pool, but
// the machines it targets are node-hierarchical: ranks share NUMA domains
// and NICs inside a node, and the inter-node links — not rank count —
// bound aggregation throughput.  `Cluster` declares that hierarchy (TOML-
// configured through core::Bit1IoConfig's `topology` / `numa_per_node` /
// `nics_per_node` keys, with presets for a flat pool and a Dardel-like
// machine) and `Mapper` places a concrete world of simulated ranks onto
// it: node / NUMA-domain / NIC of each rank, node leaders, and the
// intra-node vs inter-node distinction the bp::Writer gather path and the
// fsim timing replay both key off.
//
// A flat cluster (ranks_per_node == 0) puts every rank on one node, so no
// gather is ever modeled and the writer's trace — hence the container and
// every calibrated replay number — stays byte-identical to the
// pre-topology behavior.

#include <string>
#include <vector>

namespace bitio::topo {

/// Declarative cluster shape: how many ranks share a node, and how each
/// node subdivides into NUMA domains and NIC links.  Node *count* is not
/// part of the shape — it falls out of the world size when a Mapper is
/// built (ceil(nranks / ranks_per_node)).
struct Cluster {
  std::string name = "flat";
  // Ranks per node; 0 declares a flat (single-node) pool of any size.
  int ranks_per_node = 0;
  int numa_per_node = 1;  // NUMA domains per node
  int nics_per_node = 1;  // independent NIC links per node

  /// All ranks on one node: the historical flat-pool model.
  static Cluster flat();
  /// Dardel-like CPU partition: 128 ranks/node, 8 NUMA domains (Zen2
  /// chiplets), one Slingshot NIC.
  static Cluster dardel_like();
  /// Preset by name (one of preset_names(), which is also the list
  /// core::Bit1IoConfig::validate() accepts).  Throws UsageError for
  /// unknown names, listing the presets.
  static Cluster preset(const std::string& name);

  /// Does this shape ever place ranks on more than one node?
  bool multi_node() const { return ranks_per_node > 0; }

  /// Throws UsageError unless the shape is coherent (non-negative ranks
  /// per node, >= 1 NUMA domains and NICs, NUMA domains dividing the node
  /// evenly when both are set).
  void validate() const;
};

/// Placement of a concrete world of `nranks` simulated ranks onto a
/// Cluster: block assignment, rank r lives on node r / ranks_per_node
/// (matching fsim's client -> node math), in NUMA domain and on the NIC
/// derived from its in-node index.  Immutable after construction; cheap
/// to copy.
class Mapper {
 public:
  Mapper(Cluster cluster, int nranks);

  const Cluster& cluster() const { return cluster_; }
  int nranks() const { return nranks_; }
  int nodes() const { return nodes_; }
  /// Ranks actually placed on `node` (the last node may be partial).
  int ranks_on_node(int node) const;

  int node_of(int rank) const;
  /// NUMA domain of `rank` within its node.
  int numa_of(int rank) const;
  /// NIC serving `rank` within its node (rank % nics_per_node, matching
  /// the replay's client -> NIC math).
  int nic_of(int rank) const;
  /// Lowest rank on `node` — the node leader of the two-level gather.
  int node_leader(int node) const;
  /// Node leader responsible for `rank`.
  int leader_of(int rank) const { return node_leader(node_of(rank)); }

  bool same_node(int a, int b) const { return node_of(a) == node_of(b); }
  bool same_numa(int a, int b) const {
    return same_node(a, b) && numa_of(a) == numa_of(b);
  }
  /// Does the world actually span more than one node?
  bool multi_node() const { return nodes_ > 1; }

 private:
  void require_rank(int rank) const;
  void require_node(int node) const;

  Cluster cluster_;
  int nranks_ = 0;
  int nodes_ = 1;
  int ranks_per_node_ = 0;  // resolved: nranks for a flat cluster
};

/// Names of the built-in presets, read from the preset table that
/// Cluster::preset() searches.
std::vector<std::string> preset_names();

}  // namespace bitio::topo
