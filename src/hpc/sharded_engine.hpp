// Sharded cycle engine: members and LETKF domain blocks as simulated ranks.
//
// The paper's part <1> runs the 30-second cycle over thousands of nodes in
// two layouts at once: the <1-2> ensemble advance is *member-sharded* (each
// node group integrates a block of members, the ORNL ensemble-block layout)
// while the <1-1> LETKF is *domain-sharded* (each rank analyzes a tile of
// the 500-m grid, needing every member's state there).  Between the two
// steps the operational system redistributes the whole ensemble "with RAM
// copy and node-to-node network communications" instead of files — the
// paper's headline I/O change.  ShardedEngine reproduces that structure on
// hpc::CommWorld threads-as-ranks: rank r advances member block r, then the
// in-memory shuffle repartitions state member->domain, each rank analyzes
// its TileLayout window, halos are refreshed by message-passing
// exchange_halo, and the backward shuffle returns analyzed tiles (interior
// plus exchanged halo) to the member owners.
//
// Determinism contract (docs/SHARDING.md): a sharded cycle is bitwise
// identical to the serial cycle at every rank layout.
//  - Advance: rank r steps its member block on the ensemble's pool
//    EngineSet r, the same block loop scale::Ensemble::advance runs on its
//    OpenMP team; engine sets are scratch-only, so the bits do not depend
//    on the block split.  The clock is committed once after all blocks
//    finish.
//  - H(x) and prepare(): every rank assembles the identical H(x) byte table
//    (blocks concatenated in rank order) and replicates the QC/statistics
//    pass, so all ranks agree on the kept-obs set and on early returns.
//  - Analysis: Letkf::analyze_window is window-decomposition-invariant (per
//    -column weight cache, canonical obs ordering, integer tallies), and
//    exchange_halo reproduces the serial periodic halo fill bitwise (proven
//    by tests/hpc/test_domain_decomp.cpp).
//  - RNG: the engine draws no random numbers; all draws stay on the staged
//    API's calling thread (workflow/cycle.hpp discipline).
//
// Metrics (docs/SHARDING.md schema): per-rank thread-CPU timers
// "shard.advance" / "shard.analysis" and their per-cycle max-over-ranks
// "shard.advance_max" / "shard.analysis_max" (the node-exclusive TTS
// projection on an oversubscribed host), wall timer "shard.halo", and
// counter "shard.shuffle_bytes" (member<->domain bytes crossing ranks).
#pragma once

#include <memory>
#include <vector>

#include "hpc/comm.hpp"
#include "hpc/domain_decomp.hpp"
#include "letkf/letkf.hpp"
#include "letkf/obs.hpp"
#include "letkf/obsop.hpp"
#include "scale/ensemble.hpp"
#include "scale/grid.hpp"
#include "util/metrics.hpp"

namespace bda::hpc {

struct ShardConfig {
  int px = 1;  ///< domain tiles in x (ranks = px * py)
  int py = 1;  ///< domain tiles in y
};

class ShardedEngine {
 public:
  /// Borrows everything; the referents must outlive the engine.  Throws
  /// std::invalid_argument if the grid is not divisible by (px, py).
  ShardedEngine(scale::Ensemble& ens, const letkf::Letkf& letkf,
                const letkf::ObsOperator& op, const scale::Grid& grid,
                ShardConfig cfg);

  int ranks() const { return cfg_.px * cfg_.py; }
  const ShardConfig& config() const { return cfg_; }
  void set_metrics(util::Metrics* metrics) { metrics_ = metrics; }

  /// <1-2>: every rank advances its member block; the ensemble clock is
  /// committed once afterwards.  Bitwise-equal to Ensemble::advance.
  void advance_ensemble(real duration);

  /// <1-1> plus both shuffles: member->domain redistribution, windowed
  /// LETKF, halo exchange, domain->member return.  Bitwise-equal to
  /// Letkf::analyze on the same ensemble and observations.
  letkf::AnalysisStats analyze(const letkf::ObsVector& obs_in);

  /// Mailbox high-water mark (see Comm::send capacity contract).
  std::size_t peak_mailbox_depth() { return world_.peak_mailbox_depth(); }

 private:
  /// Contiguous member block of one rank: [m0, m1), empty if k < ranks.
  scale::MemberBlock block_of(int rank) const;
  int owner_of(int member) const;

  /// Rank-local analysis scratch, built lazily on first analyze(): a tile
  /// grid and one tile State per member (reused across cycles).
  struct RankScratch {
    std::unique_ptr<scale::Grid> tile_grid;
    std::vector<std::unique_ptr<scale::State>> tiles;
  };

  scale::Ensemble& ens_;
  const letkf::Letkf& letkf_;
  const letkf::ObsOperator& op_;
  const scale::Grid& grid_;
  ShardConfig cfg_;
  CommWorld world_;
  std::vector<RankScratch> scratch_;  ///< per rank
  util::Metrics* metrics_ = nullptr;
};

}  // namespace bda::hpc
