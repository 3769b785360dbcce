#include "hpc/sharded_engine.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "util/binary_io.hpp"

namespace bda::hpc {

namespace {

// Tag map for the stages of one analyze() run.  All point-to-point keys are
// (source, tag), so tags only need to be unique per source within a run;
// the bases below keep every stage's tag space disjoint anyway.
constexpr int kTagHx = 1;         ///< all-to-all H(x) blocks (one per src)
constexpr int kTagFwd = 10000;    ///< member->domain state, + m*16 + field
constexpr int kTagBwd = 20000;    ///< domain->member state, + m*16 + field
constexpr int kHaloBase = 40000;  ///< exchange_halo tag_base, + m*16 + field

constexpr int kFieldsPerState = 5 + scale::kNumTracers;

RField3D& state_field(scale::State& s, int f) {
  switch (f) {
    case 0: return s.dens;
    case 1: return s.momx;
    case 2: return s.momy;
    case 3: return s.momz;
    case 4: return s.rhot;
    default: return s.rhoq[static_cast<std::size_t>(f - 5)];
  }
}

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ShardedEngine::ShardedEngine(scale::Ensemble& ens, const letkf::Letkf& letkf,
                             const letkf::ObsOperator& op,
                             const scale::Grid& grid, ShardConfig cfg)
    : ens_(ens), letkf_(letkf), op_(op), grid_(grid), cfg_(cfg),
      world_(cfg.px * cfg.py) {
  // Fail fast on an indivisible decomposition (TileLayout would throw the
  // same from inside a rank thread, much later).
  TileLayout probe(0, cfg_.px, cfg_.py, grid_.nx(), grid_.ny());
  (void)probe;
  scratch_.resize(static_cast<std::size_t>(ranks()));
}

scale::MemberBlock ShardedEngine::block_of(int rank) const {
  return scale::member_block(ens_.size(), ranks(), rank);
}

int ShardedEngine::owner_of(int member) const {
  for (int r = 0; r < ranks(); ++r) {
    const scale::MemberBlock b = block_of(r);
    if (member >= b.m0 && member < b.m1) return r;
  }
  throw std::logic_error("ShardedEngine: member outside every block");
}

void ShardedEngine::advance_ensemble(real duration) {
  const std::size_t n_ranks = static_cast<std::size_t>(ranks());
  std::vector<double> cpu(n_ranks, 0.0);
  // Only ranks below min(ranks, members) own members; each borrows the
  // ensemble's pool set of its rank number.
  ens_.reserve_engine_sets(std::min(ranks(), ens_.size()));
  world_.run([&](Comm& comm) {
    const int r = comm.rank();
    const scale::MemberBlock b = block_of(r);
    const double c0 = util::thread_cpu_seconds();
    if (b.m1 > b.m0)
      ens_.advance_block(duration, b.m0, b.m1, ens_.engine_set(r));
    cpu[static_cast<std::size_t>(r)] = util::thread_cpu_seconds() - c0;
  });
  // Exactly one clock commit, on the staged-API calling thread.
  ens_.commit_advance(duration);
  if (metrics_) {
    double mx = 0;
    for (double c : cpu) {
      metrics_->observe("shard.advance", c);
      mx = std::max(mx, c);
    }
    metrics_->observe("shard.advance_max", mx);
  }
}

letkf::AnalysisStats ShardedEngine::analyze(const letkf::ObsVector& obs_in) {
  const std::size_t k = static_cast<std::size_t>(ens_.size());
  letkf::AnalysisStats stats;
  stats.n_obs_in = obs_in.size();
  if (k < 2 || obs_in.empty()) return stats;

  const idx h = scale::Grid::kHalo;
  const std::size_t n_all = obs_in.size();
  const int n_ranks = ranks();
  const std::size_t nr = static_cast<std::size_t>(n_ranks);

  // Per-rank result slots: each rank writes only its own index, the calling
  // thread folds them in rank order after the join (which provides the
  // happens-before edge — no locking needed).
  std::vector<letkf::WindowTally> tallies(nr);
  std::vector<double> analysis_cpu(nr, 0.0), halo_wall(nr, 0.0);
  std::vector<std::size_t> moved_bytes(nr, 0);
  letkf::AnalysisStats prep_stats;  // written by rank 0 only
  bool no_obs_kept = false;         // written by rank 0 only

  world_.run([&](Comm& comm) {
    const int r = comm.rank();
    const std::size_t rs = static_cast<std::size_t>(r);
    const TileLayout layout(r, cfg_.px, cfg_.py, grid_.nx(), grid_.ny());
    const scale::MemberBlock blk = block_of(r);
    std::size_t bytes = 0;
    double cpu = 0;

    // ---- Stage 1: member-side H(x) for this rank's block.
    double c0 = util::thread_cpu_seconds();
    Buffer hx_mine;
    for (int m = blk.m0; m < blk.m1; ++m) {
      const std::vector<real> hm =
          letkf::Letkf::member_hx(ens_.member(m), obs_in, op_);
      io::append_raw(hx_mine, hm.data(), hm.size());
    }
    cpu += util::thread_cpu_seconds() - c0;

    // ---- Stage 2: all-to-all H(x).  Every rank assembles the identical
    // hx[n*k + m] table from blocks received in rank order, so the QC pass
    // below is replicated bit-for-bit.
    for (int d = 0; d < n_ranks; ++d) {
      comm.send(d, kTagHx, hx_mine);
      if (d != r) bytes += hx_mine.size();
    }
    std::vector<real> hx(n_all * k);
    for (int src = 0; src < n_ranks; ++src) {
      const Buffer b = comm.recv(src, kTagHx);
      const scale::MemberBlock sb = block_of(src);
      std::size_t pos = 0;
      std::vector<real> hm(n_all);
      for (int m = sb.m0; m < sb.m1; ++m) {
        io::take_raw(b, pos, hm.data(), n_all, "shard hx");
        for (std::size_t n = 0; n < n_all; ++n)
          hx[n * k + static_cast<std::size_t>(m)] = hm[n];
      }
    }

    // ---- Stage 3: replicated QC + obs-space statistics.
    c0 = util::thread_cpu_seconds();
    const letkf::PreparedObs prep = letkf_.prepare(obs_in, hx, k);
    cpu += util::thread_cpu_seconds() - c0;
    if (r == 0) prep_stats = prep.stats;
    if (prep.obs.empty()) {
      // Consistent on every rank (identical hx bytes): all skip together.
      if (r == 0) no_obs_kept = true;
      analysis_cpu[rs] = cpu;
      moved_bytes[rs] = bytes;
      return;
    }

    // ---- Stage 4: forward shuffle, member-sharded -> domain-sharded.
    // Owners scatter each member's tile interiors to the domain ranks.
    for (int m = blk.m0; m < blk.m1; ++m) {
      for (int d = 0; d < n_ranks; ++d) {
        const TileLayout dl(d, cfg_.px, cfg_.py, grid_.nx(), grid_.ny());
        for (int f = 0; f < kFieldsPerState; ++f) {
          Buffer buf = pack_range(state_field(ens_.member(m), f), dl.x0,
                                  dl.x0 + dl.nx, dl.y0, dl.y0 + dl.ny);
          if (d != r) bytes += buf.size();
          comm.send(d, kTagFwd + m * 16 + f, buf);
        }
      }
    }
    RankScratch& scratch = scratch_[rs];
    if (!scratch.tile_grid) {
      scratch.tile_grid = std::make_unique<scale::Grid>(
          scale::Grid::with_faces(layout.nx, layout.ny, grid_.dx(),
                                  grid_.faces()));
      for (std::size_t m = 0; m < k; ++m)
        scratch.tiles.push_back(
            std::make_unique<scale::State>(*scratch.tile_grid));
    }
    for (int m = 0; m < static_cast<int>(k); ++m) {
      const int src = owner_of(m);
      scale::State& tile = *scratch.tiles[static_cast<std::size_t>(m)];
      for (int f = 0; f < kFieldsPerState; ++f)
        unpack_range(comm.recv(src, kTagFwd + m * 16 + f),
                     state_field(tile, f), 0, layout.nx, 0, layout.ny);
    }

    // ---- Stage 5: windowed LETKF over this rank's tile.
    c0 = util::thread_cpu_seconds();
    letkf::EnsembleSlab slab;
    slab.x0 = layout.x0;
    slab.y0 = layout.y0;
    for (std::size_t m = 0; m < k; ++m)
      slab.members.push_back(scratch.tiles[m].get());
    tallies[rs] =
        letkf_.analyze_window(prep, slab, layout.x0, layout.x0 + layout.nx,
                              layout.y0, layout.y0 + layout.ny);
    cpu += util::thread_cpu_seconds() - c0;

    // ---- Stage 6: message-passing halo refresh of the analyzed tiles —
    // the distributed replacement for the serial fill_halos_periodic.
    const double w0 = wall_seconds();
    for (std::size_t m = 0; m < k; ++m)
      for (int f = 0; f < kFieldsPerState; ++f)
        exchange_halo(comm, layout, state_field(*scratch.tiles[m], f),
                      kHaloBase + static_cast<int>(m) * 16 + f);
    halo_wall[rs] = wall_seconds() - w0;

    // ---- Stage 7: backward shuffle, domain-sharded -> member-sharded.
    // Tiles travel with their exchanged halos; the owner writes interior
    // and halo alike.  Overlapping writes (a tile's halo over a neighbour
    // tile's interior, received sequentially by the single owner thread)
    // carry identical bytes by the halo-exchange equivalence, so the
    // reassembled member equals the serial post-analysis state bitwise.
    for (int m = 0; m < static_cast<int>(k); ++m) {
      const int dst = owner_of(m);
      scale::State& tile = *scratch.tiles[static_cast<std::size_t>(m)];
      for (int f = 0; f < kFieldsPerState; ++f) {
        Buffer buf = pack_range(state_field(tile, f), -h, layout.nx + h, -h,
                                layout.ny + h);
        if (dst != r) bytes += buf.size();
        comm.send(dst, kTagBwd + m * 16 + f, buf);
      }
    }
    for (int m = blk.m0; m < blk.m1; ++m) {
      for (int d = 0; d < n_ranks; ++d) {
        const TileLayout dl(d, cfg_.px, cfg_.py, grid_.nx(), grid_.ny());
        for (int f = 0; f < kFieldsPerState; ++f)
          unpack_range(comm.recv(d, kTagBwd + m * 16 + f),
                       state_field(ens_.member(m), f), dl.x0 - h,
                       dl.x0 + dl.nx + h, dl.y0 - h, dl.y0 + dl.ny + h);
      }
    }

    analysis_cpu[rs] = cpu;
    moved_bytes[rs] = bytes;
  });

  // ---- Fold per-rank results in rank order (all integers: exact).
  stats = prep_stats;
  if (no_obs_kept) return stats;
  letkf::WindowTally total;
  std::size_t shuffle_bytes = 0;
  for (std::size_t r = 0; r < nr; ++r) {
    total.grid_updated += tallies[r].grid_updated;
    total.local_obs += tallies[r].local_obs;
    total.eig_fail += tallies[r].eig_fail;
    total.cache_hits += tallies[r].cache_hits;
    total.weight_solves += tallies[r].weight_solves;
    total.eig_batches += tallies[r].eig_batches;
    shuffle_bytes += moved_bytes[r];
  }
  // The shard totals equal the serial tally exactly (per-column cache,
  // integer sums), so the serial recorder reports them.
  letkf::record_tally(total, stats, metrics_);

  if (metrics_) {
    metrics_->count("shard.shuffle_bytes", shuffle_bytes);
    double mx_cpu = 0;
    for (std::size_t r = 0; r < nr; ++r) {
      metrics_->observe("shard.analysis", analysis_cpu[r]);
      metrics_->observe("shard.halo", halo_wall[r]);
      mx_cpu = std::max(mx_cpu, analysis_cpu[r]);
    }
    metrics_->observe("shard.analysis_max", mx_cpu);
  }
  return stats;
}

}  // namespace bda::hpc
