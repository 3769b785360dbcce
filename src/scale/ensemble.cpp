#include "scale/ensemble.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include <omp.h>

namespace bda::scale {

RField2D smooth_noise(idx nx, idx ny, idx coarsen, Rng& rng) {
  const idx cnx = std::max<idx>(nx / coarsen + 2, 2);
  const idx cny = std::max<idx>(ny / coarsen + 2, 2);
  RField2D coarse(cnx, cny, 0);
  for (idx i = 0; i < cnx; ++i)
    for (idx j = 0; j < cny; ++j) coarse(i, j) = real(rng.normal());
  RField2D out(nx, ny, 0);
  for (idx i = 0; i < nx; ++i)
    for (idx j = 0; j < ny; ++j) {
      const real gx = real(i) / real(coarsen);
      const real gy = real(j) / real(coarsen);
      idx i0 = static_cast<idx>(gx);
      idx j0 = static_cast<idx>(gy);
      i0 = std::min(i0, cnx - 2);
      j0 = std::min(j0, cny - 2);
      const real fx = gx - real(i0);
      const real fy = gy - real(j0);
      out(i, j) =
          (coarse(i0, j0) * (1 - fx) + coarse(i0 + 1, j0) * fx) * (1 - fy) +
          (coarse(i0, j0 + 1) * (1 - fx) + coarse(i0 + 1, j0 + 1) * fx) * fy;
    }
  return out;
}

Ensemble::Ensemble(const Grid& grid, const Sounding& sounding,
                   ModelConfig cfg, int n_members)
    : grid_(grid), ref_(ReferenceState::build(grid_, sounding)), cfg_(cfg) {
  members_.reserve(static_cast<std::size_t>(n_members));
  for (int m = 0; m < n_members; ++m) {
    members_.emplace_back(grid_);
    members_.back().init_from_reference(grid_, ref_);
    members_.back().fill_halos_periodic();
    micro_.push_back(std::make_unique<Microphysics>(grid_, cfg.micro));
    pbl_.push_back(std::make_unique<BoundaryLayer>(grid_, cfg.pbl));
  }
}

void Ensemble::perturb(const PerturbationSpec& spec, Rng& rng) {
  for (auto& s : members_) {
    // One smooth noise pattern per variable per member; vertical weight
    // tapers to zero at spec.zmax.
    const RField2D nth = smooth_noise(s.nx, s.ny, spec.coarsen, rng);
    const RField2D nqv = smooth_noise(s.nx, s.ny, spec.coarsen, rng);
    const RField2D nu = smooth_noise(s.nx, s.ny, spec.coarsen, rng);
    const RField2D nv = smooth_noise(s.nx, s.ny, spec.coarsen, rng);
    for (idx i = 0; i < s.nx; ++i)
      for (idx j = 0; j < s.ny; ++j)
        for (idx k = 0; k < s.nz; ++k) {
          const real z = grid_.zc(k);
          if (z > spec.zmax) break;
          const real wz = real(1) - z / spec.zmax;
          const real dens = s.dens(i, j, k);
          s.rhot(i, j, k) += dens * spec.theta_amp * wz * nth(i, j);
          const real dq = s.rhoq[QV](i, j, k) * spec.qv_frac * wz * nqv(i, j);
          s.rhoq[QV](i, j, k) += dq;
          s.dens(i, j, k) += dq;
          s.momx(i, j, k) += dens * spec.wind_amp * wz * nu(i, j);
          s.momy(i, j, k) += dens * spec.wind_amp * wz * nv(i, j);
        }
    s.fill_halos_periodic();
  }
}

MemberBlock member_block(int members, int parts, int part) {
  const int base = members / parts, rem = members % parts;
  const int m0 = part * base + std::min(part, rem);
  return {m0, m0 + base + (part < rem ? 1 : 0)};
}

void Ensemble::advance_block(real duration, int m0, int m1,
                             EngineSet& eng) {
  const long nsteps =
      static_cast<long>(std::floor(duration / cfg_.dt + 0.5f));
  // Local clock copies: every member block replays the same step sequence;
  // advance() moves the shared clock once all blocks are done.
  double t = time_;
  long sc = step_count_;
  const State* rim = bdy_driver_ ? eng.bdy_state.get() : nullptr;
  for (long n = 0; n < nsteps; ++n) {
    if (rim) bdy_driver_->fill(t, *eng.bdy_state);
    for (std::size_t m = static_cast<std::size_t>(m0);
         m < static_cast<std::size_t>(m1); ++m)
      step_model(cfg_, {eng.dyn, *micro_[m], eng.turb, *pbl_[m], eng.sfc,
                        eng.rad},
                 members_[m], sc, t, rim, bdy_width_, bdy_tau_);
    t += double(cfg_.dt);
    ++sc;
  }
}

void Ensemble::advance(real duration) {
  const int k = size();
  const int team =
      omp_in_parallel() ? 1 : std::clamp(omp_get_max_threads(), 1,
                                         std::max(k, 1));
  // The pool is this call's team: one set per block, each with a rim
  // scratch when a boundary driver is attached.
  pool_.resize(static_cast<std::size_t>(team));
  for (auto& eng : pool_) {
    if (!eng) eng = std::make_unique<EngineSet>(grid_, ref_, cfg_);
    if (bdy_driver_ && !eng->bdy_state)
      eng->bdy_state = std::make_unique<State>(grid_);
  }
  std::vector<double> cpu(static_cast<std::size_t>(team), 0.0);
  if (team == 1) {
    const double c0 = util::thread_cpu_seconds();
    advance_block(duration, 0, k, *pool_[0]);
    cpu[0] = util::thread_cpu_seconds() - c0;
  } else {
    // Each block counts itself in after its last write: the atomic adds and
    // the load after the join are the edge TSan can see (libgomp's barrier
    // is invisible to it, docs/ANALYSIS.md), and the count is the number
    // of blocks.
    std::atomic<int> blocks{0};
#pragma omp parallel num_threads(team)
    {
      // Members are the parallel unit here: the kernels' own column loops
      // get one-thread teams whatever max-active-levels allows.
      omp_set_num_threads(1);
      const int t = omp_get_thread_num();
      const std::size_t ts = static_cast<std::size_t>(t);
      const MemberBlock b = member_block(k, omp_get_num_threads(), t);
      const double c0 = util::thread_cpu_seconds();
      advance_block(duration, b.m0, b.m1, *pool_[ts]);
      cpu[ts] = util::thread_cpu_seconds() - c0;
      blocks.fetch_add(1);
    }
    cpu.resize(static_cast<std::size_t>(blocks.load()));
  }

  const long nsteps =
      static_cast<long>(std::floor(duration / cfg_.dt + 0.5f));
  // Same accumulation as the per-step loop (repeated adds, not one fused
  // multiply-add) so the clock stays bitwise on the historical trajectory.
  for (long n = 0; n < nsteps; ++n) time_ += double(cfg_.dt);
  step_count_ += nsteps;

  if (metrics_) {
    for (double c : cpu) metrics_->observe("scale.advance_block", c);
    metrics_->observe("scale.advance_block_max",
                      *std::max_element(cpu.begin(), cpu.end()));
  }
}

State Ensemble::mean() const {
  State m(grid_);
  m.fill_halos_periodic();
  const real w = real(1) / real(members_.size());
  auto acc = [&](RField3D& dst, const RField3D& src) {
    auto d = dst.raw();
    auto s = src.raw();
    for (std::size_t n = 0; n < d.size(); ++n) d[n] += w * s[n];
  };
  // Zero, then accumulate.
  m.dens.fill(0);
  m.momx.fill(0);
  m.momy.fill(0);
  m.momz.fill(0);
  m.rhot.fill(0);
  for (auto& q : m.rhoq) q.fill(0);
  for (const auto& s : members_) {
    acc(m.dens, s.dens);
    acc(m.momx, s.momx);
    acc(m.momy, s.momy);
    acc(m.momz, s.momz);
    acc(m.rhot, s.rhot);
    for (int t = 0; t < kNumTracers; ++t) acc(m.rhoq[t], s.rhoq[t]);
  }
  return m;
}

void Ensemble::set_boundary(const BoundaryDriver* driver, idx width,
                            real tau) {
  bdy_driver_ = driver;
  bdy_width_ = width;
  bdy_tau_ = tau;
}

}  // namespace bda::scale
