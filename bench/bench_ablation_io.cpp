// Ablation: file I/O vs the in-memory exchange (SCALE <-> LETKF).
//
// Sec. 5: "the data transfer between SCALE and the LETKF was accelerated by
// replacing the original file I/O with parallel I/O using the MPI data
// transfer with RAM copy and node-to-node network communications without
// using files."  Both paths hand one member's prognostic state from a
// producer to a consumer State:
//   - file:   the conventional handoff, write_bdf + read_bdf through a
//             temp file;
//   - memory: the live path of hpc::ShardedEngine's shuffle, pack_range ->
//             Comm::send / Comm::recv across a 2-rank CommWorld ->
//             unpack_range.
// google-benchmark reports the gap.  The projected paper-scale payload per
// cycle (1000 members x full state) is printed on exit.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "hpc/comm.hpp"
#include "hpc/domain_decomp.hpp"
#include "scale/grid.hpp"
#include "scale/reference.hpp"
#include "scale/state.hpp"
#include "util/binary_io.hpp"

namespace {

using namespace bda;

constexpr int kFields = 5 + scale::kNumTracers;

RField3D& field(scale::State& s, int f) {
  switch (f) {
    case 0: return s.dens;
    case 1: return s.momx;
    case 2: return s.momy;
    case 3: return s.momz;
    case 4: return s.rhot;
    default: return s.rhoq[static_cast<std::size_t>(f - 5)];
  }
}

// One member's prognostic state at a scaled grid.
struct Member {
  scale::Grid grid{32, 32, 24, 500.0f, 12000.0f};
  scale::State state{grid};
  Member() {
    state.init_from_reference(
        grid, scale::ReferenceState::build(grid, scale::convective_sounding()));
  }
};

void BM_FileHandoff(benchmark::State& bstate) {
  Member src, dst;
  const auto path =
      (std::filesystem::temp_directory_path() / "bda_bench_io_member.bdf")
          .string();
  std::size_t bytes = 0;
  for (auto _ : bstate) {
    std::vector<FieldRecord> recs;
    for (int f = 0; f < kFields; ++f) {
      const RField3D& in = field(src.state, f);
      Field3D<float> out(in.nx(), in.ny(), in.nz(), 0);
      for (idx i = 0; i < in.nx(); ++i)
        for (idx j = 0; j < in.ny(); ++j)
          for (idx k = 0; k < in.nz(); ++k) out(i, j, k) = in(i, j, k);
      recs.push_back({std::to_string(f), std::move(out)});
    }
    write_bdf(path, recs);
    bytes += std::filesystem::file_size(path);
    const auto back = read_bdf(path);
    for (int f = 0; f < kFields; ++f) {
      const Field3D<float>& in = back[static_cast<std::size_t>(f)].data;
      RField3D& out = field(dst.state, f);
      for (idx i = 0; i < in.nx(); ++i)
        for (idx j = 0; j < in.ny(); ++j)
          for (idx k = 0; k < in.nz(); ++k) out(i, j, k) = in(i, j, k);
    }
    benchmark::DoNotOptimize(dst.state.dens.raw().data());
    benchmark::ClobberMemory();
  }
  bstate.SetBytesProcessed(int64_t(bytes));
  std::filesystem::remove(path);
}
BENCHMARK(BM_FileHandoff)->Unit(benchmark::kMillisecond);

void BM_MemoryHandoff(benchmark::State& bstate) {
  // One world for the whole run, as ShardedEngine keeps one per engine.
  // Rank 0 (SCALE side) drives the timing loop; rank 1 (LETKF side)
  // unpacks each member and acknowledges it, so an iteration ends only
  // once the consumer holds the state.
  constexpr int kTagField = 0, kTagAck = 100, kTagNext = 101;
  Member src, dst;
  const idx nx = src.grid.nx(), ny = src.grid.ny();
  std::size_t bytes = 0;
  hpc::CommWorld world(2);
  world.run([&](hpc::Comm& comm) {
    if (comm.rank() == 0) {
      for (auto _ : bstate) {
        comm.send(1, kTagNext, {1});  // another member follows
        for (int f = 0; f < kFields; ++f) {
          const hpc::Buffer buf =
              hpc::pack_range(field(src.state, f), 0, nx, 0, ny);
          bytes += buf.size();
          comm.send(1, kTagField + f, buf);
        }
        (void)comm.recv(1, kTagAck);
      }
      comm.send(1, kTagNext, {0});
      return;
    }
    while (comm.recv(0, kTagNext)[0] == 1) {
      for (int f = 0; f < kFields; ++f)
        hpc::unpack_range(comm.recv(0, kTagField + f), field(dst.state, f), 0,
                          nx, 0, ny);
      benchmark::DoNotOptimize(dst.state.dens.raw().data());
      benchmark::ClobberMemory();
      comm.send(0, kTagAck, {});
    }
  });
  bstate.SetBytesProcessed(int64_t(bytes));
}
BENCHMARK(BM_MemoryHandoff)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  // Paper-scale payload the exchange must sustain every 30 s.
  const double member_mb =
      double(256ull * 256 * 60 * (5 + 6)) * 4.0 / 1.0e6;
  std::printf("\npaper-scale payload: %.0f MB/member x 1000 members = %.1f "
              "GB per 30-s cycle each way — why the file path had to go.\n",
              member_mb, member_mb);
  return 0;
}
