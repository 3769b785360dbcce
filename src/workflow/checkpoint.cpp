#include "workflow/checkpoint.hpp"

#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "util/binary_io.hpp"

namespace bda::workflow {

namespace {

using scale::State;

Field3D<float> to_plain(const RField3D& f, idx nlev) {
  Field3D<float> out(f.nx(), f.ny(), nlev, 0);
  for (idx i = 0; i < f.nx(); ++i)
    for (idx j = 0; j < f.ny(); ++j)
      for (idx k = 0; k < nlev; ++k) out(i, j, k) = f(i, j, k);
  return out;
}

void from_plain(const Field3D<float>& in, RField3D& f, idx nlev) {
  if (in.nx() != f.nx() || in.ny() != f.ny() || in.nz() != nlev)
    throw std::runtime_error("checkpoint: field shape mismatch");
  for (idx i = 0; i < in.nx(); ++i)
    for (idx j = 0; j < in.ny(); ++j)
      for (idx k = 0; k < nlev; ++k) f(i, j, k) = in(i, j, k);
}

}  // namespace

void save_state(const std::string& path, const State& s) {
  std::vector<FieldRecord> recs;
  recs.push_back({"dens", to_plain(s.dens, s.nz)});
  recs.push_back({"momx", to_plain(s.momx, s.nz)});
  recs.push_back({"momy", to_plain(s.momy, s.nz)});
  recs.push_back({"momz", to_plain(s.momz, s.nz + 1)});
  recs.push_back({"rhot", to_plain(s.rhot, s.nz)});
  for (int t = 0; t < scale::kNumTracers; ++t)
    recs.push_back({scale::tracer_name(t), to_plain(s.rhoq[t], s.nz)});
  write_bdf(path, recs);
}

void load_state(const std::string& path, State& s) {
  const auto recs = read_bdf(path);
  if (recs.size() != 5 + scale::kNumTracers)
    throw std::runtime_error("checkpoint: unexpected record count in " +
                             path);
  auto find = [&](const std::string& name) -> const FieldRecord& {
    for (const auto& r : recs)
      if (r.name == name) return r;
    throw std::runtime_error("checkpoint: missing field " + name);
  };
  from_plain(find("dens").data, s.dens, s.nz);
  from_plain(find("momx").data, s.momx, s.nz);
  from_plain(find("momy").data, s.momy, s.nz);
  from_plain(find("momz").data, s.momz, s.nz + 1);
  from_plain(find("rhot").data, s.rhot, s.nz);
  for (int t = 0; t < scale::kNumTracers; ++t)
    from_plain(find(scale::tracer_name(t)).data, s.rhoq[t], s.nz);
  s.fill_halos_periodic();
}

void save_ensemble(const std::string& dir, const scale::Ensemble& ens) {
  std::filesystem::create_directories(dir);
  for (int m = 0; m < ens.size(); ++m)
    save_state(dir + "/member_" + std::to_string(m) + ".bdf", ens.member(m));
  std::ostringstream manifest;
  manifest << "members = " << ens.size() << "\n";
  // Full round-trip precision: at the default 6 significant digits a
  // month-long run's clock (1.00003e+06 s by day 12) reloads wrong.
  manifest << std::setprecision(std::numeric_limits<double>::max_digits10)
           << "time = " << ens.time() << "\n";
  const std::string text = manifest.str();
  io::write_file_atomic(dir + "/manifest.txt",
                        std::vector<std::uint8_t>(text.begin(), text.end()),
                        "checkpoint");
}

void load_ensemble(const std::string& dir, scale::Ensemble& ens) {
  std::ifstream manifest(dir + "/manifest.txt");
  if (!manifest)
    throw std::runtime_error("checkpoint: no manifest in " + dir);
  // Both keys are required: a manifest cut off after `members` must not
  // load as a checkpoint taken at t = 0.  A value that does not parse
  // fails the stream and ends the scan with its key still unset.
  std::string key, eq;
  int members = 0;
  double time = 0;
  bool have_members = false, have_time = false;
  while (manifest >> key >> eq) {
    if (key == "members")
      have_members = static_cast<bool>(manifest >> members);
    else if (key == "time")
      have_time = static_cast<bool>(manifest >> time);
  }
  if (!have_members || !have_time)
    throw std::runtime_error("checkpoint: manifest in " + dir +
                             " lacks a valid '" +
                             (have_members ? "time" : "members") + "' entry");
  if (members != ens.size())
    throw std::runtime_error("checkpoint: ensemble size mismatch (" +
                             std::to_string(members) + " vs " +
                             std::to_string(ens.size()) + ")");
  for (int m = 0; m < ens.size(); ++m)
    load_state(dir + "/member_" + std::to_string(m) + ".bdf", ens.member(m));
  ens.set_time(time);
}

}  // namespace bda::workflow
