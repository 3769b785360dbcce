// Checkpoint / restart.
//
// The month-long deployment survived node failures and scheduled
// maintenance because the cycling state could be rebuilt (the gray periods
// of Fig 5 end with the system resuming).  A checkpoint here is the full
// prognostic state of every ensemble member plus the nature/cycle time,
// written through the BDF container with CRC protection; restart restores
// an Ensemble bit-for-bit (modulo the float fields themselves, which are
// exact).
#pragma once

#include <string>

#include "scale/ensemble.hpp"
#include "scale/state.hpp"

namespace bda::workflow {

/// Serialize one model state (all prognostic fields) to a BDF file.
void save_state(const std::string& path, const scale::State& s);

/// Restore a state saved with save_state into an existing (shape-matching)
/// State.  Throws std::runtime_error on shape mismatch or corruption.
void load_state(const std::string& path, scale::State& s);

/// Checkpoint a full ensemble (one file per member + a manifest carrying
/// the cycle time and member count) into `dir`.  Each file is replaced
/// atomically; the set as a whole is not.
void save_ensemble(const std::string& dir, const scale::Ensemble& ens);

/// Restore member states + time into an ensemble of matching size/shape.
/// Throws std::runtime_error when the manifest lacks a parseable `members`
/// or `time`, or when the sizes do not match.
void load_ensemble(const std::string& dir, scale::Ensemble& ens);

}  // namespace bda::workflow
