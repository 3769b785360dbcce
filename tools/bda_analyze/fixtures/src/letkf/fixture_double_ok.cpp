// bda-style: double-ok fixture: once-per-cycle statistics stay in double
// The file-level opt-out above covers every literal below: no finding.

namespace fixture {

float spread(float var) { return var * 0.25 + 1e-6; }

}  // namespace fixture
