// Fixture: mutex-annotation reads headers in every source tree.
#pragma once

#include <mutex>

#define BDA_GUARDED_BY(x)

namespace fixture {

class Harness {
  std::mutex mu_;  // EXPECT: mutex-annotation
  int runs_ = 0;
};

}  // namespace fixture
