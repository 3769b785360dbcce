// The sanitized builds bake their default options, the suppression files
// above all, into every executable through the runtimes' weak hooks
// (__tsan_default_options, __ubsan_default_options; cmake/Sanitizers.cmake).
// Nothing in the program calls a hook, so a copy left in a static archive
// is dropped at link time and a binary run by hand gets no suppressions.
// The runtime finds the hook by dynamic lookup, where the executable's
// definition interposes the runtime's weak default; this test looks it up
// the same way and requires this repository's suppression path.
#include <dlfcn.h>
#include <gtest/gtest.h>

#include <bit>
#include <string>

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BDA_TEST_TSAN 1
#endif
#if __has_feature(address_sanitizer)
#define BDA_TEST_ASAN 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define BDA_TEST_TSAN 1
#endif
#if defined(__SANITIZE_ADDRESS__)
#define BDA_TEST_ASAN 1
#endif

namespace {

[[maybe_unused]] std::string hook_options(const char* hook) {
  using Hook = const char* (*)();
  void* sym = dlsym(RTLD_DEFAULT, hook);
  return sym ? std::bit_cast<Hook>(sym)() : "";
}

TEST(SanitizerDefaults, HookNamesRepoSuppressions) {
#if defined(BDA_TEST_TSAN)
  EXPECT_NE(hook_options("__tsan_default_options")
                .find("suppressions=" BDA_SOURCE_DIR
                      "/tools/sanitizers/tsan.supp"),
            std::string::npos);
#elif defined(BDA_TEST_ASAN)
  EXPECT_NE(hook_options("__ubsan_default_options")
                .find("suppressions=" BDA_SOURCE_DIR
                      "/tools/sanitizers/ubsan.supp"),
            std::string::npos);
#else
  GTEST_SKIP() << "not a sanitized build";
#endif
}

}  // namespace
