// Copyright 2026 The ccr Authors.
//
// Shared temp-path helpers for benches, tests, and harnesses. Every
// scratch file the repo writes honors TMPDIR (sandboxed runners point it
// off /tmp); this is the one place the env-var fallback lives, including
// the empty-string case (`TMPDIR=` must mean "unset", not "cwd-relative
// paths").

#ifndef CCR_COMMON_TEMP_PATH_H_
#define CCR_COMMON_TEMP_PATH_H_

#include <string>
#include <string_view>

namespace ccr {

// $TMPDIR if set and non-empty, else "/tmp". No trailing slash is added.
std::string TempDirRoot();

// Creates a fresh directory `TempDirRoot()/<prefix>XXXXXX` via mkdtemp and
// returns its path; empty string on failure. The caller owns cleanup.
std::string MakeTempDir(std::string_view prefix);

// A MakeTempDir directory that is removed, with everything in it, when the
// TempDir goes out of scope. Aborts if the directory cannot be created.
class TempDir {
 public:
  explicit TempDir(std::string_view prefix = "ccr_");
  ~TempDir();

  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace ccr

#endif  // CCR_COMMON_TEMP_PATH_H_
