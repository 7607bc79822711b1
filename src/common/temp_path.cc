// Copyright 2026 The ccr Authors.

#include "common/temp_path.h"

#include <cstdlib>
#include <filesystem>
#include <system_error>
#include <vector>

#include "common/macros.h"

#ifndef _WIN32
#include <unistd.h>
#endif

namespace ccr {

std::string TempDirRoot() {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr && *dir != '\0' ? dir : "/tmp");
}

std::string MakeTempDir(std::string_view prefix) {
  std::string templ = TempDirRoot();
  templ += "/";
  templ += prefix;
  templ += "XXXXXX";
  std::vector<char> buf(templ.begin(), templ.end());
  buf.push_back('\0');
#ifndef _WIN32
  if (::mkdtemp(buf.data()) != nullptr) return std::string(buf.data());
#endif
  return std::string();
}

TempDir::TempDir(std::string_view prefix) : path_(MakeTempDir(prefix)) {
  CCR_CHECK_MSG(!path_.empty(), "cannot create a temp dir under %s",
                TempDirRoot().c_str());
}

TempDir::~TempDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

}  // namespace ccr
