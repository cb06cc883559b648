// Scratch directory for tests that run the real binaries: created fresh
// under the system temp dir, removed with its contents when the guard dies.
#pragma once

#include <stdlib.h>

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace optrec {

struct TempDir {
  std::filesystem::path path;

  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "optrec-XXXXXX").string();
    EXPECT_NE(::mkdtemp(tmpl.data()), nullptr);
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

}  // namespace optrec
