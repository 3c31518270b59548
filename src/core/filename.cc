#include "core/filename.h"

#include <cstdio>

namespace lsmlab {

namespace {

std::string MakeFileName(const std::string& dbname, uint64_t number,
                         const char* suffix) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "/%06llu.%s",
                static_cast<unsigned long long>(number), suffix);
  return dbname + buf;
}

}  // namespace

std::string TableFileName(const std::string& dbname, uint64_t number) {
  return MakeFileName(dbname, number, "sst");
}

std::string WalFileName(const std::string& dbname, uint64_t number) {
  return MakeFileName(dbname, number, "wal");
}

std::string ManifestFileName(const std::string& dbname, uint64_t number) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "/MANIFEST-%06llu",
                static_cast<unsigned long long>(number));
  return dbname + buf;
}

std::string CurrentFileName(const std::string& dbname) {
  return dbname + "/CURRENT";
}

std::string TempFileName(const std::string& dbname, uint64_t number) {
  return MakeFileName(dbname, number, "dbtmp");
}

bool ParseFileName(const std::string& filename, uint64_t* number,
                   FileType* type) {
  if (filename == "CURRENT") {
    *number = 0;
    *type = FileType::kCurrentFile;
    return true;
  }
  if (filename.rfind("MANIFEST-", 0) == 0) {
    char* end;
    *number = strtoull(filename.c_str() + 9, &end, 10);
    if (*end != '\0') {
      return false;
    }
    *type = FileType::kManifestFile;
    return true;
  }
  const size_t dot = filename.find('.');
  if (dot == std::string::npos) {
    return false;
  }
  const std::string num_part = filename.substr(0, dot);
  char* end;
  *number = strtoull(num_part.c_str(), &end, 10);
  if (end != num_part.c_str() + num_part.size() || num_part.empty()) {
    return false;
  }
  const std::string suffix = filename.substr(dot + 1);
  if (suffix == "sst") {
    *type = FileType::kTableFile;
  } else if (suffix == "wal") {
    *type = FileType::kWalFile;
  } else if (suffix == "dbtmp") {
    *type = FileType::kTempFile;
  } else {
    *type = FileType::kUnknown;
    return false;
  }
  return true;
}

}  // namespace lsmlab
