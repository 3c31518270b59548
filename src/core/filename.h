#ifndef LSMLAB_CORE_FILENAME_H_
#define LSMLAB_CORE_FILENAME_H_

#include <cstdint>
#include <string>

namespace lsmlab {

enum class FileType {
  kTableFile,
  kWalFile,
  kManifestFile,
  kCurrentFile,
  kTempFile,
  kUnknown,
};

std::string TableFileName(const std::string& dbname, uint64_t number);
std::string WalFileName(const std::string& dbname, uint64_t number);
std::string ManifestFileName(const std::string& dbname, uint64_t number);
std::string CurrentFileName(const std::string& dbname);
/// A file written whole and then renamed into place (the next CURRENT).
std::string TempFileName(const std::string& dbname, uint64_t number);

/// Parses a directory entry name; returns false for foreign files.
bool ParseFileName(const std::string& filename, uint64_t* number,
                   FileType* type);

}  // namespace lsmlab

#endif  // LSMLAB_CORE_FILENAME_H_
