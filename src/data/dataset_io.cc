#include "data/dataset_io.h"

#include <cerrno>
#include <cstring>
#include <fstream>

namespace privbasis {

namespace {

Result<LoadedDataset> ParseFimi(std::istream& in, const std::string& origin) {
  TransactionDatabase::Builder builder;
  std::unordered_map<uint64_t, Item> raw_to_dense;
  std::vector<uint64_t> dense_to_raw;

  std::string line;
  size_t line_no = 0;
  std::vector<Item> txn;
  while (std::getline(in, line)) {
    ++line_no;
    txn.clear();
    const char* p = line.c_str();
    const char* end = p + line.size();
    while (p < end) {
      while (p < end && (*p == ' ' || *p == '\t' || *p == '\r')) ++p;
      if (p >= end) break;
      char* tok_end = nullptr;
      errno = 0;
      unsigned long long raw = std::strtoull(p, &tok_end, 10);
      if (tok_end == p || errno == ERANGE) {
        return Status::IoError(origin + ":" + std::to_string(line_no) +
                               ": malformed item token");
      }
      p = tok_end;
      auto [it, inserted] = raw_to_dense.try_emplace(
          raw, static_cast<Item>(dense_to_raw.size()));
      if (inserted) dense_to_raw.push_back(raw);
      txn.push_back(it->second);
    }
    if (txn.empty() && line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;  // skip fully blank lines
    }
    builder.AddTransaction(txn);
  }

  auto db = std::move(builder).Build();
  if (!db.ok()) return db.status();
  return LoadedDataset{std::move(db).value(), std::move(dense_to_raw)};
}

}  // namespace

Result<LoadedDataset> ReadFimiFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open '" + path + "': " +
                           std::strerror(errno));
  }
  return ParseFimi(in, path);
}

}  // namespace privbasis
