// Reading transaction data in the FIMI repository format used by
// the paper's datasets (http://fimi.ua.ac.be/data/): one transaction per
// line, space-separated integer item ids.
#ifndef PRIVBASIS_DATA_DATASET_IO_H_
#define PRIVBASIS_DATA_DATASET_IO_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "data/transaction_db.h"

namespace privbasis {

/// A loaded dataset together with the raw-id <-> dense-id mapping.
struct LoadedDataset {
  TransactionDatabase db;
  /// dense id -> original id from the file.
  std::vector<uint64_t> dense_to_raw;
};

/// Parses a FIMI-format file. Raw ids are remapped to dense ids in first-
/// appearance order. Blank lines are skipped; malformed tokens fail.
Result<LoadedDataset> ReadFimiFile(const std::string& path);

}  // namespace privbasis

#endif  // PRIVBASIS_DATA_DATASET_IO_H_
