// Shard wire protocol: length-prefixed binary frames between the
// coordinator (privbasis_server --shard-workers) and shard worker
// processes (privbasis_shardd), over common/net TCP.
//
// Frame layout (all integers little-endian):
//
//   magic   u32  'PBSH'
//   version u8   kWireVersion
//   type    u8   FrameType
//   pad     u16  0
//   len     u32  payload byte count (≤ kMaxPayloadBytes)
//   crc     u32  CRC-32 of the payload (common/crc32.h)
//   payload len bytes
//
// Counting requests carry the dataset id and a deadline_ms (0 = none);
// the worker arms a CancelToken::AfterMs from it, which is how the
// coordinator's per-query deadline propagates to every shard scan.
// Responses are kOk with an op-specific payload of exact integer
// counts, or kError carrying (StatusCode, message) — the coordinator
// resurfaces that status verbatim, so a worker-side kCancelled stays a
// 408 and a dead worker becomes kUnavailable (fail closed: the engine's
// aborted lease then charges the full ε reservation).
#ifndef PRIVBASIS_SHARD_WIRE_H_
#define PRIVBASIS_SHARD_WIRE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/net.h"
#include "common/status.h"
#include "core/basis.h"
#include "data/itemset.h"
#include "data/transaction_db.h"

namespace privbasis::shardwire {

inline constexpr uint32_t kMagic = 0x48534250;  // "PBSH" little-endian
inline constexpr uint8_t kWireVersion = 1;
/// Shard slices dominate payload size; 1 GiB bounds a hostile length
/// field without constraining any realistic dataset.
inline constexpr size_t kMaxPayloadBytes = size_t{1} << 30;

enum class FrameType : uint8_t {
  // Requests.
  kPing = 1,
  kLoadShard = 2,
  kDropShard = 3,
  kItemSupports = 4,
  kPairSupports = 5,
  kBasisBins = 6,
  kSupportOfMany = 7,
  // Responses.
  kOk = 32,
  kError = 33,
};

struct Frame {
  FrameType type;
  std::string payload;
};

/// Writes one frame before `deadline`.
Status WriteFrame(const net::Fd& fd, FrameType type,
                  std::string_view payload, net::Deadline deadline);

/// Reads one frame before `deadline`. Orderly EOF before the first
/// header byte returns kNotFound("peer closed") so server loops can
/// tell a clean disconnect from a torn frame (kIoError) or a corrupt
/// one (kInvalidArgument on bad magic/version/crc).
Result<Frame> ReadFrame(const net::Fd& fd, net::Deadline deadline);

/// Append-only payload encoder.
class Writer {
 public:
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  /// u32 length + raw bytes.
  void PutString(std::string_view s);
  /// u32 count + u32 elements.
  void PutU32Vec(std::span<const uint32_t> v);
  /// u32 count + u64 elements.
  void PutU64Vec(const std::vector<uint64_t>& v);

  std::string Take() && { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked payload decoder: every getter fails with
/// kInvalidArgument on truncation instead of reading past the end.
class Reader {
 public:
  explicit Reader(std::string_view payload) : data_(payload) {}

  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<std::string> GetString();
  Result<std::vector<uint32_t>> GetU32Vec();
  Result<std::vector<uint64_t>> GetU64Vec();

  /// Fails unless the whole payload was consumed (strictness mirrors
  /// the JSON wire layer's unknown-key rejection).
  Status ExpectEnd() const;

 private:
  Status Need(size_t bytes) const;

  std::string_view data_;
  size_t pos_ = 0;
};

// --- op payload codecs --------------------------------------------------

/// CSR-serializes a shard slice (universe, offsets, items).
std::string EncodeDatabase(const TransactionDatabase& db);
Result<TransactionDatabase> DecodeDatabase(std::string_view payload);

std::string EncodeBasisSet(const BasisSet& basis_set);
Result<BasisSet> DecodeBasisSet(Reader& reader);

std::string EncodeItemsets(std::span<const Itemset> sets);
Result<std::vector<Itemset>> DecodeItemsets(Reader& reader);

/// Nested u64 vectors (the BasisBins response): u32 count + vectors.
std::string EncodeU64Vecs(const std::vector<std::vector<uint64_t>>& vecs);
Result<std::vector<std::vector<uint64_t>>> DecodeU64Vecs(
    std::string_view payload);

/// kError payload: u32 StatusCode + message.
std::string EncodeError(const Status& status);
Status DecodeError(std::string_view payload);

}  // namespace privbasis::shardwire

#endif  // PRIVBASIS_SHARD_WIRE_H_
