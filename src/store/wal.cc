#include "store/wal.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "common/crc32.h"

namespace privbasis::store {

namespace {

// "PBWAL" identifies the file; "001" is the format version. Bumping the
// version refuses older binaries outright rather than letting them
// misread (or worse, truncate) newer ledgers.
constexpr char kWalMagic[] = "PBWAL";
constexpr char kWalHeader[] = "PBWAL001";
constexpr size_t kWalHeaderSize = 8;
constexpr size_t kFrameHeaderSize = 8;  // u32 len + u32 crc
// Payloads are a handful of bytes plus two ≤64KiB strings; anything
// larger is garbage, not a frame.
constexpr uint32_t kMaxPayload = 1u << 20;

void PutU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutF64(std::string* out, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

/// Little-endian cursor over a payload; every Take checks bounds.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  bool TakeU8(uint8_t* v) {
    if (bytes_.size() < 1) return false;
    *v = static_cast<uint8_t>(bytes_[0]);
    bytes_.remove_prefix(1);
    return true;
  }
  bool TakeU16(uint16_t* v) {
    if (bytes_.size() < 2) return false;
    *v = static_cast<uint16_t>(static_cast<uint8_t>(bytes_[0]) |
                               (static_cast<uint8_t>(bytes_[1]) << 8));
    bytes_.remove_prefix(2);
    return true;
  }
  bool TakeU64(uint64_t* v) {
    if (bytes_.size() < 8) return false;
    uint64_t out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[i])) << (8 * i);
    }
    *v = out;
    bytes_.remove_prefix(8);
    return true;
  }
  bool TakeF64(double* v) {
    uint64_t bits;
    if (!TakeU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  bool TakeString(std::string* v) {
    uint16_t len;
    if (!TakeU16(&len) || bytes_.size() < len) return false;
    v->assign(bytes_.data(), len);
    bytes_.remove_prefix(len);
    return true;
  }
  bool empty() const { return bytes_.empty(); }

 private:
  std::string_view bytes_;
};

uint32_t ReadU32(const char* p) {
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return out;
}

struct OpenReservation {
  std::string dataset;
  double epsilon = 0.0;
  std::string label;
};

}  // namespace

Result<FsyncMode> ParseFsyncMode(const std::string& name) {
  if (name == "always") return FsyncMode::kAlways;
  if (name == "commit") return FsyncMode::kCommit;
  if (name == "never") return FsyncMode::kNever;
  return Status::InvalidArgument("unknown fsync mode '" + name +
                                 "' (want always|commit|never)");
}

std::string EncodeWalRecord(const WalRecord& record) {
  std::string out;
  out.push_back(static_cast<char>(record.type));
  PutU64(&out, record.txn);
  if (record.type == WalRecord::Type::kReserve ||
      record.type == WalRecord::Type::kCommit) {
    PutF64(&out, record.epsilon);
    PutU16(&out, static_cast<uint16_t>(record.dataset.size()));
    out += record.dataset;
    PutU16(&out, static_cast<uint16_t>(record.label.size()));
    out += record.label;
  }
  return out;
}

std::string EncodeWalFrame(std::string_view payload) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  PutU32(&out, Crc32(payload));
  out += payload;
  return out;
}

Result<WalRecord> DecodeWalRecord(std::string_view payload) {
  Reader reader(payload);
  uint8_t type;
  WalRecord record;
  if (!reader.TakeU8(&type) || !reader.TakeU64(&record.txn)) {
    return Status::InvalidArgument("WAL record too short");
  }
  switch (type) {
    case static_cast<uint8_t>(WalRecord::Type::kReserve):
    case static_cast<uint8_t>(WalRecord::Type::kCommit):
      record.type = static_cast<WalRecord::Type>(type);
      if (!reader.TakeF64(&record.epsilon) ||
          !reader.TakeString(&record.dataset) ||
          !reader.TakeString(&record.label)) {
        return Status::InvalidArgument("truncated WAL reserve/commit record");
      }
      break;
    case static_cast<uint8_t>(WalRecord::Type::kAbort):
      record.type = WalRecord::Type::kAbort;
      break;
    default:
      // A checksummed frame with an unknown type is a record from a
      // newer writer, not corruption — refusing beats dropping spend.
      return Status::FailedPrecondition(
          "unknown WAL record type " + std::to_string(type) +
          " (written by a newer version?)");
  }
  if (!reader.empty()) {
    return Status::InvalidArgument("trailing bytes in WAL record");
  }
  return record;
}

Result<std::unique_ptr<BudgetWal>> BudgetWal::Open(const std::string& path,
                                                   FsyncMode mode) {
  std::string bytes;
  if (FileExists(path)) {
    PRIVBASIS_ASSIGN_OR_RETURN(bytes, ReadFileToString(path));
  }

  WalReplay replay;
  uint64_t valid_end = kWalHeaderSize;
  bool needs_header = false;
  if (bytes.empty()) {
    needs_header = true;
  } else if (bytes.size() < kWalHeaderSize) {
    // A crash during the very first write can tear the header itself;
    // anything else at this size is not ours.
    if (std::string_view(kWalHeader).substr(0, bytes.size()) != bytes) {
      return Status::IoError("not a PrivBasis WAL: " + path);
    }
    replay.truncated_tail = true;
    needs_header = true;
  } else {
    const std::string_view header(bytes.data(), kWalHeaderSize);
    if (header.substr(0, 5) != kWalMagic) {
      return Status::IoError("not a PrivBasis WAL: " + path);
    }
    if (header != kWalHeader) {
      return Status::FailedPrecondition(
          "WAL format version mismatch in " + path + " (have " +
          std::string(header.substr(5)) + ", want " +
          std::string(kWalHeader).substr(5) + ")");
    }
  }

  // Replay: walk frames until the bytes stop parsing. Length overrun,
  // short payload and CRC mismatch are all the same event — a crash tore
  // the tail — and everything from that offset on is dropped. Only a
  // *checksummed* frame that fails to decode refuses recovery (see
  // DecodeWalRecord).
  std::unordered_map<uint64_t, OpenReservation> open;
  uint64_t max_txn = 0;
  size_t off = needs_header ? bytes.size() : kWalHeaderSize;
  while (off + kFrameHeaderSize <= bytes.size()) {
    const uint32_t len = ReadU32(bytes.data() + off);
    const uint32_t crc = ReadU32(bytes.data() + off + 4);
    if (len == 0 || len > kMaxPayload ||
        off + kFrameHeaderSize + len > bytes.size()) {
      break;
    }
    const std::string_view payload(bytes.data() + off + kFrameHeaderSize, len);
    if (Crc32(payload) != crc) break;
    PRIVBASIS_ASSIGN_OR_RETURN(WalRecord record, DecodeWalRecord(payload));
    max_txn = std::max(max_txn, record.txn);
    ++replay.frames;
    switch (record.type) {
      case WalRecord::Type::kReserve:
        open[record.txn] = OpenReservation{std::move(record.dataset),
                                           record.epsilon,
                                           std::move(record.label)};
        break;
      case WalRecord::Type::kCommit: {
        // Normally resolves an open reservation; a commit whose reserve
        // record is missing still charges its actual (never refund).
        open.erase(record.txn);
        auto& ledger = replay.ledgers[record.dataset];
        ledger.spent += record.epsilon;
        ledger.entries.push_back(
            Accountant::Entry{std::move(record.label), record.epsilon});
        break;
      }
      case WalRecord::Type::kAbort: {
        const auto it = open.find(record.txn);
        if (it != open.end()) {
          auto& ledger = replay.ledgers[it->second.dataset];
          ledger.spent += it->second.epsilon;
          ledger.entries.push_back(Accountant::Entry{
              it->second.label + " (aborted)", it->second.epsilon});
          open.erase(it);
        }
        break;
      }
    }
    off += kFrameHeaderSize + len;
  }
  if (off < bytes.size()) {
    replay.truncated_tail = true;
  }
  valid_end = needs_header ? kWalHeaderSize : off;

  // Reservations with no commit/abort were in flight at the crash:
  // noise may have been observed, so charge them in full.
  for (auto& [txn, reservation] : open) {
    (void)txn;
    auto& ledger = replay.ledgers[reservation.dataset];
    ledger.spent += reservation.epsilon;
    ledger.entries.push_back(Accountant::Entry{
        reservation.label + " (in-flight at crash)", reservation.epsilon});
    ++replay.in_flight;
  }
  replay.next_txn = max_txn + 1;

  // Make the on-disk tail match what we replayed before accepting new
  // appends — otherwise fresh frames would land after torn garbage and
  // be unreachable on the next recovery.
  if (replay.truncated_tail) {
    const off_t keep = needs_header ? 0 : static_cast<off_t>(valid_end);
    if (::truncate(path.c_str(), keep) != 0) {
      return ErrnoToStatus(errno, "truncate torn tail of " + path);
    }
  }

  PRIVBASIS_ASSIGN_OR_RETURN(AppendFile file, AppendFile::Open(path, "wal"));
  if (needs_header) {
    PRIVBASIS_RETURN_NOT_OK(file.Append(kWalHeader));
    if (mode != FsyncMode::kNever) PRIVBASIS_RETURN_NOT_OK(file.Sync());
  }

  return std::unique_ptr<BudgetWal>(
      new BudgetWal(std::move(file), mode, std::move(replay), valid_end));
}

Status BudgetWal::AppendFrame(const std::string& frame, bool is_sync_point) {
  if (poisoned_) {
    return Status::IoError(
        "WAL disabled: a failed append could not be rolled back");
  }
  Status status = file_.Append(frame);
  if (!status.ok()) {
    // Self-heal: drop whatever prefix of the frame reached the file so
    // the next append starts at a clean frame boundary.
    if (!file_.TruncateTo(good_size_).ok()) poisoned_ = true;
    return status;
  }
  good_size_ += frame.size();
  if (mode_ == FsyncMode::kAlways ||
      (mode_ == FsyncMode::kCommit && is_sync_point)) {
    PRIVBASIS_RETURN_NOT_OK(file_.Sync());
  }
  return Status::OK();
}

Result<uint64_t> BudgetWal::AppendReserve(const std::string& dataset,
                                          double epsilon,
                                          const std::string& label) {
  WalRecord record;
  record.type = WalRecord::Type::kReserve;
  record.epsilon = epsilon;
  record.dataset = dataset;
  record.label = label;
  MutexLock lock(mu_);
  record.txn = next_txn_++;
  PRIVBASIS_RETURN_NOT_OK(
      AppendFrame(EncodeWalFrame(EncodeWalRecord(record)),
                  /*is_sync_point=*/false));
  return record.txn;
}

Status BudgetWal::AppendCommit(uint64_t txn, const std::string& dataset,
                               double actual, const std::string& label) {
  WalRecord record;
  record.type = WalRecord::Type::kCommit;
  record.txn = txn;
  record.epsilon = actual;
  record.dataset = dataset;
  record.label = label;
  MutexLock lock(mu_);
  return AppendFrame(EncodeWalFrame(EncodeWalRecord(record)),
                     /*is_sync_point=*/true);
}

Status BudgetWal::AppendAbort(uint64_t txn) {
  WalRecord record;
  record.type = WalRecord::Type::kAbort;
  record.txn = txn;
  MutexLock lock(mu_);
  return AppendFrame(EncodeWalFrame(EncodeWalRecord(record)),
                     /*is_sync_point=*/true);
}

}  // namespace privbasis::store
